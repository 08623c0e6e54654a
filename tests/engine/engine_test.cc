// Multi-tenant equivalence suite for the engine layer.
//
// The contract under test: N tenants multiplexed through one EngineHost
// (shared thread pool, shared registry, interleaved ingest) produce
// per-tenant event streams BIT-IDENTICAL to N standalone single-tenant
// engines, at any shard count — plus tenant isolation (one tenant's
// garbage never moves another's counters) and per-tenant metrics
// reconciliation on the shared registry.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/learn.h"
#include "engine/host.h"
#include "net/config_parser.h"
#include "obs/registry.h"
#include "sim/generator.h"

namespace sld::engine {
namespace {

// One tenant's world: its own topology seed, learned KB, and live day.
struct Tenant {
  explicit Tenant(std::uint64_t seed) {
    sim::DatasetSpec spec = sim::DatasetASpec();
    spec.topo.num_routers = 6;
    history = sim::GenerateDataset(spec, 0, 4, seed);
    live = sim::GenerateDataset(spec, 4, 1, seed + 1);
    std::vector<net::ParsedConfig> parsed;
    for (const std::string& cfg : history.configs) {
      parsed.push_back(net::ParseConfig(cfg));
    }
    dict = core::LocationDict::Build(parsed);
    core::OfflineLearner learner;
    kb = learner.Learn(history.messages, dict);
  }

  sim::Dataset history;
  sim::Dataset live;
  core::LocationDict dict;
  core::KnowledgeBase kb;
};

// Tenant fixtures are expensive (offline learning); share across tests.
Tenant& SharedTenant(std::size_t i) {
  static Tenant tenants[4] = {Tenant(601), Tenant(611), Tenant(621),
                              Tenant(631)};
  return tenants[i % 4];
}

// KnowledgeBase is move-only; engines may grow catch-all templates, so
// every run gets a private clone via the same serialize round-trip the
// CLI's learn -> digest handoff uses.
core::KnowledgeBase CloneKb(const core::KnowledgeBase& kb) {
  return core::KnowledgeBase::Deserialize(kb.Serialize());
}

// Reference run: one standalone engine, pumped after every record — the
// dedicated single-tenant process shape.  Returns formatted events in
// close order.
std::vector<std::string> RunStandalone(Tenant& t, std::size_t shards) {
  core::KnowledgeBase kb = CloneKb(t.kb);
  EngineOptions opts;
  opts.shards = shards;
  Engine eng(&kb, &t.dict, opts);
  std::vector<std::string> events;
  eng.SetEventSink([&events](const core::DigestEvent& ev) {
    events.push_back(ev.Format());
  });
  for (const auto& rec : t.live.messages) {
    eng.IngestRecord(rec);
    eng.Pump();
  }
  eng.Finish();
  return events;
}

// Per-tenant totals of one series name from a shared-registry snapshot.
std::map<std::string, std::int64_t> TenantTotals(
    const obs::MetricsSnapshot& snap, const std::string& name) {
  std::map<std::string, std::int64_t> out;
  for (const auto& s : snap.series) {
    if (s.name != name) continue;
    std::string tenant;
    for (const auto& [k, v] : s.labels) {
      if (k == "tenant") tenant = v;
    }
    out[tenant] += s.ivalue;
  }
  return out;
}

class MultiTenantTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

// N tenants in one host, ingest interleaved round-robin, pumped in
// parallel on the shared pool: every tenant's event stream must equal
// its standalone run byte for byte, and the shared registry must carry
// a reconciling per-tenant accounting.
TEST_P(MultiTenantTest, BitIdenticalToStandalone) {
  const auto [tenant_count, shards] = GetParam();
  obs::Registry root;
  HostOptions host_opts;
  host_opts.pool_threads = 3;
  host_opts.metrics = &root;
  EngineHost host(host_opts);

  std::vector<std::unique_ptr<core::KnowledgeBase>> kbs;
  std::vector<std::vector<std::string>> events(tenant_count);
  for (std::size_t i = 0; i < tenant_count; ++i) {
    Tenant& t = SharedTenant(i);
    kbs.push_back(std::make_unique<core::KnowledgeBase>(CloneKb(t.kb)));
    EngineOptions opts;
    opts.tenant = "t" + std::to_string(i);
    opts.shards = shards;
    opts.metrics = &root;
    Engine* eng = host.AddEngine(
        std::make_unique<Engine>(kbs.back().get(), &t.dict, opts));
    eng->SetEventSink([&events, i](const core::DigestEvent& ev) {
      events[i].push_back(ev.Format());
    });
  }

  // Interleave: one record per tenant per round, pumping all tenants on
  // the pool every few rounds (drain batching must not matter).
  std::vector<std::size_t> next(tenant_count, 0);
  bool remaining = true;
  std::size_t round = 0;
  while (remaining) {
    remaining = false;
    for (std::size_t i = 0; i < tenant_count; ++i) {
      const auto& msgs = SharedTenant(i).live.messages;
      if (next[i] < msgs.size()) {
        host.engine(i)->IngestRecord(msgs[next[i]++]);
        remaining = true;
      }
    }
    if (++round % 7 == 0) host.PumpAll();
  }
  host.FinishAll();

  for (std::size_t i = 0; i < tenant_count; ++i) {
    const std::vector<std::string> expected =
        RunStandalone(SharedTenant(i), shards);
    EXPECT_GT(expected.size(), 0u) << "tenant " << i;
    EXPECT_EQ(events[i], expected) << "tenant " << i << " at " << shards
                                   << " shards";
  }

  // Shared-registry accounting: every tenant's collector series exists
  // under its own label and reconciles (flushed, so buffered == 0 and
  // accepted == released), and the totals equal the true per-tenant
  // collector counts.
  const obs::MetricsSnapshot snap = root.Collect();
  const auto accepted = TenantTotals(snap, "collector_accepted_total");
  const auto released = TenantTotals(snap, "collector_released_total");
  const auto buffered = TenantTotals(snap, "collector_reorder_buffer_depth");
  ASSERT_EQ(accepted.size(), tenant_count);
  for (std::size_t i = 0; i < tenant_count; ++i) {
    const std::string name = "t" + std::to_string(i);
    ASSERT_TRUE(accepted.count(name)) << name;
    EXPECT_EQ(accepted.at(name),
              static_cast<std::int64_t>(
                  host.engine(i)->collector().accepted_count()));
    EXPECT_EQ(accepted.at(name),
              released.at(name) + (buffered.count(name) ? buffered.at(name)
                                                        : 0))
        << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TenantsByShards, MultiTenantTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{2, 1},
                      std::pair<std::size_t, std::size_t>{4, 1},
                      std::pair<std::size_t, std::size_t>{2, 4},
                      std::pair<std::size_t, std::size_t>{4, 4}));

class LatencyTest : public ::testing::TestWithParam<std::size_t> {};

// Every delivered event gets one e2e_latency_seconds observation.  A
// finite idle horizon makes the tracker close groups while the stream
// runs, and a sweep hands its events over in start order, so an event
// can end before one that was delivered earlier.  The engine runs in
// serve's shape: durable, with a checkpoint every 1,000 records.  Each
// checkpoint quiesces the pipeline, so at shards > 1 the merge thread
// stays within 1,000 records of ingest, inside the newest 4,096 stream
// seconds the latency tags cover.
TEST_P(LatencyTest, EveryDeliveredEventIsObserved) {
  Tenant& t = SharedTenant(0);
  core::KnowledgeBase kb = CloneKb(t.kb);
  obs::Registry metrics;
  EngineOptions opts;
  opts.shards = GetParam();
  opts.idle_close_ms = 10 * kMsPerMinute;
  opts.metrics = &metrics;
  Engine eng(&kb, &t.dict, opts);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("sld_latency_" + std::to_string(::getpid()) + "_" +
       std::to_string(GetParam()));
  std::string error;
  ASSERT_TRUE(eng.OpenDurable(dir.string(), &error)) << error;
  std::vector<TimeMs> ends;
  eng.SetEventSink(
      [&ends](const core::DigestEvent& ev) { ends.push_back(ev.end); });
  for (std::size_t i = 0; i < t.live.messages.size(); ++i) {
    eng.IngestRecord(t.live.messages[i]);
    eng.Pump();
    if (i % 1000 == 999) {
      ASSERT_TRUE(eng.Checkpoint(&error)) << error;
    }
  }
  eng.Finish();
  std::filesystem::remove_all(dir);
  ASSERT_GT(ends.size(), 0u);
  EXPECT_FALSE(std::is_sorted(ends.begin(), ends.end()))
      << "the stream no longer closes events out of end order";
  EXPECT_EQ(eng.e2e_latency_samples(), ends.size());
}

INSTANTIATE_TEST_SUITE_P(Shards, LatencyTest, ::testing::Values(1u, 4u));

// A tenant flooding its own port with garbage must not perturb a healthy
// neighbor: the victim's events stay bit-identical to a standalone run
// and its malformed counter stays zero while the flooder's counts the
// whole flood.
TEST(EngineHostTest, MalformedFloodStaysIsolated) {
  obs::Registry root;
  HostOptions host_opts;
  host_opts.pool_threads = 2;
  host_opts.metrics = &root;
  EngineHost host(host_opts);

  Tenant& flooded = SharedTenant(0);
  Tenant& healthy = SharedTenant(1);
  core::KnowledgeBase kb_flooded = CloneKb(flooded.kb);
  core::KnowledgeBase kb_healthy = CloneKb(healthy.kb);
  EngineOptions opts;
  opts.metrics = &root;
  opts.tenant = "flooded";
  Engine* noisy = host.AddEngine(
      std::make_unique<Engine>(&kb_flooded, &flooded.dict, opts));
  opts.tenant = "healthy";
  Engine* victim = host.AddEngine(
      std::make_unique<Engine>(&kb_healthy, &healthy.dict, opts));
  std::vector<std::string> victim_events;
  victim->SetEventSink([&victim_events](const core::DigestEvent& ev) {
    victim_events.push_back(ev.Format());
  });
  noisy->SetEventSink([](const core::DigestEvent&) {});

  constexpr std::size_t kFlood = 500;
  std::size_t fed = 0;
  for (const auto& rec : healthy.live.messages) {
    if (fed < kFlood) {
      noisy->IngestDatagram("!!! not a syslog datagram !!!");
      noisy->IngestDatagram("");
      fed += 2;
    }
    victim->IngestRecord(rec);
    host.PumpAll();
  }
  while (fed < kFlood) {
    noisy->IngestDatagram("<garbage");
    ++fed;
  }
  host.FinishAll();

  EXPECT_EQ(victim_events, RunStandalone(healthy, 1));
  EXPECT_EQ(victim->collector().malformed_count(), 0u);
  EXPECT_GE(noisy->collector().malformed_count(), kFlood);

  const auto malformed =
      TenantTotals(root.Collect(), "collector_malformed_total");
  EXPECT_EQ(malformed.count("healthy") ? malformed.at("healthy") : 0, 0);
  EXPECT_GE(malformed.at("flooded"), static_cast<std::int64_t>(kFlood));
}

// Starvation smoke: a 1-thread pool serving 4 tenants (more work than
// workers) must still drain everything — FinishAll leaves no tenant
// without its full event stream.
TEST(EngineHostTest, SingleThreadPoolServesFourTenants) {
  HostOptions host_opts;
  host_opts.pool_threads = 1;
  EngineHost host(host_opts);
  std::vector<std::unique_ptr<core::KnowledgeBase>> kbs;
  std::vector<std::vector<std::string>> events(4);
  for (std::size_t i = 0; i < 4; ++i) {
    Tenant& t = SharedTenant(i);
    kbs.push_back(std::make_unique<core::KnowledgeBase>(CloneKb(t.kb)));
    EngineOptions opts;
    opts.tenant = "t" + std::to_string(i);
    Engine* eng = host.AddEngine(
        std::make_unique<Engine>(kbs.back().get(), &t.dict, opts));
    eng->SetEventSink([&events, i](const core::DigestEvent& ev) {
      events[i].push_back(ev.Format());
    });
  }
  for (std::size_t i = 0; i < 4; ++i) {
    for (const auto& rec : SharedTenant(i).live.messages) {
      host.engine(i)->IngestRecord(rec);
    }
  }
  host.PumpAll();
  host.FinishAll();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i], RunStandalone(SharedTenant(i), 1)) << i;
  }
}

TEST(TenantSpecTest, ParsesNameConfigsKbPort) {
  TenantSpec spec;
  std::string error;
  ASSERT_TRUE(ParseTenantSpec("alpha:/cfg/a:/kb/a.txt:6001", &spec, &error));
  EXPECT_EQ(spec.name, "alpha");
  EXPECT_EQ(spec.configs_dir, "/cfg/a");
  EXPECT_EQ(spec.kb_path, "/kb/a.txt");
  EXPECT_EQ(spec.port, 6001);

  ASSERT_TRUE(ParseTenantSpec("beta:cfg:kb.txt", &spec, &error));
  EXPECT_EQ(spec.name, "beta");
  EXPECT_EQ(spec.port, 0);  // ephemeral
}

TEST(TenantSpecTest, RejectsMalformedSpecs) {
  TenantSpec spec;
  std::string error;
  EXPECT_FALSE(ParseTenantSpec("just-a-name", &spec, &error));
  EXPECT_NE(error.find("NAME:CONFIGS:KB"), std::string::npos);
  EXPECT_FALSE(ParseTenantSpec(":cfg:kb", &spec, &error));
  EXPECT_FALSE(ParseTenantSpec("a:cfg:kb:port", &spec, &error));
  EXPECT_FALSE(ParseTenantSpec("a:cfg:kb:99999", &spec, &error));
  EXPECT_FALSE(ParseTenantSpec("a:b:c:1:2", &spec, &error));
}

TEST(EngineHostTest, RejectsDuplicateAndMissingNames) {
  // Loading never starts when the name discipline fails, so bogus paths
  // are never touched.
  EngineHost host;
  TenantSpec a{"same", "/nope", "/nope.txt", 0, {}};
  TenantSpec b{"same", "/nope2", "/nope2.txt", 0, {}};
  std::string error;
  EXPECT_FALSE(host.LoadTenants({a, b}, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);

  TenantSpec unnamed{"", "/nope", "/nope.txt", 0, {}};
  EXPECT_FALSE(host.LoadTenants({unnamed, a}, &error));
  EXPECT_NE(error.find("name"), std::string::npos);
  EXPECT_EQ(host.tenant_count(), 0u);
}

}  // namespace
}  // namespace sld::engine
