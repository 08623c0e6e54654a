// EngineHost: multiplexes N per-tenant Engines over shared resources.
//
// Shared between tenants:
//   - one sld::ThreadPool, which loads, pumps, checkpoints and finishes
//     the tenants in parallel (each engine's own work stays strictly
//     serial — the pool's fork/join barrier is the only synchronization
//     the engines need, so per-tenant output is bit-identical to a
//     dedicated process);
//   - one obs::Registry, every engine registering through a
//     {"tenant", NAME} scoped view so all series stay distinguishable;
//   - the wire front: one UDP socket per tenant, all drained in recvmmsg
//     batches on the serve thread (see src/wirefront/), each datagram
//     routed to the engine that owns its socket.
//
// Everything else — knowledge base, collector, pipeline, group state,
// event sink — is private to each Engine.  A tenant flooding its own
// port with garbage only moves its own malformed counters; the
// isolation tests in tests/engine/engine_test.cc pin that.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "engine/engine.h"
#include "wirefront/wirefront.h"

namespace sld::engine {

// One tenant's bootstrap description (the `--tenant NAME:CONFIGS:KB:PORT`
// CLI syntax).
struct TenantSpec {
  std::string name;
  std::string configs_dir;
  std::string kb_path;
  std::uint16_t port = 0;  // serve ingest port; 0 picks ephemeral
  EngineOptions options;   // tenant/metrics are overwritten by the host
};

// Parses "NAME:CONFIGS:KB[:PORT]".  Returns false and fills `error` on a
// malformed spec (missing fields, empty name, non-numeric port).
bool ParseTenantSpec(const std::string& text, TenantSpec* spec,
                     std::string* error);

struct HostOptions {
  // Shared pool width (0 = one thread per core).  The pool is also what
  // bounds multi-tenant CPU use: N tenants never run more than
  // `pool_threads` collector pumps at once.
  int pool_threads = 0;
  // Root registry shared by every tenant (may be null).
  obs::Registry* metrics = nullptr;
};

class EngineHost {
 public:
  explicit EngineHost(HostOptions options = {});
  ~EngineHost();

  EngineHost(const EngineHost&) = delete;
  EngineHost& operator=(const EngineHost&) = delete;

  // Loads every tenant concurrently on the shared pool (config parse +
  // KB deserialize per tenant).  Engines appear in spec order.  Tenant
  // names must be unique and non-empty; on any failure fills `error`
  // with the first (in spec order) and returns false.
  bool LoadTenants(std::vector<TenantSpec> specs, std::string* error);

  // Adopts an already-built engine (tests and embedders).
  Engine* AddEngine(std::unique_ptr<Engine> engine, std::uint16_t port = 0);

  std::size_t tenant_count() const noexcept { return engines_.size(); }
  Engine* engine(std::size_t i) noexcept { return engines_[i].get(); }

  obs::Registry* metrics() noexcept { return options_.metrics; }

  // Pumps every engine once, in parallel on the shared pool.  Returns
  // after the barrier, so callers may touch collectors again.
  void PumpAll();

  // Finishes every engine in parallel (collector flush + group close +
  // pipeline join).  Engines with a sink have delivered everything by
  // return; sink-less remainders land in `leftovers[i]`.
  void FinishAll(std::vector<std::vector<core::DigestEvent>>* leftovers =
                     nullptr);

  // Opens the wire front: one socket per tenant at each spec's port
  // (0 = ephemeral; read back with port_of), with its wire_* metrics in
  // that tenant's registry view.  Returns false and fills `error` on the
  // first port that cannot be bound.
  bool BindAll(const wirefront::WireOptions& wire, std::string* error);
  bool BindAll(std::string* error) {
    return BindAll(wirefront::WireOptions{}, error);
  }
  std::uint16_t port_of(std::size_t i) const noexcept;

  // The open wire front (null before BindAll); drop/throughput counters
  // for tests and status lines.
  wirefront::WireFront* front() noexcept { return front_.get(); }

  struct ServeOptions {
    // Stop after this many datagrams across all tenants (0 = no limit).
    long max_datagrams = 0;
    // After traffic has been seen, a quiet stretch of this many seconds
    // ends the loop (0 = run forever).
    long idle_exit_s = 0;
    // Checkpoint every durable engine this often (0 = never).  A final
    // checkpoint is also taken when the loop ends.
    long checkpoint_interval_s = 0;
    // Called once per poll wakeup (periodic metrics snapshots).
    std::function<void()> on_tick;
  };

  // Checkpoints every durable engine in parallel on the shared pool
  // (engines without a checkpoint dir are skipped).  Failures are
  // reported on stderr; serving continues.
  void CheckpointAll();

  // The serve loop: one wire-front PollOnce per wakeup ingests the whole
  // ready backlog (batched, zero-alloc), then all engines pump.
  // Requires BindAll() first.  Finishes every engine on exit.  Returns
  // the total datagram count.
  std::size_t Serve(const ServeOptions& options);

 private:
  HostOptions options_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::uint16_t> ports_;  // requested; resolved by BindAll
  std::unique_ptr<wirefront::WireFront> front_;
};

}  // namespace sld::engine
