#include "engine/host.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace sld::engine {

bool ParseTenantSpec(const std::string& text, TenantSpec* spec,
                     std::string* error) {
  // NAME:CONFIGS:KB[:PORT] — paths containing ':' are not supported by
  // this syntax.
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ':') {
      parts.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  if (parts.size() < 3 || parts.size() > 4) {
    if (error != nullptr) {
      *error = "tenant spec '" + text + "' is not NAME:CONFIGS:KB[:PORT]";
    }
    return false;
  }
  if (parts[0].empty() || parts[1].empty() || parts[2].empty()) {
    if (error != nullptr) {
      *error = "tenant spec '" + text + "' has an empty field";
    }
    return false;
  }
  spec->name = parts[0];
  spec->configs_dir = parts[1];
  spec->kb_path = parts[2];
  spec->port = 0;
  if (parts.size() == 4 && !parts[3].empty()) {
    for (const char c : parts[3]) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        if (error != nullptr) {
          *error = "tenant spec '" + text + "': port '" + parts[3] +
                   "' is not a number";
        }
        return false;
      }
    }
    const long port = std::strtol(parts[3].c_str(), nullptr, 10);
    if (port < 0 || port > 65535) {
      if (error != nullptr) {
        *error = "tenant spec '" + text + "': port out of range";
      }
      return false;
    }
    spec->port = static_cast<std::uint16_t>(port);
  }
  return true;
}

EngineHost::EngineHost(HostOptions options)
    : options_(options), pool_(options.pool_threads) {}

EngineHost::~EngineHost() = default;

bool EngineHost::LoadTenants(std::vector<TenantSpec> specs,
                             std::string* error) {
  // Name discipline up front: every tenant label must be unambiguous.
  // A single unnamed tenant is allowed (the legacy one-network modes).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name.empty() && specs.size() > 1) {
      if (error != nullptr) *error = "multi-tenant specs need a name";
      return false;
    }
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      if (specs[i].name == specs[j].name) {
        if (error != nullptr) {
          *error = "duplicate tenant name '" + specs[i].name + "'";
        }
        return false;
      }
    }
  }
  // Each tenant's config parse + KB deserialize is independent CPU-bound
  // work: fan it out on the shared pool.
  std::vector<std::unique_ptr<Engine>> loaded(specs.size());
  std::vector<std::string> errors(specs.size());
  pool_.ParallelFor(specs.size(), [&](std::size_t i) {
    EngineOptions opts = specs[i].options;
    opts.tenant = specs[i].name;
    opts.metrics = options_.metrics;
    loaded[i] = Engine::Load(specs[i].configs_dir, specs[i].kb_path,
                             std::move(opts), &errors[i]);
  });
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (loaded[i] == nullptr) {
      if (error != nullptr) *error = errors[i];
      return false;
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    engines_.push_back(std::move(loaded[i]));
    ports_.push_back(specs[i].port);
  }
  return true;
}

Engine* EngineHost::AddEngine(std::unique_ptr<Engine> engine,
                              std::uint16_t port) {
  engines_.push_back(std::move(engine));
  ports_.push_back(port);
  return engines_.back().get();
}

void EngineHost::PumpAll() {
  // Each index is one engine; an engine's pump is strictly serial, and
  // the ParallelFor barrier is the only cross-thread synchronization the
  // engines need (ingest happens between pumps, never during).
  pool_.ParallelFor(engines_.size(),
                    [&](std::size_t i) { engines_[i]->Pump(); });
}

void EngineHost::FinishAll() {
  pool_.ParallelFor(engines_.size(),
                    [&](std::size_t i) { engines_[i]->Finish(); });
}

bool EngineHost::BindAll(const wirefront::WireOptions& wire,
                         std::string* error) {
  front_.reset();
  std::vector<wirefront::TenantPort> tenants(engines_.size());
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    tenants[i].port = ports_[i];
    // The socket's cells land in the tenant's scoped view, so every
    // wire_* series carries the {tenant} label.
    tenants[i].metrics = engines_[i]->metrics();
  }
  front_ = wirefront::WireFront::Open(wire, tenants, error);
  if (front_ == nullptr) return false;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    ports_[i] = front_->port_of(i);
  }
  return true;
}

std::uint16_t EngineHost::port_of(std::size_t i) const noexcept {
  return i < ports_.size() ? ports_[i] : 0;
}

void EngineHost::CheckpointAll() {
  pool_.ParallelFor(engines_.size(), [&](std::size_t i) {
    if (!engines_[i]->durable()) return;
    std::string error;
    if (!engines_[i]->Checkpoint(&error)) {
      std::fprintf(stderr, "checkpoint failed for tenant '%s': %s\n",
                   engines_[i]->tenant().c_str(), error.c_str());
    }
  });
}

std::size_t EngineHost::Serve(const ServeOptions& options) {
  if (front_ == nullptr) return 0;
  const bool limited = options.max_datagrams > 0;
  const auto limit = static_cast<std::size_t>(options.max_datagrams);
  // The sink runs inside PollOnce with the datagram still in front-owned
  // storage: IngestDatagram copies what it keeps, so nothing here
  // allocates per datagram.
  const wirefront::WireFront::Sink sink =
      [this](std::size_t tenant, std::string_view datagram) {
        engines_[tenant]->IngestDatagram(datagram);
      };
  std::size_t seen = 0;
  long quiet_polls = 0;
  auto last_ckpt = std::chrono::steady_clock::now();
  while (!limited || seen < limit) {
    // One wakeup ingests the whole ready backlog (capped so a limited
    // serve stops exactly at max_datagrams), then the engines pump.
    const std::ptrdiff_t got =
        front_->PollOnce(1000, limited ? limit - seen : 0, sink);
    if (got == wirefront::WireFront::kInterrupted) {
      // A signal interrupting the wait is not a quiet second: counting
      // it toward idle_exit_s made a pestered server exit (and
      // FinishAll mid-stream) long before the idle horizon passed.
      continue;
    }
    if (got == wirefront::WireFront::kError) {
      std::fprintf(stderr, "wire front poll failed: %s\n",
                   std::strerror(errno));
      break;
    }
    if (options.on_tick) options.on_tick();
    if (options.checkpoint_interval_s > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_ckpt >=
          std::chrono::seconds(options.checkpoint_interval_s)) {
        // Between poll rounds nothing is mid-pump, so every engine is
        // quiescent enough to snapshot consistently.
        CheckpointAll();
        last_ckpt = now;
      }
      for (auto& engine : engines_) {
        if (engine->durable()) engine->SecondsSinceCheckpoint();
      }
    }
    if (got > 0) {
      seen += static_cast<std::size_t>(got);
      quiet_polls = 0;
      PumpAll();
      continue;
    }
    ++quiet_polls;
    if (options.idle_exit_s > 0 && seen > 0 &&
        quiet_polls >= options.idle_exit_s) {
      break;
    }
  }
  FinishAll();
  // Final checkpoint so a clean shutdown restarts with nothing open.
  if (options.checkpoint_interval_s > 0) CheckpointAll();
  return seen;
}

}  // namespace sld::engine
