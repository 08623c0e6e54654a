// Online operation end-to-end: routers emit RFC 3164 datagrams with
// network jitter and reordering, and an engine::Engine — a collector
// that reassembles a time-ordered stream in front of the digest stage —
// emits each event as soon as it closes: the deployment shape of the
// paper's Fig. 1 online component.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "core/learn.h"
#include "engine/engine.h"
#include "net/config_parser.h"
#include "sim/generator.h"
#include "syslog/wire.h"

using namespace sld;

int main() {
  const sim::DatasetSpec spec = sim::DatasetASpec();
  const sim::Dataset history = sim::GenerateDataset(spec, 0, 14, 31);
  const sim::Dataset live = sim::GenerateDataset(spec, 14, 1, 32);

  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : history.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const core::LocationDict dict = core::LocationDict::Build(parsed);
  core::OfflineLearner learner;
  core::KnowledgeBase kb = learner.Learn(history.messages, dict);

  // Wire transmission: encode to RFC 3164, add up to 2 s of delivery
  // jitter so datagrams arrive out of order, occasionally corrupt one.
  struct Arrival {
    TimeMs at;
    std::string datagram;
  };
  Rng rng(7);
  std::vector<Arrival> arrivals;
  arrivals.reserve(live.messages.size());
  for (const auto& msg : live.messages) {
    Arrival a;
    a.at = msg.time + rng.UniformInt(0, 2000);
    a.datagram = syslog::EncodeRfc3164(msg);
    if (rng.Bernoulli(0.001)) a.datagram[0] = '#';  // line noise
    arrivals.push_back(std::move(a));
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.at < b.at; });

  // Collector in front (5 s reorder hold), digest stage behind (events
  // emitted the moment they close; a 30-minute idle horizon keeps latency
  // low at the cost of occasionally splitting a >30-min-quiet event).
  engine::EngineOptions options;
  options.hold_ms = 5000;
  options.year = 2009;
  options.idle_close_ms = 30 * kMsPerMinute;
  engine::Engine engine(&kb, &dict, options);
  std::size_t shown = 0;
  engine.SetEventSink([&shown](const core::DigestEvent& ev) {
    if (ev.messages.size() >= 8 && shown < 10) {
      std::printf("closed: %s\n", ev.Format().c_str());
      ++shown;
    }
  });
  for (const Arrival& a : arrivals) {
    engine.IngestDatagram(a.datagram);
    engine.Pump();
  }
  engine.Finish();

  std::printf("...\n");
  std::printf(
      "day complete: %zu datagrams sent, %zu malformed dropped, %zu "
      "records digested into %zu events\n",
      arrivals.size(), engine.collector().malformed_count(),
      engine.collector().released_count(), engine.event_count());
  return 0;
}
