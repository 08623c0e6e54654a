// The online SyslogDigest system (§3.2, §4.2): signature matching,
// location parsing, three grouping passes, prioritization, presentation.
//
// All merges flow through one union-find, so the final partition is
// independent of the order the three grouping methods run in — the paper's
// §4.2.3 observation, which tests/grouping verifies.  The stages and
// their one driver live in src/pipeline; Digester is the batch entry
// point over that driver.
#pragma once

#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/knowledge.h"
#include "core/priority/present.h"

namespace sld::obs {
class Registry;
}  // namespace sld::obs

namespace sld::core {

// Which grouping passes to run (Table 7 compares T, T+R, T+R+C).
struct DigestOptions {
  bool use_rules = true;
  bool use_cross_router = true;
  // Cross-router grouping: same template on connected locations at "almost
  // the same time" (§4.2.3's 1 second).
  TimeMs cross_router_window = 1 * kMsPerSecond;
};

// One high-level network event.
struct DigestEvent {
  std::vector<std::size_t> messages;  // indices into the input stream
  TimeMs start = 0;
  TimeMs end = 0;
  double score = 0.0;
  std::string label;
  std::string location_text;
  std::vector<TemplateId> templates;       // distinct, sorted
  std::vector<std::uint32_t> router_keys;  // distinct, sorted

  // The digest line: "start|end|locations|label|N messages".
  std::string Format() const;
};

struct DigestResult {
  std::vector<DigestEvent> events;  // sorted by score, descending
  std::size_t message_count = 0;
  std::size_t active_rule_count = 0;  // distinct rules that fired

  double CompressionRatio() const {
    return message_count == 0
               ? 0.0
               : static_cast<double>(events.size()) /
                     static_cast<double>(message_count);
  }
};

// Assembles a presented event (time range, score, label, locations) from
// the augmented messages of one group (pipeline::GroupTracker's closer).
DigestEvent BuildEvent(const std::vector<const Augmented*>& messages,
                       const KnowledgeBase& kb, const LocationDict& dict);

// The §4.2.4 per-message score contribution: l_m / log(f_m + 2).
double MessageScore(const Augmented& msg, const KnowledgeBase& kb,
                    const LocationDict& dict);

class Digester {
 public:
  // `kb` must outlive the digester and may gain catch-all templates for
  // unseen messages; `dict` is the config-derived location dictionary.
  Digester(KnowledgeBase* kb, const LocationDict* dict)
      : kb_(kb), dict_(dict) {}

  // Digests a time-sorted syslog stream into prioritized events.
  DigestResult Digest(std::span<const syslog::SyslogRecord> stream,
                      const DigestOptions& options = {});

  // Routes the pipeline metrics of subsequent Digest() calls into `reg`
  // (pipeline_* and tracker_* series, DESIGN.md §9); `reg` must outlive
  // the digester.
  void BindMetrics(obs::Registry* reg) { metrics_ = reg; }

 private:
  KnowledgeBase* kb_;
  const LocationDict* dict_;
  obs::Registry* metrics_ = nullptr;
};

}  // namespace sld::core
