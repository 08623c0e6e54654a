#include "common.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

// Counting global operator new/delete: every bench binary links this TU
// (they all call into bench_common), so the replaceable allocation
// functions below override the library ones and count every heap
// allocation in the process.  Deletes forward straight to free — the
// counter tracks allocation pressure, not live bytes.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sld::bench {

std::uint64_t AllocationCount() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

core::RuleMinerParams PaperRuleParams(const sim::DatasetSpec& spec) {
  core::RuleMinerParams params;
  params.window_ms = (spec.name == "A" ? 120 : 40) * kMsPerSecond;
  params.min_support = 0.0005;
  params.min_confidence = 0.8;
  return params;
}

core::LocationDict BuildDict(const sim::Dataset& ds) {
  std::vector<net::ParsedConfig> parsed;
  parsed.reserve(ds.configs.size());
  for (const std::string& cfg : ds.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  return core::LocationDict::Build(parsed);
}

Pipeline BuildPipeline(const sim::DatasetSpec& spec, int learn_days,
                       int online_days, core::RuleEvolution* evolution,
                       const core::OfflineLearnerParams* params) {
  Pipeline p;
  p.history = sim::GenerateDataset(spec, 0, learn_days, kOfflineSeed);
  if (online_days > 0) {
    p.live =
        sim::GenerateDataset(spec, learn_days, online_days, kOnlineSeed);
  }
  p.dict = BuildDict(p.history);
  core::OfflineLearnerParams learn_params;
  if (params != nullptr) {
    learn_params = *params;
  } else {
    learn_params.rules = PaperRuleParams(spec);
  }
  core::OfflineLearner learner(learn_params);
  p.kb = learner.Learn(p.history.messages, p.dict, evolution);
  return p;
}

std::vector<core::Augmented> Augment(core::KnowledgeBase& kb,
                                     const core::LocationDict& dict,
                                     const sim::Dataset& ds) {
  core::Augmenter augmenter(&kb.templates, &dict);
  return augmenter.AugmentAll(ds.messages);
}

AblationArgs ParseAblationArgs(int argc, char** argv, int learn_days,
                               int live_days) {
  AblationArgs args;
  args.learn_days = learn_days;
  args.live_days = live_days;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--learn-days") == 0 && i + 1 < argc) {
      args.learn_days = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--live-days") == 0 && i + 1 < argc) {
      args.live_days = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      args.json = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\nusage: %s [--learn-days N] "
                   "[--live-days N] [--json=FILE]\n",
                   argv[i], argv[0]);
      std::exit(2);
    }
  }
  if (args.learn_days < 1) args.learn_days = 1;
  if (args.live_days < 0) args.live_days = 0;
  return args;
}

std::ofstream OpenAblationJson(const std::string& path, const char* name,
                               const AblationArgs& args) {
  std::ofstream out(path);
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\n  \"benchmark\": \"ablation\",\n  \"name\": \"" << name
      << "\",\n  \"learn_days\": " << args.learn_days
      << ",\n  \"live_days\": " << args.live_days << ",\n";
  return out;
}

void Header(const char* id, const char* title, const char* paper_shape) {
  std::printf("\n================================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("paper shape: %s\n", paper_shape);
  std::printf("================================================================\n");
}

}  // namespace sld::bench
