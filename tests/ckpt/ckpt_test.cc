// Crash-consistency suite for the engine checkpoint/restart subsystem
// (DESIGN.md §14).
//
// The contract under test: abandon a durable engine mid-stream (the
// in-process stand-in for SIGKILL — every logged event was fsynced, the
// snapshot lags the log), open a fresh engine on the same checkpoint
// dir, resend the WHOLE stream from the beginning, and the durable
// event log ends up byte-identical to an uninterrupted run — at any
// combination of crash-side and restore-side shard counts, because each
// stage writes its own section in a canonical order over all shards, not
// over the sharding.  The dense instantiations replay slgen's message mix
// from routers absent from the configs, where every rule window is a
// storm of location-free messages; they restore at fewer and at more
// shards than crashed, so those windows are dealt out again by router.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/event_codec.h"
#include "ckpt/eventlog.h"
#include "ckpt/snapshot.h"
#include "core/learn.h"
#include "engine/engine.h"
#include "loadgen/loadgen.h"
#include "net/config_parser.h"
#include "obs/registry.h"
#include "sim/generator.h"
#include "syslog/collector.h"
#include "syslog/wire.h"

namespace sld::engine {
namespace {

struct World {
  World() {
    sim::DatasetSpec spec = sim::DatasetASpec();
    spec.topo.num_routers = 6;
    history = sim::GenerateDataset(spec, 0, 3, 901);
    live = sim::GenerateDataset(spec, 3, 1, 902);
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

World& SharedWorld() {
  static World world;
  return world;
}

// The same network and KB, live traffic replaced by six loadgen bursts
// from 10 unconfigured routers at 200 messages per virtual second, 2,000
// messages each, 130 s apart: every burst fills the rule windows with
// location-free messages, and the gap lets the idle sweep close the
// burst's events before the next one, inside the crash window.
struct DenseWorld : World {
  DenseWorld() {
    live.messages.clear();
    for (int burst = 0; burst < 6; ++burst) {
      loadgen::StreamOptions opts;
      opts.seed = 903 + static_cast<std::uint64_t>(burst);
      opts.routers = 10;
      opts.msgs_per_vsec = 200;
      opts.epoch = sim::DatasetEpoch() + 3 * kMsPerDay + burst * 130 * 1000;
      std::atomic<std::uint64_t> cursor{0};
      loadgen::Stream stream(opts, &cursor, 2000);
      while (stream.RenderRound() > 0) {
        for (const loadgen::WireSlot& slot : stream.wire_slots()) {
          auto rec = syslog::DecodeRfc3164(stream.SlotPayload(slot), 2009);
          if (rec.has_value()) live.messages.push_back(std::move(*rec));
        }
      }
    }
  }
};

World& SharedDenseWorld() {
  static DenseWorld world;
  return world;
}

core::KnowledgeBase CloneKb(const core::KnowledgeBase& kb) {
  return core::KnowledgeBase::Deserialize(kb.Serialize());
}

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("sld_ckpt_engine_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

EngineOptions DurableOptions(std::size_t shards) {
  EngineOptions opts;
  opts.shards = shards;
  // Crash-consistent resend needs the duplicate window (--dedup).
  opts.suppress_duplicates = true;
  opts.hold_ms = 1000;
  // A short idle horizon keeps events closing throughout the stream so
  // the crash window actually contains logged events (the learned
  // default horizon closes most of this dataset only at Finish).
  opts.idle_close_ms = 60 * 1000;
  return opts;
}

// Copies `src`'s snapshot + event log into `dst` — the crash image: the
// on-disk state a kill at this point would leave behind, photographed
// while the engine is still running.
void CopyCrashImage(const std::string& src, const std::string& dst) {
  namespace fs = std::filesystem;
  fs::create_directories(dst);
  if (fs::exists(src + "/snapshot")) {
    fs::copy_file(src + "/snapshot", dst + "/snapshot",
                  fs::copy_options::overwrite_existing);
  }
  if (fs::exists(src + "/events.log")) {
    fs::copy_file(src + "/events.log", dst + "/events.log",
                  fs::copy_options::overwrite_existing);
  }
}

// The durable log rendered the way `sldigest events` prints it.
std::vector<std::string> DumpLog(const std::string& dir) {
  std::vector<std::string> lines;
  std::string error;
  const bool ok = ckpt::EventLog::ForEach(
      dir + "/events.log",
      [&lines](std::uint64_t seq, std::string_view payload) {
        ckpt::Reader r(payload);
        core::DigestEvent ev;
        ASSERT_TRUE(ckpt::ReadEvent(&r, &ev));
        lines.push_back(std::to_string(seq) + "|" + ev.Format());
      },
      &error);
  EXPECT_TRUE(ok) << error;
  return lines;
}

// Uninterrupted reference: feed every live record, Finish, dump the log.
std::vector<std::string> RunGolden(World& w, std::size_t shards,
                                   const std::string& dir) {
  core::KnowledgeBase kb = CloneKb(w.kb);
  Engine eng(&kb, &w.dict, DurableOptions(shards));
  std::string error;
  EXPECT_TRUE(eng.OpenDurable(dir, &error)) << error;
  for (const auto& rec : w.live.messages) {
    eng.IngestRecord(rec);
    eng.Pump();
  }
  eng.Finish();
  return DumpLog(dir);
}

// Crash leg: checkpoint at `ckpt_at` records, keep going to `crash_at`,
// wait until the log holds an event the snapshot does not, photograph
// the checkpoint dir into `image_dir` (snapshot stale, log ahead —
// exactly what a SIGKILL leaves behind), then let the engine be
// destroyed.
void RunUntilCrash(World& w, std::size_t shards, const std::string& dir,
                   const std::string& image_dir, std::size_t ckpt_at,
                   std::size_t crash_at) {
  core::KnowledgeBase kb = CloneKb(w.kb);
  // Counts events as the sink sees them, after their commit's fsync (on
  // the merge thread at shards > 1).  Declared before the engine, whose
  // destructor may still deliver.
  std::atomic<std::uint64_t> logged{0};
  Engine eng(&kb, &w.dict, DurableOptions(shards));
  eng.SetEventSink([&logged](const core::DigestEvent&) {
    logged.fetch_add(1, std::memory_order_relaxed);
  });
  std::string error;
  ASSERT_TRUE(eng.OpenDurable(dir, &error)) << error;
  std::uint64_t at_checkpoint = 0;
  for (std::size_t i = 0; i < crash_at && i < w.live.messages.size(); ++i) {
    eng.IngestRecord(w.live.messages[i]);
    eng.Pump();
    if (i + 1 == ckpt_at) {
      ASSERT_TRUE(eng.Checkpoint(&error)) << error;
      at_checkpoint = eng.event_count();
    }
  }
  // The restart leg's replay_cursor and replay_suppressed checks need a
  // committed event past the checkpoint; the merge thread may still be
  // closing it, however slow the build.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (logged.load(std::memory_order_relaxed) <= at_checkpoint) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no event committed after the checkpoint at record " << ckpt_at;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CopyCrashImage(dir, image_dir);
}

// Restart leg: restore from the crashed dir and resend the whole stream.
std::vector<std::string> RunRestart(World& w, std::size_t shards,
                                    const std::string& dir) {
  core::KnowledgeBase kb = CloneKb(w.kb);
  Engine eng(&kb, &w.dict, DurableOptions(shards));
  std::string error;
  EXPECT_TRUE(eng.OpenDurable(dir, &error)) << error;
  EXPECT_GT(eng.replay_cursor(), 0u);
  for (const auto& rec : w.live.messages) {
    eng.IngestRecord(rec);
    eng.Pump();
  }
  eng.Finish();
  EXPECT_GT(eng.replay_suppressed(), 0u);
  return DumpLog(dir);
}

struct EquivalenceCase {
  std::size_t crash_shards = 1;
  std::size_t restore_shards = 1;
  bool dense = false;
};

// Prints "(crash, restore)": the instantiation prefix names the world.
void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << "(" << c.crash_shards << ", " << c.restore_shards << ")";
}

class CkptEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(CkptEquivalence, KillAndRestartMatchesUninterruptedRun) {
  const auto [crash_shards, restore_shards, dense] = GetParam();
  World& w = dense ? SharedDenseWorld() : SharedWorld();
  TempDir golden_dir;
  TempDir crash_dir;
  TempDir image_dir;
  const auto golden = RunGolden(w, /*shards=*/1, golden_dir.str());
  ASSERT_FALSE(golden.empty());

  // Checkpoint and kill inside the stream's dense early region, where
  // events are closing between the two points (so the log is genuinely
  // ahead of the snapshot when the crash hits).
  const std::size_t n = w.live.messages.size();
  RunUntilCrash(w, crash_shards, crash_dir.str(), image_dir.str(),
                /*ckpt_at=*/n / 10, /*crash_at=*/n / 5);
  const auto restored = RunRestart(w, restore_shards, image_dir.str());
  EXPECT_EQ(restored, golden);
}

INSTANTIATE_TEST_SUITE_P(
    Shards, CkptEquivalence,
    ::testing::Values(EquivalenceCase{1, 1}, EquivalenceCase{4, 4},
                      EquivalenceCase{16, 16},
                      // Snapshots are canonical: restore at a different
                      // shard count than the crash side ran.
                      EquivalenceCase{4, 1}, EquivalenceCase{1, 16}));

INSTANTIATE_TEST_SUITE_P(Dense, CkptEquivalence,
                         ::testing::Values(EquivalenceCase{1, 1, true},
                                           EquivalenceCase{4, 1, true},
                                           EquivalenceCase{1, 4, true}));

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// An engine destroyed without Finish() stops like a crash.  A durable
// one must not flush its open groups into the event log: those early
// closes would take seqs that the post-restore resend then suppresses as
// already logged, so the log would keep truncated events.  Two lives are
// abandoned with groups open, each in its own dir — one that
// checkpointed at its log tip, and one that only restored a copy of that
// snapshot (a serve that fails to bind after restoring) — and each log
// must be byte-identical after its engine is gone; the copy must then
// match the uninterrupted run after a full resend.
class CkptAbandon : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CkptAbandon, UnfinishedEngineLeavesLogIntact) {
  const std::size_t shards = GetParam();
  World& w = SharedWorld();
  TempDir golden_dir;
  TempDir dir;
  TempDir image_dir;
  const auto golden = RunGolden(w, /*shards=*/1, golden_dir.str());
  std::string logged;
  {
    core::KnowledgeBase kb = CloneKb(w.kb);
    Engine eng(&kb, &w.dict, DurableOptions(shards));
    std::string error;
    ASSERT_TRUE(eng.OpenDurable(dir.str(), &error)) << error;
    for (std::size_t i = 0; i < w.live.messages.size() / 5; ++i) {
      eng.IngestRecord(w.live.messages[i]);
      eng.Pump();
    }
    ASSERT_TRUE(eng.Checkpoint(&error)) << error;
    ASSERT_GT(eng.open_group_count(), 0u);
    logged = ReadBytes(dir.str() + "/events.log");
    ASSERT_FALSE(logged.empty());
    CopyCrashImage(dir.str(), image_dir.str());
  }
  // Compared as a bool: a mismatch would otherwise print the binary log.
  EXPECT_TRUE(ReadBytes(dir.str() + "/events.log") == logged)
      << "the checkpointing life";
  {
    core::KnowledgeBase kb = CloneKb(w.kb);
    Engine eng(&kb, &w.dict, DurableOptions(shards));
    std::string error;
    ASSERT_TRUE(eng.OpenDurable(image_dir.str(), &error)) << error;
    ASSERT_GT(eng.open_group_count(), 0u);
  }
  EXPECT_TRUE(ReadBytes(image_dir.str() + "/events.log") == logged)
      << "the restoring life";
  core::KnowledgeBase kb = CloneKb(w.kb);
  Engine eng(&kb, &w.dict, DurableOptions(shards));
  std::string error;
  ASSERT_TRUE(eng.OpenDurable(image_dir.str(), &error)) << error;
  for (const auto& rec : w.live.messages) {
    eng.IngestRecord(rec);
    eng.Pump();
  }
  eng.Finish();
  EXPECT_EQ(DumpLog(image_dir.str()), golden);
}

INSTANTIATE_TEST_SUITE_P(Shards, CkptAbandon,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

// A kill inside a commit.  One commit is one write of several frames
// and one fsync, and none of its events reaches the sink before the
// fsync returns, so a kill mid-write leaves some of the commit's frames
// whole and one torn.  Open keeps the whole ones: the log owns them and
// the replay cursor suppresses their regeneration, exactly like events
// a kill caught after the fsync but before the sink.  The crash leg runs
// to its kill point and stops without Finish; its log is then cut in
// the middle of the last frame of its last multi-event commit after the
// checkpoint.  Every sink call records the log's size, which is the end
// of the call's commit, so consecutive equal sizes mark one commit.
class CkptTornCommit : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(CkptTornCommit, KillInsideACommitMatchesUninterruptedRun) {
  const auto [crash_shards, restore_shards, dense] = GetParam();
  World& w = dense ? SharedDenseWorld() : SharedWorld();
  TempDir golden_dir;
  TempDir dir;
  const auto golden = RunGolden(w, /*shards=*/1, golden_dir.str());
  const std::string path = dir.str() + "/events.log";
  std::vector<std::uintmax_t> commit_end_of;  // per delivered event
  std::uint64_t checkpointed = 0;
  {
    core::KnowledgeBase kb = CloneKb(w.kb);
    Engine eng(&kb, &w.dict, DurableOptions(crash_shards));
    std::string error;
    ASSERT_TRUE(eng.OpenDurable(dir.str(), &error)) << error;
    eng.SetEventSink([&](const core::DigestEvent&) {
      commit_end_of.push_back(std::filesystem::file_size(path));
    });
    const std::size_t n = w.live.messages.size();
    for (std::size_t i = 0; i < n / 5; ++i) {
      eng.IngestRecord(w.live.messages[i]);
      eng.Pump();
      if (i + 1 == n / 10) {
        ASSERT_TRUE(eng.Checkpoint(&error)) << error;
        checkpointed = eng.event_count();
      }
    }
  }  // stops like a kill once queued schedules are committed

  // The last commit of two or more events, as [first event, end).
  std::size_t first = commit_end_of.size();
  std::size_t end = first;
  for (std::size_t i = commit_end_of.size(); i-- > 1;) {
    if (commit_end_of[i] != commit_end_of[i - 1]) continue;
    end = i + 1;
    first = i - 1;
    while (first > 0 && commit_end_of[first - 1] == commit_end_of[i]) --first;
    break;
  }
  ASSERT_LT(first, commit_end_of.size()) << "no multi-event commit";
  ASSERT_GE(first, checkpointed) << "the commit precedes the snapshot";
  const std::string bytes = ReadBytes(path);
  ASSERT_EQ(bytes.size(), commit_end_of.back());

  // Frames of that commit start where the previous commit ended.
  std::size_t at = first == 0 ? 0 : commit_end_of[first - 1];
  std::size_t last_frame = at;
  for (std::size_t k = first; k < end; ++k) {
    ASSERT_LE(at + 16, bytes.size());
    ckpt::Reader header(std::string_view(bytes).substr(at, 4));
    last_frame = at;
    at += 16 + header.U32();  // [u32 len][u32 crc][u64 seq][payload]
  }
  ASSERT_EQ(at, commit_end_of[end - 1]);
  std::filesystem::resize_file(path, last_frame + (at - last_frame) / 2);
  ASSERT_EQ(DumpLog(dir.str()).size(), end - 1);

  const auto restored = RunRestart(w, restore_shards, dir.str());
  EXPECT_EQ(restored, golden);
}

INSTANTIATE_TEST_SUITE_P(Shards, CkptTornCommit,
                         ::testing::Values(EquivalenceCase{1, 1},
                                           EquivalenceCase{4, 1}));

INSTANTIATE_TEST_SUITE_P(Dense, CkptTornCommit,
                         ::testing::Values(EquivalenceCase{1, 1, true},
                                           EquivalenceCase{4, 1, true}));

std::uint64_t HistogramCount(const obs::MetricsSnapshot& snap,
                             const std::string& name) {
  std::uint64_t count = 0;
  for (const obs::SeriesSnapshot& s : snap.series) {
    if (s.name == name) count += s.count;
  }
  return count;
}

// Group commit: one event-log fsync per flush unit that closed events,
// not one per event.  Inline a unit is one Pump, plus two in Finish (the
// collector's held tail, then the tracker flush); threaded, one merge
// schedule, plus Finish's flush.
class CkptCommits : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CkptCommits, OneFsyncPerFlushUnit) {
  const std::size_t shards = GetParam();
  World& w = SharedWorld();
  TempDir dir;
  obs::Registry metrics;
  EngineOptions opts = DurableOptions(shards);
  opts.metrics = &metrics;
  core::KnowledgeBase kb = CloneKb(w.kb);
  Engine eng(&kb, &w.dict, opts);
  std::string error;
  ASSERT_TRUE(eng.OpenDurable(dir.str(), &error)) << error;
  std::uint64_t pumps = 0;
  for (std::size_t i = 0; i < w.live.messages.size(); ++i) {
    eng.IngestRecord(w.live.messages[i]);
    if (i % 64 == 63) {
      eng.Pump();
      ++pumps;
    }
  }
  eng.Finish();
  const obs::MetricsSnapshot snap = metrics.Collect();
  const std::uint64_t commits =
      HistogramCount(snap, "ckpt_eventlog_fsync_seconds");
  EXPECT_GT(commits, 0u);
  if (shards == 1) {
    EXPECT_LE(commits, pumps + 2);
  } else {
    EXPECT_LE(commits,
              HistogramCount(snap, "pipeline_merge_batch_seconds") + 1);
  }
  EXPECT_GT(eng.event_count(), commits);
  EXPECT_EQ(snap.Value("ckpt_eventlog_append_failures_total"), 0);
  EXPECT_EQ(DumpLog(dir.str()).size(), eng.event_count());
}

INSTANTIATE_TEST_SUITE_P(Shards, CkptCommits,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

// Caps the size of the files this process writes, as a full disk would:
// a write past the cap fails with EFBIG instead of raising SIGXFSZ.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit cap = saved_;
    cap.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &cap);
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = nullptr;
};

// A commit the log cannot take is reported once, in the failure counter
// and on stderr, and its events are still delivered.  The log stays at
// its last good record, so every later commit fails and is reported
// once too.
TEST(CkptEngineTest, FailedCommitsAreCountedOncePerCommit) {
  World& w = SharedWorld();
  TempDir dir;
  obs::Registry metrics;
  EngineOptions opts = DurableOptions(1);
  opts.metrics = &metrics;
  core::KnowledgeBase kb = CloneKb(w.kb);
  Engine eng(&kb, &w.dict, opts);
  std::string error;
  ASSERT_TRUE(eng.OpenDurable(dir.str(), &error)) << error;
  std::uint64_t delivered = 0;
  eng.SetEventSink([&delivered](const core::DigestEvent&) { ++delivered; });
  const std::size_t n = w.live.messages.size();
  const auto feed = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      eng.IngestRecord(w.live.messages[i]);
      if (i % 64 == 63) eng.Pump();
    }
  };
  feed(0, n / 2);
  const std::uint64_t logged = DumpLog(dir.str()).size();
  const std::uint64_t good_commits =
      HistogramCount(metrics.Collect(), "ckpt_eventlog_fsync_seconds");
  ASSERT_GT(logged, 0u);
  std::string reported;
  {
    // Captured first: the capture file must not hit the cap.
    ::testing::internal::CaptureStderr();
    const FileSizeCap cap(
        std::filesystem::file_size(dir.str() + "/events.log") + 1);
    feed(n / 2, n);
    eng.Finish();
  }
  reported = ::testing::internal::GetCapturedStderr();
  const obs::MetricsSnapshot snap = metrics.Collect();
  const std::int64_t failures =
      snap.Value("ckpt_eventlog_append_failures_total");
  std::int64_t lines = 0;
  for (std::size_t at = reported.find("event log commit");
       at != std::string::npos;
       at = reported.find("event log commit", at + 1)) {
    ++lines;
  }
  EXPECT_GT(failures, 0);
  EXPECT_EQ(lines, failures);
  EXPECT_EQ(HistogramCount(snap, "ckpt_eventlog_fsync_seconds"),
            good_commits);
  // Several events per failed commit: counted per commit, not per event.
  EXPECT_LT(static_cast<std::uint64_t>(failures), eng.event_count() - logged);
  EXPECT_EQ(delivered, eng.event_count());
  EXPECT_EQ(DumpLog(dir.str()).size(), logged);
}

// The delivery contract: no sink call happens before its commit's fsync
// returned.  The sink re-reads the log on every call and must find the
// event it was handed under its sequence number.
class CkptLogBeforeSink : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CkptLogBeforeSink, SinkFindsItsEventAlreadyLogged) {
  const std::size_t shards = GetParam();
  World& w = SharedWorld();
  TempDir dir;
  core::KnowledgeBase kb = CloneKb(w.kb);
  Engine eng(&kb, &w.dict, DurableOptions(shards));
  std::string error;
  ASSERT_TRUE(eng.OpenDurable(dir.str(), &error)) << error;
  std::uint64_t delivered = 0;
  std::uint64_t unlogged = 0;
  eng.SetEventSink([&](const core::DigestEvent& ev) {
    const std::uint64_t seq = delivered++;
    std::string logged;
    std::string log_error;
    ckpt::EventLog::ForEach(
        dir.str() + "/events.log",
        [&](std::uint64_t s, std::string_view payload) {
          if (s != seq) return;
          ckpt::Reader r(payload);
          core::DigestEvent back;
          if (ckpt::ReadEvent(&r, &back)) logged = back.Format();
        },
        &log_error);
    if (logged != ev.Format()) ++unlogged;
  });
  for (const auto& rec : w.live.messages) {
    eng.IngestRecord(rec);
    eng.Pump();
  }
  eng.Finish();
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(unlogged, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, CkptLogBeforeSink,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

// A snapshot taken before the first record restores into an engine that
// then streams the live day exactly as a fresh engine does, in both
// shapes such a snapshot has had: (a) stage flag 0 and no stage section,
// as written while the engine built its stage at the first record, and
// (b) the stage section of a stage that has seen nothing, as
// Checkpoint() writes it now.
class CkptBeforeFirstRecord : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CkptBeforeFirstRecord, RestoredEngineStreamsLikeAFreshOne) {
  const std::size_t shards = GetParam();
  const EngineOptions opts = DurableOptions(shards);
  World& w = SharedWorld();
  TempDir golden_dir;
  const auto golden = RunGolden(w, shards, golden_dir.str());
  ASSERT_FALSE(golden.empty());

  // (a) By hand: the tenant, no events, a fresh collector, flag 0.
  TempDir lazy_dir;
  {
    const syslog::Collector collector(opts.hold_ms, opts.year,
                                      opts.suppress_duplicates);
    ckpt::Writer body;
    body.Str(opts.tenant);
    body.U64(0);
    collector.SaveState(&body);
    body.U8(0);
    std::string error;
    ASSERT_TRUE(ckpt::WriteSnapshotFile(lazy_dir.str() + "/snapshot",
                                        body.data(), &error))
        << error;
  }
  // (b) Checkpoint() before the first record.
  TempDir eager_dir;
  {
    core::KnowledgeBase kb = CloneKb(w.kb);
    Engine eng(&kb, &w.dict, opts);
    std::string error;
    ASSERT_TRUE(eng.OpenDurable(eager_dir.str(), &error)) << error;
    ASSERT_TRUE(eng.Checkpoint(&error)) << error;
    std::string body;
    ASSERT_EQ(ckpt::ReadSnapshotFile(eager_dir.str() + "/snapshot", &body,
                                     &error),
              ckpt::SnapshotStatus::kOk)
        << error;
    ckpt::Reader r(body);
    EXPECT_EQ(r.Str(), opts.tenant);
    EXPECT_EQ(r.U64(), 0u);
    syslog::Collector collector(opts.hold_ms, opts.year,
                                opts.suppress_duplicates);
    ASSERT_TRUE(collector.LoadState(&r));
    EXPECT_EQ(r.U8(), 1) << "the stage section must follow";
  }

  for (const std::string& dir : {lazy_dir.str(), eager_dir.str()}) {
    SCOPED_TRACE(dir);
    core::KnowledgeBase kb = CloneKb(w.kb);
    Engine eng(&kb, &w.dict, opts);
    std::string error;
    ASSERT_TRUE(eng.OpenDurable(dir, &error)) << error;
    EXPECT_EQ(eng.replay_cursor(), 0u);
    for (const auto& rec : w.live.messages) {
      eng.IngestRecord(rec);
      eng.Pump();
    }
    eng.Finish();
    EXPECT_EQ(DumpLog(dir), golden);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, CkptBeforeFirstRecord,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

// A checkpoint taken after a clean Finish restores to a drained engine:
// nothing open, the replay cursor at the full event count, and a
// no-traffic restart adds nothing to the log.  (A full resend after a
// clean shutdown is a NEW epoch — Finish flushed the collector — which
// is why the crash-recovery contract is resend-after-kill, not
// resend-after-finish.)
TEST(CkptEngineTest, CleanShutdownRestoresDrained) {
  World& w = SharedWorld();
  TempDir dir;
  std::uint64_t total = 0;
  {
    core::KnowledgeBase kb = CloneKb(w.kb);
    Engine eng(&kb, &w.dict, DurableOptions(1));
    std::string error;
    ASSERT_TRUE(eng.OpenDurable(dir.str(), &error)) << error;
    for (const auto& rec : w.live.messages) {
      eng.IngestRecord(rec);
      eng.Pump();
    }
    eng.Finish();
    ASSERT_TRUE(eng.Checkpoint(&error)) << error;
    total = eng.event_count();
    ASSERT_GT(total, 0u);
  }
  const auto before = DumpLog(dir.str());
  ASSERT_EQ(before.size(), total);
  core::KnowledgeBase kb = CloneKb(w.kb);
  Engine eng(&kb, &w.dict, DurableOptions(1));
  std::string error;
  ASSERT_TRUE(eng.OpenDurable(dir.str(), &error)) << error;
  EXPECT_EQ(eng.replay_cursor(), total);
  EXPECT_EQ(eng.event_count(), total);
  EXPECT_EQ(eng.open_group_count(), 0u);
  eng.Finish();
  EXPECT_EQ(eng.event_count(), total);
  EXPECT_EQ(DumpLog(dir.str()), before);
}

// A durable engine that checkpointed after a clean Finish, restored and
// fed the network's next quiet day: returns the events it closed before its
// own Finish.  The restored tracker must keep sweeping, as a fresh one
// does; before the fix its clock was Finish's INT64_MAX sentinel, so
// nothing closed until Finish and, below the 30 s sweep interval, the
// sweep arithmetic overflowed (the asan-ubsan job runs these tests).
std::uint64_t EventsStreamedAfterCleanRestart(TimeMs idle_close_ms) {
  World& w = SharedWorld();
  EngineOptions opts = DurableOptions(1);
  opts.idle_close_ms = idle_close_ms;
  TempDir dir;
  {
    core::KnowledgeBase kb = CloneKb(w.kb);
    Engine eng(&kb, &w.dict, opts);
    std::string error;
    EXPECT_TRUE(eng.OpenDurable(dir.str(), &error)) << error;
    for (const auto& rec : w.live.messages) {
      eng.IngestRecord(rec);
      eng.Pump();
    }
    eng.Finish();
    EXPECT_TRUE(eng.Checkpoint(&error)) << error;
  }
  // The first whole day after the live day's last record (long events
  // run past their day's end).
  TimeMs last = 0;
  for (const auto& rec : w.live.messages) last = std::max(last, rec.time);
  const int next = static_cast<int>((last - sim::DatasetEpoch()) / kMsPerDay) + 1;
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = 6;
  const sim::Dataset next_day = sim::GenerateDataset(spec, next, 1, 904);
  core::KnowledgeBase kb = CloneKb(w.kb);
  Engine eng(&kb, &w.dict, opts);
  std::string error;
  EXPECT_TRUE(eng.OpenDurable(dir.str(), &error)) << error;
  const std::uint64_t restored = eng.event_count();
  EXPECT_GT(restored, 0u);
  for (const auto& rec : next_day.messages) {
    eng.IngestRecord(rec);
    eng.Pump();
  }
  const std::uint64_t streamed = eng.event_count() - restored;
  eng.Finish();
  EXPECT_GT(eng.event_count(), restored);
  return streamed;
}

TEST(CkptEngineTest, RestoreAfterFinishClosesEventsMidStream) {
  EXPECT_GT(EventsStreamedAfterCleanRestart(60 * kMsPerSecond), 0u);
}

TEST(CkptEngineTest, RestoreAfterFinishAtShortIdleHorizon) {
  EXPECT_GT(EventsStreamedAfterCleanRestart(10 * kMsPerSecond), 0u);
}

TEST(CkptEngineTest, CorruptSnapshotRefusesToOpen) {
  World& w = SharedWorld();
  TempDir live;
  TempDir dir;
  RunUntilCrash(w, 1, live.str(), dir.str(), 50, 100);
  // Flip a byte in the snapshot body.
  const std::string path = dir.str() + "/snapshot";
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 30u);
  bytes[bytes.size() - 5] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  core::KnowledgeBase kb = CloneKb(w.kb);
  Engine eng(&kb, &w.dict, DurableOptions(1));
  std::string error;
  EXPECT_FALSE(eng.OpenDurable(dir.str(), &error));
  EXPECT_NE(error.find("refusing to restore"), std::string::npos) << error;
  EXPECT_FALSE(eng.durable());
}

TEST(CkptEngineTest, SnapshotForAnotherTenantRefusesToOpen) {
  World& w = SharedWorld();
  TempDir dir;
  {
    core::KnowledgeBase kb = CloneKb(w.kb);
    EngineOptions opts = DurableOptions(1);
    opts.tenant = "alpha";
    Engine eng(&kb, &w.dict, opts);
    std::string error;
    ASSERT_TRUE(eng.OpenDurable(dir.str(), &error)) << error;
    for (std::size_t i = 0; i < 100; ++i) {
      eng.IngestRecord(w.live.messages[i]);
      eng.Pump();
    }
    ASSERT_TRUE(eng.Checkpoint(&error)) << error;
  }
  core::KnowledgeBase kb = CloneKb(w.kb);
  EngineOptions opts = DurableOptions(1);
  opts.tenant = "beta";
  Engine eng(&kb, &w.dict, opts);
  std::string error;
  EXPECT_FALSE(eng.OpenDurable(dir.str(), &error));
  EXPECT_NE(error.find("tenant"), std::string::npos) << error;
}

TEST(CkptEngineTest, MissingConfigDirFailsEngineLoad) {
  std::string error;
  const auto eng = Engine::Load("/nonexistent/configs/dir",
                                "/nonexistent/kb.txt", EngineOptions{},
                                &error);
  EXPECT_EQ(eng, nullptr);
  EXPECT_FALSE(error.empty());
}

// LoadConfigDir itself: an unreadable dir reports an error instead of
// masquerading as an empty-but-valid config directory.
TEST(CkptEngineTest, LoadConfigDirReportsMissingDirectory) {
  std::string error;
  const auto parsed = LoadConfigDir("/nonexistent/configs/dir", &error);
  EXPECT_TRUE(parsed.empty());
  EXPECT_NE(error.find("cannot read config dir"), std::string::npos)
      << error;
  // An existing-but-empty dir is NOT an error: zero configs is valid.
  TempDir empty;
  error.clear();
  const auto none = LoadConfigDir(empty.str(), &error);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(error.empty()) << error;
}

}  // namespace
}  // namespace sld::engine
