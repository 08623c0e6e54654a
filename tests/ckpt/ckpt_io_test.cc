// Unit tests for the checkpoint I/O layer: the byte codec, the
// crash-consistent snapshot file protocol, and the durable event log's
// torn-tail recovery (src/ckpt/).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/codec.h"
#include "ckpt/event_codec.h"
#include "ckpt/eventlog.h"
#include "ckpt/snapshot.h"
#include "core/digest.h"

namespace sld::ckpt {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("sld_ckpt_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CodecTest, RoundTripsEveryType) {
  Writer w;
  w.U8(7);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F64(3.25);
  w.Str("hello\0world");  // embedded NUL via literal truncation is fine
  w.Str("");
  Reader r(w.data());
  EXPECT_EQ(r.U8(), 7u);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.F64(), 3.25);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, ShortReadLatchesNotOk) {
  Writer w;
  w.U32(5);
  Reader r(w.data());
  (void)r.U64();  // asks for more than is there
  EXPECT_FALSE(r.ok());
  // Subsequent reads stay zero and never touch memory.
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_EQ(r.Str(), "");
}

// Count() is the guard between corrupt bytes and giant allocations: an
// element count that could not possibly fit in the remaining bytes must
// read as zero with ok() false, not as a multi-gigabyte resize.
TEST(CodecTest, CountRejectsImpossibleElementCounts) {
  Writer w;
  w.U64(static_cast<std::uint64_t>(1) << 60);
  Reader r(w.data());
  EXPECT_EQ(r.Count(8), 0u);
  EXPECT_FALSE(r.ok());

  Writer ok;
  ok.U64(3);
  ok.U32(1);
  ok.U32(2);
  ok.U32(3);
  Reader r2(ok.data());
  EXPECT_EQ(r2.Count(4), 3u);
  EXPECT_TRUE(r2.ok());
}

TEST(CodecTest, Crc32MatchesKnownVector) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_NE(Crc32("123456780"), Crc32("123456789"));
}

TEST(SnapshotTest, RoundTrip) {
  TempDir dir;
  const std::string path = dir.file("snap");
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, "the body", &error)) << error;
  std::string body;
  EXPECT_EQ(ReadSnapshotFile(path, &body, &error), SnapshotStatus::kOk);
  EXPECT_EQ(body, "the body");
  // Overwrite is atomic-replace: the new body wins entirely.
  ASSERT_TRUE(WriteSnapshotFile(path, "v2", &error)) << error;
  EXPECT_EQ(ReadSnapshotFile(path, &body, &error), SnapshotStatus::kOk);
  EXPECT_EQ(body, "v2");
}

TEST(SnapshotTest, AbsentIsAFreshStartNotAnError) {
  TempDir dir;
  std::string body = "untouched";
  std::string error;
  EXPECT_EQ(ReadSnapshotFile(dir.file("nope"), &body, &error),
            SnapshotStatus::kAbsent);
  EXPECT_EQ(body, "untouched");
}

TEST(SnapshotTest, RefusesCorruptionAndTruncation) {
  TempDir dir;
  const std::string path = dir.file("snap");
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, "some snapshot body", &error));
  const std::string good = ReadAll(path);

  std::string body;
  // Flip one body byte: CRC must catch it.
  std::string bad = good;
  bad[bad.size() - 3] ^= 0x40;
  WriteAll(path, bad);
  EXPECT_EQ(ReadSnapshotFile(path, &body, &error), SnapshotStatus::kCorrupt);

  // Truncate mid-body (a torn write that dodged the rename protocol).
  WriteAll(path, good.substr(0, good.size() - 4));
  EXPECT_EQ(ReadSnapshotFile(path, &body, &error), SnapshotStatus::kCorrupt);

  // Truncate mid-header.
  WriteAll(path, good.substr(0, 10));
  EXPECT_EQ(ReadSnapshotFile(path, &body, &error), SnapshotStatus::kCorrupt);

  // Wrong magic.
  bad = good;
  bad[0] = 'X';
  WriteAll(path, bad);
  EXPECT_EQ(ReadSnapshotFile(path, &body, &error), SnapshotStatus::kCorrupt);
}

TEST(SnapshotTest, RefusesNewerFormatVersion) {
  TempDir dir;
  const std::string path = dir.file("snap");
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, "body", &error));
  std::string bytes = ReadAll(path);
  // The u32 version lives right after the 8-byte magic (little endian).
  bytes[8] = static_cast<char>(kSnapshotVersion + 1);
  WriteAll(path, bytes);
  std::string body;
  EXPECT_EQ(ReadSnapshotFile(path, &body, &error),
            SnapshotStatus::kVersionMismatch);
}

TEST(EventLogTest, AppendAndReopenRecoversNextSeq) {
  TempDir dir;
  const std::string path = dir.file("events.log");
  std::string error;
  EventLog::OpenStats stats;
  auto log = EventLog::Open(path, &stats, &error);
  ASSERT_NE(log, nullptr) << error;
  EXPECT_EQ(log->next_seq(), 0u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(log->Append(i, "payload-" + std::to_string(i), nullptr,
                            &error))
        << error;
  }
  log.reset();

  log = EventLog::Open(path, &stats, &error);
  ASSERT_NE(log, nullptr) << error;
  EXPECT_EQ(stats.records, 5u);
  EXPECT_FALSE(stats.truncated_tail);
  EXPECT_EQ(log->next_seq(), 5u);

  std::vector<std::string> seen;
  ASSERT_TRUE(EventLog::ForEach(
      path,
      [&seen](std::uint64_t seq, std::string_view payload) {
        seen.push_back(std::to_string(seq) + ":" + std::string(payload));
      },
      &error))
      << error;
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[0], "0:payload-0");
  EXPECT_EQ(seen[4], "4:payload-4");
}

TEST(EventLogTest, TornTailIsTruncatedAway) {
  TempDir dir;
  const std::string path = dir.file("events.log");
  std::string error;
  EventLog::OpenStats stats;
  {
    auto log = EventLog::Open(path, &stats, &error);
    ASSERT_NE(log, nullptr);
    ASSERT_TRUE(log->Append(0, "first", nullptr, &error));
    ASSERT_TRUE(log->Append(1, "second-record", nullptr, &error));
  }
  // Simulate a crash mid-append: cut the last record in half.
  const std::string bytes = ReadAll(path);
  WriteAll(path, bytes.substr(0, bytes.size() - 6));

  auto log = EventLog::Open(path, &stats, &error);
  ASSERT_NE(log, nullptr) << error;
  EXPECT_EQ(stats.records, 1u);
  EXPECT_TRUE(stats.truncated_tail);
  EXPECT_EQ(log->next_seq(), 1u);
  // The log is appendable again at the recovered position.
  ASSERT_TRUE(log->Append(1, "second-take-two", nullptr, &error)) << error;
  log.reset();
  std::vector<std::string> seen;
  ASSERT_TRUE(EventLog::ForEach(
      path,
      [&seen](std::uint64_t, std::string_view payload) {
        seen.emplace_back(payload);
      },
      &error));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], "second-take-two");
}

TEST(EventLogTest, MidLogCorruptionIsAHardError) {
  TempDir dir;
  const std::string path = dir.file("events.log");
  std::string error;
  EventLog::OpenStats stats;
  std::size_t first_len = 0;
  {
    auto log = EventLog::Open(path, &stats, &error);
    ASSERT_NE(log, nullptr);
    ASSERT_TRUE(log->Append(0, "first", nullptr, &error));
    first_len = std::filesystem::file_size(path);
    ASSERT_TRUE(log->Append(1, "second", nullptr, &error));
  }
  // Flip a byte INSIDE the first record while a complete second record
  // follows: bitrot, not a crash artifact — refuse to open.
  std::string bytes = ReadAll(path);
  bytes[first_len - 2] ^= 0x20;
  WriteAll(path, bytes);
  EXPECT_EQ(EventLog::Open(path, &stats, &error), nullptr);
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(EventLog::ForEach(
      path, [](std::uint64_t, std::string_view) {}, &error));
}

TEST(EventLogTest, AppendRejectsOutOfOrderSeq) {
  TempDir dir;
  std::string error;
  EventLog::OpenStats stats;
  auto log = EventLog::Open(dir.file("events.log"), &stats, &error);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(log->Append(0, "a", nullptr, &error));
  EXPECT_FALSE(log->Append(2, "gap", nullptr, &error));
  EXPECT_FALSE(log->Append(0, "rewind", nullptr, &error));
  EXPECT_TRUE(log->Append(1, "b", nullptr, &error));
}

// One commit of several records: the reopened log recovers next_seq
// past every record of every commit.
TEST(EventLogTest, AppendBatchAndReopenRecoversNextSeq) {
  TempDir dir;
  const std::string path = dir.file("events.log");
  std::string error;
  EventLog::OpenStats stats;
  auto log = EventLog::Open(path, &stats, &error);
  ASSERT_NE(log, nullptr) << error;
  const std::vector<std::string_view> first = {"a", "bb", "ccc"};
  const std::vector<std::string_view> second = {"dddd", "eeeee"};
  double fsync_s = -1.0;
  ASSERT_TRUE(log->AppendBatch(0, first, &fsync_s, &error)) << error;
  EXPECT_GE(fsync_s, 0.0);
  EXPECT_EQ(log->next_seq(), 3u);
  ASSERT_TRUE(log->AppendBatch(3, second, nullptr, &error)) << error;
  log.reset();

  log = EventLog::Open(path, &stats, &error);
  ASSERT_NE(log, nullptr) << error;
  EXPECT_EQ(stats.records, 5u);
  EXPECT_FALSE(stats.truncated_tail);
  EXPECT_EQ(log->next_seq(), 5u);
  std::vector<std::string> seen;
  ASSERT_TRUE(EventLog::ForEach(
      path,
      [&seen](std::uint64_t seq, std::string_view payload) {
        seen.push_back(std::to_string(seq) + ":" + std::string(payload));
      },
      &error))
      << error;
  EXPECT_EQ(seen, (std::vector<std::string>{"0:a", "1:bb", "2:ccc", "3:dddd",
                                            "4:eeeee"}));
}

// Commit grouping leaves no trace on disk: one batch of N payloads and N
// one-record appends write the same bytes, so a reader cannot tell them
// apart and logs written before batching read unchanged.
TEST(EventLogTest, BatchWritesTheSameBytesAsPerRecordAppends) {
  TempDir dir;
  std::vector<std::string> payloads;
  for (int i = 0; i < 40; ++i) {
    payloads.push_back("event-" + std::to_string(i) +
                       std::string(static_cast<std::size_t>(i * 7), 'x'));
  }
  payloads.push_back("");  // a zero-length payload frames too
  const std::vector<std::string_view> views(payloads.begin(), payloads.end());
  std::string error;
  EventLog::OpenStats stats;
  {
    auto one = EventLog::Open(dir.file("one.log"), &stats, &error);
    ASSERT_NE(one, nullptr) << error;
    for (std::size_t i = 0; i < views.size(); ++i) {
      ASSERT_TRUE(one->Append(i, views[i], nullptr, &error)) << error;
    }
    auto batch = EventLog::Open(dir.file("batch.log"), &stats, &error);
    ASSERT_NE(batch, nullptr) << error;
    ASSERT_TRUE(batch->AppendBatch(0, views, nullptr, &error)) << error;
    auto mixed = EventLog::Open(dir.file("mixed.log"), &stats, &error);
    ASSERT_NE(mixed, nullptr) << error;
    const std::span<const std::string_view> all(views);
    ASSERT_TRUE(mixed->AppendBatch(0, all.first(1), nullptr, &error));
    ASSERT_TRUE(mixed->AppendBatch(1, all.subspan(1, 16), nullptr, &error));
    ASSERT_TRUE(mixed->AppendBatch(17, all.subspan(17), nullptr, &error));
  }
  const std::string one = ReadAll(dir.file("one.log"));
  ASSERT_FALSE(one.empty());
  // Compared as bools: a mismatch would otherwise print binary logs.
  EXPECT_TRUE(ReadAll(dir.file("batch.log")) == one);
  EXPECT_TRUE(ReadAll(dir.file("mixed.log")) == one);
}

TEST(EventLogTest, AppendBatchRejectsWrongFirstSeqAndWritesNothing) {
  TempDir dir;
  const std::string path = dir.file("events.log");
  std::string error;
  EventLog::OpenStats stats;
  auto log = EventLog::Open(path, &stats, &error);
  ASSERT_NE(log, nullptr) << error;
  const std::vector<std::string_view> two = {"a", "b"};
  ASSERT_TRUE(log->AppendBatch(0, two, nullptr, &error)) << error;
  const std::string before = ReadAll(path);
  double fsync_s = -1.0;
  EXPECT_FALSE(log->AppendBatch(1, two, &fsync_s, &error));  // rewind
  EXPECT_NE(error.find("out of order"), std::string::npos) << error;
  EXPECT_FALSE(log->AppendBatch(3, two, &fsync_s, &error));  // gap
  EXPECT_EQ(fsync_s, -1.0);
  EXPECT_EQ(log->next_seq(), 2u);
  EXPECT_TRUE(ReadAll(path) == before);
  EXPECT_TRUE(log->AppendBatch(2, two, nullptr, &error)) << error;
  EXPECT_EQ(log->next_seq(), 4u);
}

TEST(EventLogTest, EmptyBatchNeitherWritesNorSyncs) {
  TempDir dir;
  const std::string path = dir.file("events.log");
  std::string error;
  EventLog::OpenStats stats;
  auto log = EventLog::Open(path, &stats, &error);
  ASSERT_NE(log, nullptr) << error;
  ASSERT_TRUE(log->Append(0, "a", nullptr, &error)) << error;
  const std::string before = ReadAll(path);
  // The fsync time is reported only when an fsync ran.
  double fsync_s = -1.0;
  EXPECT_TRUE(log->AppendBatch(1, {}, &fsync_s, &error)) << error;
  EXPECT_EQ(fsync_s, -1.0);
  EXPECT_EQ(log->next_seq(), 1u);
  EXPECT_TRUE(ReadAll(path) == before);
}

TEST(EventCodecTest, DigestEventRoundTrips) {
  core::DigestEvent ev;
  ev.messages = {3, 5, 8};
  ev.start = 1000;
  ev.end = 9000;
  ev.score = 12.5;
  ev.label = "LINK-3-UPDOWN";
  ev.location_text = "Serial0/0";
  ev.templates = {2, 7};
  ev.router_keys = {0, 4};
  Writer w;
  WriteEvent(ev, &w);
  Reader r(w.data());
  core::DigestEvent back;
  ASSERT_TRUE(ReadEvent(&r, &back));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.messages, ev.messages);
  EXPECT_EQ(back.start, ev.start);
  EXPECT_EQ(back.end, ev.end);
  EXPECT_EQ(back.score, ev.score);
  EXPECT_EQ(back.label, ev.label);
  EXPECT_EQ(back.location_text, ev.location_text);
  EXPECT_EQ(back.templates, ev.templates);
  EXPECT_EQ(back.router_keys, ev.router_keys);
  EXPECT_EQ(back.Format(), ev.Format());
}

}  // namespace
}  // namespace sld::ckpt
