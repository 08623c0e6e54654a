#include "syslog/ingest.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "syslog/archive.h"

namespace sld::syslog {
namespace {

// Serial ground truth: the istream reader over the same bytes.
std::vector<SyslogRecord> SerialRead(const std::string& text,
                                     std::size_t* malformed) {
  std::istringstream in(text);
  return ReadArchive(in, malformed);
}

void ExpectMatchesSerial(const std::string& text) {
  std::size_t serial_malformed = 0;
  const auto serial = SerialRead(text, &serial_malformed);
  IngestStats stats;
  const auto parsed = ParseArchive(text, {}, &stats);
  EXPECT_EQ(stats.malformed, serial_malformed);
  EXPECT_EQ(stats.records, serial.size());
  ASSERT_EQ(parsed.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parsed[i], serial[i]) << "record " << i;
  }
}

std::string Line(int day, int sec, const std::string& router,
                 const std::string& detail) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "2009-09-%02d %02d:%02d:%02d %s LINK-3-UPDOWN %s\n",
                day, sec / 3600, (sec / 60) % 60, sec % 60, router.c_str(),
                detail.c_str());
  return buf;
}

// A messy archive: multi-day records interleaved with comments, blank
// lines, CRLF endings and malformed rows.
std::string MessyArchive(int lines) {
  std::string text;
  for (int i = 0; i < lines; ++i) {
    if (i % 7 == 0) text += "# comment line\n";
    if (i % 11 == 0) text += "\n";
    if (i % 13 == 0) text += "garbage that fails to parse\n";
    if (i % 17 == 0) text += "2009-13-01 00:00:01 r1 A-1-B bad month\n";
    std::string line = Line(1 + (i % 28), i % 86400, "r" + std::to_string(i % 5),
                            "Interface Serial" + std::to_string(i) +
                                "/0, changed state to down");
    if (i % 5 == 0) {
      line.insert(line.size() - 1, "\r");  // CRLF ending
    }
    text += line;
  }
  return text;
}

TEST(IngestTest, EmptyInput) {
  IngestStats stats;
  const auto records = ParseArchive("", {}, &stats);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.malformed, 0u);
}

TEST(IngestTest, SingleRecordSmallerThanOneBlock) {
  const std::string text =
      "2009-09-01 00:00:01 r1 LINK-3-UPDOWN some detail\n";
  ExpectMatchesSerial(text);
  const auto records = ParseArchive(text);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].router, "r1");
  EXPECT_EQ(records[0].detail, "some detail");
}

TEST(IngestTest, MissingTrailingNewline) {
  const std::string text =
      Line(1, 10, "r1", "first detail") +
      "2009-09-01 00:00:11 r2 LINK-3-UPDOWN last line no newline";
  ExpectMatchesSerial(text);
  const auto records = ParseArchive(text);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].detail, "last line no newline");
}

TEST(IngestTest, CrlfLineEndings) {
  std::string text;
  text += "2009-09-01 00:00:01 r1 A-1-B detail one\r\n";
  text += "\r\n";  // CR-only content line: malformed, same as getline's
  text += "# comment\r\n";
  text += "2009-09-01 00:00:02 r2 A-1-B detail two\r\n";
  ExpectMatchesSerial(text);
  const auto records = ParseArchive(text);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].detail, "detail one");  // '\r' trimmed
  EXPECT_EQ(records[1].router, "r2");
}

TEST(IngestTest, CommentsAndBlanksStraddlingBlockBoundaries) {
  // Comments and blank lines lead, trail and run back to back.
  std::string text = "# leading comment\n\n\n";
  text += MessyArchive(300);
  text += "\n# trailing comment\n#\n";
  ExpectMatchesSerial(text);
}

TEST(IngestTest, MessyArchiveIsBitIdenticalToSerial) {
  const std::string text = MessyArchive(2000);
  std::size_t serial_malformed = 0;
  SerialRead(text, &serial_malformed);
  ASSERT_GT(serial_malformed, 0u);
  ExpectMatchesSerial(text);
}

TEST(IngestTest, TimestampMemoSurvivesDateChangesAndGarbage) {
  // Dates going forward, backward, and invalid in between: the memo may
  // only ever short-circuit exact repeats of a validated date.
  std::string text;
  text += "2008-02-29 23:59:59 r1 A-1-B leap day\n";
  text += "2008-02-29 00:00:00 r1 A-1-B same day again\n";
  text += "2009-02-29 00:00:00 r1 A-1-B not a leap year\n";
  text += "2008-03-01 00:00:00 r1 A-1-B next day\n";
  text += "2008-02-29 12:00:00.250 r1 A-1-B back in time with millis\n";
  text += "2008-02-30 00:00:00 r1 A-1-B bad day\n";
  ExpectMatchesSerial(text);
}

TEST(IngestTest, FileRoundTripAndMetrics) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sld_ingest_test.log")
          .string();
  const std::string text = MessyArchive(500);
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  std::size_t serial_malformed = 0;
  const auto serial = SerialRead(text, &serial_malformed);

  obs::Registry registry;
  IngestOptions options;
  options.metrics = &registry;
  IngestStats stats;
  bool ok = false;
  const auto records = ReadArchiveFileParallel(path, options, &stats, &ok);
  std::remove(path.c_str());
  ASSERT_TRUE(ok);
  EXPECT_TRUE(records == serial);
  EXPECT_EQ(stats.bytes, text.size());
  EXPECT_EQ(stats.records, serial.size());
  EXPECT_EQ(stats.malformed, serial_malformed);

  const auto snapshot = registry.Collect();
  EXPECT_EQ(snapshot.Value("ingest_bytes_total"),
            static_cast<std::int64_t>(text.size()));
  EXPECT_EQ(snapshot.Value("ingest_records_total"),
            static_cast<std::int64_t>(serial.size()));
  EXPECT_EQ(snapshot.Value("ingest_malformed_total"),
            static_cast<std::int64_t>(serial_malformed));
}

TEST(IngestTest, MissingFileReportsFailure) {
  bool ok = true;
  IngestStats stats;
  const auto records = ReadArchiveFileParallel(
      "/nonexistent/path/file.log", {}, &stats, &ok);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(stats.records, 0u);
}

TEST(IngestTest, EmptyFileIsOk) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sld_ingest_empty.log")
          .string();
  { std::ofstream out(path); }
  bool ok = false;
  const auto records = ReadArchiveFileParallel(path, {}, nullptr, &ok);
  std::remove(path.c_str());
  EXPECT_TRUE(ok);
  EXPECT_TRUE(records.empty());
}

}  // namespace
}  // namespace sld::syslog
