#include "tools/flags.h"

#include <gtest/gtest.h>

#include <vector>

namespace sld::tools {
namespace {

// Builds a mutable argv from string literals (Flags wants char**).
class Argv {
 public:
  explicit Argv(std::initializer_list<const char*> args) {
    for (const char* a : args) storage_.emplace_back(a);
    for (std::string& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(FlagsTest, ParsesValuesAndBooleans) {
  Argv a({"sldigest", "digest", "--kb", "kb.txt", "--report", "--top", "5"});
  Flags flags(a.argc(), a.argv(), 2);
  EXPECT_TRUE(flags.ok());
  EXPECT_EQ(flags.Get("kb"), "kb.txt");
  EXPECT_TRUE(flags.Has("report"));
  EXPECT_EQ(flags.Get("report"), "");
  EXPECT_EQ(flags.GetInt("top", 0), 5);
  EXPECT_FALSE(flags.Has("csv"));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
}

TEST(FlagsTest, NegativeValueIsNotSwallowedAsFlag) {
  // Regression: the seed parser treated any "--"-prefixed or "-"-prefixed
  // successor inconsistently; "--day0 -5" must parse as day0=-5, and the
  // following flag must still be seen.
  Argv a({"sldigest", "gen", "--day0", "-5", "--days", "3"});
  Flags flags(a.argc(), a.argv(), 2);
  EXPECT_TRUE(flags.ok());
  EXPECT_EQ(flags.GetInt("day0", 0), -5);
  EXPECT_EQ(flags.GetInt("days", 0), 3);
}

TEST(FlagsTest, DoubleDashDigitIsAValueToo) {
  // "--top --5" — a typo'd negative — still lands as top's value rather
  // than registering a bogus flag named "5".
  Argv a({"sldigest", "digest", "--top", "--5"});
  Flags flags(a.argc(), a.argv(), 2);
  EXPECT_TRUE(flags.ok());
  EXPECT_FALSE(flags.Has("5"));
  EXPECT_EQ(flags.Get("top"), "--5");
}

TEST(FlagsTest, FlagLikeSuccessorStaysBoolean) {
  Argv a({"sldigest", "learn", "--sweep", "--kb", "kb.txt"});
  Flags flags(a.argc(), a.argv(), 2);
  EXPECT_TRUE(flags.ok());
  EXPECT_TRUE(flags.Has("sweep"));
  EXPECT_EQ(flags.Get("sweep"), "");
  EXPECT_EQ(flags.Get("kb"), "kb.txt");
}

TEST(FlagsTest, EqualsSyntax) {
  Argv a({"sldigest", "digest", "--top=12", "--csv=out.csv", "--empty="});
  Flags flags(a.argc(), a.argv(), 2);
  EXPECT_TRUE(flags.ok());
  EXPECT_EQ(flags.GetInt("top", 0), 12);
  EXPECT_EQ(flags.Get("csv"), "out.csv");
  EXPECT_TRUE(flags.Has("empty"));
  EXPECT_EQ(flags.Get("empty"), "");
}

TEST(FlagsTest, GetIntRejectsGarbage) {
  Argv a({"sldigest", "digest", "--top", "many", "--days", "3x"});
  Flags flags(a.argc(), a.argv(), 2);
  EXPECT_EQ(flags.GetInt("top", 42), 42);
  EXPECT_EQ(flags.GetInt("days", 9), 9);
}

TEST(FlagsTest, StrayPositionalFlagsError) {
  Argv a({"sldigest", "digest", "oops", "--kb", "kb.txt"});
  Flags flags(a.argc(), a.argv(), 2);
  EXPECT_FALSE(flags.ok());
  EXPECT_EQ(flags.Get("kb"), "kb.txt");  // parsing continues past it
}

TEST(FlagsTest, RequireFlagsMissingValues) {
  Argv a({"sldigest", "digest", "--report"});
  Flags flags(a.argc(), a.argv(), 2);
  EXPECT_TRUE(flags.ok());
  flags.Require("kb");
  EXPECT_FALSE(flags.ok());
}

TEST(FlagsTest, LastOccurrenceWins) {
  Argv a({"sldigest", "digest", "--top", "3", "--top", "8"});
  Flags flags(a.argc(), a.argv(), 2);
  EXPECT_EQ(flags.GetInt("top", 0), 8);
  EXPECT_EQ(flags.Get("top"), "8");
}

// Repeatable flags (serve --tenant) keep every occurrence in order.
TEST(FlagsTest, GetAllKeepsEveryOccurrenceInOrder) {
  Argv a({"sldigest", "serve", "--tenant", "a:cfg:kb:1", "--shards", "4",
          "--tenant=b:cfg:kb:2", "--tenant", "c:cfg:kb:3"});
  Flags flags(a.argc(), a.argv(), 2);
  EXPECT_TRUE(flags.ok());
  const std::vector<std::string> expected = {"a:cfg:kb:1", "b:cfg:kb:2",
                                             "c:cfg:kb:3"};
  EXPECT_EQ(flags.GetAll("tenant"), expected);
  // Scalar accessors on a repeated flag see the last value.
  EXPECT_EQ(flags.Get("tenant"), "c:cfg:kb:3");
  // Absent flags yield an empty list, not an error.
  EXPECT_TRUE(flags.GetAll("port").empty());
  // Names() lists each flag once, repeated or not, sorted.
  const std::vector<std::string> names = {"shards", "tenant"};
  EXPECT_EQ(flags.Names(), names);
}

}  // namespace
}  // namespace sld::tools
