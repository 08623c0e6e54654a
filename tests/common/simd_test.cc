// Differential tests for the SIMD kernel layer (common/simd.h).
//
// Every SSE2 kernel must agree byte-for-byte with its scalar oracle for
// every input: the sweeps below cover lengths 0..257 at all 64 alignments
// of an oversized page, adversarial byte placements (NUL, newline, space,
// tab, high bytes at every position), guard-page spans that fault on any
// overread, and a seeded random fuzz rep.  The public sld:: wrappers the
// library calls must match the oracles too.

#include "common/simd.h"

#include <sys/mman.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "common/time.h"

namespace sld::simd {
namespace {

#if defined(__SSE2__)

// Fills `n` bytes with a palette rich in the bytes the kernels classify.
void Fill(std::mt19937_64& rng, char* p, std::size_t n) {
  static constexpr char kPalette[] = {
      'a',  'z',  'A',  '0',  '5',  '9',  ' ',  '\t', '\n', ':',
      '-',  '.',  '/',  '\0', '\r', '#',  '<',  '*',  '>',
      static_cast<char>(0x80), static_cast<char>(0xC3),
      static_cast<char>(0xFF)};
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = kPalette[rng() % sizeof(kPalette)];
  }
}

// Runs every span-shaped SSE2 kernel against its scalar oracle on
// [data, data+n) and asserts full agreement.
void ExpectSpanAgreement(const char* data, std::size_t n) {
  const std::string_view text(data, n);

  for (const char needle : {'\n', ' ', '\0'}) {
    for (const std::size_t from : {std::size_t{0}, n / 2, n}) {
      ASSERT_EQ(FindByteSse2(data, n, from, needle),
                FindByteScalar(data, n, from, needle))
          << "n=" << n << " from=" << from
          << " needle=" << static_cast<int>(needle);
    }
  }

  std::vector<std::string_view> got, want;
  SplitWhitespaceSse2(text, &got);
  SplitWhitespaceScalar(text, &want);
  ASSERT_EQ(got.size(), want.size()) << "n=" << n;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(static_cast<const void*>(got[i].data()),
              static_cast<const void*>(want[i].data()))
        << "n=" << n << " token=" << i;
    ASSERT_EQ(got[i].size(), want[i].size()) << "n=" << n << " token=" << i;
  }
}

TEST(SimdKernels, LengthAlignmentSweep) {
  std::mt19937_64 rng(12345);
  alignas(64) static char page[4096];
  for (std::size_t len = 0; len <= 257; ++len) {
    for (std::size_t align = 0; align < 64; ++align) {
      char* p = page + align;
      Fill(rng, p, len);
      // Variant 2: plant newlines at the edges and middle; variant 3:
      // all digits (no whitespace, one long token).
      for (int variant = 0; variant < 3; ++variant) {
        if (variant == 1 && len > 0) {
          p[0] = '\n';
          p[len - 1] = '\n';
          p[len / 2] = '\n';
        }
        if (variant == 2) {
          for (std::size_t i = 0; i < len; ++i) {
            p[i] = static_cast<char>('0' + (rng() % 10));
          }
        }
        ExpectSpanAgreement(p, len);
      }
    }
  }
}

TEST(SimdKernels, AdversarialBytePlacements) {
  static constexpr unsigned char kSpecials[] = {0x00, 0x0A, 0x20, 0x09,
                                                0x80, 0xFF};
  alignas(64) static char page[4096];
  for (const std::size_t align : {std::size_t{0}, std::size_t{1},
                                  std::size_t{15}, std::size_t{31},
                                  std::size_t{33}, std::size_t{63}}) {
    char* p = page + align;
    constexpr std::size_t kLen = 130;  // spans 8 SSE2 chunks + tail
    for (const unsigned char special : kSpecials) {
      std::memset(p, 'a', kLen);
      for (std::size_t pos = 0; pos < kLen; ++pos) {
        p[pos] = static_cast<char>(special);
        ExpectSpanAgreement(p, kLen);
        p[pos] = 'a';
      }
    }
  }
}

// Spans placed flush against a PROT_NONE page: any read past the span
// faults.  (EqualDate10 is exercised at its contract width -- 16 readable
// bytes -- likewise flush to the boundary.)
TEST(SimdKernels, NoOverreadAtGuardPage) {
  const std::size_t page = 4096;
  void* raw = mmap(nullptr, 3 * page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(raw, MAP_FAILED);
  char* base = static_cast<char*>(raw);
  ASSERT_EQ(mprotect(base + 2 * page, page, PROT_NONE), 0);
  char* boundary = base + 2 * page;
  std::mt19937_64 rng(777);
  std::vector<std::string_view> scratch;
  for (std::size_t len = 0; len <= 257; ++len) {
    char* p = boundary - len;
    Fill(rng, p, len);
    (void)FindByteSse2(p, len, 0, '\n');
    SplitWhitespaceSse2(std::string_view(p, len), &scratch);
  }
  std::memcpy(boundary - 16, "2010-01-10 extra", 16);
  std::memcpy(boundary - 32, "2010-01-10 other", 16);
  EXPECT_TRUE(EqualDate10Sse2(boundary - 16, boundary - 32));
  munmap(base, 3 * page);
}

// Only the first 10 bytes participate in the compare; the 6 padding bytes
// may differ arbitrarily.
TEST(SimdKernels, EqualDate10IgnoresPadding) {
  char a[16];
  char b[16];
  std::memcpy(a, "2010-01-10 12:34", 16);
  for (std::size_t diff = 0; diff < 16; ++diff) {
    std::memcpy(b, a, 16);
    b[diff] = '!';
    EXPECT_EQ(EqualDate10Sse2(a, b), EqualDate10Scalar(a, b))
        << "diff=" << diff;
    EXPECT_EQ(EqualDate10Sse2(a, b), diff >= 10) << "diff=" << diff;
  }
}

TEST(SimdKernels, SeededRandomFuzz) {
  std::mt19937_64 rng(20260809);
  alignas(64) static char page[4096];
  for (int rep = 0; rep < 20000; ++rep) {
    const std::size_t len = rng() % 512;
    const std::size_t align = rng() % 64;
    char* p = page + align;
    Fill(rng, p, len);
    ExpectSpanAgreement(p, len);
  }
}

#endif  // __SSE2__

// The public wrappers the library actually calls -- tokenization and the
// fast timestamp parse (vs its independent slow oracle) -- must match the
// scalar oracles in whatever kernel set this build compiled.
TEST(SimdDispatch, PublicWrappersIdenticalAtEveryLevel) {
  const std::vector<std::string> samples = {
      "",
      " ",
      "\t\t",
      "one",
      "  leading and trailing  ",
      "Interface TenGigE0/1/0/3 changed state to down",
      "neighbor 10.0.0.1 (AS 65001) down \t BGP-5-ADJCHANGE",
      "2010-01-10 00:00:15 r1 LINK-3-UPDOWN down\nsecond line",
      std::string(300, ' '),
      std::string(127, 'x') + " " + std::string(129, 'y'),
  };
  const std::vector<std::string> stamps = {
      "2010-01-10 00:00:15",        "2010-01-10 23:59:59",
      "2010-01-10 24:00:00",        "2010-02-29 10:00:00",
      "2012-02-29 10:00:00",        "2010-01-10 12:34:56.789",
      "2010-01-10 12:3x:56",        "garbage",
      "2010-01-1  12:34:56",
  };
  for (const std::string& s : samples) {
    EXPECT_EQ(sld::SplitWhitespace(s), [&] {
      std::vector<std::string_view> out;
      SplitWhitespaceScalar(s, &out);
      return out;
    }());
    EXPECT_EQ(FindNewlineFrom(s, 0),
              FindByteScalar(s.data(), s.size(), 0, '\n'));
  }
  TimestampMemo memo;
  for (const std::string& s : stamps) {
    EXPECT_EQ(ParseTimestampFast(s, memo), ParseTimestamp(s)) << s;
    // Twice: once cold, once through the memo's date-compare kernel.
    EXPECT_EQ(ParseTimestampFast(s, memo), ParseTimestamp(s)) << s;
  }
}

}  // namespace
}  // namespace sld::simd
