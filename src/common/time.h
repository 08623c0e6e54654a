// Civil-time utilities for syslog timestamps.
//
// Router syslog messages carry wall-clock timestamps such as
// "2010-01-10 00:00:15".  The whole pipeline (simulator, miners, groupers)
// works on a single integer time axis: milliseconds since the Unix epoch,
// UTC.  Conversions between that axis and the textual form are implemented
// here from first principles (Howard Hinnant's days-from-civil algorithm)
// so the library has no dependency on the host timezone database.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sld {

// Milliseconds since 1970-01-01 00:00:00 UTC.
using TimeMs = std::int64_t;

inline constexpr TimeMs kMsPerSecond = 1000;
inline constexpr TimeMs kMsPerMinute = 60 * kMsPerSecond;
inline constexpr TimeMs kMsPerHour = 60 * kMsPerMinute;
inline constexpr TimeMs kMsPerDay = 24 * kMsPerHour;

// A broken-down civil (proleptic Gregorian, UTC) time.
struct CivilTime {
  int year = 1970;
  int month = 1;   // [1, 12]
  int day = 1;     // [1, 31]
  int hour = 0;    // [0, 23]
  int minute = 0;  // [0, 59]
  int second = 0;  // [0, 59]
  int millisecond = 0;

  friend bool operator==(const CivilTime&, const CivilTime&) = default;
};

// Days since the epoch for a civil date (negative before 1970).
std::int64_t DaysFromCivil(int year, int month, int day) noexcept;

// Inverse of DaysFromCivil.
void CivilFromDays(std::int64_t days, int& year, int& month, int& day) noexcept;

// Converts a civil time to the millisecond axis.
TimeMs ToTimeMs(const CivilTime& ct) noexcept;

// Converts a millisecond timestamp back to civil time.
CivilTime ToCivil(TimeMs t) noexcept;

// Formats as "YYYY-MM-DD HH:MM:SS" (syslog style; milliseconds dropped).
std::string FormatTimestamp(TimeMs t);

// Formats as "YYYY-MM-DD HH:MM:SS.mmm".
std::string FormatTimestampMs(TimeMs t);

// Parses "YYYY-MM-DD HH:MM:SS" with an optional ".mmm" suffix.
// Returns nullopt on any syntactic or range violation.
std::optional<TimeMs> ParseTimestamp(std::string_view text) noexcept;

// Memo for ParseTimestampFast: caches the last successfully validated
// "YYYY-MM-DD" prefix and its midnight on the millisecond axis.  Only
// validated dates enter the memo, so a 10-byte prefix match is proof the
// date part is well-formed and in range.  The array is padded to 16 bytes
// (only the first kDateLen are meaningful, the rest stay zero) so the
// prefix check can be one 16-byte SSE2 compare — see simd::EqualDate10.
struct TimestampMemo {
  static constexpr std::size_t kDateLen = 10;
  std::array<char, 16> date{};
  TimeMs day_base = 0;
  bool valid = false;
};

// ParseTimestamp with a cached calendar date: when `text` carries the
// same "YYYY-MM-DD" prefix as the memo, only the "HH:MM:SS[.mmm]" tail
// is parsed (digits-only; no civil-date math).  Syslog timestamps are
// near-monotonic, so in archive scans this hits on all but ~1 line per
// day.  Accepts and rejects exactly the same inputs as ParseTimestamp
// and returns the same value for every accepted input, regardless of
// the memo's prior state.
std::optional<TimeMs> ParseTimestampFast(std::string_view text,
                                         TimestampMemo& memo) noexcept;

// True when the given year is a Gregorian leap year.
bool IsLeapYear(int year) noexcept;

// Number of days in a (year, month) pair; month in [1, 12].
int DaysInMonth(int year, int month) noexcept;

}  // namespace sld
