#include "common/time.h"

#include <array>
#include <cstdio>
#include <cstring>

#include "common/simd.h"

namespace sld {
namespace {

bool ParseFixedInt(std::string_view s, std::size_t pos, std::size_t len,
                   int& out) noexcept {
  if (pos + len > s.size()) return false;
  int value = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const char c = s[pos + i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  out = value;
  return true;
}

}  // namespace

bool IsLeapYear(int year) noexcept {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) noexcept {
  static constexpr std::array<int, 12> kDays = {31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[static_cast<std::size_t>(month - 1)];
}

std::int64_t DaysFromCivil(int y, int m, int d) noexcept {
  // Howard Hinnant's algorithm, shifting the year so March is month 0.
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void CivilFromDays(std::int64_t z, int& year, int& month, int& day) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  month = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  year = static_cast<int>(y + (month <= 2));
}

TimeMs ToTimeMs(const CivilTime& ct) noexcept {
  const std::int64_t days = DaysFromCivil(ct.year, ct.month, ct.day);
  return days * kMsPerDay + ct.hour * kMsPerHour + ct.minute * kMsPerMinute +
         ct.second * kMsPerSecond + ct.millisecond;
}

CivilTime ToCivil(TimeMs t) noexcept {
  std::int64_t days = t / kMsPerDay;
  std::int64_t rem = t % kMsPerDay;
  if (rem < 0) {
    rem += kMsPerDay;
    --days;
  }
  CivilTime ct;
  CivilFromDays(days, ct.year, ct.month, ct.day);
  ct.hour = static_cast<int>(rem / kMsPerHour);
  rem %= kMsPerHour;
  ct.minute = static_cast<int>(rem / kMsPerMinute);
  rem %= kMsPerMinute;
  ct.second = static_cast<int>(rem / kMsPerSecond);
  ct.millisecond = static_cast<int>(rem % kMsPerSecond);
  return ct;
}

std::string FormatTimestamp(TimeMs t) {
  const CivilTime ct = ToCivil(t);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", ct.year,
                ct.month, ct.day, ct.hour, ct.minute, ct.second);
  return buf;
}

std::string FormatTimestampMs(TimeMs t) {
  const CivilTime ct = ToCivil(t);
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d.%03d",
                ct.year, ct.month, ct.day, ct.hour, ct.minute, ct.second,
                ct.millisecond);
  return buf;
}

std::optional<TimeMs> ParseTimestamp(std::string_view text) noexcept {
  // "YYYY-MM-DD HH:MM:SS" is exactly 19 chars; ".mmm" is optional.
  if (text.size() != 19 && text.size() != 23) return std::nullopt;
  CivilTime ct;
  if (!ParseFixedInt(text, 0, 4, ct.year) || text[4] != '-' ||
      !ParseFixedInt(text, 5, 2, ct.month) || text[7] != '-' ||
      !ParseFixedInt(text, 8, 2, ct.day) || text[10] != ' ' ||
      !ParseFixedInt(text, 11, 2, ct.hour) || text[13] != ':' ||
      !ParseFixedInt(text, 14, 2, ct.minute) || text[16] != ':' ||
      !ParseFixedInt(text, 17, 2, ct.second)) {
    return std::nullopt;
  }
  if (text.size() == 23) {
    if (text[19] != '.' || !ParseFixedInt(text, 20, 3, ct.millisecond)) {
      return std::nullopt;
    }
  }
  if (ct.month < 1 || ct.month > 12) return std::nullopt;
  if (ct.day < 1 || ct.day > DaysInMonth(ct.year, ct.month)) {
    return std::nullopt;
  }
  if (ct.hour > 23 || ct.minute > 59 || ct.second > 59) return std::nullopt;
  return ToTimeMs(ct);
}

std::optional<TimeMs> ParseTimestampFast(std::string_view text,
                                         TimestampMemo& memo) noexcept {
  if (text.size() != 19 && text.size() != 23) return std::nullopt;
  // text.size() >= 19 and memo.date is padded to 16 bytes, so both sides
  // satisfy EqualDate10's 16-readable-bytes contract.
  TimeMs base;
  if (memo.valid && simd::EqualDate10(text.data(), memo.date.data())) {
    base = memo.day_base;
  } else {
    int year, month, day;
    if (!ParseFixedInt(text, 0, 4, year) || text[4] != '-' ||
        !ParseFixedInt(text, 5, 2, month) || text[7] != '-' ||
        !ParseFixedInt(text, 8, 2, day)) {
      return std::nullopt;
    }
    if (month < 1 || month > 12) return std::nullopt;
    if (day < 1 || day > DaysInMonth(year, month)) return std::nullopt;
    base = DaysFromCivil(year, month, day) * kMsPerDay;
    std::memcpy(memo.date.data(), text.data(), TimestampMemo::kDateLen);
    memo.day_base = base;
    memo.valid = true;
  }
  int hour, minute, second;
  if (text[10] != ' ' || !ParseFixedInt(text, 11, 2, hour) ||
      text[13] != ':' || !ParseFixedInt(text, 14, 2, minute) ||
      text[16] != ':' || !ParseFixedInt(text, 17, 2, second)) {
    return std::nullopt;
  }
  int millisecond = 0;
  if (text.size() == 23 &&
      (text[19] != '.' || !ParseFixedInt(text, 20, 3, millisecond))) {
    return std::nullopt;
  }
  if (hour > 23 || minute > 59 || second > 59) return std::nullopt;
  return base + hour * kMsPerHour + minute * kMsPerMinute +
         second * kMsPerSecond + millisecond;
}

}  // namespace sld
