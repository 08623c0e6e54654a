#include "common/simd.h"

#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace sld::simd {

// ---- Scalar oracles ------------------------------------------------------
//
// These are the exact loops the kernels replace (strings.cc / time.cc);
// every SSE2 body below must agree with them byte for byte.

std::size_t FindByteScalar(const char* data, std::size_t n, std::size_t from,
                           char byte) noexcept {
  for (std::size_t i = from; i < n; ++i) {
    if (data[i] == byte) return i;
  }
  return n;
}

namespace {
bool IsWs(char c) noexcept { return c == ' ' || c == '\t'; }
}  // namespace

void SplitWhitespaceScalar(std::string_view text,
                           std::vector<std::string_view>* out) {
  out->clear();
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && IsWs(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !IsWs(text[i])) ++i;
    if (i > start) out->push_back(text.substr(start, i - start));
  }
}

bool EqualDate10Scalar(const char* a, const char* b) noexcept {
  return std::memcmp(a, b, 10) == 0;
}

#if defined(__SSE2__)

namespace {

// Token emitter for the chunked tokenizer.  `ws` has bit i set when
// byte base+i is space/tab; bits at or above `len` are ignored.
// Walking set bits with ctz reproduces the scalar state machine exactly:
// `in_token`/`start` carry across chunks, so tokens straddling chunk
// boundaries come out as single spans.
struct SplitState {
  bool in_token = false;
  std::size_t start = 0;
};

inline void EmitChunkTokens(const char* data, std::size_t base,
                            std::size_t len, std::uint32_t ws, SplitState& st,
                            std::vector<std::string_view>* out) {
  const std::uint32_t valid = (std::uint32_t{1} << len) - 1;
  std::size_t pos = 0;
  while (pos < len) {
    const std::uint32_t from = ~std::uint32_t{0} << pos;
    if (!st.in_token) {
      const std::uint32_t cand = ~ws & valid & from;
      if (cand == 0) break;
      pos = static_cast<std::size_t>(__builtin_ctz(cand));
      st.in_token = true;
      st.start = base + pos;
    } else {
      const std::uint32_t cand = ws & valid & from;
      if (cand == 0) break;
      pos = static_cast<std::size_t>(__builtin_ctz(cand));
      out->push_back(std::string_view(data + st.start, base + pos - st.start));
      st.in_token = false;
    }
  }
}

std::uint32_t WsMask(const char* p) noexcept {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i ws = _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8(' ')),
                                  _mm_cmpeq_epi8(v, _mm_set1_epi8('\t')));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(ws));
}

}  // namespace

std::size_t FindByteSse2(const char* data, std::size_t n, std::size_t from,
                         char byte) noexcept {
  if (from >= n) return n;
  const __m128i needle = _mm_set1_epi8(byte);
  std::size_t i = from;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const int mask = _mm_movemask_epi8(_mm_cmpeq_epi8(v, needle));
    if (mask != 0) {
      return i + static_cast<std::size_t>(__builtin_ctz(
                     static_cast<unsigned>(mask)));
    }
  }
  return FindByteScalar(data, n, i, byte);
}

void SplitWhitespaceSse2(std::string_view text,
                         std::vector<std::string_view>* out) {
  out->clear();
  const char* data = text.data();
  const std::size_t n = text.size();
  SplitState st;
  std::size_t base = 0;
  for (; base + 16 <= n; base += 16) {
    EmitChunkTokens(data, base, 16, WsMask(data + base), st, out);
  }
  if (base < n) {
    // Stage the tail into a zeroed stack chunk: no overread, and the zero
    // padding sits past `len`, masked off inside EmitChunkTokens.
    char buf[16] = {};
    std::memcpy(buf, data + base, n - base);
    EmitChunkTokens(data, base, n - base, WsMask(buf), st, out);
  }
  if (st.in_token) {
    out->push_back(std::string_view(data + st.start, n - st.start));
  }
}

// Single 16-byte compare masked to the low 10 lanes.
bool EqualDate10Sse2(const char* a, const char* b) noexcept {
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const unsigned eq =
      static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)));
  return (eq & 0x3FFu) == 0x3FFu;
}

#endif  // __SSE2__

}  // namespace sld::simd
