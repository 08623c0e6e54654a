// Compile-time SIMD kernels for the byte-level hot loops.
//
// Three kernels -- find_byte, split_whitespace and equal_date10 -- each
// have a scalar body and an SSE2 body.  The wrappers at the bottom of
// this header run the SSE2 body whenever the compiler targets SSE2
// (`__SSE2__`, which every x86-64 build defines) and the scalar body
// everywhere else; nothing is chosen at run time.  The scalar bodies are
// compiled on every platform as the named oracles that simd_test and
// bench_kernels compare the SSE2 bodies against: same return values and
// the same token spans for every input.  Callers above `src/common/`
// never see any of this: strings.cc, time.cc, ingest.cc and record.cc
// route through the wrappers and keep their signatures.
//
// One contract differs from the scalar code the kernels replace:
// EqualDate10 requires BOTH arguments to have 16 readable bytes (it is a
// single 16-byte vector compare masked to the low 10).  Its one call site
// guarantees this: timestamp text is at least 19 bytes and
// TimestampMemo::date is padded to 16.  The other kernels read only the
// span they are given (full-width chunks, then a scalar or staged tail --
// never past the end).
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace sld::simd {

// ---- Scalar oracles ------------------------------------------------------

// Index of the first `byte` at or after `from`, or `n` when absent.
std::size_t FindByteScalar(const char* data, std::size_t n, std::size_t from,
                           char byte) noexcept;

// Clears `out` and refills it with the space/tab-separated tokens of
// `text`, as spans into `text`.
void SplitWhitespaceScalar(std::string_view text,
                           std::vector<std::string_view>* out);

// memcmp(a, b, 10) == 0.
bool EqualDate10Scalar(const char* a, const char* b) noexcept;

// ---- SSE2 bodies ---------------------------------------------------------

#if defined(__SSE2__)
std::size_t FindByteSse2(const char* data, std::size_t n, std::size_t from,
                         char byte) noexcept;
void SplitWhitespaceSse2(std::string_view text,
                         std::vector<std::string_view>* out);
// Needs 16 readable bytes behind both pointers (see header comment).
bool EqualDate10Sse2(const char* a, const char* b) noexcept;
#endif

// ---- The kernel set this build runs --------------------------------------

inline std::size_t FindByteFrom(std::string_view hay, std::size_t from,
                                char byte) noexcept {
#if defined(__SSE2__)
  return FindByteSse2(hay.data(), hay.size(), from, byte);
#else
  return FindByteScalar(hay.data(), hay.size(), from, byte);
#endif
}

inline std::size_t FindNewlineFrom(std::string_view hay,
                                   std::size_t from) noexcept {
  return FindByteFrom(hay, from, '\n');
}

inline void SplitWhitespace(std::string_view text,
                            std::vector<std::string_view>* out) {
#if defined(__SSE2__)
  SplitWhitespaceSse2(text, out);
#else
  SplitWhitespaceScalar(text, out);
#endif
}

inline bool EqualDate10(const char* a, const char* b) noexcept {
#if defined(__SSE2__)
  return EqualDate10Sse2(a, b);
#else
  return EqualDate10Scalar(a, b);
#endif
}

}  // namespace sld::simd
