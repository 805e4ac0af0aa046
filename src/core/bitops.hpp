// Word-parallel bit-span kernels: the data-parallel substrate under the
// quorum primitive (BitRows) and the echo tally tables.
//
// The malicious-case hot path is, at scale, pure bit-set arithmetic —
// dedup bitmaps of distinct echoers, bulk popcounts for live-entry
// accounting, contiguous word fills for phase-window reclamation. This
// header is the one place that arithmetic lives. Every kernel has:
//
//  - a portable uint64 word-parallel reference form (`scalar::`), always
//    compiled, always the semantic ground truth, and
//  - an optional AVX2 form confined to *one* translation unit
//    (bitops_avx2.cpp — the only file permitted to include <immintrin.h>,
//    enforced by rcp-lint's os-exclusive rule), selected at process start
//    by runtime CPUID dispatch through a function-pointer table.
//
// Both forms compute bit-identical results, so protocol behaviour —
// pinned by the trace-digest goldens — is invariant under
// RCP_ENABLE_AVX2=ON/OFF and under the CPU the binary lands on. Spans at
// or below kInlineWords bypass the dispatch table entirely: at small n
// the indirect call would cost more than the loop, and the inline scalar
// form lets the compiler fold the whole kernel into the caller.
//
// Also here: the cache-line-aligned allocator used by the struct-of-arrays
// tally lanes (docs/PERF.md "Word-parallel kernels").
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

namespace rcp::core::bitops {

/// x86 cache-line size; SoA counter lanes are padded to multiples of this
/// so each lane starts on its own line and vector loops never split lines.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Spans of at most this many words (512 bits) skip the dispatch table and
/// run the inline scalar kernel: below this size the indirect call is the
/// dominant cost and AVX2 cannot win.
inline constexpr std::size_t kInlineWords = 8;

/// Which kernel backend the dispatch table resolved to at process start.
enum class Backend : std::uint8_t { scalar = 0, avx2 = 1 };

[[nodiscard]] Backend active_backend() noexcept;
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

// ---------------------------------------------------------------------------
// Portable reference kernels. Always available, always correct; the AVX2
// backend is validated against these (tests/core/bitops_test.cpp).

namespace scalar {

[[nodiscard]] inline std::size_t popcount_words(const std::uint64_t* words,
                                                std::size_t count) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    total += static_cast<std::size_t>(std::popcount(words[i]));
  }
  return total;
}

inline void fill_words(std::uint64_t* words, std::size_t count,
                       std::uint64_t value) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    words[i] = value;
  }
}

inline void copy_words(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t count) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = src[i];
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Runtime dispatch. The table starts as all-scalar (a constant-initialized
// default, so kernels invoked before dynamic initialization still run
// correctly) and is upgraded to AVX2 during static init when the backend is
// compiled in and CPUID reports support.

namespace detail {

struct KernelTable {
  std::size_t (*popcount)(const std::uint64_t*, std::size_t) noexcept =
      &scalar::popcount_words;
  void (*fill)(std::uint64_t*, std::size_t, std::uint64_t) noexcept =
      &scalar::fill_words;
  void (*copy)(std::uint64_t*, const std::uint64_t*, std::size_t) noexcept =
      &scalar::copy_words;
};

extern const KernelTable& kernels() noexcept;

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatched span entry points — what BitRows and the engines
// call. Small spans take the inline scalar path (see kInlineWords).

/// Total set bits across `words`.
[[nodiscard]] inline std::size_t popcount_words(
    std::span<const std::uint64_t> words) noexcept {
  if (words.size() <= kInlineWords) {
    return scalar::popcount_words(words.data(), words.size());
  }
  return detail::kernels().popcount(words.data(), words.size());
}

/// Sets every word of `words` to `value` (0 == bulk clear).
inline void fill_words(std::span<std::uint64_t> words,
                       std::uint64_t value) noexcept {
  if (words.size() <= kInlineWords) {
    scalar::fill_words(words.data(), words.size(), value);
    return;
  }
  detail::kernels().fill(words.data(), words.size(), value);
}

/// Copies `src` into `dst` (sizes must match; non-overlapping).
inline void copy_words(std::span<std::uint64_t> dst,
                       std::span<const std::uint64_t> src) noexcept {
  if (src.size() <= kInlineWords) {
    scalar::copy_words(dst.data(), src.data(), src.size());
    return;
  }
  detail::kernels().copy(dst.data(), src.data(), src.size());
}

/// Calls `fn(bit_index)` for every set bit of `words`, ascending. The
/// classic isolate-lowest-bit loop: cost scales with the popcount, not the
/// span, which is what makes sparse-set enumeration cheap at large n.
template <typename Fn>
inline void for_each_set_bit(std::span<const std::uint64_t> words, Fn&& fn) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::uint64_t w = words[i];
    while (w != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(w));
      fn(i * 64 + bit);
      w &= w - 1;  // clear lowest set bit
    }
  }
}

// ---------------------------------------------------------------------------
// Cache-line-aligned storage for the SoA tally lanes.

/// Minimal allocator handing out kCacheLineBytes-aligned storage, so each
/// SoA counter lane begins on its own cache line.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t count) {
    // rcp-lint: allow(hot-alloc) one-time aligned lane allocation at setup
    return static_cast<T*>(::operator new(count * sizeof(T),
                                          std::align_val_t{kCacheLineBytes}));
  }

  void deallocate(T* ptr, std::size_t) noexcept {
    ::operator delete(ptr, std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  [[nodiscard]] bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// A vector whose buffer starts on a cache-line boundary.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// Rounds `count` elements of width `sizeof(T)` up to a whole number of
/// cache lines, so consecutive lanes never share a line.
template <typename T>
[[nodiscard]] constexpr std::size_t padded_to_cache_line(
    std::size_t count) noexcept {
  constexpr std::size_t per_line = kCacheLineBytes / sizeof(T);
  return (count + per_line - 1) / per_line * per_line;
}

}  // namespace rcp::core::bitops
