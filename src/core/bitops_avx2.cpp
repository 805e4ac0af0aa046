// AVX2 backend for the bit-span kernels — the one translation unit in the
// repo built with -mavx2 and the one place <immintrin.h> may appear
// (rcp-lint os-exclusive rule; see tools/lint_rules.toml). Everything here
// is bit-identical to the scalar reference kernels in core/bitops.hpp:
// same sums, same stores, different width. Selection happens at process
// start via CPUID (bitops.cpp); this file intentionally has no header —
// bitops.cpp forward-declares these entry points.
//
// The popcount uses the Mula nibble-LUT method: per-byte popcounts via two
// PSHUFB table lookups, horizontally summed into 64-bit lanes with PSADBW.
// On AVX2 hardware without VPOPCNTQ this is the standard fastest form.

#include <cstddef>
#include <cstdint>

#include <immintrin.h>

namespace rcp::core::bitops::detail {

bool avx2_runtime_supported() noexcept {
  return __builtin_cpu_supports("avx2") != 0;
}

std::size_t popcount_words_avx2(const std::uint64_t* words,
                                std::size_t count) noexcept {
  const __m256i nibble_counts = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    const __m256i lo = _mm256_and_si256(v, low_nibble);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), low_nibble);
    const __m256i per_byte =
        _mm256_add_epi8(_mm256_shuffle_epi8(nibble_counts, lo),
                        _mm256_shuffle_epi8(nibble_counts, hi));
    acc = _mm256_add_epi64(acc,
                           _mm256_sad_epu8(per_byte, _mm256_setzero_si256()));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t total =
      static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < count; ++i) {
    total += static_cast<std::size_t>(__builtin_popcountll(words[i]));
  }
  return total;
}

void fill_words_avx2(std::uint64_t* words, std::size_t count,
                     std::uint64_t value) noexcept {
  const __m256i v = _mm256_set1_epi64x(static_cast<long long>(value));
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(words + i), v);
  }
  for (; i < count; ++i) {
    words[i] = value;
  }
}

void copy_words_avx2(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t count) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  }
  for (; i < count; ++i) {
    dst[i] = src[i];
  }
}

}  // namespace rcp::core::bitops::detail
