// The word-parallel kernel layer (core/bitops.hpp): every dispatched span
// entry point must agree bit for bit with the portable scalar reference
// kernels — on every span length, crossing both the small-span inline
// threshold (kInlineWords) and the SIMD block width — and the AVX2 backend
// (when compiled in and selected) is validated against scalar on
// randomized buffers. This equivalence is what lets RCP_ENABLE_AVX2=ON/OFF
// share one set of trace-digest goldens.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/bitops.hpp"

namespace rcp::core::bitops {
namespace {

/// Span lengths covering: empty, sub-word, the inline/dispatch threshold
/// and its neighbours, the AVX2 block width (4 words) and its remainders,
/// and bulk sizes with every tail length.
const std::vector<std::size_t> kSpanLengths = {0,  1,  2,  3,  4,  5,   7,
                                               8,  9,  11, 12, 15, 16,  17,
                                               31, 64, 65, 66, 67, 100, 257};

std::vector<std::uint64_t> random_words(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> words(count);
  for (auto& w : words) {
    w = rng.next();
  }
  return words;
}

TEST(Bitops, PopcountMatchesBitByBitCount) {
  for (const std::size_t len : kSpanLengths) {
    const auto words = random_words(len, 0x1001 + len);
    std::size_t expected = 0;
    for (const std::uint64_t w : words) {
      for (std::size_t b = 0; b < 64; ++b) {
        expected += (w >> b) & 1;
      }
    }
    EXPECT_EQ(popcount_words(std::span<const std::uint64_t>(words)), expected)
        << "len=" << len;
  }
}

TEST(Bitops, FillThenPopcount) {
  for (const std::size_t len : kSpanLengths) {
    std::vector<std::uint64_t> words(len, 0xdeadbeefULL);
    fill_words(std::span<std::uint64_t>(words), ~0ULL);
    EXPECT_EQ(popcount_words(std::span<const std::uint64_t>(words)), len * 64);
    fill_words(std::span<std::uint64_t>(words), 0);
    EXPECT_EQ(popcount_words(std::span<const std::uint64_t>(words)), 0u);
  }
}

TEST(Bitops, CopyRoundTrip) {
  for (const std::size_t len : kSpanLengths) {
    const auto src = random_words(len, 0x2002 + len);
    std::vector<std::uint64_t> dst(len, 0x5555555555555555ULL);
    copy_words(std::span<std::uint64_t>(dst),
               std::span<const std::uint64_t>(src));
    EXPECT_EQ(dst, src) << "len=" << len;
  }
}

TEST(Bitops, ForEachSetBitEnumeratesAscending) {
  for (const std::size_t len : kSpanLengths) {
    const auto words = random_words(len, 0x5005 + len);
    std::vector<std::size_t> seen;
    for_each_set_bit(std::span<const std::uint64_t>(words),
                     [&seen](std::size_t bit) { seen.push_back(bit); });
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < len; ++i) {
      for (std::size_t b = 0; b < 64; ++b) {
        if ((words[i] >> b) & 1) {
          expected.push_back(i * 64 + b);
        }
      }
    }
    EXPECT_EQ(seen, expected) << "len=" << len;
  }
}

TEST(Bitops, BackendNameIsStable) {
  const Backend backend = active_backend();
  EXPECT_TRUE(backend == Backend::scalar || backend == Backend::avx2);
  EXPECT_STREQ(backend_name(Backend::scalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::avx2), "avx2");
}

TEST(Bitops, AlignedVectorStartsOnCacheLine) {
  AlignedVector<std::uint32_t> lanes(1000, 0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lanes.data()) % kCacheLineBytes,
            0u);
  AlignedVector<std::uint64_t> words(100, 0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words.data()) % kCacheLineBytes,
            0u);
}

TEST(Bitops, PaddedToCacheLineRoundsUpToWholeLines) {
  EXPECT_EQ(padded_to_cache_line<std::uint32_t>(1), 16u);
  EXPECT_EQ(padded_to_cache_line<std::uint32_t>(16), 16u);
  EXPECT_EQ(padded_to_cache_line<std::uint32_t>(17), 32u);
  EXPECT_EQ(padded_to_cache_line<std::uint32_t>(301), 304u);
  EXPECT_EQ(padded_to_cache_line<std::uint64_t>(9), 16u);
}

// ---------------------------------------------------------------------------
// Scalar-vs-AVX2 equivalence: runs only when the dispatch table actually
// resolved to the AVX2 backend; otherwise (compiled out via
// RCP_ENABLE_AVX2=OFF, or an x86 host without AVX2) the suite skips
// cleanly — the dispatched entry points *are* the scalar kernels then, and
// the tests above already cover them.

class BitopsAvx2Equivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    if (active_backend() != Backend::avx2) {
      GTEST_SKIP() << "AVX2 backend compiled out or unsupported on this CPU";
    }
  }
};

TEST_F(BitopsAvx2Equivalence, PopcountMatchesScalar) {
  for (const std::size_t len : kSpanLengths) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto words = random_words(len, seed * 0x9e3779b9ULL + len);
      EXPECT_EQ(popcount_words(std::span<const std::uint64_t>(words)),
                scalar::popcount_words(words.data(), words.size()))
          << "len=" << len << " seed=" << seed;
    }
  }
}

TEST_F(BitopsAvx2Equivalence, FillMatchesScalar) {
  for (const std::size_t len : kSpanLengths) {
    std::vector<std::uint64_t> via_dispatch(len, 0);
    std::vector<std::uint64_t> via_scalar(len, 0);
    const std::uint64_t pattern = 0xa5a5a5a5a5a5a5a5ULL;
    fill_words(std::span<std::uint64_t>(via_dispatch), pattern);
    scalar::fill_words(via_scalar.data(), via_scalar.size(), pattern);
    EXPECT_EQ(via_dispatch, via_scalar) << "len=" << len;
  }
}

TEST_F(BitopsAvx2Equivalence, CopyMatchesScalar) {
  for (const std::size_t len : kSpanLengths) {
    const auto src = random_words(len, 0x6006 + len);
    std::vector<std::uint64_t> via_dispatch(len, 0);
    std::vector<std::uint64_t> via_scalar(len, 0);
    copy_words(std::span<std::uint64_t>(via_dispatch),
               std::span<const std::uint64_t>(src));
    scalar::copy_words(via_scalar.data(), src.data(), src.size());
    EXPECT_EQ(via_dispatch, via_scalar) << "len=" << len;
  }
}

}  // namespace
}  // namespace rcp::core::bitops
