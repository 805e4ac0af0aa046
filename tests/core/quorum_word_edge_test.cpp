// Word-boundary edges of the quorum primitive: n one below, at, and one
// above the 64-bit word boundaries (one-word and eight-word rows). Every
// bulk operation in core/quorum.hpp runs on the word-parallel kernels,
// so these sizes are exactly where a words-per-row or tail-handling bug
// would land. Also pins the layout guard: BitRows::copy_rows_from rejects
// mismatched geometry outright.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "core/quorum.hpp"

namespace rcp::core {
namespace {

/// One below, at, and above the one-word and eight-word bit boundaries.
const std::vector<std::uint32_t> kBoundaryN = {63, 64, 65, 511, 512, 513};

TEST(QuorumWordEdge, BitRowsRoundTripAtWordBoundaries) {
  for (const std::uint32_t n : kBoundaryN) {
    BitRows rows(3, n);
    EXPECT_EQ(rows.words_per_row(), (n + 63) / 64) << "n=" << n;
    // Fill row 1 completely; rows 0 and 2 stay empty.
    for (std::uint32_t bit = 0; bit < n; ++bit) {
      EXPECT_TRUE(rows.test_and_set(1, bit)) << "n=" << n << " bit=" << bit;
      EXPECT_FALSE(rows.test_and_set(1, bit)) << "n=" << n << " bit=" << bit;
    }
    EXPECT_EQ(rows.popcount_all(), n) << "n=" << n;
    EXPECT_EQ(rows.popcount_rows(0, 1), 0u) << "n=" << n;
    EXPECT_EQ(rows.popcount_rows(1, 1), n) << "n=" << n;
    EXPECT_EQ(rows.popcount_rows(2, 1), 0u) << "n=" << n;
    // Neighbour isolation: the row fill must not bleed across the row
    // boundary words.
    EXPECT_FALSE(rows.test(0, n - 1)) << "n=" << n;
    EXPECT_FALSE(rows.test(2, 0)) << "n=" << n;
    // clear_rows reclaims exactly row 1.
    (void)rows.test_and_set(0, 0);
    (void)rows.test_and_set(2, n - 1);
    rows.clear_rows(1, 1);
    EXPECT_EQ(rows.popcount_rows(1, 1), 0u) << "n=" << n;
    EXPECT_TRUE(rows.test(0, 0)) << "n=" << n;
    EXPECT_TRUE(rows.test(2, n - 1)) << "n=" << n;
  }
}

TEST(QuorumWordEdge, BitRowsCopyRoundTripsAcrossGrowth) {
  for (const std::uint32_t n : kBoundaryN) {
    BitRows src(2, n);
    (void)src.test_and_set(0, 0);
    (void)src.test_and_set(0, n - 1);
    (void)src.test_and_set(1, n / 2);
    BitRows bigger(4, n);
    bigger.copy_rows_from(src, 2);
    EXPECT_TRUE(bigger.test(0, 0)) << "n=" << n;
    EXPECT_TRUE(bigger.test(0, n - 1)) << "n=" << n;
    EXPECT_TRUE(bigger.test(1, n / 2)) << "n=" << n;
    EXPECT_EQ(bigger.popcount_all(), 3u) << "n=" << n;
    EXPECT_EQ(bigger.popcount_rows(2, 2), 0u) << "n=" << n;
  }
}

TEST(QuorumWordEdge, BitRowsRowWordsExposesSingleRow) {
  BitRows rows(3, 65);  // two words per row
  (void)rows.test_and_set(1, 64);
  const auto row = rows.row_words(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], 0u);
  EXPECT_EQ(row[1], 1u);
}

TEST(QuorumWordEdge, CopyRowsFromRejectsMismatchedGeometry) {
  // 64 vs 65 bits: one word per row vs two — the exact layout mismatch the
  // guard exists to catch (it would scramble every row boundary).
  BitRows narrow(4, 64);
  BitRows wide(4, 65);
  EXPECT_THROW(wide.copy_rows_from(narrow, 4), PreconditionError);
  EXPECT_THROW(narrow.copy_rows_from(wide, 4), PreconditionError);
  // Same geometry, but more rows than either matrix holds.
  BitRows small(2, 64);
  BitRows big(8, 64);
  EXPECT_THROW(big.copy_rows_from(small, 4), PreconditionError);
  EXPECT_THROW(small.copy_rows_from(big, 4), PreconditionError);
  // In-bounds copies still pass.
  big.copy_rows_from(small, 2);
  small.copy_rows_from(big, 2);
}

}  // namespace
}  // namespace rcp::core
