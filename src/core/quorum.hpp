// Flat, bit-level quorum accounting for the Byzantine hot path.
//
// The malicious-case protocols count *distinct* processes: distinct echoers
// per (origin, phase) in Figure 2, distinct echo/ready voters per instance
// in reliable broadcast. Process ids are dense in [0, n), so each such set is
// exactly an n-bit bitset — one cache line up to n = 512 — and membership
// and insertion are single-word operations instead of red-black tree walks.
// One container is the whole vocabulary:
//
//  - BitRows: a rows x bits matrix in one flat allocation, row = one voter
//    set (replaces std::set<(echoer, origin, phase)> dedup sets). EchoEngine
//    indexes rows by (phase-window slot, origin), RbEngine by instance slot.
//
// Per-bit operations stay single-word and inline; every bulk operation —
// row-span clears, bulk popcounts, cross-matrix copies — goes through the
// word-parallel kernels in core/bitops.hpp, which dispatch to the AVX2
// backend when available (bit-identical either way). The matrix allocates
// exactly once, at construction; every subsequent operation is
// allocation-free, which is what lets the hot-alloc lint rule and the
// operator-new counting tests cover the whole echo path. Layout details:
// docs/PERF.md ("Quorum accounting", "Word-parallel kernels").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/bitops.hpp"

namespace rcp::core {

/// A rows x bits bit matrix in a single flat allocation. Row r is an
/// independent bit set of `bits` capacity; rows are contiguous, so a span
/// of consecutive rows clears with one word-parallel fill. Used as the echo
/// dedup table: row = (phase-window slot, origin), bit = echoer.
class BitRows {
 public:
  BitRows() = default;
  BitRows(std::size_t rows, std::size_t bits)
      : words_per_row_((bits + 63) / 64), words_(rows * words_per_row_, 0) {}

  /// Sets bit `bit` of row `row`; returns true when it was previously clear.
  bool test_and_set(std::size_t row, std::size_t bit) noexcept {
    std::uint64_t& w = words_[row * words_per_row_ + (bit >> 6)];
    const std::uint64_t mask = 1ULL << (bit & 63);
    if ((w & mask) != 0) {
      return false;
    }
    w |= mask;
    return true;
  }

  [[nodiscard]] bool test(std::size_t row, std::size_t bit) const noexcept {
    return (words_[row * words_per_row_ + (bit >> 6)] &
            (1ULL << (bit & 63))) != 0;
  }

  /// Clears `count` consecutive rows starting at `first_row` — one
  /// contiguous word-parallel fill, the phase-window reclamation primitive.
  void clear_rows(std::size_t first_row, std::size_t count) noexcept {
    bitops::fill_words(
        std::span<std::uint64_t>(words_).subspan(first_row * words_per_row_,
                                                 count * words_per_row_),
        0);
  }

  /// Copies the first `rows` rows of `src` into this matrix. Both matrices
  /// must share `bits` (so words-per-row match) and both must have at least
  /// `rows` rows: the capacity-growth primitive for tables that carry their
  /// dedup state across a reallocation. A layout mismatch would silently
  /// scramble every row boundary, so the guard is always on (this is the
  /// cold growth path, never the per-message path).
  void copy_rows_from(const BitRows& src, std::size_t rows) {
    RCP_EXPECT(src.words_per_row_ == words_per_row_,
               "BitRows copy requires matching words-per-row");
    RCP_EXPECT(rows * words_per_row_ <= words_.size() &&
                   rows * words_per_row_ <= src.words_.size(),
               "BitRows copy row count within both matrices");
    bitops::copy_words(
        std::span<std::uint64_t>(words_).first(rows * words_per_row_),
        std::span<const std::uint64_t>(src.words_).first(rows *
                                                         words_per_row_));
  }

  /// Total set bits across the whole matrix (bulk observer, not hot path).
  [[nodiscard]] std::size_t popcount_all() const noexcept {
    return bitops::popcount_words(std::span<const std::uint64_t>(words_));
  }

  /// Total set bits across `count` consecutive rows from `first_row` — one
  /// contiguous word-parallel popcount (rows are row-major and contiguous).
  [[nodiscard]] std::size_t popcount_rows(std::size_t first_row,
                                          std::size_t count) const noexcept {
    return bitops::popcount_words(
        std::span<const std::uint64_t>(words_).subspan(
            first_row * words_per_row_, count * words_per_row_));
  }

  /// One row's bit words (enumeration via bitops::for_each_set_bit).
  [[nodiscard]] std::span<const std::uint64_t> row_words(
      std::size_t row) const noexcept {
    return std::span<const std::uint64_t>(words_).subspan(
        row * words_per_row_, words_per_row_);
  }

  [[nodiscard]] std::size_t words_per_row() const noexcept {
    return words_per_row_;
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return words_.size() * sizeof(std::uint64_t);
  }

 private:
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rcp::core
