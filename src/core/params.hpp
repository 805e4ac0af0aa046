// Consensus parameters and the paper's resilience bounds and thresholds.
//
// All of the paper's quorum arithmetic is strict real-number comparison
// ("more than n/2", "more than (n+k)/2"); the helpers below express those
// thresholds in exact integer arithmetic so no floor/rounding bugs can
// creep into the protocols.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace rcp::core {

/// Which failure behaviour the run must tolerate.
enum class FaultModel : std::uint8_t {
  fail_stop,  ///< processes may only die, silently (Section 2)
  malicious,  ///< processes may send false/contradictory messages (Section 3)
};

[[nodiscard]] const char* to_string(FaultModel model) noexcept;

/// Maximum k for which a k-resilient protocol exists (Theorems 1-4):
/// floor((n-1)/2) for fail-stop, floor((n-1)/3) for malicious.
[[nodiscard]] constexpr std::uint32_t max_resilience(FaultModel model,
                                                     std::uint32_t n) noexcept {
  return model == FaultModel::fail_stop ? (n - 1) / 2 : (n - 1) / 3;
}

/// (n, k): system size and the resilience target.
struct ConsensusParams {
  std::uint32_t n = 0;
  std::uint32_t k = 0;

  /// Throws PreconditionError unless 0 <= k <= max_resilience(model, n)
  /// and n >= 1. Protocol factories call this; the lower-bound experiment
  /// (E7) uses the *_unchecked factories to run beyond the bound on
  /// purpose.
  void validate(FaultModel model) const;

  /// Messages a process waits for in each phase: n - k.
  [[nodiscard]] constexpr std::uint32_t wait_quorum() const noexcept {
    return n - k;
  }

  /// Fig 1: a message is a *witness* if its cardinality exceeds n/2.
  [[nodiscard]] constexpr bool is_witness_cardinality(
      std::uint32_t cardinality) const noexcept {
    return 2ULL * cardinality > n;
  }

  /// Fig 1: decide once more than k witnesses for one value were seen.
  [[nodiscard]] constexpr bool witnesses_decide(
      std::uint32_t witness_count) const noexcept {
    return witness_count > k;
  }

  /// Fig 2: an echoed message is *accepted* at exactly this many echoes
  /// (the smallest integer strictly greater than (n+k)/2).
  [[nodiscard]] constexpr std::uint32_t echo_acceptance_threshold()
      const noexcept {
    return (n + k) / 2 + 1;
  }

  /// Fig 2 / majority variant: decide when the count of accepted messages
  /// with one value strictly exceeds (n+k)/2.
  [[nodiscard]] constexpr bool accepted_count_decides(
      std::uint32_t count) const noexcept {
    return 2ULL * count > static_cast<std::uint64_t>(n) + k;
  }

  /// Bracha reliable broadcast: forward our own READY once k+1 matching
  /// readies were seen (at least one is from a correct process).
  [[nodiscard]] constexpr std::uint32_t ready_amplification_threshold()
      const noexcept {
    return k + 1;
  }

  /// Bracha reliable broadcast: deliver once 2k+1 matching readies were
  /// seen (at least k+1 correct readies survive any k crashes). The same
  /// 2k+1 count is the decide rule of Bracha-87 and Byzantine Ben-Or.
  [[nodiscard]] constexpr std::uint32_t ready_delivery_threshold()
      const noexcept {
    return 2 * k + 1;
  }
};

}  // namespace rcp::core
