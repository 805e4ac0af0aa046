// Boundary proofs for the flat quorum accounting (core/quorum.hpp and its
// EchoEngine embedding): acceptance fires at exactly floor((n+k)/2) + 1
// distinct echoers — never one earlier — for both parities of n + k, and a
// duplicate echoer can never advance a tally. These pin the threshold
// semantics the bitset rewrite must reproduce bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/echo_engine.hpp"
#include "core/params.hpp"
#include "core/quorum.hpp"

namespace rcp::core {
namespace {

EchoProtocolMsg echo(ProcessId origin, Value v, Phase t) {
  return EchoProtocolMsg{.is_echo = true, .from = origin, .value = v, .phase = t};
}

// ---------------------------------------------------------------------------
// BitRows primitive.

TEST(BitRows, RowsAreIndependentAndClearable) {
  BitRows m(6, 70);  // two words per row
  EXPECT_TRUE(m.test_and_set(2, 69));
  EXPECT_FALSE(m.test_and_set(2, 69));
  EXPECT_TRUE(m.test_and_set(3, 69));  // same bit, different row
  EXPECT_TRUE(m.test(2, 69));
  EXPECT_FALSE(m.test(2, 68));
  EXPECT_EQ(m.popcount_all(), 2u);
  m.clear_rows(2, 1);
  EXPECT_FALSE(m.test(2, 69));
  EXPECT_TRUE(m.test(3, 69));
  EXPECT_EQ(m.popcount_all(), 1u);
}

// ---------------------------------------------------------------------------
// Acceptance threshold exactness through the engine.

/// Feeds distinct echoers for one (origin, value) and asserts acceptance
/// fires exactly when the count reaches floor((n+k)/2) + 1.
void expect_exact_threshold(ConsensusParams params) {
  const std::uint32_t threshold = params.echo_acceptance_threshold();
  ASSERT_LE(threshold, params.n) << "scenario needs enough correct echoers";
  EchoEngine e(params);
  const ProcessId origin = params.n - 1;
  for (std::uint32_t echoer = 0; echoer + 1 < threshold; ++echoer) {
    const auto out = e.handle(echoer, echo(origin, Value::one, 0), 0);
    EXPECT_FALSE(out.accepted.has_value())
        << "accepted at " << echoer + 1 << " echoes, threshold " << threshold
        << " (n=" << params.n << ", k=" << params.k << ")";
  }
  const auto out = e.handle(threshold - 1, echo(origin, Value::one, 0), 0);
  ASSERT_TRUE(out.accepted.has_value())
      << "no acceptance at the exact threshold " << threshold << " (n="
      << params.n << ", k=" << params.k << ")";
  EXPECT_EQ(out.accepted->origin, origin);
  EXPECT_EQ(out.accepted->value, Value::one);
  EXPECT_EQ(e.echo_count(origin, Value::one), threshold);
}

TEST(QuorumBoundary, AcceptanceAtExactThresholdOddSum) {
  // n + k odd: floor((7+2)/2) + 1 = 5; "more than 4.5 echoes" means 5.
  expect_exact_threshold(ConsensusParams{7, 2});
  // n + k = 13, threshold 7.
  expect_exact_threshold(ConsensusParams{10, 3});
}

TEST(QuorumBoundary, AcceptanceAtExactThresholdEvenSum) {
  // n + k even: floor((10+2)/2) + 1 = 7; "more than 6" means 7 exactly.
  expect_exact_threshold(ConsensusParams{10, 2});
  // n + k = 8 with k = 1: threshold 5.
  expect_exact_threshold(ConsensusParams{7, 1});
}

TEST(QuorumBoundary, ThresholdExactAcrossParamSweep) {
  for (std::uint32_t n = 4; n <= 64; ++n) {
    for (std::uint32_t k = 0; k <= max_resilience(FaultModel::malicious, n);
         ++k) {
      expect_exact_threshold(ConsensusParams{n, k});
    }
  }
}

TEST(QuorumBoundary, DuplicateEchoNeverAdvancesTally) {
  // One echoer short of the quorum, then the same echoer repeating — with
  // the same value, the other value, and a replay after deferral — must
  // never produce the acceptance.
  constexpr ConsensusParams kParams{7, 2};  // threshold 5
  EchoEngine e(kParams);
  for (ProcessId echoer = 0; echoer < 4; ++echoer) {
    EXPECT_FALSE(e.handle(echoer, echo(3, Value::one, 0), 0)
                     .accepted.has_value());
  }
  for (int repeat = 0; repeat < 10; ++repeat) {
    EXPECT_FALSE(e.handle(0, echo(3, Value::one, 0), 0).accepted.has_value());
    EXPECT_FALSE(e.handle(0, echo(3, Value::zero, 0), 0).accepted.has_value());
  }
  EXPECT_EQ(e.echo_count(3, Value::one), 4u);
  EXPECT_EQ(e.echo_count(3, Value::zero), 0u);
  // A genuinely new echoer still completes the quorum.
  EXPECT_TRUE(e.handle(4, echo(3, Value::one, 0), 0).accepted.has_value());
}

TEST(QuorumBoundary, DuplicateDeferredEchoNeverAdvancesFuturePhase) {
  constexpr ConsensusParams kParams{7, 2};
  EchoEngine e(kParams);
  // Echoers 0..3 defer for phase 1; echoer 0 spams duplicates.
  for (ProcessId echoer = 0; echoer < 4; ++echoer) {
    (void)e.handle(echoer, echo(3, Value::one, 1), 0);
  }
  for (int repeat = 0; repeat < 10; ++repeat) {
    (void)e.handle(0, echo(3, Value::one, 1), 0);
  }
  EXPECT_EQ(e.deferred_count(), 4u);
  const auto accepts = e.advance(1);
  EXPECT_TRUE(accepts.empty());
  EXPECT_EQ(e.echo_count(3, Value::one), 4u);
}

TEST(QuorumBoundary, ThresholdMatchesParamsHelperNotOneLess) {
  // Direct cross-check against the ConsensusParams arithmetic: for a range
  // of parities the engine's firing point equals the helper exactly.
  const ConsensusParams cases[] = {{4, 1}, {5, 1}, {6, 1}, {7, 2},
                                   {9, 2}, {10, 2}, {10, 3}, {13, 4}};
  for (const ConsensusParams p : cases) {
    EchoEngine e(p);
    const std::uint32_t threshold = p.echo_acceptance_threshold();
    std::uint32_t fired_at = 0;
    for (std::uint32_t echoer = 0; echoer < p.n; ++echoer) {
      if (e.handle(echoer, echo(0, Value::zero, 0), 0).accepted.has_value()) {
        fired_at = echoer + 1;
        break;
      }
    }
    EXPECT_EQ(fired_at, threshold)
        << "n=" << p.n << " k=" << p.k;
    EXPECT_EQ((p.n + p.k) / 2 + 1, threshold)
        << "helper must be floor((n+k)/2)+1";
  }
}

}  // namespace
}  // namespace rcp::core
