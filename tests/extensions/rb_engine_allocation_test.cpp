// Allocation contract of the multiplexed engine (docs/SERVICE.md,
// docs/PERF.md): once the slot pool is warm, RbEngine::handle() and
// retire_through() are allocation-free — the KV service's per-message hot
// path — and RbxBatch::decode_into() into a warmed scratch vector is too,
// as is every message the single-shot ReliableBroadcast process handles.
// The engine sources are listed under [allocation] in tools/lint_rules.toml,
// so a new allocation fails the build (rcp-lint) *and* this counter.
//
// support/allocation_counter.hpp counts every allocation binary-wide; each
// test snapshots before/after deltas.
#include <gtest/gtest.h>

#include <vector>

#include "core/bitops.hpp"
#include "extensions/rb_engine.hpp"
#include "extensions/reliable_broadcast.hpp"
#include "support/allocation_counter.hpp"
#include "support/fake_context.hpp"

namespace rcp::ext {
namespace {

constexpr core::ConsensusParams kParams{7, 2};

/// One full instance lifecycle: initial, echo quorum, ready quorum,
/// delivery, retire. The steady-state traffic of one KV write.
void drive_instance(RbEngine& e, ProcessId origin, std::uint64_t tag) {
  (void)e.handle(origin, RbxMsg{.kind = RbxMsg::Kind::initial,
                                .origin = origin,
                                .tag = tag,
                                .value = tag & 0xff});
  for (ProcessId p = 0; p < kParams.n; ++p) {
    (void)e.handle(p, RbxMsg{.kind = RbxMsg::Kind::echo,
                             .origin = origin,
                             .tag = tag,
                             .value = tag & 0xff});
  }
  bool delivered = false;
  for (ProcessId p = 0; p < kParams.n; ++p) {
    const auto out = e.handle(p, RbxMsg{.kind = RbxMsg::Kind::ready,
                                        .origin = origin,
                                        .tag = tag,
                                        .value = tag & 0xff});
    delivered = delivered || out.delivered.has_value();
  }
  ASSERT_TRUE(delivered);
  e.retire_through(origin, tag);
}

TEST(RbEngineAllocation, SteadyStateDispatchIsAllocationFree) {
  RbEngine e(kParams, /*capacity_hint=*/64, kRbValueAny);
  // Warm: every origin cycles a few instances; the pool never needs to
  // grow past the hint because retire keeps live_count bounded.
  std::uint64_t tag = 0;
  for (; tag < 16; ++tag) {
    for (ProcessId origin = 0; origin < kParams.n; ++origin) {
      drive_instance(e, origin, tag);
    }
  }
  const std::uint64_t before = test::allocations();
  for (; tag < 200; ++tag) {
    for (ProcessId origin = 0; origin < kParams.n; ++origin) {
      drive_instance(e, origin, tag);
    }
  }
  EXPECT_EQ(test::allocations() - before, 0u)
      << "warm handle()/retire_through() must not touch the heap";
  EXPECT_EQ(e.stats().grows, 0u);
}

TEST(RbEngineAllocation, BatchDecodeIntoWarmScratchIsAllocationFree) {
  std::vector<RbxMsg> msgs;
  for (std::uint32_t i = 0; i < 32; ++i) {
    msgs.push_back(RbxMsg{.kind = RbxMsg::Kind::echo,
                          .origin = i % kParams.n,
                          .tag = i,
                          .value = i});
  }
  const Bytes frame = RbxBatch::encode(msgs);
  std::vector<RbxMsg> scratch;
  scratch.reserve(msgs.size());  // the replica's reusable scratch, warmed
  const std::uint64_t before = test::allocations();
  for (int round = 0; round < 100; ++round) {
    scratch.clear();
    RbxBatch::decode_into(frame, scratch, kRbValueAny);
  }
  EXPECT_EQ(test::allocations() - before, 0u)
      << "decoding into warmed scratch must not touch the heap";
  EXPECT_EQ(scratch.size(), msgs.size());
}

TEST(RbEngineAllocation, CounterSeesCacheLineAlignedLanes) {
  // The tally lanes come from the aligned operator new; a counter blind to
  // it would pass the steady-state checks above even if the lanes grew.
  const std::uint64_t before = test::allocations();
  const core::bitops::AlignedVector<std::uint16_t> lane(64, 0);
  EXPECT_EQ(test::allocations() - before, 1u);
  EXPECT_EQ(lane.size(), 64u);
}

TEST(EchoAllocation, ReliableBroadcastMessageHandlingIsAllocationFree) {
  constexpr std::uint32_t kN = 31;
  constexpr std::uint32_t kK = 3;
  test::FakeContext ctx(/*self=*/1, kN);
  auto rb = ReliableBroadcast::make({kN, kK}, 1, /*sender=*/0);
  // The test harness's outbox is the only allocating container in the loop;
  // give it its capacity up front so the measured path is pure protocol.
  ctx.sent.reserve(8 * kN);
  const std::uint64_t before = test::allocations();
  // Full happy path: initial -> echo quorum -> ready amplification ->
  // delivery. Every vote lands in the engine's preallocated instance slot;
  // every payload fits the inline Bytes capacity.
  rb->on_message(ctx, test::FakeContext::envelope(
                          0, 1,
                          RbMsg{.kind = RbMsg::Kind::initial,
                                .value = Value::one}
                              .encode()));
  for (ProcessId p = 0; p < kN; ++p) {
    rb->on_message(ctx, test::FakeContext::envelope(
                            p, 1,
                            RbMsg{.kind = RbMsg::Kind::echo,
                                  .value = Value::one}
                                .encode()));
    rb->on_message(ctx, test::FakeContext::envelope(
                            p, 1,
                            RbMsg{.kind = RbMsg::Kind::ready,
                                  .value = Value::one}
                                .encode()));
  }
  EXPECT_EQ(test::allocations() - before, 0u)
      << "reliable-broadcast message handling must not touch the heap";
  EXPECT_EQ(rb->delivered(), Value::one);
}

}  // namespace
}  // namespace rcp::ext
