// The allocation contract of the simulation hot path (docs/PERF.md): once a
// simulation is warm, stepping it performs zero heap allocations for
// protocol messages that fit Payload's inline capacity.
//
// Two instruments: Payload::heap_allocation_count() counts payload heap
// spills specifically, and the binary-wide operator new replacement of
// support/allocation_counter.hpp counts every allocation, which pins down
// the whole step path (mailboxes, eligible set, envelopes) — not just
// payloads.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/payload.hpp"
#include "core/failstop.hpp"
#include "core/messages.hpp"
#include "sim/simulation.hpp"
#include "support/allocation_counter.hpp"

namespace rcp {
namespace {

/// Keeps every mailbox at depth one by re-sending each delivered message to
/// itself: after a handful of warm-up steps all containers are at their
/// steady capacity, so further steps must not allocate at all.
class SelfRefillProcess final : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    ctx.send(ctx.self(),
             core::MajorityMsg{.phase = 0, .value = Value::zero}.encode());
  }
  void on_message(sim::Context& ctx, const sim::Envelope& env) override {
    ctx.send(ctx.self(), env.payload);
  }
};

TEST(Allocation, SteadyStateStepIsAllocationFree) {
  constexpr std::uint32_t kN = 31;
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (ProcessId p = 0; p < kN; ++p) {
    procs.push_back(std::make_unique<SelfRefillProcess>());
  }
  sim::Simulation s(sim::SimConfig{.n = kN, .seed = 11}, std::move(procs));
  s.start();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(s.step());
  }
  const std::uint64_t before = test::allocations();
  const std::uint64_t payload_before = Payload::heap_allocation_count();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(s.step());
  }
#ifdef NDEBUG
  EXPECT_EQ(test::allocations() - before, 0u)
      << "warm step() path must not touch the heap";
#else
  // Debug builds run the O(n) incremental-state cross-check each step,
  // which itself allocates scratch vectors; the total-allocation contract
  // is enforced in release builds (the tier-1 configuration).
  (void)before;
#endif
  EXPECT_EQ(Payload::heap_allocation_count() - payload_before, 0u)
      << "inline-sized payloads must never spill";
}

TEST(Allocation, FailStopConsensusNeverSpillsPayloads) {
  // Whole-protocol check from a cold start: every FailStopMsg fits the
  // inline capacity, so an entire consensus run allocates zero payload
  // heap blocks — encode, send, broadcast fan-out and delivery included.
  constexpr std::uint32_t kN = 9;
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (ProcessId p = 0; p < kN; ++p) {
    procs.push_back(core::FailStopConsensus::make(
        {kN, 4}, p % 2 == 0 ? Value::zero : Value::one));
  }
  sim::Simulation s(sim::SimConfig{.n = kN, .seed = 12}, std::move(procs));
  const std::uint64_t before = Payload::heap_allocation_count();
  const auto r = s.run();
  EXPECT_EQ(r.status, sim::RunStatus::all_decided);
  EXPECT_EQ(Payload::heap_allocation_count() - before, 0u)
      << "protocol messages must stay inline";
}

TEST(Allocation, OversizedPayloadStillSpillsAndCounts) {
  const std::uint64_t before = Payload::heap_allocation_count();
  const Payload big(Payload::kInlineCapacity + 1);
  EXPECT_TRUE(big.on_heap());
  EXPECT_EQ(Payload::heap_allocation_count() - before, 1u);
}

}  // namespace
}  // namespace rcp
