// The allocation contract of the net send path (docs/PERF.md "Network
// runtime"): once a link's ring is warm, the steady-state send cycle —
// enqueue, WritevPlan::build, commit, cumulative-ack release with latency
// recording — performs zero heap allocations. Frames are gathered in place
// from the ring (header bytes precomputed at enqueue), so there is no
// per-send serialization, and protocol-sized payloads stay in the inline
// Bytes capacity. The same holds for self-sends: a warm Node delivers its
// local inbox without allocating.
//
// support/allocation_counter.hpp counts every allocation binary-wide; each
// test snapshots before/after deltas.
#include <gtest/gtest.h>

#include <memory>

#include "common/payload.hpp"
#include "common/process.hpp"
#include "net/node.hpp"
#include "net/peer.hpp"
#include "net/stats.hpp"
#include "support/allocation_counter.hpp"

namespace rcp::net {
namespace {

constexpr std::size_t kNoBound = 1 << 20;
constexpr std::uint32_t kBatch = 16;

Bytes small_payload(std::uint32_t i) {
  Bytes b;
  b.push_back(static_cast<std::byte>(i & 0xff));
  b.push_back(static_cast<std::byte>((i >> 8) & 0xff));
  return b;
}

/// One steady-state round: a batch of enqueues, drain the queue through
/// build/commit with `written` bytes granted per sendmsg, then the
/// cumulative ack that releases the batch and records its latency.
void drive_round(PeerLink& link, WritevPlan& plan, LatencyHistogram& hist,
                 std::uint64_t& acked, bool partial_writes) {
  const auto now = Clock::now();
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(link.enqueue(small_payload(i), now, kNoBound, now));
  }
  while (true) {
    plan.build(link, now, /*include_frames=*/true, [] { return false; });
    if (plan.empty()) {
      break;
    }
    // A partial write commits a prefix and spills the torn frame's
    // remainder into write_buf; the next build resumes from that tail.
    const std::size_t written = partial_writes
                                    ? (plan.total_bytes() + 1) / 2
                                    : plan.total_bytes();
    (void)plan.commit(link, written);
  }
  acked += kBatch;
  link.on_ack(acked, now, &hist);
  EXPECT_EQ(link.queue_depth(), 0u);
}

TEST(NetAllocation, SendPathSteadyStateIsAllocationFree) {
  PeerLink link;
  link.init(1, {}, false);
  WritevPlan plan;
  LatencyHistogram hist;
  std::uint64_t acked = 0;
  for (int round = 0; round < 4; ++round) {
    drive_round(link, plan, hist, acked, /*partial_writes=*/false);
  }
  const std::uint64_t before = test::allocations();
  const std::uint64_t payload_before = Payload::heap_allocation_count();
  for (int round = 0; round < 100; ++round) {
    drive_round(link, plan, hist, acked, /*partial_writes=*/false);
  }
  EXPECT_EQ(test::allocations() - before, 0u)
      << "warm enqueue/build/commit/ack must not touch the heap";
  EXPECT_EQ(Payload::heap_allocation_count() - payload_before, 0u)
      << "protocol-sized payloads must stay inline";
  EXPECT_EQ(hist.count(), acked);
}

TEST(NetAllocation, PartialWriteSpillSteadyStateIsAllocationFree) {
  PeerLink link;
  link.init(1, {}, false);
  WritevPlan plan;
  LatencyHistogram hist;
  std::uint64_t acked = 0;
  // Warm rounds grow the ring and give write_buf its spill capacity.
  for (int round = 0; round < 4; ++round) {
    drive_round(link, plan, hist, acked, /*partial_writes=*/true);
  }
  const std::uint64_t before = test::allocations();
  for (int round = 0; round < 100; ++round) {
    drive_round(link, plan, hist, acked, /*partial_writes=*/true);
  }
  EXPECT_EQ(test::allocations() - before, 0u)
      << "short-write spill and resume must not touch the heap";
}

TEST(NetAllocation, RetransmitRewindIsAllocationFree) {
  PeerLink link;
  link.init(1, {}, false);
  WritevPlan plan;
  LatencyHistogram hist;
  std::uint64_t acked = 0;
  for (int round = 0; round < 4; ++round) {
    drive_round(link, plan, hist, acked, /*partial_writes=*/false);
  }
  const auto now = Clock::now();
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(link.enqueue(small_payload(i), now, kNoBound, now));
  }
  const std::uint64_t before = test::allocations();
  // Go-back-N: send the window, rewind as the drop timer would, resend,
  // ack.
  for (int round = 0; round < 50; ++round) {
    plan.build(link, now, /*include_frames=*/true, [] { return false; });
    (void)plan.commit(link, plan.total_bytes());
    link.rewind_unsent(Rewind::drop_timer);
  }
  plan.build(link, now, /*include_frames=*/true, [] { return false; });
  (void)plan.commit(link, plan.total_bytes());
  acked += kBatch;
  link.on_ack(acked, now, &hist);
  EXPECT_EQ(test::allocations() - before, 0u)
      << "rewind and retransmission must not touch the heap";
  EXPECT_EQ(link.queue_depth(), 0u);
}

/// Keeps kInFlight self-sends circulating (every delivery re-sends itself)
/// and measures the allocations of the deliveries after a warm-up.
class SelfLoopProcess final : public sim::Process {
 public:
  static constexpr std::uint64_t kInFlight = 4;
  static constexpr std::uint64_t kWarm = 40;
  static constexpr std::uint64_t kMeasured = 400;

  Node* node = nullptr;
  std::uint64_t delivered = 0;
  std::uint64_t allocations = 0;

  void on_start(sim::Context& ctx) override {
    for (std::uint64_t i = 0; i < kInFlight; ++i) {
      ctx.send(ctx.self(), small_payload(static_cast<std::uint32_t>(i)));
    }
  }

  void on_message(sim::Context& ctx, const sim::Envelope& env) override {
    ++delivered;
    if (delivered == kWarm) {
      before_ = test::allocations();
    }
    if (delivered == kWarm + kMeasured) {
      allocations = test::allocations() - before_;
      node->request_stop();
      return;
    }
    ctx.send(ctx.self(), env.payload);
  }

 private:
  std::uint64_t before_ = 0;
};

TEST(NetAllocation, SelfDeliverySteadyStateIsAllocationFree) {
  // A one-node cluster: every message is a self-send, so each loop pass
  // drains the local inbox while the deliveries refill it.
  NodeConfig cfg;
  cfg.id = 0;
  cfg.n = 1;
  auto owned = std::make_unique<SelfLoopProcess>();
  SelfLoopProcess& process = *owned;
  Node node(std::move(cfg), std::move(owned));
  process.node = &node;
  node.run();
  ASSERT_EQ(process.delivered,
            SelfLoopProcess::kWarm + SelfLoopProcess::kMeasured);
  EXPECT_EQ(process.allocations, 0u)
      << "a warm self-delivery pass must reuse the inbox and drain buffers";
}

}  // namespace
}  // namespace rcp::net
