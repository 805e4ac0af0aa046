// Transport reliability: PeerLink's reliable-stream bookkeeping, the
// receiver's spurious-retransmit classification, the fault injector's
// determinism, a node that resets a link on an ahead-of-stream seq, and a
// live two-node socket exchange that must deliver exactly once, in order,
// through injected disconnects and drops — and must resend nothing when
// the receiver is merely slow or the frames are drop-injected.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "adversary/byzantine.hpp"
#include "common/process.hpp"
#include "net/cluster.hpp"
#include "net/fault.hpp"
#include "net/frame.hpp"
#include "net/node.hpp"
#include "net/peer.hpp"

namespace rcp::net {
namespace {

constexpr std::size_t kNoBound = 1 << 20;

Bytes two_bytes(std::uint32_t i) {
  Bytes b;
  b.push_back(static_cast<std::byte>(i & 0xff));
  b.push_back(static_cast<std::byte>((i >> 8) & 0xff));
  return b;
}

// ---- PeerLink bookkeeping ----------------------------------------------

TEST(PeerLink, EnqueueAssignsContiguousSeqs) {
  PeerLink link;
  link.init(1, {}, false);
  const auto now = Clock::now();
  ASSERT_TRUE(link.enqueue(two_bytes(0), now, kNoBound));
  ASSERT_TRUE(link.enqueue(two_bytes(1), now, kNoBound));
  EXPECT_EQ(link.queue_depth(), 2u);
  EXPECT_EQ(link.next_unsent().seq, 1u);
  link.advance_unsent();
  EXPECT_EQ(link.next_unsent().seq, 2u);
}

TEST(PeerLink, CumulativeAckReleasesPrefix) {
  PeerLink link;
  link.init(1, {}, false);
  const auto now = Clock::now();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(link.enqueue(two_bytes(i), now, kNoBound));
    link.advance_unsent();
  }
  EXPECT_EQ(link.unsent_index(), 5u);  // five frames in flight
  link.on_ack(3);
  EXPECT_EQ(link.queue_depth(), 2u);
  EXPECT_EQ(link.unsent_index(), 2u);
  link.on_ack(5);
  EXPECT_EQ(link.queue_depth(), 0u);
  EXPECT_EQ(link.unsent_index(), 0u);
}

TEST(PeerLink, RewindRetransmitsUnackedFrames) {
  PeerLink link;
  link.init(1, {}, false);
  const auto now = Clock::now();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(link.enqueue(two_bytes(i), now, kNoBound));
    link.advance_unsent();
  }
  link.on_ack(1);  // frames 2..4 still unacked
  link.rewind_unsent();  // a reconnect: the old connection's bytes are gone
  EXPECT_EQ(link.counters.retransmits, 3u);
  EXPECT_EQ(link.unsent_index(), 0u);
  EXPECT_TRUE(link.transmittable(Clock::now()));
  EXPECT_EQ(link.next_unsent().seq, 2u);
  // A rewind with nothing in flight re-sends nothing.
  link.rewind_unsent();
  EXPECT_EQ(link.counters.retransmits, 3u);
}

TEST(PeerLink, BoundedQueueDropsNewestAtBound) {
  PeerLink link;
  link.init(1, {}, false);
  const auto now = Clock::now();
  ASSERT_TRUE(link.enqueue(two_bytes(0), now, 2));
  ASSERT_TRUE(link.enqueue(two_bytes(1), now, 2));
  EXPECT_FALSE(link.enqueue(two_bytes(2), now, 2));
  EXPECT_EQ(link.counters.overflow_drops, 1u);
  // The rejected message consumed no seq and the queue is untouched: the
  // stream the receiver sees stays contiguous.
  EXPECT_EQ(link.queue_depth(), 2u);
  link.on_ack(2);  // peer recovers and drains
  ASSERT_TRUE(link.enqueue(two_bytes(3), now, 2));
  EXPECT_EQ(link.next_unsent().seq, 3u);
}

TEST(PeerLink, InboundClassifiesDupDeliverGap) {
  PeerLink link;
  link.init(1, {}, false);
  EXPECT_EQ(link.classify_and_advance(1), 0);   // deliver
  EXPECT_EQ(link.classify_and_advance(1), -1);  // duplicate
  // Gap (2 missing): the node resets the link on it, and the peer's
  // reconnect rewind resends 2 next.
  EXPECT_EQ(link.classify_and_advance(3), 1);
  EXPECT_EQ(link.classify_and_advance(2), 0);
  EXPECT_EQ(link.delivered_seq(), 2u);
  EXPECT_EQ(link.counters.dup_frames, 1u);
  EXPECT_EQ(link.counters.gap_frames, 1u);
}

TEST(PeerLink, DelayedFramesAreNotTransmittableEarly) {
  PeerLink link;
  link.init(1, {}, false);
  const auto now = Clock::now();
  const auto later = now + std::chrono::hours(1);
  ASSERT_TRUE(link.enqueue(two_bytes(0), later, kNoBound));
  EXPECT_FALSE(link.transmittable(now));
  EXPECT_EQ(link.next_eligible_at(), later);
  EXPECT_TRUE(link.transmittable(later));
}

// ---- Receiver-side spurious-retransmit classification ------------------

TEST(SpuriousRetransmits, DuplicateWithoutLossContextIsSpurious) {
  PeerLink link;
  link.init(1, {}, false);
  EXPECT_EQ(link.classify_and_advance(1), 0);
  EXPECT_EQ(link.classify_and_advance(2), 0);
  // No gap was ever observed and no reconnect happened: the sender
  // rewound frames this receiver already had.
  EXPECT_EQ(link.classify_and_advance(1), -1);
  EXPECT_EQ(link.counters.dup_frames, 1u);
  EXPECT_EQ(link.counters.spurious_retransmits, 1u);
}

TEST(SpuriousRetransmits, ReconnectRewindDuplicatesAreExpected) {
  PeerLink link;
  link.init(1, {}, false);
  EXPECT_EQ(link.classify_and_advance(1), 0);
  EXPECT_EQ(link.classify_and_advance(2), 0);
  // After a reconnect the sender must rewind to its first unacked frame;
  // replayed seqs are the protocol working as designed.
  link.expect_rewind_dups();
  EXPECT_EQ(link.classify_and_advance(1), -1);
  EXPECT_EQ(link.classify_and_advance(2), -1);
  EXPECT_EQ(link.counters.spurious_retransmits, 0u);
  // The first in-order delivery ends the grace window.
  EXPECT_EQ(link.classify_and_advance(3), 0);
  EXPECT_EQ(link.classify_and_advance(3), -1);
  EXPECT_EQ(link.counters.spurious_retransmits, 1u);
}

// ---- FaultInjector ------------------------------------------------------

TEST(FaultInjector, DeterministicPerSeed) {
  FaultPlan plan;
  plan.link.drop_probability = 0.5;
  plan.link.delay_min_ms = 1;
  plan.link.delay_max_ms = 9;
  FaultInjector a(plan, 42);
  FaultInjector b(plan, 42);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.should_drop(), b.should_drop());
    EXPECT_EQ(a.delay_ms(), b.delay_ms());
  }
}

TEST(FaultInjector, ZeroRatesAreSilent) {
  FaultInjector inj(FaultPlan{}, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.should_drop());
    EXPECT_EQ(inj.delay_ms(), 0u);
  }
}

TEST(FaultInjector, DelayStaysWithinBounds) {
  FaultPlan plan;
  plan.link.delay_min_ms = 3;
  plan.link.delay_max_ms = 7;
  FaultInjector inj(plan, 9);
  for (int i = 0; i < 500; ++i) {
    const auto d = inj.delay_ms();
    EXPECT_GE(d, 3u);
    EXPECT_LE(d, 7u);
  }
}

TEST(FaultInjector, DisconnectEventsFireOnce) {
  FaultPlan plan;
  plan.disconnects.push_back({.peer = 2, .after_delivered = 10});
  plan.disconnects.push_back({.peer = 4, .after_delivered = 10});
  plan.disconnects.push_back({.peer = 5, .after_delivered = 50});
  FaultInjector inj(plan, 1);
  // Fires the matured events against links that are up (or down), and
  // returns the peers it cut.
  const auto fire = [&inj](std::uint64_t delivered, bool links_up) {
    std::vector<ProcessId> cut;
    inj.fire_due_disconnects(delivered, [&](ProcessId p) {
      if (links_up) {
        cut.push_back(p);
      }
      return links_up;
    });
    return cut;
  };
  EXPECT_TRUE(fire(9, true).empty());
  EXPECT_EQ(fire(10, true).size(), 2u);
  EXPECT_TRUE(fire(10, true).empty());  // fired, never again
  // A matured event whose link is down waits for the link to come up.
  EXPECT_TRUE(fire(60, false).empty());
  const auto second = fire(60, true);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], 5u);
  EXPECT_TRUE(fire(1000, true).empty());
}

// ---- Live two-node exchange --------------------------------------------

constexpr std::uint32_t kStreamLen = 200;

/// Sends kStreamLen numbered payloads to node 1, then decides.
class StreamSender final : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    for (std::uint32_t i = 0; i < kStreamLen; ++i) {
      ctx.send(1, two_bytes(i));
    }
    ctx.decide(Value::one);
  }
  void on_message(sim::Context&, const sim::Envelope&) override {}
};

/// Verifies the numbered stream arrives exactly once, in order, from the
/// authenticated sender; decides when complete.
class StreamReceiver final : public sim::Process {
 public:
  void on_start(sim::Context&) override {}
  void on_message(sim::Context& ctx, const sim::Envelope& env) override {
    if (env.sender != 0 || env.payload.size() != 2) {
      ++violations;
      return;
    }
    const auto i = static_cast<std::uint32_t>(env.payload[0]) |
                   (static_cast<std::uint32_t>(env.payload[1]) << 8);
    if (i != received) {
      ++violations;  // out of order, duplicated, or lost-then-skipped
    }
    ++received;
    if (received == kStreamLen) {
      ctx.decide(Value::one);
    }
  }

  std::uint32_t received = 0;
  std::uint32_t violations = 0;
};

Cluster::ProcessFactory stream_factory() {
  return [](ProcessId id) -> std::unique_ptr<sim::Process> {
    if (id == 0) {
      return std::make_unique<StreamSender>();
    }
    return std::make_unique<StreamReceiver>();
  };
}

TEST(Transport, StreamSurvivesInjectedDisconnects) {
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 7;
  cfg.timeout_ms = 20000;
  // The receiver force-closes the link mid-stream, twice; reconnect +
  // go-back-N must hand the process an unbroken exactly-once stream.
  cfg.disconnects.push_back({1, {.peer = 0, .after_delivered = 40}});
  cfg.disconnects.push_back({1, {.peer = 0, .after_delivered = 120}});
  Cluster cluster(cfg, stream_factory());
  const ClusterResult result = cluster.run();
  ASSERT_TRUE(result.success())
      << "timed_out=" << result.timed_out
      << " node0_err=" << result.nodes[0].error
      << " node1_err=" << result.nodes[1].error;

  const auto& receiver =
      static_cast<const StreamReceiver&>(cluster.node(1).process());
  EXPECT_EQ(receiver.received, kStreamLen);
  EXPECT_EQ(receiver.violations, 0u);
  EXPECT_GE(result.total_reconnects, 1u);
}

// A drop is a delay: each dropped frame is held kDropHoldMs and every
// later frame waits behind it, so the stream arrives exactly once, in
// order, and nothing is ever resent.
TEST(Transport, StreamSurvivesDropInjection) {
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 11;
  cfg.timeout_ms = 20000;
  cfg.link_faults.drop_probability = 0.2;
  Cluster cluster(cfg, stream_factory());
  const ClusterResult result = cluster.run();
  ASSERT_TRUE(result.success()) << "timed_out=" << result.timed_out;

  const auto& receiver =
      static_cast<const StreamReceiver&>(cluster.node(1).process());
  EXPECT_EQ(receiver.received, kStreamLen);
  EXPECT_EQ(receiver.violations, 0u);
  // With p=0.2 over 200 frames, drops are certain.
  std::uint64_t drops = 0;
  for (const PeerCounters& pc : cluster.node(0).stats().peers) {
    drops += pc.drops_injected;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(result.total_retransmits, 0u);
  EXPECT_EQ(result.total_spurious_retransmits, 0u);
}

/// Test-only decorator: forwards every callback to `inner`, but blocks the
/// node's loop thread for kStall inside the first on_message — a receiver
/// that is slow, never lossy.
class StallingProcess final : public sim::Process {
 public:
  static constexpr std::chrono::milliseconds kStall{150};

  explicit StallingProcess(std::unique_ptr<sim::Process> inner)
      : inner_(std::move(inner)) {}

  void on_start(sim::Context& ctx) override { inner_->on_start(ctx); }
  void on_message(sim::Context& ctx, const sim::Envelope& env) override {
    if (!stalled_) {
      stalled_ = true;
      std::this_thread::sleep_for(kStall);
    }
    inner_->on_message(ctx, env);
  }
  void on_null(sim::Context& ctx) override { inner_->on_null(ctx); }
  [[nodiscard]] Phase phase() const noexcept override {
    return inner_->phase();
  }

  [[nodiscard]] const sim::Process& inner() const { return *inner_; }

 private:
  std::unique_ptr<sim::Process> inner_;
  bool stalled_ = false;
};

// The paper's channel may delay arbitrarily; delay is not loss. The sender
// has the whole stream in flight while the receiver sits in on_message for
// 150 ms, and must still resend nothing.
TEST(Transport, SlowReceiverCausesNoRetransmits) {
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 5;
  cfg.timeout_ms = 20000;
  Cluster cluster(cfg, [](ProcessId id) -> std::unique_ptr<sim::Process> {
    if (id == 0) {
      return std::make_unique<StreamSender>();
    }
    return std::make_unique<StallingProcess>(
        std::make_unique<StreamReceiver>());
  });
  const ClusterResult result = cluster.run();
  ASSERT_TRUE(result.success()) << "timed_out=" << result.timed_out;

  const auto& receiver = static_cast<const StreamReceiver&>(
      static_cast<const StallingProcess&>(cluster.node(1).process())
          .inner());
  EXPECT_EQ(receiver.received, kStreamLen);
  EXPECT_EQ(receiver.violations, 0u);
  EXPECT_EQ(result.total_retransmits, 0u);
  EXPECT_EQ(result.total_spurious_retransmits, 0u);
}

// ---- Partial writes under tiny socket buffers ---------------------------

constexpr std::uint32_t kBigLen = 150;
constexpr std::size_t kBigPayload = 2048;

Bytes big_payload(std::uint32_t i) {
  Bytes b;
  b.resize(kBigPayload);
  b[0] = static_cast<std::byte>(i & 0xff);
  b[1] = static_cast<std::byte>((i >> 8) & 0xff);
  for (std::size_t j = 2; j < kBigPayload; ++j) {
    b[j] = static_cast<std::byte>((i + j) & 0xff);
  }
  return b;
}

/// Sends kBigLen payloads, each larger than the socket send buffer.
class BigStreamSender final : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    for (std::uint32_t i = 0; i < kBigLen; ++i) {
      ctx.send(1, big_payload(i));
    }
    ctx.decide(Value::one);
  }
  void on_message(sim::Context&, const sim::Envelope&) override {}
};

/// Verifies order, exactly-once delivery, and byte-for-byte content.
class BigStreamReceiver final : public sim::Process {
 public:
  void on_start(sim::Context&) override {}
  void on_message(sim::Context& ctx, const sim::Envelope& env) override {
    if (env.sender != 0 || env.payload != big_payload(received)) {
      ++violations;
    }
    ++received;
    if (received == kBigLen) {
      ctx.decide(Value::one);
    }
  }

  std::uint32_t received = 0;
  std::uint32_t violations = 0;
};

// Frames larger than SO_SNDBUF force every writev to return short: the
// remainder must spill into the link's write buffer and resume on the
// next writability edge, without tearing or reordering frames — including
// across forced reconnects, where go-back-N replays from the last ack.
TEST(Transport, FramesSurviveShortWritesAndReconnects) {
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 13;
  cfg.timeout_ms = 20000;
  // A send buffer below one frame forces every sendmsg of a multi-frame
  // plan to return short (the kernel rounds the size up, but far below the
  // ~64 KiB a full WritevPlan gathers). The receive buffer stays at its
  // default: shrinking it too stalls on kernel TCP flow control (delayed
  // ACKs against a tiny window), which is not the path under test.
  cfg.limits.so_sndbuf = 2048;
  cfg.disconnects.push_back({1, {.peer = 0, .after_delivered = 30}});
  cfg.disconnects.push_back({1, {.peer = 0, .after_delivered = 90}});
  Cluster cluster(cfg, [](ProcessId id) -> std::unique_ptr<sim::Process> {
    if (id == 0) {
      return std::make_unique<BigStreamSender>();
    }
    return std::make_unique<BigStreamReceiver>();
  });
  const ClusterResult result = cluster.run();
  ASSERT_TRUE(result.success())
      << "timed_out=" << result.timed_out
      << " node0_err=" << result.nodes[0].error
      << " node1_err=" << result.nodes[1].error;

  const auto& receiver =
      static_cast<const BigStreamReceiver&>(cluster.node(1).process());
  EXPECT_EQ(receiver.received, kBigLen);
  EXPECT_EQ(receiver.violations, 0u);
  EXPECT_GE(result.total_reconnects, 1u);
}

TEST(Transport, DelayInjectionStillDeliversAll) {
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 3;
  cfg.timeout_ms = 20000;
  cfg.link_faults.delay_min_ms = 0;
  cfg.link_faults.delay_max_ms = 3;
  Cluster cluster(cfg, stream_factory());
  const ClusterResult result = cluster.run();
  ASSERT_TRUE(result.success()) << "timed_out=" << result.timed_out;
  const auto& receiver =
      static_cast<const StreamReceiver&>(cluster.node(1).process());
  EXPECT_EQ(receiver.received, kStreamLen);
  EXPECT_EQ(receiver.violations, 0u);
  // Held frames are late, not lost: nothing is resent.
  EXPECT_EQ(result.total_retransmits, 0u);
}

// ---- An ahead-of-stream seq resets the link ---------------------------

/// Plays node 1 of a two-node cluster over a blocking socket: handshake,
/// then the data frames with the given seqs. Returns true once node 0
/// closes the connection (EOF or reset), false if it stays open for 5 s.
bool send_seqs_until_closed(std::uint16_t port,
                            const std::vector<std::uint64_t>& seqs) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  const timeval timeout{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool closed = false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    std::vector<std::byte> wire;
    append_hello(wire, /*node_id=*/1, /*n=*/2);
    for (const std::uint64_t seq : seqs) {
      append_data(wire, seq, two_bytes(static_cast<std::uint32_t>(seq)));
    }
    if (::write(fd, wire.data(), wire.size()) ==
        static_cast<ssize_t>(wire.size())) {
      std::byte buf[256];
      while (true) {
        const ssize_t got = ::read(fd, buf, sizeof(buf));
        if (got > 0) {
          continue;  // the node's hello and acks
        }
        closed = got == 0 || errno == ECONNRESET;
        break;
      }
    }
  }
  ::close(fd);
  return closed;
}

// A correct peer's stream has no holes (an injected drop holds a frame
// back, it never skips one), so a seq ahead of the stream is input from
// outside the program: the node delivers what came in order, then resets
// the link instead of waiting behind the hole.
TEST(Transport, AheadOfStreamSeqResetsTheLink) {
  NodeConfig cfg;
  cfg.id = 0;
  cfg.n = 2;
  Node node(std::move(cfg), std::make_unique<adversary::SilentByzantine>());
  const std::uint16_t port = node.listen();
  std::thread runner([&node] { node.run(); });
  const bool closed = send_seqs_until_closed(port, {1, 3});
  node.request_stop();
  runner.join();

  EXPECT_TRUE(closed);
  EXPECT_TRUE(node.error().empty()) << node.error();
  const PeerCounters& from_peer = node.stats().peers[1];
  EXPECT_EQ(from_peer.msgs_in, 1u);
  EXPECT_EQ(from_peer.gap_frames, 1u);
  EXPECT_EQ(node.stats().msgs_delivered, 1u);
}

}  // namespace
}  // namespace rcp::net
