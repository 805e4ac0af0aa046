// Per-peer link state: one reliable, ordered, framed stream to one peer.
//
// The paper's message system is "reliable but arbitrarily delayed". A live
// TCP connection already is that channel; it loses frames only when it
// dies (bytes in flight are gone). Injected drops are holds, not holes
// (net/fault.hpp). The link therefore runs a thin reliability layer on
// top of the framed stream that repairs exactly that one loss and guesses
// at nothing:
//
//   * every data frame carries a per-link sequence number, assigned at
//     enqueue and retained until cumulatively acked by the receiver;
//   * a reconnect rewinds transmission to the first unacked frame
//     (go-back-N); nothing else does, so delay never triggers a resend;
//   * the receive side tracks next_expected and discards duplicates
//     (expected after a reconnect rewind). A seq ahead of the stream
//     cannot come from a correct peer; the node resets the link on one.
//
// The outbound queue is bounded (NodeLimits::max_queued_frames). When a
// peer cannot drain the queue — crashed and past reconnect, or flooding us
// into amplification — messages past the bound are dropped at enqueue: to
// this sender the peer then behaves like a faulty process that lost them,
// which is exactly what the protocols tolerate. The queued stream itself
// is never cut (clearing it would wedge the receiver's in-order dedupe
// forever), so delivery resumes seamlessly if the peer recovers. Before
// the bound, crossing the high-water mark pauses reads from that peer
// (backpressure on the only traffic source that can grow this queue).
//
// Egress is zero-copy: each queued frame keeps its Payload (SBO/COW —
// sharing the sender's buffer, not copying it) plus a 13-byte wire header
// precomputed at enqueue. WritevPlan gathers header/payload pairs straight
// from the ring into one vectored send per readiness event; only the
// remainder of a partially-written frame is ever copied (into write_buf).
//
// PeerLink owns no sockets and does no I/O; the net event loop moves
// bytes and drives the state transitions.
#pragma once

#include <sys/uio.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/stats.hpp"

namespace rcp::net {

using Clock = std::chrono::steady_clock;

/// One queued-but-not-yet-acked outbound payload, with its wire header
/// precomputed so transmission is pure buffer gathering.
struct Outbound {
  std::uint64_t seq = 0;
  Bytes payload;
  std::array<std::byte, kDataFrameHeader> header{};
  /// Not transmitted before this instant (delay injection).
  Clock::time_point eligible_at{};
  /// When the sender queued it — the start of the latency measurement.
  Clock::time_point enqueued_at{};
};

/// Bounded-growth ring of Outbound frames. A deque would allocate a block
/// every few hundred frames forever; the ring reaches the queue's working
/// capacity once and then recycles slots, keeping the steady-state send
/// path allocation-free (payload Bytes are released on pop so refcounted
/// buffers return to their owners promptly).
class OutboundRing {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] Outbound& operator[](std::size_t i) noexcept {
    return slots_[(head_ + i) & mask_];
  }
  [[nodiscard]] const Outbound& operator[](std::size_t i) const noexcept {
    return slots_[(head_ + i) & mask_];
  }

  void push_back(Outbound&& out) {
    if (size_ == slots_.size()) {
      grow();
    }
    slots_[(head_ + size_) & mask_] = std::move(out);
    ++size_;
  }

  void pop_front() noexcept {
    slots_[head_].payload = Bytes{};
    head_ = (head_ + 1) & mask_;
    --size_;
  }

 private:
  void grow();

  std::vector<Outbound> slots_;  ///< power-of-two capacity (or empty)
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

class PeerLink {
 public:
  enum class State : std::uint8_t {
    idle,        ///< no connection; dialers schedule a dial, acceptors wait
    connecting,  ///< non-blocking connect in progress (dialer only)
    hello_sent,  ///< dialer sent hello, awaiting the peer's reply
    established, ///< handshake complete; data/ack frames flow
  };

  void init(ProcessId peer, PeerAddress addr, bool dialer) {
    peer_ = peer;
    addr_ = addr;
    dialer_ = dialer;
  }

  [[nodiscard]] ProcessId peer() const noexcept { return peer_; }
  [[nodiscard]] const PeerAddress& addr() const noexcept { return addr_; }
  [[nodiscard]] bool dialer() const noexcept { return dialer_; }

  // ---- Outbound reliable stream -------------------------------------

  /// Queues a payload; returns false (and counts an overflow drop) if the
  /// bound was reached — the message is then lost to this peer. The wire
  /// header is encoded here, once; transmission only gathers pointers.
  /// `enqueued_at` anchors the latency measurement (defaults to
  /// eligible_at for callers that do not measure).
  [[nodiscard]] bool enqueue(Bytes payload, Clock::time_point eligible_at,
                             std::size_t max_queued,
                             Clock::time_point enqueued_at = {});

  /// Is there a frame ready to transmit at `now`? Held frames (delay or
  /// drop injection) block every later one: the stream stays in order.
  [[nodiscard]] bool transmittable(Clock::time_point now) const noexcept {
    return unsent_ < queue_.size() && queue_[unsent_].eligible_at <= now;
  }

  /// The next frame to transmit. Precondition: transmittable(now).
  [[nodiscard]] const Outbound& next_unsent() const noexcept {
    return queue_[unsent_];
  }

  /// Marks next_unsent() as transmitted.
  void advance_unsent() noexcept { ++unsent_; }

  /// Random access for WritevPlan: index of the next frame to transmit
  /// (also the count of frames sent but not yet acked) and the frame at
  /// queue position `i` (0 = oldest unacked).
  [[nodiscard]] std::size_t unsent_index() const noexcept { return unsent_; }
  [[nodiscard]] const Outbound& frame_at(std::size_t i) const noexcept {
    return queue_[i];
  }

  /// Processes a cumulative ack: releases frames with seq <= acked. When
  /// `latency` is given, each released frame records enqueue → now.
  void on_ack(std::uint64_t acked, Clock::time_point now = {},
              LatencyHistogram* latency = nullptr) noexcept;

  /// Rewinds transmission to the first unacked frame (a reconnect: bytes
  /// in flight on the old connection may be lost); counts the frames it
  /// re-sends as retransmits.
  void rewind_unsent() noexcept;

  /// Earliest instant a queued-but-ineligible frame becomes transmittable
  /// (delay or drop injection), or time_point::max() if none.
  [[nodiscard]] Clock::time_point next_eligible_at() const noexcept;

  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.size();
  }

  [[nodiscard]] std::uint64_t assign_seq() noexcept { return ++last_seq_; }

  /// Receive side: a (re)connect makes the sender rewind to its first
  /// unacked frame, so duplicates of already-delivered seqs are expected
  /// and must not count as spurious retransmits.
  void expect_rewind_dups() noexcept { rewind_dups_expected_ = true; }

  // ---- Inbound ordered stream ---------------------------------------

  /// Classifies an arriving data seq: 0 = deliver (and advances the
  /// stream), -1 = duplicate, +1 = gap (ahead of the stream; no correct
  /// peer sends one, so the caller resets the link).
  [[nodiscard]] int classify_and_advance(std::uint64_t seq) noexcept;

  /// Highest contiguously delivered seq (the cumulative ack we send).
  [[nodiscard]] std::uint64_t delivered_seq() const noexcept {
    return next_expected_ - 1;
  }

  // ---- Connection bookkeeping (owned by the net event loop) ----------

  State state = State::idle;
  Fd fd;
  FrameDecoder decoder;
  /// Control/spill buffer: hello and ack frames, plus the remainder of a
  /// partially-written data frame. Data frames otherwise go straight from
  /// the ring via WritevPlan and never live here.
  std::vector<std::byte> write_buf;
  std::size_t write_off = 0;
  /// Dialer backoff: next dial attempt not before this instant.
  Clock::time_point next_dial_at{};
  std::uint32_t backoff_ms = 0;
  /// Handshake must complete by this instant or the attempt is abandoned.
  Clock::time_point handshake_deadline{};
  bool ack_pending = false;   ///< we owe the peer a cumulative ack
  bool read_paused = false;   ///< backpressure: stop reading this peer
  bool ever_connected = false;
  /// Sticky readiness flags (edge-triggered discipline): set by reactor
  /// events, cleared only when the corresponding syscall returns EAGAIN.
  bool ev_readable = false;
  bool ev_writable = false;
  PeerCounters counters;

 private:
  ProcessId peer_ = 0;
  PeerAddress addr_;
  bool dialer_ = false;

  OutboundRing queue_;
  std::size_t unsent_ = 0;        ///< index of next frame to transmit
  std::uint64_t last_seq_ = 0;    ///< last assigned outbound seq
  std::uint64_t next_expected_ = 1;  ///< next inbound seq to deliver

  // Spurious-retransmit detection (receive side). A duplicate seq means
  // the sender rewound; only a reconnect makes that necessary. Any other
  // duplicate is a retransmit the sender did not need.
  bool rewind_dups_expected_ = false;
};

/// One vectored send assembled from a link's pending bytes: the tail of
/// write_buf first (acks, hello, spilled remainders), then a
/// (header, payload) iovec pair per transmittable frame, gathered in
/// place from the ring — no copies. Fixed-capacity, reusable; building a
/// plan allocates nothing.
///
/// build() reads the link without mutating it. commit() applies the
/// kernel's answer: it consumes write_buf, advances the unsent cursor over
/// fully-sent frames in order, and spills the first partial frame's
/// remainder into write_buf. Frames the kernel did not reach stay queued.
class WritevPlan {
 public:
  static constexpr std::size_t kMaxFrames = 31;
  static constexpr std::size_t kMaxIovecs = 1 + 2 * kMaxFrames;
  static constexpr std::size_t kMaxBytes = 256 * 1024;

  void build(const PeerLink& link, Clock::time_point now,
             bool include_frames) {
    iov_count_ = 0;
    frame_count_ = 0;
    total_bytes_ = 0;
    buf_bytes_ = 0;
    if (link.write_off < link.write_buf.size()) {
      buf_bytes_ = link.write_buf.size() - link.write_off;
      push_iov(link.write_buf.data() + link.write_off, buf_bytes_);
      total_bytes_ += buf_bytes_;
    }
    if (!include_frames) {
      return;
    }
    std::size_t pos = link.unsent_index();
    while (frame_count_ < kMaxFrames && total_bytes_ < kMaxBytes &&
           pos < link.queue_depth()) {
      const Outbound& f = link.frame_at(pos);
      if (f.eligible_at > now) {
        break;  // in-order stream: an ineligible frame blocks the rest
      }
      const std::size_t bytes = f.header.size() + f.payload.size();
      push_iov(f.header.data(), f.header.size());
      push_iov(f.payload.data(), f.payload.size());
      frame_bytes_[frame_count_++] = bytes;
      total_bytes_ += bytes;
      ++pos;
    }
  }

  [[nodiscard]] bool empty() const noexcept { return iov_count_ == 0; }
  [[nodiscard]] iovec* iov() noexcept { return iov_.data(); }
  [[nodiscard]] std::size_t iov_count() const noexcept { return iov_count_; }
  [[nodiscard]] std::size_t total_bytes() const noexcept {
    return total_bytes_;
  }

  /// Applies `written` bytes (the sendmsg return) to the link.
  void commit(PeerLink& link, std::size_t written) const;

 private:
  void push_iov(const std::byte* data, std::size_t len) noexcept {
    // sendmsg never writes through the iovec; the const_cast only
    // satisfies the POSIX struct.
    iov_[iov_count_++] =
        iovec{const_cast<std::byte*>(data), len};  // NOLINT
  }

  std::array<iovec, kMaxIovecs> iov_{};
  std::array<std::size_t, kMaxFrames> frame_bytes_{};
  std::size_t iov_count_ = 0;
  std::size_t frame_count_ = 0;
  std::size_t total_bytes_ = 0;
  std::size_t buf_bytes_ = 0;
};

}  // namespace rcp::net
