// Per-peer and per-node transport counters.
//
// The counters answer the operational questions the simulator's Metrics
// cannot: how many bytes crossed each link, how often links flapped (and
// how many frames each reconnect resent), how deep the send queues ran,
// and how much work the fault injector did.
// examples/net_cluster exports them through the bench_json.hpp writer
// (schema rcp-net-v1) next to the simulator's rcp-bench-v1 reports.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rcp::net {

/// Allocation-free log₂-bucketed latency histogram.
///
/// Bucket b holds samples with floor(log2(ns)) == b, so 64 fixed buckets
/// cover the full uint64 nanosecond range at ~2× resolution — coarse, but
/// recording is two instructions on the hot send/ack path and merging
/// across nodes is elementwise addition. Quantiles interpolate linearly
/// inside the winning bucket.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns) noexcept {
    buckets_[bucket_of(ns)] += 1;
    count_ += 1;
    sum_ns_ += ns;
  }

  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      buckets_[b] += other.buckets_[b];
    }
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  [[nodiscard]] double mean_ms() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_ns_) /
                             static_cast<double>(count_) / 1e6;
  }

  /// Latency at quantile q in [0, 1], in milliseconds.
  [[nodiscard]] double quantile_ms(double q) const noexcept {
    if (count_ == 0) {
      return 0.0;
    }
    const double target = q * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      if (buckets_[b] == 0) {
        continue;
      }
      const double before = static_cast<double>(seen);
      seen += buckets_[b];
      if (static_cast<double>(seen) >= target) {
        const double lo = static_cast<double>(bucket_floor(b));
        const double hi = static_cast<double>(bucket_floor(b + 1));
        const double frac =
            (target - before) / static_cast<double>(buckets_[b]);
        return (lo + (hi - lo) * frac) / 1e6;
      }
    }
    return static_cast<double>(bucket_floor(buckets_.size())) / 1e6;
  }

 private:
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t ns) noexcept {
    return ns == 0 ? 0 : static_cast<std::size_t>(std::bit_width(ns) - 1);
  }
  [[nodiscard]] static std::uint64_t bucket_floor(std::size_t b) noexcept {
    return b >= 64 ? ~std::uint64_t{0} : std::uint64_t{1} << b;
  }

  std::array<std::uint64_t, 64> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

struct PeerCounters {
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t msgs_out = 0;       ///< data frames enqueued to this peer
  std::uint64_t msgs_in = 0;        ///< data frames delivered from this peer
  std::uint64_t reconnects = 0;     ///< successful re-establishments
  /// Frames re-sent by the go-back-N rewind of a reconnect, the only
  /// rewind there is.
  std::uint64_t retransmits = 0;
  std::uint64_t drops_injected = 0; ///< frames held kDropHoldMs by fault plan
  std::uint64_t delays_injected = 0;///< frames given a non-zero delay
  std::uint64_t dup_frames = 0;     ///< already-delivered seqs discarded
  /// Ahead-of-stream seqs: no correct peer sends one, so each resets the
  /// link and the reconnect rewind repairs the stream.
  std::uint64_t gap_frames = 0;
  /// Duplicates no reconnect explains: the peer rewound frames we already
  /// had. Only a reconnect rewinds a link, so correct runs read zero.
  std::uint64_t spurious_retransmits = 0;
  std::uint64_t overflow_drops = 0; ///< messages dropped at the queue bound
  std::size_t queue_depth = 0;      ///< current outbound queue length
  std::size_t queue_peak = 0;       ///< high-water outbound queue length
};

struct NodeStats {
  std::uint64_t events = 0;           ///< on_start + delivered messages
  std::uint64_t msgs_sent = 0;        ///< protocol sends (incl. self-sends)
  std::uint64_t msgs_delivered = 0;   ///< messages handed to the process
  std::uint64_t read_pauses = 0;      ///< backpressure read-side pauses
  std::vector<PeerCounters> peers;    ///< indexed by peer id; self unused
  LatencyHistogram latency;           ///< enqueue → ack-release, per frame
};

}  // namespace rcp::net
