#include "net/peer.hpp"

#include <algorithm>

namespace rcp::net {

void OutboundRing::grow() {
  const std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
  std::vector<Outbound> next(cap);
  for (std::size_t i = 0; i < size_; ++i) {
    next[i] = std::move((*this)[i]);
  }
  slots_ = std::move(next);
  head_ = 0;
  mask_ = cap - 1;
}

bool PeerLink::enqueue(Bytes payload, Clock::time_point eligible_at,
                       std::size_t max_queued,
                       Clock::time_point enqueued_at) {
  if (queue_.size() >= max_queued) {
    ++counters.overflow_drops;
    return false;
  }
  Outbound out;
  out.seq = assign_seq();
  encode_data_header(out.header, out.seq, payload.size());
  out.payload = std::move(payload);
  out.eligible_at = eligible_at;
  out.enqueued_at =
      enqueued_at == Clock::time_point{} ? eligible_at : enqueued_at;
  queue_.push_back(std::move(out));
  ++counters.msgs_out;
  counters.queue_depth = queue_.size();
  counters.queue_peak = std::max(counters.queue_peak, queue_.size());
  return true;
}

void PeerLink::on_ack(std::uint64_t acked, Clock::time_point now,
                      LatencyHistogram* latency) noexcept {
  while (!queue_.empty() && queue_[0].seq <= acked) {
    if (now != Clock::time_point{}) {
      const auto waited = now - queue_[0].enqueued_at;
      const std::uint64_t ns =
          waited > Clock::duration::zero()
              ? static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        waited)
                        .count())
              : 0;
      if (latency != nullptr) {
        latency->record(ns);
      }
    }
    queue_.pop_front();
    if (unsent_ > 0) {
      --unsent_;
    }
  }
  counters.queue_depth = queue_.size();
}

void PeerLink::rewind_unsent() noexcept {
  counters.retransmits += unsent_;
  unsent_ = 0;
}

Clock::time_point PeerLink::next_eligible_at() const noexcept {
  if (unsent_ >= queue_.size()) {
    return Clock::time_point::max();
  }
  return queue_[unsent_].eligible_at;
}

int PeerLink::classify_and_advance(std::uint64_t seq) noexcept {
  if (seq < next_expected_) {
    ++counters.dup_frames;
    if (!rewind_dups_expected_) {
      // No reconnect explains this duplicate: the sender rewound frames
      // this receiver already had.
      ++counters.spurious_retransmits;
    }
    return -1;
  }
  if (seq > next_expected_) {
    ++counters.gap_frames;
    return 1;
  }
  ++next_expected_;
  ++counters.msgs_in;
  rewind_dups_expected_ = false;
  return 0;
}

void WritevPlan::commit(PeerLink& link, std::size_t written) const {
  link.counters.bytes_out += written;
  std::size_t left = written;

  const std::size_t buf_take = std::min(left, buf_bytes_);
  link.write_off += buf_take;
  left -= buf_take;
  if (link.write_off == link.write_buf.size()) {
    link.write_buf.clear();
    link.write_off = 0;
  }

  for (std::size_t i = 0; i < frame_count_ && left > 0; ++i) {
    if (left >= frame_bytes_[i]) {
      left -= frame_bytes_[i];
      link.advance_unsent();
      continue;
    }
    // Partial frame: the kernel took a prefix. Spill the remainder into
    // write_buf (the only copy on the egress path, and only under
    // backpressure) so the stream stays byte-exact, then stop — later
    // frames were not reached.
    const Outbound& f = link.frame_at(link.unsent_index());
    const std::size_t consumed = left;
    if (consumed < f.header.size()) {
      link.write_buf.insert(link.write_buf.end(),
                            f.header.begin() +
                                static_cast<std::ptrdiff_t>(consumed),
                            f.header.end());
      const auto span = f.payload.span();
      link.write_buf.insert(link.write_buf.end(), span.begin(), span.end());
    } else {
      const auto span = f.payload.span();
      link.write_buf.insert(
          link.write_buf.end(),
          span.begin() +
              static_cast<std::ptrdiff_t>(consumed - f.header.size()),
          span.end());
    }
    link.advance_unsent();
    break;
  }
}

}  // namespace rcp::net
