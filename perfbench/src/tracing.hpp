// Outside-in tracing: timing decorators around the public Process and
// Context interfaces.
//
// TimedProcess wraps any rcp::Process and times each on_start / on_message
// / on_null call; the Context it passes down is a TimedContext that times
// every send / broadcast. A callback's self time is its duration minus the
// time spent inside those Context calls, so "process" time (the protocol or
// service layer) and "transport" time (whatever implements the Context:
// net::Node's encode + enqueue, or the simulator's mailbox push) separate
// without touching either layer.
//
// Totals are kept per decorator in a LayerTally, which only its driving
// thread writes; the owner merges tallies after the threads are joined.
// Where callbacks cost only ~100 ns (the simulator), reading the clock
// around every one would double the run, so a decorator may time just
// 1 in `time_every` callbacks: every callback is counted, the timed ones
// give the per-call means, and totals are estimated as mean x count.
// Spans are sampled 1-in-N of the timed callbacks into a bounded
// in-memory SpanLog and written out when the benchmark exits. A shared
// `window` flag gates all of it, so a traced run counts exactly the calls
// made inside its steady window.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "common/process.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A span's self time: its duration minus the time its children covered,
/// never negative. Children of one callback run sequentially on the
/// callback's own thread, so their covered time is the sum of their
/// durations.
[[nodiscard]] constexpr std::int64_t self_time_ns(
    std::int64_t start, std::int64_t end, std::int64_t children_ns) noexcept {
  const std::int64_t self = end - start - children_ns;
  return self > 0 ? self : 0;
}

enum class CallKind : std::uint8_t { start, message, null, send };

[[nodiscard]] const char* to_string(CallKind kind) noexcept;

struct CallTally {
  std::uint64_t calls = 0;  ///< every call, timed or not
  std::uint64_t timed = 0;  ///< calls whose time is in the sums below
  std::int64_t inclusive_ns = 0;
  std::int64_t self_ns = 0;

  void add(std::int64_t inclusive, std::int64_t self) noexcept {
    ++calls;
    ++timed;
    inclusive_ns += inclusive;
    self_ns += self;
  }
  void merge(const CallTally& o) noexcept {
    calls += o.calls;
    timed += o.timed;
    inclusive_ns += o.inclusive_ns;
    self_ns += o.self_ns;
  }
  /// Mean self time per timed call, in ns (0 with none timed).
  [[nodiscard]] double self_per_call_ns() const noexcept {
    return timed == 0 ? 0.0
                      : static_cast<double>(self_ns) /
                            static_cast<double>(timed);
  }
};

/// Totals for one decorated process: its callbacks by kind, plus the
/// Context calls made inside the timed callbacks (whose inclusive time is
/// the transport's share).
struct LayerTally {
  CallTally start;
  CallTally message;
  CallTally null;
  CallTally send;

  void merge(const LayerTally& o) noexcept {
    start.merge(o.start);
    message.merge(o.message);
    null.merge(o.null);
    send.merge(o.send);
  }
  /// Callbacks made per callback timed (1 when every callback is timed).
  [[nodiscard]] double scale() const noexcept {
    const std::uint64_t timed = start.timed + message.timed + null.timed;
    return timed == 0 ? 0.0
                      : static_cast<double>(start.calls + message.calls +
                                            null.calls) /
                            static_cast<double>(timed);
  }
  /// Estimated self time across every callback kind, in seconds.
  [[nodiscard]] double callback_self_s() const noexcept {
    return static_cast<double>(start.self_ns + message.self_ns +
                               null.self_ns) *
           scale() * 1e-9;
  }
  /// Estimated time inside Context calls, in seconds.
  [[nodiscard]] double send_s() const noexcept {
    return static_cast<double>(send.inclusive_ns) * scale() * 1e-9;
  }
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root (a process callback)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
  std::uint32_t node = 0;
  std::uint8_t layer = 0;
  CallKind kind = CallKind::message;
};

/// Bounded, 1-in-`every` sampled span buffer for one driving thread.
class SpanLog {
 public:
  SpanLog(std::uint32_t every, std::size_t capacity, std::uint64_t id_base);

  /// True when the next root callback should be recorded.
  [[nodiscard]] bool sample() noexcept {
    if (++tick_ < every_ || spans_.size() >= capacity_) {
      return false;
    }
    tick_ = 0;
    return true;
  }
  [[nodiscard]] std::uint64_t next_id() noexcept { return ++last_id_; }
  void push(const Span& s) {
    if (spans_.size() < capacity_) {
      spans_.push_back(s);
    }
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::uint32_t every_;
  std::uint32_t tick_ = 0;
  std::size_t capacity_;
  std::uint64_t last_id_;
  std::vector<Span> spans_;
};

/// Where one decorator reports. All pointers are owned by the workload and
/// outlive the decorator; `spans` may be null.
struct TraceSink {
  LayerTally* tally = nullptr;
  SpanLog* spans = nullptr;
  const std::atomic<bool>* window = nullptr;
  std::uint32_t node = 0;
  std::uint8_t layer = 0;
  std::uint32_t time_every = 1;  ///< time 1 in this many callbacks
};

class TimedProcess final : public rcp::Process {
 public:
  TimedProcess(std::unique_ptr<rcp::Process> inner, TraceSink sink)
      : inner_(std::move(inner)), sink_(sink) {}

  void on_start(rcp::Context& ctx) override;
  void on_message(rcp::Context& ctx, const rcp::Envelope& env) override;
  void on_null(rcp::Context& ctx) override;
  [[nodiscard]] rcp::Phase phase() const noexcept override {
    return inner_->phase();
  }

 private:
  template <typename Call>
  void timed(rcp::Context& ctx, CallKind kind, Call&& call);

  std::unique_ptr<rcp::Process> inner_;
  TraceSink sink_;
  std::uint32_t untimed_ = 0;  ///< callbacks since the last timed one
};

/// Writes spans as CSV (one header line, one span per line).
void write_spans_csv(std::ostream& out, const std::vector<const SpanLog*>& logs,
                     const std::vector<const char*>& layer_names);

}  // namespace perfbench
