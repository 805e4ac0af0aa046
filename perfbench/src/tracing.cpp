#include "tracing.hpp"

#include <utility>

namespace perfbench {

const char* to_string(CallKind kind) noexcept {
  switch (kind) {
    case CallKind::start:
      return "on_start";
    case CallKind::message:
      return "on_message";
    case CallKind::null:
      return "on_null";
    case CallKind::send:
      return "send";
  }
  return "?";
}

SpanLog::SpanLog(std::uint32_t every, std::size_t capacity,
                 std::uint64_t id_base)
    : every_(every == 0 ? 1 : every), capacity_(capacity), last_id_(id_base) {
  spans_.reserve(capacity_);
}

namespace {

/// The Context handed to the decorated process: forwards everything,
/// timing send/broadcast into the sink (and into sampled child spans).
class TimedContext final : public rcp::Context {
 public:
  TimedContext(rcp::Context& inner, const TraceSink& sink,
               std::uint64_t parent_span)
      : inner_(inner), sink_(sink), parent_(parent_span) {}

  [[nodiscard]] rcp::ProcessId self() const noexcept override {
    return inner_.self();
  }
  [[nodiscard]] std::uint32_t n() const noexcept override {
    return inner_.n();
  }
  [[nodiscard]] std::uint64_t step() const noexcept override {
    return inner_.step();
  }
  void send(rcp::ProcessId to, rcp::Bytes payload) override {
    const std::int64_t t0 = now_ns();
    inner_.send(to, std::move(payload));
    note(t0, now_ns());
  }
  void broadcast(const rcp::Bytes& payload) override {
    const std::int64_t t0 = now_ns();
    inner_.broadcast(payload);
    note(t0, now_ns());
  }
  void decide(rcp::Value v) override { inner_.decide(v); }
  [[nodiscard]] rcp::Rng& rng() noexcept override { return inner_.rng(); }

  [[nodiscard]] std::int64_t children_ns() const noexcept {
    return children_ns_;
  }

 private:
  void note(std::int64_t t0, std::int64_t t1) {
    children_ns_ += t1 - t0;
    sink_.tally->send.add(t1 - t0, t1 - t0);
    if (parent_ != 0) {
      sink_.spans->push(Span{sink_.spans->next_id(), parent_, t0, t1,
                             t1 - t0, sink_.node, sink_.layer,
                             CallKind::send});
    }
  }

  rcp::Context& inner_;
  const TraceSink& sink_;
  std::uint64_t parent_;
  std::int64_t children_ns_ = 0;
};

}  // namespace

template <typename Call>
void TimedProcess::timed(rcp::Context& ctx, CallKind kind, Call&& call) {
  if (sink_.window != nullptr &&
      !sink_.window->load(std::memory_order_relaxed)) {
    call(ctx);
    return;
  }
  CallTally& tally = kind == CallKind::start     ? sink_.tally->start
                     : kind == CallKind::message ? sink_.tally->message
                                                 : sink_.tally->null;
  if (++untimed_ < sink_.time_every) {
    ++tally.calls;
    call(ctx);
    return;
  }
  untimed_ = 0;
  const bool sampled = sink_.spans != nullptr && sink_.spans->sample();
  const std::uint64_t span_id = sampled ? sink_.spans->next_id() : 0;
  TimedContext tctx(ctx, sink_, span_id);
  const std::int64_t t0 = now_ns();
  call(tctx);
  const std::int64_t t1 = now_ns();
  const std::int64_t self = self_time_ns(t0, t1, tctx.children_ns());
  tally.add(t1 - t0, self);
  if (sampled) {
    sink_.spans->push(
        Span{span_id, 0, t0, t1, self, sink_.node, sink_.layer, kind});
  }
}

void TimedProcess::on_start(rcp::Context& ctx) {
  timed(ctx, CallKind::start,
        [this](rcp::Context& c) { inner_->on_start(c); });
}

void TimedProcess::on_message(rcp::Context& ctx, const rcp::Envelope& env) {
  timed(ctx, CallKind::message,
        [this, &env](rcp::Context& c) { inner_->on_message(c, env); });
}

void TimedProcess::on_null(rcp::Context& ctx) {
  timed(ctx, CallKind::null, [this](rcp::Context& c) { inner_->on_null(c); });
}

void write_spans_csv(std::ostream& out,
                     const std::vector<const SpanLog*>& logs,
                     const std::vector<const char*>& layer_names) {
  out << "id,parent,layer,kind,node,start_ns,end_ns,self_ns\n";
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << s.id << ',' << s.parent << ','
          << (s.layer < layer_names.size() ? layer_names[s.layer] : "?")
          << ',' << to_string(s.kind) << ',' << s.node << ',' << s.start_ns
          << ',' << s.end_ns << ',' << s.self_ns << '\n';
    }
  }
}

}  // namespace perfbench
