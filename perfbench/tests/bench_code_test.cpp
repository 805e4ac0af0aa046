// Unit tests for the benchmark's own code: tail-percentile selection,
// span self-time arithmetic and the /proc per-thread CPU parser.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "procstat.hpp"
#include "stats.hpp"
#include "tracing.hpp"

namespace perfbench {
namespace {

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  EXPECT_TRUE(supported(1000, 0.99));
  EXPECT_EQ(beyond(1000, 0.99), 10u);
  EXPECT_FALSE(supported(999, 0.99));
  EXPECT_FALSE(supported(100, 0.99));
  EXPECT_TRUE(supported(20, 0.5));  // rank 10, ten beyond
  EXPECT_FALSE(supported(19, 0.5));
}

TEST(Percentile, SupportedQuantileIsNearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) {
    v.push_back(i);
  }
  const Quantile q = select_quantile(v, 0.99);
  EXPECT_TRUE(q.exact);
  EXPECT_DOUBLE_EQ(q.value, 990.0);  // ten samples (991..1000) beyond
}

TEST(Percentile, SmallSampleFallsBackToTenBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) {
    v.push_back(i);
  }
  const Quantile q = select_quantile(v, 0.99);
  EXPECT_FALSE(q.exact);
  EXPECT_DOUBLE_EQ(q.value, 190.0);  // 191..200 lie beyond
}

TEST(Percentile, SlicedMedianSkipsThinSlices) {
  std::vector<std::vector<double>> slices(3);
  for (int i = 1; i <= 1000; ++i) {
    slices[0].push_back(i);         // p99 = 990
    slices[1].push_back(2.0 * i);   // p99 = 1980
  }
  slices[2] = {1e9, 1e9};           // too thin for p99: skipped
  const Quantile q = sliced_quantile(slices, 0.99);
  EXPECT_TRUE(q.exact);
  EXPECT_DOUBLE_EQ(q.value, 990.0);  // nearest-rank median of {990, 1980}
}

TEST(SlicedRates, MediansOfPerSliceRateAndCpu) {
  // Three 1 s slices: 10 events on 1 s CPU, 20 on 1 s, 40 on 8 s.
  const std::vector<Snapshot> snaps = {
      {0, 0.0}, {1'000'000'000, 1.0}, {2'000'000'000, 2.0},
      {3'000'000'000, 10.0}};
  std::vector<std::int64_t> events;
  const auto add = [&](std::int64_t from, std::int64_t step, int count) {
    for (std::int64_t i = 0; i < count; ++i) {
      events.push_back(from + i * step);
    }
  };
  add(0, 100'000'000, 10);
  add(1'000'000'000, 50'000'000, 20);
  add(2'000'000'000, 25'000'000, 40);
  events.push_back(3'000'000'000);  // at the last cut: in no slice
  const SliceRates r = sliced_rates(snaps, events);
  EXPECT_DOUBLE_EQ(r.per_s, 20.0);                   // of {10, 20, 40}
  EXPECT_DOUBLE_EQ(r.cpu_us_per_event, 1e6 / 10.0);  // of {1e5, 5e4, 2e5}
}

TEST(SelfTime, SubtractsChildrenAndClampsAtZero) {
  EXPECT_EQ(self_time_ns(100, 1100, 300), 700);
  EXPECT_EQ(self_time_ns(100, 1100, 0), 1000);
  EXPECT_EQ(self_time_ns(100, 1100, 1000), 0);
  EXPECT_EQ(self_time_ns(100, 1100, 1500), 0);
}

void spin_for(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

/// A Context whose sends take a known time (the "transport").
class SlowContext final : public rcp::Context {
 public:
  [[nodiscard]] rcp::ProcessId self() const noexcept override { return 0; }
  [[nodiscard]] std::uint32_t n() const noexcept override { return 1; }
  [[nodiscard]] std::uint64_t step() const noexcept override { return 0; }
  void send(rcp::ProcessId, rcp::Bytes) override {
    spin_for(std::chrono::microseconds(2000));
    ++sends;
  }
  void broadcast(const rcp::Bytes&) override {
    spin_for(std::chrono::microseconds(2000));
    ++sends;
  }
  void decide(rcp::Value) override {}
  [[nodiscard]] rcp::Rng& rng() noexcept override { return rng_; }
  int sends = 0;

 private:
  rcp::Rng rng_{1};
};

/// A process that computes ~1 ms, then sends twice.
class BusyProcess final : public rcp::Process {
 public:
  void on_start(rcp::Context&) override {}
  void on_message(rcp::Context& ctx, const rcp::Envelope&) override {
    spin_for(std::chrono::microseconds(1000));
    ctx.send(0, rcp::Bytes{});
    ctx.broadcast(rcp::Bytes{});
  }
};

TEST(SelfTime, DecoratorSeparatesProcessFromContextTime) {
  LayerTally tally;
  SpanLog spans(1, 64, 0);
  TimedProcess p(std::make_unique<BusyProcess>(),
                 TraceSink{&tally, &spans, nullptr, 3, 0});
  SlowContext ctx;
  p.on_message(ctx, rcp::Envelope{});
  EXPECT_EQ(ctx.sends, 2);
  EXPECT_EQ(tally.message.calls, 1u);
  EXPECT_EQ(tally.send.calls, 2u);
  // Inclusive = self + the two 2 ms sends, exactly.
  EXPECT_EQ(tally.message.inclusive_ns,
            tally.message.self_ns + tally.send.inclusive_ns);
  EXPECT_GE(tally.send.inclusive_ns, 4'000'000);
  EXPECT_GE(tally.message.self_ns, 1'000'000);
  EXPECT_LT(tally.message.self_ns, tally.send.inclusive_ns);
  // One root span plus its two children, linked by parent id.
  ASSERT_EQ(spans.spans().size(), 3u);
  const Span& root = spans.spans().back();
  EXPECT_EQ(root.parent, 0u);
  EXPECT_EQ(root.node, 3u);
  EXPECT_EQ(spans.spans()[0].parent, root.id);
  EXPECT_EQ(spans.spans()[1].parent, root.id);
  EXPECT_EQ(root.self_ns, tally.message.self_ns);
}

TEST(SelfTime, SampledTimingCountsEveryCallAndScales) {
  LayerTally tally;
  TimedProcess p(std::make_unique<BusyProcess>(),
                 TraceSink{&tally, nullptr, nullptr, 0, 0, 4});
  SlowContext ctx;
  for (int i = 0; i < 8; ++i) {
    p.on_message(ctx, rcp::Envelope{});
  }
  EXPECT_EQ(ctx.sends, 16);
  EXPECT_EQ(tally.message.calls, 8u);
  EXPECT_EQ(tally.message.timed, 2u);
  EXPECT_EQ(tally.send.calls, 4u);  // only the timed callbacks' sends
  EXPECT_DOUBLE_EQ(tally.scale(), 4.0);
  EXPECT_DOUBLE_EQ(tally.callback_self_s(),
                   static_cast<double>(tally.message.self_ns) * 4 * 1e-9);
  EXPECT_DOUBLE_EQ(tally.send_s(),
                   static_cast<double>(tally.send.inclusive_ns) * 4 * 1e-9);
}

TEST(SelfTime, ClosedWindowRecordsNothing) {
  LayerTally tally;
  const std::atomic<bool> window{false};
  TimedProcess p(std::make_unique<BusyProcess>(),
                 TraceSink{&tally, nullptr, &window, 0, 0});
  SlowContext ctx;
  p.on_message(ctx, rcp::Envelope{});
  EXPECT_EQ(ctx.sends, 2);
  EXPECT_EQ(tally.message.calls, 0u);
  EXPECT_EQ(tally.send.calls, 0u);
}

TEST(ProcStat, ParsesUtimeAndStime) {
  const std::string line =
      "4242 (rcp loop) S 1 2 3 4 5 6 7 8 9 10 111 222 13 14 20 0 1 0";
  const auto ticks = parse_stat_ticks(line);
  ASSERT_TRUE(ticks.has_value());
  EXPECT_EQ(*ticks, 333u);
}

TEST(ProcStat, CommWithParenthesesAndSpaces) {
  const std::string line =
      "17 (a) b (c)) R 1 2 3 4 5 6 7 8 9 10 5 6 13 14 20 0 1 0";
  const auto ticks = parse_stat_ticks(line);
  ASSERT_TRUE(ticks.has_value());
  EXPECT_EQ(*ticks, 11u);
}

TEST(ProcStat, RejectsMalformedLines) {
  EXPECT_FALSE(parse_stat_ticks("").has_value());
  EXPECT_FALSE(parse_stat_ticks("12 (x) S 1 2").has_value());
  EXPECT_FALSE(
      parse_stat_ticks("12 (x) S 1 2 3 4 5 6 7 8 9 10 x1 2 3").has_value());
}

TEST(ProcStat, SeesThisThreadBurnCpu) {
  const int tid = current_tid();
  const auto before = thread_cpu_seconds();
  ASSERT_TRUE(before.count(tid));
  spin_for(std::chrono::microseconds(60000));
  const auto after = thread_cpu_seconds();
  const double used = cpu_delta(before, after, {tid});
  EXPECT_GT(used, 0.02);
  EXPECT_LT(used, 1.0);
}

}  // namespace
}  // namespace perfbench
