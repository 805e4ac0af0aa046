// fig2_sim: Figure 2 Byzantine binary consensus at its resilience bound
// (n=31, k=10) in the deterministic simulator. The k Byzantine seats run
// the equivocator, correct inputs alternate 0/1, and independent trials
// (seeds derived from the run seed) run on a TrialPool with at most one
// worker per core until the run's time is up.
//
// Each trial is timed from outside: construction of the Simulation (the
// workload's set-up) and Simulation::run() (one decision). Traced runs
// wrap every process in a TimedProcess, so the Figure 2 process (core),
// the equivocator (adversary) and the simulator (run time minus callback
// self time) separate.
#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "adversary/scenario.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/malicious.hpp"
#include "procstat.hpp"
#include "runtime/trial_pool.hpp"
#include "sim/simulation.hpp"
#include "stats.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rcp::ProcessId;

constexpr std::uint32_t kN = 31;
constexpr std::uint32_t kK = 10;
constexpr std::uint64_t kMaxSteps = 2'000'000;
/// Trials [0, kExactTrials) always run, whatever the deadline, so the
/// exact per-decision counts are averaged over the same seeds every run.
constexpr std::uint64_t kExactTrials = 32;
/// One core stays free for the sampler, the main thread and the OS, so their
/// wake-ups do not stretch the trials being timed.
constexpr std::uint32_t kMaxWorkers = 3;
constexpr std::size_t kBlockTrials = 1000;
constexpr std::int64_t kSliceNs = 1'000'000'000;
/// Simulator callbacks cost ~100-200 ns: time 1 in 16 of them, and record
/// a span for 1 in 16 of those.
constexpr std::uint32_t kTimeEvery = 16;
constexpr std::uint32_t kSpanEvery = 16;
constexpr std::size_t kSpanCapacity = 1 << 14;
enum Layer : std::uint8_t { kCore = 0, kAdversary = 1 };

struct Trial {
  bool ran = false;
  bool ok = false;
  std::int64_t setup_ns = 0;
  std::int64_t run_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t steps = 0;
  std::uint64_t messages = 0;
  rcp::Phase phases = 0;
};

struct Worker {
  std::array<LayerTally, 2> tally{};
  std::unique_ptr<SpanLog> spans;
  std::atomic<int> tid{0};
};

bool is_byzantine(ProcessId p) { return p >= kN - kK; }

Trial run_trial(std::uint64_t trial_seed, Worker* traced, std::uint32_t w) {
  const rcp::core::ConsensusParams params{kN, kK};
  Trial t;
  const std::int64_t t0 = now_ns();
  std::vector<std::unique_ptr<rcp::Process>> procs;
  procs.reserve(kN);
  for (ProcessId p = 0; p < kN; ++p) {
    std::unique_ptr<rcp::Process> proc =
        is_byzantine(p)
            ? rcp::adversary::make_byzantine(
                  rcp::adversary::ByzantineKind::equivocator, params)
            : std::unique_ptr<rcp::Process>(rcp::core::MaliciousConsensus::make(
                  params, p % 2 == 0 ? rcp::Value::zero : rcp::Value::one));
    if (traced != nullptr) {
      const std::uint8_t layer = is_byzantine(p) ? kAdversary : kCore;
      proc = std::make_unique<TimedProcess>(
          std::move(proc),
          TraceSink{&traced->tally[layer], traced->spans.get(), nullptr,
                    w * 1000 + p, layer, kTimeEvery});
    }
    procs.push_back(std::move(proc));
  }
  rcp::sim::Simulation sim(
      rcp::sim::SimConfig{.n = kN, .seed = trial_seed, .max_steps = kMaxSteps},
      std::move(procs));
  for (ProcessId p = 0; p < kN; ++p) {
    if (is_byzantine(p)) {
      sim.mark_faulty(p);
    }
  }
  const std::int64_t t1 = now_ns();
  const rcp::sim::RunResult r = sim.run();
  const std::int64_t t2 = now_ns();
  t.ran = true;
  t.ok = r.status == rcp::sim::RunStatus::all_decided &&
         sim.all_correct_decided() && sim.agreement_holds();
  t.setup_ns = t1 - t0;
  t.run_ns = t2 - t1;
  t.end_ns = t2;
  t.steps = sim.metrics().steps;
  t.messages = sim.metrics().messages_sent;
  t.phases = sim.metrics().max_phase;
  return t;
}


}  // namespace

RunResult run_fig2_sim(const RunOptions& opt) {
  RunResult out;
  const std::uint32_t workers = std::max<std::uint32_t>(
      1, std::min(kMaxWorkers, std::thread::hardware_concurrency()));
  std::vector<Worker> ws(workers);
  if (opt.trace) {
    for (std::uint32_t w = 0; w < workers; ++w) {
      ws[w].spans = std::make_unique<SpanLog>(
          kSpanEvery, kSpanCapacity, std::uint64_t{w} << 40);
    }
  }
  // Room for far more trials than a run can finish (a few hundred a
  // second today).
  const std::uint64_t capacity =
      kExactTrials + static_cast<std::uint64_t>(opt.seconds * 2000.0);
  std::vector<Trial> trials(capacity);

  rcp::runtime::TrialPool pool(workers);
  const auto threads_start =
      opt.trace ? thread_cpu_seconds() : std::map<int, double>{};
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(opt.seconds * 1e9);
  // A sampler reads process CPU at every 1 s cut of the timed window.
  std::vector<Snapshot> snaps{Snapshot{start, process_cpu_seconds()}};
  std::atomic<bool> finished{false};
  std::thread sampler([&] {
    for (std::int64_t cut = start + kSliceNs; cut <= deadline;
         cut += kSliceNs) {
      while (now_ns() < cut) {
        if (finished.load(std::memory_order_acquire)) {
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      snaps.push_back(Snapshot{now_ns(), process_cpu_seconds()});
    }
  });
  try {
    pool.for_each(capacity, [&](std::uint64_t i, std::uint32_t w) {
      ws[w].tid.store(current_tid(), std::memory_order_relaxed);
      if (i >= kExactTrials && now_ns() >= deadline) {
        return;
      }
      std::uint64_t state = opt.seed * 0x9e3779b97f4a7c15ULL + i;
      trials[i] = run_trial(rcp::splitmix64(state),
                            opt.trace ? &ws[w] : nullptr, w);
    });
  } catch (...) {
    finished.store(true, std::memory_order_release);
    sampler.join();
    throw;
  }
  const std::int64_t end = now_ns();
  const double cpu_end = process_cpu_seconds();
  finished.store(true, std::memory_order_release);
  sampler.join();
  const double cpu_s = cpu_end - snaps.front().cpu_s;
  const auto threads_end =
      opt.trace ? thread_cpu_seconds() : std::map<int, double>{};
  if (snaps.size() < 2) {
    snaps.push_back(Snapshot{end, cpu_end});
  }

  // ---- correctness oracle and per-trial timings ------------------------
  std::vector<double> decide_ms, setup_s;
  std::int64_t busy_ns = 0, run_ns = 0;
  std::uint64_t steps = 0;
  std::vector<std::int64_t> decided_at;
  std::vector<Trial> done;
  std::copy_if(trials.begin(), trials.end(), std::back_inserter(done),
               [](const Trial& t) { return t.ran; });
  std::sort(done.begin(), done.end(), [](const Trial& a, const Trial& b) {
    return a.end_ns < b.end_ns;
  });
  for (const Trial& t : done) {
    ++out.attempted;
    if (!t.ok) {
      ++out.failed;
    } else {
      decided_at.push_back(t.end_ns);
    }
    decide_ms.push_back(static_cast<double>(t.run_ns) * 1e-6);
    setup_s.push_back(static_cast<double>(t.setup_ns) * 1e-9);
    busy_ns += t.setup_ns + t.run_ns;
    run_ns += t.run_ns;
    steps += t.steps;
  }
  out.correct = out.attempted > 0 && out.failed == 0;
  if (out.failed > 0) {
    out.notes.push_back("oracle: " + std::to_string(out.failed) +
                        " trials did not decide or disagreed");
  }
  const double wall_s = static_cast<double>(end - start) * 1e-9;
  const SliceRates rates = sliced_rates(snaps, std::move(decided_at));

  auto& m = out.metrics;
  m["setup_s"] = median(setup_s);
  // Decisions in completion order, cut into blocks of kBlockTrials: the
  // smallest block whose p99 has ten trials beyond it. A host hiccup
  // stretches the trials running through it, so the median block keeps
  // one episode from owning the run's tail.
  std::vector<std::vector<double>> blocks(
      std::max<std::size_t>(1, decide_ms.size() / kBlockTrials));
  for (std::size_t i = 0; i < decide_ms.size(); ++i) {
    blocks[std::min(i / kBlockTrials, blocks.size() - 1)].push_back(
        decide_ms[i]);
  }
  m["latency_p50_ms"] = sliced_quantile(blocks, 0.50).value;
  const Quantile p99 = sliced_quantile(blocks, 0.99);
  m["latency_p99_ms"] = p99.value;
  if (!p99.exact) {
    out.notes.push_back("p99: only " + std::to_string(out.attempted) +
                        " trials; reported the highest rank with 10 beyond");
  }
  m["throughput_per_s"] = rates.per_s;
  m["cpu_us_per_unit"] = rates.cpu_us_per_event;
  if (!opt.trace) {
    return out;
  }

  // ---- per-layer (traced run) ------------------------------------------
  double exact_steps = 0, exact_msgs = 0, exact_phases = 0;
  for (std::uint64_t i = 0; i < kExactTrials; ++i) {
    exact_steps += static_cast<double>(trials[i].steps);
    exact_msgs += static_cast<double>(trials[i].messages);
    exact_phases += static_cast<double>(trials[i].phases);
  }
  const auto exact = static_cast<double>(kExactTrials);
  m["sim.steps_per_decision"] = exact_steps / exact;
  m["sim.msgs_per_decision"] = exact_msgs / exact;
  m["core.fig2.phases_per_decision"] = exact_phases / exact;

  LayerTally core, adversary;
  std::set<int> worker_tids;
  for (const Worker& w : ws) {
    core.merge(w.tally[kCore]);
    adversary.merge(w.tally[kAdversary]);
    worker_tids.insert(w.tid.load());
  }
  const double callback_self_s =
      core.callback_self_s() + adversary.callback_self_s();
  m["core.fig2.on_message_ns"] = core.message.self_per_call_ns();
  m["adversary.on_message_ns"] = adversary.message.self_per_call_ns();
  m["sim.step_ns"] =
      steps == 0 ? 0.0
                 : (static_cast<double>(run_ns) * 1e-9 - callback_self_s) *
                       1e9 / static_cast<double>(steps);
  m["runtime.pool_idle_share"] =
      1.0 - static_cast<double>(busy_ns) * 1e-9 / (workers * wall_s);

  const double worker_cpu = cpu_delta(threads_start, threads_end, worker_tids);
  const double core_s = core.callback_self_s();
  const double adv_s = adversary.callback_self_s();
  const double sim_s = worker_cpu - core_s - adv_s;
  const double cpu = cpu_s > 0 ? cpu_s : 1.0;
  m["cpu.core_share"] = core_s / cpu;
  m["cpu.adversary_share"] = adv_s / cpu;
  m["cpu.sim_share"] = sim_s / cpu;
  m["cpu.unattributed_share"] = (cpu - worker_cpu) / cpu;
  const auto f3 = [](double v) { return rcp::format_double(v, 3); };
  out.notes.push_back("cpu split (" + f3(cpu_s) + " s process cpu): core " +
                      f3(core_s) + " s, adversary " + f3(adv_s) + " s, sim " +
                      f3(sim_s) + " s, unattributed " +
                      f3(cpu - worker_cpu) + " s");

  if (!opt.spans_path.empty()) {
    std::vector<const SpanLog*> logs;
    for (const Worker& w : ws) {
      logs.push_back(w.spans.get());
    }
    std::ofstream f(opt.spans_path);
    write_spans_csv(f, logs, {"core", "adversary"});
  }
  return out;
}

}  // namespace perfbench
