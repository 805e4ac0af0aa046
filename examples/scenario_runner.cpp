// Scenario runner: drive any protocol/adversary combination from the
// command line, optionally recording the execution schedule for exact
// replay.
//
//   $ ./scenario_runner --protocol fig2 --n 10 --k 3 --ones 5
//         --adversary equivocator --seed 7 --record run.sched
//   $ ./scenario_runner --protocol fig2 --n 10 --k 3 --ones 5
//         --adversary equivocator --replay run.sched
//   (both invocations on one line)
//
// The RCP_BENCH_RUNS environment variable overrides the trial count like
// it does for the bench harnesses (the perf-smoke ctest label sets it
// to 2), except when --record/--replay pin a single execution.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "adversary/crash_plan.hpp"
#include "adversary/scenario.hpp"
#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "fuzz/plan.hpp"
#include "runtime/progress.hpp"
#include "runtime/scenario_series.hpp"
#include "runtime/thread_control.hpp"
#include "sim/replay.hpp"

namespace {

using namespace rcp;

struct Options {
  adversary::ProtocolKind protocol = adversary::ProtocolKind::malicious;
  std::uint32_t n = 7;
  std::optional<std::uint32_t> k;
  std::optional<std::uint32_t> ones;
  std::optional<adversary::ByzantineKind> byzantine;
  std::uint32_t crashes = 0;
  std::uint64_t seed = 1;
  std::uint64_t max_steps = 2'000'000;
  std::string record_path;
  std::string replay_path;
  std::uint32_t runs = 1;
  std::uint32_t threads = 0;  // 0: runtime::default_threads()
  bool progress = false;
  std::string json_path;
  bool list_scenarios = false;
  std::string data_dir = RCP_GOLDEN_DATA_DIR;
};

cli::Parser flags(Options& opt) {
  cli::Parser p;
  p.choice("--protocol", opt.protocol, adversary::kProtocolNames,
           "(default fig2)")
      .value("--n", "N", opt.n, "processes (default 7)")
      .value("--k", "K", opt.k, "resilience (default: the protocol's max)")
      .value("--ones", "M", opt.ones, "initial 1-inputs (default n/2)")
      .choice("--adversary", opt.byzantine, adversary::kZooNames,
              "strategy of k Byzantine slots (default none)")
      .value("--crashes", "C", opt.crashes, "staggered fail-stop crashes")
      .value("--seed", "S", opt.seed, "(default 1)")
      .value("--max-steps", "X", opt.max_steps, "(default 2000000)")
      .value("--record", "FILE", opt.record_path, "capture the schedule")
      .value("--replay", "FILE", opt.replay_path, "re-drive a schedule")
      .value("--runs", "R", opt.runs, "Monte-Carlo series of R trials")
      .value("--threads", "N", opt.threads, "workers for --runs > 1")
      .set("--progress", opt.progress, true, "live progress for --runs > 1")
      .value("--json", "FILE", opt.json_path, "rcp-bench-v1 report")
      .set("--list-scenarios", opt.list_scenarios, true, "list, then exit")
      .value("--data-dir", "DIR", opt.data_dir, "where --list-scenarios looks");
  return p;
}

/// The --runs > 1 path: a Monte-Carlo series sharded across the trial
/// pool, seeds derived per trial from --seed, aggregates printed at the
/// end. Recording/replay is single-execution by nature and is rejected.
int run_series_mode(const Options& opt, const adversary::Scenario& s,
                    std::uint32_t k, int argc, char** argv) {
  runtime::SeriesConfig config;
  config.threads = opt.threads;
  const std::uint32_t threads =
      config.threads == 0 ? runtime::default_threads() : config.threads;

  runtime::ThreadControl control;
  std::optional<runtime::ProgressReporter> reporter;
  if (opt.progress) {
    reporter.emplace(control, std::cerr);
  }
  const runtime::SeriesResult r =
      runtime::run_scenario_series(s, opt.runs, opt.seed, {}, config,
                                   &control);
  reporter.reset();  // joins the reporter and finishes the status line

  std::cout << "protocol : " << to_string(opt.protocol) << "  n=" << opt.n
            << " k=" << k << " base-seed=" << opt.seed
            << " runs=" << opt.runs << " threads=" << threads << "\n";
  Table table({"quantity", "value"});
  table.row().cell("all decided").cell(
      std::to_string(r.decided) + "/" + std::to_string(r.runs));
  table.row().cell("agreement held").cell(
      std::to_string(r.agreed) + "/" + std::to_string(r.runs));
  table.row().cell("decided 1").cell(
      std::to_string(r.decided_one) + "/" + std::to_string(r.runs));
  table.row().cell("phases (mean/max)").cell(
      format_double(r.phases.mean(), 2) + " / " +
      format_double(r.phases.max(), 0));
  table.row().cell("steps (mean)").cell(format_double(r.steps.mean(), 0));
  table.row().cell("messages (mean)").cell(
      format_double(r.messages.mean(), 0));
  table.row().cell("wall seconds").cell(format_double(r.wall_seconds, 3));
  table.row().cell("trials/sec").cell(format_double(r.trials_per_sec(), 1));
  table.print(std::cout);

  bench::ThroughputMeter meter;
  meter.note(r);
  const int status = bench::finish(meter, "scenario_runner", argc, argv);
  if (status != 0) {
    return status;
  }
  return r.agreed == r.runs ? 0 : 1;
}

/// --list-scenarios: the built-in digest-pinned registry plus every
/// golden file under the data directory, with enough shape information
/// to pick one for --replay / rcp-fuzz --replay.
int list_scenarios(const std::string& data_dir) {
  namespace fs = std::filesystem;

  std::cout << "built-in scenarios (digest-pinned; see "
               "tests/sim/trace_digest_test.cpp):\n";
  Table builtins({"name", "protocol", "n", "k", "summary"});
  for (const adversary::NamedScenario& named :
       adversary::builtin_scenarios()) {
    builtins.row()
        .cell(named.name)
        .cell(to_string(named.scenario.protocol))
        .cell(std::to_string(named.scenario.params.n))
        .cell(std::to_string(named.scenario.params.k))
        .cell(named.summary);
  }
  builtins.print(std::cout);

  std::vector<fs::path> plans;
  std::vector<fs::path> schedules;
  if (fs::is_directory(data_dir)) {
    for (const auto& entry : fs::directory_iterator(data_dir)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      if (entry.path().extension() == ".plan") {
        plans.push_back(entry.path());
      } else if (entry.path().extension() == ".schedule") {
        schedules.push_back(entry.path());
      }
    }
  } else {
    std::cerr << "warning: data dir not found: " << data_dir << "\n";
  }
  std::sort(plans.begin(), plans.end());
  std::sort(schedules.begin(), schedules.end());

  std::cout << "\ngolden plans in " << data_dir
            << " (replay: rcp-fuzz --replay FILE, live: --nemesis FILE):\n";
  Table table({"file", "protocol", "n", "k", "byz", "tape", "expect"});
  for (const fs::path& path : plans) {
    std::ifstream in(path);
    try {
      fuzz::SchedulePlan plan = fuzz::SchedulePlan::parse(in);
      plan.validate();
      table.row()
          .cell(path.filename().string())
          .cell(adversary::token(plan.spec.protocol))
          .cell(std::to_string(plan.spec.params.n))
          .cell(std::to_string(plan.spec.params.k))
          .cell(std::to_string(plan.spec.byzantine_ids.size()))
          .cell(std::to_string(plan.tape.size()))
          .cell(plan.expect.present
                    ? std::string(fuzz::status_token(plan.expect.status)) +
                          "@" + std::to_string(plan.expect.steps)
                    : "-");
    } catch (const std::exception& e) {
      std::cerr << path.filename().string() << ": " << e.what() << "\n";
      return 1;
    }
  }
  table.print(std::cout);

  std::cout << "\nrecorded schedules in " << data_dir
            << " (replay: --replay FILE):\n";
  Table sched({"file", "steps"});
  for (const fs::path& path : schedules) {
    std::ifstream in(path);
    try {
      const sim::Schedule schedule = sim::Schedule::load(in);
      sched.row()
          .cell(path.filename().string())
          .cell(std::to_string(schedule.size()));
    } catch (const std::exception& e) {
      std::cerr << path.filename().string() << ": " << e.what() << "\n";
      return 1;
    }
  }
  sched.print(std::cout);
  return 0;
}

/// Everything after flag parsing; a scenario the protocol layer rejects
/// throws out of here to main().
int run(Options& opt, int argc, char** argv) {
  if (opt.list_scenarios) {
    return list_scenarios(opt.data_dir);
  }
  if (opt.record_path.empty() && opt.replay_path.empty()) {
    // RCP_BENCH_RUNS overrides the trial count (perf-smoke sets it to 2);
    // record/replay pin a single execution and are left alone.
    opt.runs = bench::env_runs(opt.runs);
  }

  const core::FaultModel model =
      opt.protocol == adversary::ProtocolKind::fail_stop
          ? core::FaultModel::fail_stop
          : core::FaultModel::malicious;
  const std::uint32_t k =
      opt.k.value_or(core::max_resilience(model, opt.n));

  adversary::Scenario s;
  s.protocol = opt.protocol;
  s.params = {opt.n, k};
  s.inputs = adversary::inputs_with_ones(opt.n, opt.ones.value_or(opt.n / 2));
  s.seed = opt.seed;
  s.max_steps = opt.max_steps;
  if (opt.byzantine.has_value()) {
    s.byzantine_kind = *opt.byzantine;
    for (std::uint32_t b = 0; b < k; ++b) {
      s.byzantine_ids.push_back(static_cast<ProcessId>(b * opt.n / k));
    }
  }
  if (opt.crashes > 0) {
    s.crashes = adversary::CrashPlan::staggered(opt.crashes);
  }

  if (opt.runs > 1) {
    if (!opt.record_path.empty() || !opt.replay_path.empty()) {
      std::cerr << "--record/--replay capture one execution; they cannot be "
                   "combined with --runs > 1\n";
      return 2;
    }
    return run_series_mode(opt, s, k, argc, argv);
  }
  if (opt.progress) {
    std::cerr << "--progress requires --runs > 1\n";
    return 2;
  }

  std::unique_ptr<sim::Simulation> simulation;
  std::shared_ptr<sim::Schedule> recorded;
  if (!opt.replay_path.empty()) {
    std::ifstream in(opt.replay_path);
    if (!in) {
      std::cerr << "cannot read schedule: " << opt.replay_path << "\n";
      return 2;
    }
    auto replay = sim::make_replay_policies(sim::Schedule::load(in));
    simulation = adversary::build(s, std::move(replay.delivery),
                                  std::move(replay.scheduler));
  } else if (!opt.record_path.empty()) {
    auto rec = sim::make_recording_policies();
    recorded = rec.schedule;
    simulation = adversary::build(s, std::move(rec.delivery),
                                  std::move(rec.scheduler));
  } else {
    simulation = adversary::build(s);
  }

  const bench::Stopwatch watch;
  const sim::RunResult result = simulation->run();
  const double run_seconds = watch.seconds();
  std::cout << "protocol : " << to_string(opt.protocol) << "  n=" << opt.n
            << " k=" << k << " seed=" << opt.seed << "\n"
            << "status   : "
            << (result.status == sim::RunStatus::all_decided
                    ? "all correct processes decided"
                    : result.status == sim::RunStatus::quiescent
                          ? "quiescent (deadlock)"
                          : "step limit reached")
            << "\nsteps    : " << result.steps
            << "\nmessages : " << simulation->metrics().messages_sent
            << "\nphases   : " << simulation->metrics().max_phase << "\n";
  for (ProcessId p = 0; p < opt.n; ++p) {
    std::cout << "  p" << p << (simulation->is_faulty(p) ? " (faulty) " : "          ");
    if (const auto d = simulation->decision_of(p)) {
      std::cout << "decided " << *d;
    } else {
      std::cout << "undecided";
    }
    std::cout << "\n";
  }
  std::cout << "agreement: "
            << (simulation->agreement_holds() ? "holds" : "VIOLATED") << "\n";

  if (recorded != nullptr) {
    std::ofstream out(opt.record_path);
    recorded->save(out);
    std::cout << "schedule : " << recorded->size() << " steps -> "
              << opt.record_path << "\n";
  }

  bench::ThroughputMeter meter;
  meter.note(1, run_seconds);
  const int status = bench::finish(meter, "scenario_runner", argc, argv);
  if (status != 0) {
    return status;
  }
  return simulation->agreement_holds() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!flags(opt).parse(argc, argv)) {
    return 2;
  }
  try {
    return run(opt, argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
