// rcp-fuzz: coverage-guided schedule/Byzantine-strategy fuzzer CLI.
//
//   $ ./rcp-fuzz --protocol fig2 --n 7 --k 2 --seed 42 --budget 512
//         --emit-dir ../tests/data --json fuzz.json
//   $ ./rcp-fuzz --replay ../tests/data/fuzz_fig2_quorum-boundary_xxxx.plan
//   $ ./rcp-fuzz --nemesis plan.plan          # replay over live TCP mesh
//
// Modes:
//   (default)        run the coverage-guided search (src/fuzz/fuzzer.hpp)
//   --replay FILE    execute one plan, verify its embedded expect line
//   --nemesis FILE   replay the plan's fault scenario on a net::Cluster
//
// The JSON report contains no thread count and no wall-clock fields — CI
// diffs it across thread counts — so timing goes to stderr only.
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "fuzz/executor.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/nemesis.hpp"
#include "fuzz/plan.hpp"

namespace {

using namespace rcp;

struct Options {
  fuzz::FuzzConfig fuzz;
  std::string emit_dir;
  std::string json_path;
  std::string replay_path;
  std::string nemesis_path;
  fuzz::NemesisConfig nemesis;
};

cli::Parser flags(Options& opt) {
  cli::Parser p;
  p.choice("--protocol", opt.fuzz.protocol, adversary::kProtocolNames,
           "(default fig2)")
      .value("--n", "N", opt.fuzz.params.n, "(default 7)")
      .value("--k", "K", opt.fuzz.params.k, "(default 2)")
      .value("--seed", "S", opt.fuzz.seed, "search seed (default 1)")
      .value("--budget", "B", opt.fuzz.budget, "executions (default 256)")
      .value("--threads", "T", opt.fuzz.threads, "never changes results")
      .value("--batch", "B", opt.fuzz.batch, "trials per batch (default 32)")
      .set("--minimize", opt.fuzz.minimize, true, "shrink goldens (default)")
      .set("--no-minimize", opt.fuzz.minimize, false, "keep goldens as found")
      .value("--minimize-attempts", "A", opt.fuzz.minimize_attempts,
             "per-golden shrink budget (default 48)")
      .value("--max-emit", "E", opt.fuzz.max_emit, "(default 4)")
      .value("--emit-dir", "DIR", opt.emit_dir, "write goldens as .plan")
      .value("--json", "FILE", opt.json_path, "rcp-fuzz-v1 report")
      .value("--replay", "FILE", opt.replay_path, "run a plan, check expect")
      .value("--nemesis", "FILE", opt.nemesis_path, "run it on a live mesh")
      .value("--loop-threads", "T", opt.nemesis.loop_threads, "--nemesis loops")
      .value("--timeout-ms", "MS", opt.nemesis.timeout_ms, "--nemesis limit");
  return p;
}

fuzz::SchedulePlan load_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read plan: " + path);
  }
  fuzz::SchedulePlan plan = fuzz::SchedulePlan::parse(in);
  plan.validate();
  return plan;
}

void print_exec(std::ostream& os, const fuzz::ExecResult& r) {
  os << "status   : " << fuzz::status_token(r.status)
     << "\nsteps    : " << r.steps << "\nmessages : " << r.messages_sent
     << "\nphases   : " << static_cast<unsigned>(r.max_phase)
     << "\nagreement: " << (r.agreement ? "holds" : "VIOLATED");
  if (r.agreed_value.has_value()) {
    os << " (value " << *r.agreed_value << ")";
  }
  os << "\nsignals  :";
  if (r.quorum_boundary) os << " quorum-boundary";
  if (r.near_boundary) os << " near-boundary";
  if (r.near_disagreement) os << " near-disagreement";
  if (r.dedup_overflow) os << " dedup-overflow";
  if (!r.quorum_boundary && !r.near_boundary && !r.near_disagreement &&
      !r.dedup_overflow) {
    os << " (none)";
  }
  os << "\n";
}

int replay_mode(const Options& opt) {
  const fuzz::SchedulePlan plan = load_plan(opt.replay_path);
  const fuzz::ExecResult r = fuzz::execute(plan);
  print_exec(std::cout, r);
  if (plan.expect.present) {
    const bool ok = fuzz::matches_expect(r, plan);
    std::cout << "golden   : " << (ok ? "MATCH" : "MISMATCH") << "\n";
    if (!ok) {
      return 1;
    }
  }
  return r.agreement ? 0 : 1;
}

int nemesis_mode(const Options& opt) {
  const fuzz::SchedulePlan plan = load_plan(opt.nemesis_path);
  const fuzz::NemesisResult r = fuzz::run_nemesis(plan, opt.nemesis);
  std::cout << "completed: " << (r.completed ? "yes" : "NO")
            << "\ndecided  : ";
  std::uint32_t decided = 0;
  std::uint32_t correct = 0;
  for (const net::NodeOutcome& node : r.cluster.nodes) {
    if (node.correct) {
      ++correct;
      decided += node.decision.has_value() ? 1 : 0;
    }
  }
  std::cout << decided << "/" << correct << " correct nodes"
            << "\ndigests  : " << (r.digests_match ? "MATCH" : "MISMATCH")
            << "\n";
  return r.completed && r.digests_match ? 0 : 1;
}

int fuzz_mode(const Options& opt) {
  const auto start = std::chrono::steady_clock::now();
  fuzz::Fuzzer fuzzer(opt.fuzz);
  const fuzz::FuzzOutcome outcome = fuzzer.run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (!opt.emit_dir.empty()) {
    for (const fuzz::EmittedPlan& e : outcome.emitted) {
      const std::string path = opt.emit_dir + "/" + e.file_name();
      std::ofstream out(path);
      if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return 2;
      }
      out << e.plan.serialize();
      std::cerr << "emitted  " << path << " (" << e.signal << ")\n";
    }
  }

  if (opt.json_path.empty()) {
    fuzz::write_report(std::cout, opt.fuzz, outcome);
  } else {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "cannot write " << opt.json_path << "\n";
      return 2;
    }
    fuzz::write_report(out, opt.fuzz, outcome);
  }

  // Timing is stderr-only: the JSON must be byte-identical across thread
  // counts and machines.
  std::cerr << "executions " << outcome.stats.executions << "  corpus "
            << outcome.corpus.size() << "  coverage "
            << outcome.coverage.size() << "  emitted "
            << outcome.emitted.size() << "  wall " << seconds << "s\n";
  return outcome.stats.agreement_violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!flags(opt).parse(argc, argv)) {
    return 2;
  }
  const int modes = (opt.replay_path.empty() ? 0 : 1) +
                    (opt.nemesis_path.empty() ? 0 : 1);
  if (modes > 1) {
    std::cerr << "--replay and --nemesis are mutually exclusive\n";
    return 2;
  }
  try {
    if (!opt.replay_path.empty()) {
      return replay_mode(opt);
    }
    if (!opt.nemesis_path.empty()) {
      return nemesis_mode(opt);
    }
    return fuzz_mode(opt);
  } catch (const std::exception& e) {
    std::cerr << "rcp-fuzz: " << e.what() << "\n";
    return 2;
  }
}
