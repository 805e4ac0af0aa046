// Loopback cluster driver: run a Bracha–Toueg protocol over real TCP.
//
// Every node is a full net::Node — framed sockets, identity handshake,
// reliable delivery, reconnect — hosting the same sim::Process the
// simulator runs. The default mode runs all n nodes as threads in this
// process on ephemeral loopback ports; --fork runs each node as its own
// OS process on base_port + id (the closest thing to a deployment the
// loopback allows).
//
//   $ ./net_cluster --protocol fig1 --n 5 --crash 4@1
//   $ ./net_cluster --protocol fig2 --n 7 --adversary silent --byz 1
//         --disconnect 0:1@5 --drop 0.02 --json run.json
//   $ ./net_cluster --protocol fig2 --n 7 --fork --base-port 19400
//   (each invocation on one line)
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "adversary/scenario.hpp"
#include "baselines/benor.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/params.hpp"
#include "extensions/bracha87.hpp"
#include "net/cluster.hpp"
#include "net/report.hpp"

namespace {

using namespace rcp;

struct Options {
  std::string protocol = "fig2";
  std::uint32_t n = 7;
  std::optional<std::uint32_t> k;
  std::optional<std::uint32_t> ones;
  std::optional<adversary::ByzantineKind> adversary;
  std::optional<std::uint32_t> byz_count;
  std::vector<std::pair<ProcessId, Phase>> crashes;
  std::vector<std::pair<ProcessId, net::DisconnectEvent>> disconnects;
  double drop = 0.0;
  std::uint32_t delay_min = 0;
  std::uint32_t delay_max = 0;
  std::uint64_t seed = 1;
  std::uint32_t timeout_ms = 30000;
  std::string json_path;
  bool fork_mode = false;
  std::uint16_t base_port = 0;
  std::uint32_t loop_threads = 0;
  std::vector<std::uint32_t> sweep_ns;
};

cli::Parser flags(Options& opt) {
  cli::Parser p;
  p.choice("--protocol", opt.protocol, {"fig1", "fig2", "benor", "bracha87"},
           "(default fig2)")
      .value("--n", "N", opt.n, "nodes (default 7)")
      .value("--k", "K", opt.k, "resilience (default: the protocol's max)")
      .value("--ones", "M", opt.ones, "initial 1-inputs (default n/2)")
      .choice("--adversary", opt.adversary, adversary::kZooNames,
              "(default none)")
      .value("--byz", "B", opt.byz_count, "Byzantine nodes (default k)")
      .custom("--crash", "ID@PHASE", "fail-stop ID entering PHASE",
              [&opt](std::string_view v) {
                ProcessId id = 0;
                Phase phase = 0;
                const bool ok = cli::parse_pair(v, '@', id, phase);
                if (ok) {
                  opt.crashes.emplace_back(id, phase);
                }
                return ok;
              })
      .custom("--disconnect", "A:B@D",
              "A closes its link to B after delivering D messages",
              [&opt](std::string_view v) {
                const auto colon = v.find(':');
                const auto node =
                    cli::parse_number<ProcessId>(v.substr(0, colon));
                net::DisconnectEvent e;
                const bool ok =
                    node && colon != std::string_view::npos &&
                    cli::parse_pair(v.substr(colon + 1), '@', e.peer,
                                    e.after_delivered);
                if (ok) {
                  opt.disconnects.emplace_back(*node, e);
                }
                return ok;
              })
      .value("--drop", "P", opt.drop, "drop probability per transmission")
      .custom("--delay", "MIN:MAX", "uniform per-frame delay in ms",
              [&opt](std::string_view v) {
                return cli::parse_pair(v, ':', opt.delay_min, opt.delay_max);
              })
      .value("--seed", "S", opt.seed, "(default 1)")
      .value("--timeout-ms", "T", opt.timeout_ms, "(default 30000)")
      .value("--loop-threads", "T", opt.loop_threads,
             "shared event-loop threads (default 0: one per node)")
      .value("--json", "PATH", opt.json_path, "rcp-net-v1 report")
      .custom("--sweep", "N1,N2,...",
              "run at each n, both threading models; rcp-net-sweep-v1 JSON",
              [&opt](std::string_view v) {
                for (std::size_t pos = 0; pos < v.size();) {
                  const auto end = std::min(v.find(',', pos), v.size());
                  const auto n = cli::parse_number<std::uint32_t>(
                      v.substr(pos, end - pos));
                  if (!n) {
                    return false;
                  }
                  opt.sweep_ns.push_back(*n);
                  pos = end + 1;
                }
                return !opt.sweep_ns.empty();
              })
      .set("--fork", opt.fork_mode, true, "one OS process per node")
      .value("--base-port", "P", opt.base_port, "--fork: ports P..P+n-1");
  return p;
}

/// The resolved run shared by the thread and fork modes. benor and
/// bracha87 take its params, inputs and Byzantine cast; its protocol field
/// only matters for fig1/fig2.
using Plan = adversary::Scenario;

/// Ben-Or runs its Byzantine variant exactly when an adversary is named.
baselines::BenOrVariant benor_variant(const Options& opt) {
  return opt.adversary.has_value() ? baselines::BenOrVariant::byzantine
                                   : baselines::BenOrVariant::crash;
}

Plan resolve_plan(const Options& opt) {
  Plan plan;
  const bool fig1 = opt.protocol == "fig1";
  plan.protocol = fig1 ? adversary::ProtocolKind::fail_stop
                       : adversary::ProtocolKind::malicious;
  // Default k: the protocol's own resilience bound.
  const std::uint32_t max_k =
      opt.protocol == "benor"
          ? baselines::benor_max_resilience(benor_variant(opt), opt.n)
          : core::max_resilience(fig1 ? core::FaultModel::fail_stop
                                      : core::FaultModel::malicious,
                                 opt.n);
  plan.params = {opt.n, opt.k.value_or(max_k)};
  plan.inputs =
      adversary::inputs_with_ones(opt.n, opt.ones.value_or(opt.n / 2));
  if (opt.adversary.has_value()) {
    plan.byzantine_kind = *opt.adversary;
    const std::uint32_t count =
        std::min(opt.byz_count.value_or(plan.params.k), opt.n);
    for (std::uint32_t b = 0; b < count; ++b) {
      plan.byzantine_ids.push_back(
          static_cast<ProcessId>(count > 0 ? b * opt.n / count : b));
    }
  }
  return plan;
}

std::unique_ptr<sim::Process> make_process(const Options& opt,
                                           const Plan& plan, ProcessId id) {
  const bool byzantine =
      std::find(plan.byzantine_ids.begin(), plan.byzantine_ids.end(), id) !=
      plan.byzantine_ids.end();
  if (!byzantine && opt.protocol == "benor") {
    return baselines::BenOrConsensus::make(plan.params, benor_variant(opt),
                                           plan.inputs[id]);
  }
  if (!byzantine && opt.protocol == "bracha87") {
    return ext::Bracha87::make(plan.params, plan.inputs[id]);
  }
  return adversary::make_process(plan, id);
}

net::ClusterConfig cluster_config(const Options& opt, const Plan& plan) {
  net::ClusterConfig cfg;
  cfg.n = opt.n;
  cfg.seed = opt.seed;
  cfg.base_port = opt.fork_mode ? opt.base_port : std::uint16_t{0};
  cfg.link_faults.drop_probability = opt.drop;
  cfg.link_faults.delay_min_ms = opt.delay_min;
  cfg.link_faults.delay_max_ms = opt.delay_max;
  cfg.disconnects = opt.disconnects;
  cfg.crashes = opt.crashes;
  cfg.arbitrary_faulty = plan.byzantine_ids;
  cfg.timeout_ms = opt.timeout_ms;
  cfg.loop_threads = opt.loop_threads;
  return cfg;
}

net::LatencyHistogram merged_latency(const net::ClusterResult& result) {
  net::LatencyHistogram merged;
  for (const net::NodeOutcome& node : result.nodes) {
    merged.merge(node.stats.latency);
  }
  return merged;
}

int report_thread_mode(const Options& opt, const Plan& plan,
                       const net::ClusterConfig& cfg,
                       const net::ClusterResult& result) {
  std::cout << "protocol : " << opt.protocol << "  n=" << opt.n
            << " k=" << plan.params.k << " seed=" << opt.seed
            << " transport=tcp-loopback";
  if (opt.loop_threads > 0) {
    std::cout << " loop-threads=" << opt.loop_threads;
  } else {
    std::cout << " thread-per-node";
  }
  std::cout << "\n";
  Table table({"node", "role", "decision", "phase", "delivered", "sent",
               "reconnects", "retransmits"});
  for (const net::NodeOutcome& node : result.nodes) {
    std::uint64_t reconnects = 0;
    std::uint64_t retransmits = 0;
    for (const net::PeerCounters& pc : node.stats.peers) {
      reconnects += pc.reconnects;
      retransmits += pc.retransmits;
    }
    const char* role = node.correct ? "correct"
                       : node.crashed ? "crashed"
                                      : "byzantine";
    table.row()
        .cell(static_cast<std::uint64_t>(node.id))
        .cell(role)
        .cell(node.decision.has_value()
                  ? std::to_string(value_index(*node.decision))
                  : std::string("-"))
        .cell(static_cast<std::uint64_t>(node.phase))
        .cell(node.stats.msgs_delivered)
        .cell(node.stats.msgs_sent)
        .cell(reconnects)
        .cell(retransmits);
  }
  table.print(std::cout);

  std::uint64_t decided = 0;
  for (const net::NodeOutcome& node : result.nodes) {
    if (node.decision.has_value()) {
      ++decided;
    }
  }
  const double elapsed =
      result.elapsed_seconds > 0.0 ? result.elapsed_seconds : 1e-9;
  std::cout << "decided  : " << (result.all_correct_decided
                                     ? "all correct nodes"
                                     : result.timed_out ? "TIMEOUT"
                                                        : "INCOMPLETE")
            << "\nagreement: "
            << (result.agreement ? "holds" : "VIOLATED");
  if (result.value.has_value()) {
    std::cout << " (value " << value_index(*result.value) << ")";
  }
  std::cout << "\nelapsed  : " << format_double(result.elapsed_seconds, 3)
            << "s  msgs/s=" << format_double(
                   static_cast<double>(result.total_delivered) / elapsed, 1)
            << "  decisions/s=" << format_double(
                   static_cast<double>(decided) / elapsed, 1)
            << "\n";
  const net::LatencyHistogram lat = merged_latency(result);
  if (lat.count() > 0) {
    std::cout << "latency  : p50=" << format_double(lat.quantile_ms(0.50), 3)
              << "ms p99=" << format_double(lat.quantile_ms(0.99), 3)
              << "ms p999=" << format_double(lat.quantile_ms(0.999), 3)
              << "ms (" << lat.count() << " frames)\n";
  }
  for (const net::NodeOutcome& node : result.nodes) {
    if (!node.error.empty()) {
      std::cout << "node " << node.id << " ERROR: " << node.error << "\n";
    }
  }

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "error: cannot open " << opt.json_path
                << " for writing\n";
      return 1;
    }
    bench::JsonWriter j(out);
    net::write_cluster_report(j, opt.protocol, cfg, result);
    out << "\n";
    std::cout << "[json] wrote " << opt.json_path << "\n";
  }
  return result.success() ? 0 : 1;
}

/// One sweep cell: the protocol at one n under one threading model.
struct SweepRun {
  std::string label;
  std::uint32_t n = 0;
  std::uint32_t loop_threads = 0;
  bool ok = false;
  double elapsed_seconds = 0.0;
  double msgs_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  std::uint64_t retransmits = 0;
  std::uint64_t spurious_retransmits = 0;
};

/// Runs the protocol at every requested n, thread-per-node and shared-loop
/// side by side, and reports throughput, tail latency and resent frames
/// per cell. The labels ({protocol}_n{N}_tpn / _shared{T}) are what
/// BENCH_BASELINE.json tracks and tools/check_bench_regression.py --net
/// gates on (throughput against the baseline, and zero retransmits).
int run_sweep(const Options& opt) {
  const std::uint32_t shared_threads =
      opt.loop_threads > 0 ? opt.loop_threads : 4;
  std::vector<SweepRun> runs;
  for (const std::uint32_t n : opt.sweep_ns) {
    for (const std::uint32_t threads : {0u, shared_threads}) {
      Options run_opt = opt;
      run_opt.n = n;
      run_opt.loop_threads = threads;
      run_opt.sweep_ns.clear();
      const Plan plan = resolve_plan(run_opt);
      const net::ClusterConfig cfg = cluster_config(run_opt, plan);
      net::Cluster cluster(cfg, [&](ProcessId id) {
        return make_process(run_opt, plan, id);
      });
      const net::ClusterResult result = cluster.run();

      SweepRun run;
      run.label = opt.protocol + "_n" + std::to_string(n) +
                  (threads == 0 ? std::string("_tpn")
                                : "_shared" + std::to_string(threads));
      run.n = n;
      run.loop_threads = threads;
      run.ok = result.success();
      run.elapsed_seconds = result.elapsed_seconds;
      const double elapsed =
          result.elapsed_seconds > 0.0 ? result.elapsed_seconds : 1e-9;
      run.msgs_per_sec =
          static_cast<double>(result.total_delivered) / elapsed;
      const net::LatencyHistogram lat = merged_latency(result);
      run.p50_ms = lat.quantile_ms(0.50);
      run.p99_ms = lat.quantile_ms(0.99);
      run.p999_ms = lat.quantile_ms(0.999);
      run.retransmits = result.total_retransmits;
      run.spurious_retransmits = result.total_spurious_retransmits;
      std::cout << run.label << ": " << (run.ok ? "ok" : "FAILED")
                << "  msgs/s=" << format_double(run.msgs_per_sec, 1)
                << "  p50=" << format_double(run.p50_ms, 3)
                << "ms p99=" << format_double(run.p99_ms, 3)
                << "ms p999=" << format_double(run.p999_ms, 3)
                << "ms retransmits=" << run.retransmits << "\n";
      runs.push_back(std::move(run));
    }
  }

  Table table({"label", "n", "threads", "ok", "msgs/s", "p50ms", "p99ms",
               "p999ms", "retransmits"});
  for (const SweepRun& run : runs) {
    table.row()
        .cell(run.label)
        .cell(static_cast<std::uint64_t>(run.n))
        .cell(static_cast<std::uint64_t>(
            run.loop_threads == 0 ? run.n : run.loop_threads))
        .cell(run.ok ? "yes" : "NO")
        .cell(format_double(run.msgs_per_sec, 1))
        .cell(format_double(run.p50_ms, 3))
        .cell(format_double(run.p99_ms, 3))
        .cell(format_double(run.p999_ms, 3))
        .cell(run.retransmits);
  }
  table.print(std::cout);

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "error: cannot open " << opt.json_path << "\n";
      return 1;
    }
    bench::JsonWriter j(out);
    j.begin_object();
    j.field("schema", "rcp-net-sweep-v1");
    j.field("protocol", opt.protocol);
    j.field("seed", opt.seed);
    j.key("runs");
    j.begin_array();
    for (const SweepRun& run : runs) {
      j.begin_object();
      j.field("label", run.label);
      j.field("n", run.n);
      j.field("loop_threads", run.loop_threads);
      j.field("ok", run.ok);
      j.field("elapsed_seconds", run.elapsed_seconds);
      j.field("msgs_per_sec", run.msgs_per_sec);
      j.field("p50_ms", run.p50_ms);
      j.field("p99_ms", run.p99_ms);
      j.field("p999_ms", run.p999_ms);
      j.field("retransmits", run.retransmits);
      j.field("spurious_retransmits", run.spurious_retransmits);
      j.end_object();
    }
    j.end_array();
    j.end_object();
    out << "\n";
    std::cout << "[json] wrote " << opt.json_path << "\n";
  }

  for (const SweepRun& run : runs) {
    if (!run.ok) {
      return 1;
    }
  }
  return 0;
}

/// One forked node: run until decided (correct) or stopped, then report
/// through the exit code — 10 + value for a decision, 0 for a faulty node
/// that was terminated as planned, 1 for a correct node that never decided.
int run_fork_child(const Options& opt, const Plan& plan, ProcessId id) {
  net::NodeConfig nc;
  nc.id = id;
  nc.n = opt.n;
  nc.listen_port = static_cast<std::uint16_t>(opt.base_port + id);
  nc.seed = opt.seed;
  nc.faults.link.drop_probability = opt.drop;
  nc.faults.link.delay_min_ms = opt.delay_min;
  nc.faults.link.delay_max_ms = opt.delay_max;
  for (const auto& [node, event] : opt.disconnects) {
    if (node == id) {
      nc.faults.disconnects.push_back(event);
    }
  }
  bool correct = true;
  for (const auto& [node, phase] : opt.crashes) {
    if (node == id) {
      nc.crash_at_phase = phase;
      correct = false;
    }
  }
  for (const ProcessId b : plan.byzantine_ids) {
    if (b == id) {
      correct = false;
    }
  }
  for (ProcessId p = 0; p < opt.n; ++p) {
    nc.peers.push_back(net::PeerAddress{
        "127.0.0.1", static_cast<std::uint16_t>(opt.base_port + p)});
  }

  net::Node node(nc, make_process(opt, plan, id));
  std::thread runner([&node] { node.run(); });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opt.timeout_ms);
  std::optional<Value> decision;
  while (std::chrono::steady_clock::now() < deadline) {
    decision = node.decision();
    if (decision.has_value() || node.crashed()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (decision.has_value()) {
    // Keep echoing long enough for slower peers to assemble their
    // quorums; the parent reaps us on exit either way.
    std::this_thread::sleep_for(std::chrono::milliseconds(750));
  }
  node.request_stop();
  runner.join();
  std::cout << "node " << id << ": "
            << (decision.has_value()
                    ? "decided " + std::to_string(value_index(*decision))
                    : node.crashed() ? std::string("crashed")
                                     : std::string("no decision"))
            << "\n";
  std::cout.flush();  // the caller exits with _exit(), which skips flushing
  if (decision.has_value()) {
    return 10 + static_cast<int>(value_index(*decision));
  }
  return correct ? 1 : 0;
}

int run_fork_mode(const Options& opt, const Plan& plan) {
  std::vector<pid_t> pids(opt.n, -1);
  std::vector<bool> correct(opt.n, true);
  for (const auto& [node, phase] : opt.crashes) {
    (void)phase;
    if (node < opt.n) correct[node] = false;
  }
  for (const ProcessId b : plan.byzantine_ids) {
    correct[b] = false;
  }

  for (ProcessId id = 0; id < opt.n; ++id) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::cerr << "fork failed\n";
      return 1;
    }
    if (pid == 0) {
      _exit(run_fork_child(opt, plan, id));
    }
    pids[id] = pid;
  }

  bool all_decided = true;
  bool agreement = true;
  std::optional<int> agreed_code;
  for (ProcessId id = 0; id < opt.n; ++id) {
    if (!correct[id]) {
      continue;  // reaped below, after the correct nodes are done
    }
    int status = 0;
    waitpid(pids[id], &status, 0);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    if (code < 10) {
      all_decided = false;
    } else if (!agreed_code.has_value()) {
      agreed_code = code;
    } else if (*agreed_code != code) {
      agreement = false;
    }
  }
  for (ProcessId id = 0; id < opt.n; ++id) {
    if (!correct[id]) {
      kill(pids[id], SIGTERM);
      int status = 0;
      waitpid(pids[id], &status, 0);
    }
  }
  std::cout << "decided  : "
            << (all_decided ? "all correct nodes" : "INCOMPLETE")
            << "\nagreement: " << (agreement ? "holds" : "VIOLATED");
  if (agreement && agreed_code.has_value()) {
    std::cout << " (value " << (*agreed_code - 10) << ")";
  }
  std::cout << "\n";
  return all_decided && agreement ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const cli::Parser parser = flags(opt);
  if (!parser.parse(argc, argv)) {
    return 2;
  }
  if (opt.fork_mode && opt.base_port == 0) {
    std::cerr << "error: --fork needs --base-port (forked nodes cannot "
                 "exchange ephemeral ports)\n";
    parser.print_usage(std::cerr, argv[0]);
    return 2;
  }
  try {
    const Plan plan = resolve_plan(opt);
    if (!opt.sweep_ns.empty()) {
      return run_sweep(opt);
    }
    if (opt.fork_mode) {
      return run_fork_mode(opt, plan);
    }
    const net::ClusterConfig cfg = cluster_config(opt, plan);
    net::Cluster cluster(cfg, [&](ProcessId id) {
      return make_process(opt, plan, id);
    });
    const net::ClusterResult result = cluster.run();
    return report_thread_mode(opt, plan, cfg, result);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
