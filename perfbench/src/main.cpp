// rcp_perfbench: runs one workload and prints its metrics.
//
//   rcp_perfbench --workload kv_net_closed|fig2_sim
//                 --seed N --seconds S --trace 0|1 [--spans-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs the workload twice for S/2 seconds each, untraced then
// traced, reports the per-layer metrics of the traced half, the untraced
// half's latency and throughput as e2e.*, and the gap between the halves'
// CPU per unit of work as trace.overhead_pct.
// Diagnostics go to stderr; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status 0 iff every
// correctness check passed.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

RunResult run_workload(const std::string& workload, const RunOptions& opt) {
  if (workload == "kv_net_closed") {
    return perfbench::run_kv_net_closed(opt);
  }
  if (workload == "fig2_sim") {
    return perfbench::run_fig2_sim(opt);
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void print_json(const RunResult& r,
                const std::vector<perfbench::MetricSpec>& specs) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  const char* sep = "";
  for (const perfbench::MetricSpec& spec : specs) {
    const auto it = r.metrics.find(spec.name);
    out << sep << '"' << spec.name << "\": {\"value\": "
        << number(it == r.metrics.end() ? 0.0 : it->second)
        << ", \"unit\": \"" << spec.unit << "\"}";
    sep = ", ";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int usage() {
  std::cerr << "usage: rcp_perfbench --workload kv_net_closed|fig2_sim "
               "--seed N --seconds S --trace 0|1 [--spans-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_dir;
  RunOptions opt;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--spans-dir") {
        spans_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (workload.empty() || argc % 2 == 0 || !(opt.seconds > 0.0)) {
    return usage();
  }

  try {
    RunResult result;
    if (!opt.trace) {
      result = run_workload(workload, opt);
    } else {
      RunOptions half = opt;
      half.seconds = opt.seconds / 2.0;
      half.trace = false;
      const RunResult untraced = run_workload(workload, half);
      half.trace = true;
      if (!spans_dir.empty()) {
        half.spans_path = spans_dir + "/" + workload + "-seed" +
                          std::to_string(opt.seed) + ".csv";
      }
      result = run_workload(workload, half);
      for (const char* name :
           {"latency_p50_ms", "latency_p99_ms", "throughput_per_s"}) {
        result.metrics[std::string("e2e.") + name] = untraced.metrics.at(name);
      }
      const double cpu_untraced = untraced.metrics.at("cpu_us_per_unit");
      const double cpu_traced = result.metrics.at("cpu_us_per_unit");
      const double overhead =
          cpu_untraced > 0 ? (cpu_traced / cpu_untraced - 1.0) * 100 : 0.0;
      result.metrics["trace.overhead_pct"] = overhead;
      result.correct = result.correct && untraced.correct;
      result.attempted += untraced.attempted;
      result.failed += untraced.failed;
      result.notes.push_back(
          "tracing overhead: " + number(overhead) + "% cpu per unit " +
          "(untraced " + number(cpu_untraced) + " us, traced " +
          number(cpu_traced) + " us)");
    }
    for (const std::string& note : result.notes) {
      std::cerr << "[" << workload << "] " << note << "\n";
    }
    print_json(result, opt.trace ? perfbench::per_layer_metrics()
                                 : perfbench::end_to_end_metrics());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "rcp_perfbench: " << e.what() << "\n";
    return 1;
  }
}
