// The benchmark's workloads and the metric vocabulary they report in.
//
// Every workload reports every end-to-end metric (an untraced run) and
// every per-layer metric (a traced run); a layer a workload never enters
// reports 0, which is itself the claim that the layer did no work there.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Untraced metrics, identical names and units on every workload.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Traced metrics, identical names and units on every workload.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its sampled spans (empty = nowhere).
  std::string spans_path;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines for stderr (validity flags, attribution table).
  std::vector<std::string> notes;
};

/// kv_net_closed.
[[nodiscard]] RunResult run_kv_net_closed(const RunOptions& opt);

/// fig2_sim.
[[nodiscard]] RunResult run_fig2_sim(const RunOptions& opt);

}  // namespace perfbench
