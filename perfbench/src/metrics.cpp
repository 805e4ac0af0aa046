#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  // Process CPU per unit of work: per applied op (kv_net_closed), per
  // decision (fig2_sim). Latency and throughput are reported too, as e2e.* in the
  // traced run's list (from its untraced half), without a bound: on a
  // shared VM their run-to-run spread follows the host's steal and
  // contention (IQR/median 0.2-0.4 over ten seeds), wider than any bound
  // an end-to-end metric may carry, while CPU per unit stays within ~0.1.
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"cpu_us_per_unit", "us"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"e2e.latency_p50_ms", "ms"},
      {"e2e.latency_p99_ms", "ms"},
      {"e2e.throughput_per_s", "1/s"},
      {"service.on_message_us", "us"},
      {"service.on_null_us", "us"},
      {"service.msgs_per_batch", "count"},
      {"service.deferred_ratio", "ratio"},
      {"service.engine_drops", "count"},
      {"service.late_votes_per_op", "count"},
      {"extensions.rb.deliveries_per_op", "count"},
      {"net.send_ns", "ns"},
      {"net.loop_cpu_us_per_op", "us"},
      {"net.frames_per_op", "count"},
      {"net.bytes_per_op", "bytes"},
      {"net.frame_ack_p50_ms", "ms"},
      {"net.frame_ack_p99_ms", "ms"},
      {"net.retransmits_per_kop", "count"},
      {"net.spurious_retransmits", "count"},
      {"net.reconnects", "count"},
      {"net.queue_peak", "count"},
      {"net.read_pauses", "count"},
      {"sim.step_ns", "ns"},
      {"sim.steps_per_decision", "count"},
      {"sim.msgs_per_decision", "count"},
      {"core.fig2.on_message_ns", "ns"},
      {"core.fig2.phases_per_decision", "count"},
      {"adversary.on_message_ns", "ns"},
      {"runtime.pool_idle_share", "ratio"},
      {"cpu.service_share", "ratio"},
      {"cpu.net_send_share", "ratio"},
      {"cpu.net_loop_share", "ratio"},
      {"cpu.sim_share", "ratio"},
      {"cpu.core_share", "ratio"},
      {"cpu.adversary_share", "ratio"},
      {"cpu.unattributed_share", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

}  // namespace perfbench
