// JSON export for cluster runs (schema "rcp-net-v1"), written with the
// repo's one JSON emitter (bench/bench_json.hpp) so the artifacts sit next
// to the simulator's rcp-bench-v1 reports and are consumed the same way
// (python -c "json.load(...)" one-liners; see docs/PERF.md).
//
// Layout:
//   { schema, protocol, n, seed, loop_threads,
//     all_correct_decided, agreement, timed_out, value,
//     elapsed_seconds,
//     totals: { delivered, sent, bytes_out, reconnects, retransmits,
//               spurious_retransmits, msgs_per_sec, decisions_per_sec,
//               latency: { count, mean_ms, p50_ms, p99_ms, p999_ms } },
//     nodes: [ { id, correct, decision, phase, crashed, error,
//                events, msgs_sent, msgs_delivered, read_pauses,
//                latency: { count, mean_ms, p50_ms, p99_ms, p999_ms },
//                peers: [ { bytes_out, bytes_in, msgs_out, msgs_in,
//                           reconnects, retransmits, spurious_retransmits,
//                           drops_injected, delays_injected, dup_frames,
//                           gap_frames, overflow_drops, queue_peak } ] } ] }
//
// Latency is per-frame enqueue → cumulative-ack release at the sender:
// it covers queueing, the vectored send, the peer's delivery and its ack
// coming back — the transport's full round trip, not the process logic.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/json.hpp"
#include "common/types.hpp"
#include "net/cluster.hpp"
#include "net/stats.hpp"

namespace rcp::net {

inline void write_latency(bench::JsonWriter& j,
                          const LatencyHistogram& h) {
  j.key("latency");
  j.begin_object();
  j.field("count", h.count());
  j.field("mean_ms", h.mean_ms());
  j.field("p50_ms", h.quantile_ms(0.50));
  j.field("p99_ms", h.quantile_ms(0.99));
  j.field("p999_ms", h.quantile_ms(0.999));
  j.end_object();
}

inline void write_peer_counters(bench::JsonWriter& j,
                                const PeerCounters& pc) {
  j.begin_object();
  j.field("bytes_out", pc.bytes_out);
  j.field("bytes_in", pc.bytes_in);
  j.field("msgs_out", pc.msgs_out);
  j.field("msgs_in", pc.msgs_in);
  j.field("reconnects", pc.reconnects);
  j.field("retransmits", pc.retransmits);
  j.field("spurious_retransmits", pc.spurious_retransmits);
  j.field("drops_injected", pc.drops_injected);
  j.field("delays_injected", pc.delays_injected);
  j.field("dup_frames", pc.dup_frames);
  j.field("gap_frames", pc.gap_frames);
  j.field("overflow_drops", pc.overflow_drops);
  j.field("queue_peak", static_cast<std::uint64_t>(pc.queue_peak));
  j.end_object();
}

inline void write_node_outcome(bench::JsonWriter& j,
                               const NodeOutcome& node) {
  j.begin_object();
  j.field("id", static_cast<std::uint64_t>(node.id));
  j.field("correct", node.correct);
  j.key("decision");
  if (node.decision.has_value()) {
    j.value(static_cast<std::uint64_t>(value_index(*node.decision)));
  } else {
    j.value("none");
  }
  j.field("phase", static_cast<std::uint64_t>(node.phase));
  j.field("crashed", node.crashed);
  j.field("error", node.error);
  j.field("events", node.stats.events);
  j.field("msgs_sent", node.stats.msgs_sent);
  j.field("msgs_delivered", node.stats.msgs_delivered);
  j.field("read_pauses", node.stats.read_pauses);
  write_latency(j, node.stats.latency);
  j.key("peers");
  j.begin_array();
  for (const PeerCounters& pc : node.stats.peers) {
    write_peer_counters(j, pc);
  }
  j.end_array();
  j.end_object();
}

/// Writes one complete rcp-net-v1 report object for a finished run.
inline void write_cluster_report(bench::JsonWriter& j,
                                 std::string_view protocol,
                                 const ClusterConfig& cfg,
                                 const ClusterResult& result) {
  j.begin_object();
  j.field("schema", "rcp-net-v1");
  j.field("protocol", protocol);
  j.field("n", cfg.n);
  j.field("seed", cfg.seed);
  j.field("loop_threads", cfg.loop_threads);
  j.field("all_correct_decided", result.all_correct_decided);
  j.field("agreement", result.agreement);
  j.field("timed_out", result.timed_out);
  j.key("value");
  if (result.value.has_value()) {
    j.value(static_cast<std::uint64_t>(value_index(*result.value)));
  } else {
    j.value("none");
  }
  j.field("elapsed_seconds", result.elapsed_seconds);

  std::uint64_t decided = 0;
  for (const NodeOutcome& node : result.nodes) {
    if (node.decision.has_value()) {
      ++decided;
    }
  }
  const double elapsed =
      result.elapsed_seconds > 0.0 ? result.elapsed_seconds : 1e-9;
  j.key("totals");
  j.begin_object();
  j.field("delivered", result.total_delivered);
  j.field("sent", result.total_sent);
  j.field("bytes_out", result.total_bytes_out);
  j.field("reconnects", result.total_reconnects);
  j.field("retransmits", result.total_retransmits);
  j.field("spurious_retransmits", result.total_spurious_retransmits);
  j.field("msgs_per_sec",
          static_cast<double>(result.total_delivered) / elapsed);
  j.field("decisions_per_sec", static_cast<double>(decided) / elapsed);
  LatencyHistogram merged;
  for (const NodeOutcome& node : result.nodes) {
    merged.merge(node.stats.latency);
  }
  write_latency(j, merged);
  j.end_object();

  j.key("nodes");
  j.begin_array();
  for (const NodeOutcome& node : result.nodes) {
    write_node_outcome(j, node);
  }
  j.end_array();
  j.end_object();
}

}  // namespace rcp::net
