// kv_net_closed: the sharded KV service over the loopback TCP mesh (n=7,
// k=2, 4 shards, window 64, three shared event loops), driven as a closed
// loop.
//
// Each node hosts a KvReplica behind two decorators: the optional
// TimedProcess (traced runs) and a NodeHarness, which belongs to the
// benchmark, not to the service. The harness
//   * broadcasts a 3-byte hello on start and swallows the peers' hellos,
//     so the benchmark knows when every node has heard from every peer —
//     the "mesh established" barrier that ends set-up;
//   * decides (ends the cluster run) once its replica has applied every op
//     the benchmark issued, so the run drains instead of timing out.
// Hellos are 3 bytes long; no RbxMsg (21 bytes) or RbxBatch (>= 5 bytes,
// leading 0x2B) has that length, so they cannot be confused with service
// traffic.
//
// Every (origin, shard) stream keeps exactly `window` writes outstanding —
// the replica's own origination window, refilled from the source on every
// step with zero think time; latency runs from submission (the source's
// next()) to apply on the owner.
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "net/cluster.hpp"
#include "procstat.hpp"
#include "service/replica.hpp"
#include "service/sim_service.hpp"
#include "service/workload.hpp"
#include "stats.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rcp::ProcessId;
using rcp::service::KvOp;
using rcp::service::KvReplica;

constexpr std::uint32_t kN = 7;
constexpr std::uint32_t kK = 2;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kWindow = 64;
constexpr std::uint32_t kLoopThreads = 3;
constexpr std::uint32_t kStreams = kN * kShards;
/// Set-up-only clusters built before the measured one; with it, the
/// set-up median is taken over kSetupRepeats + 1 meshes.
constexpr int kSetupRepeats = 100;
/// Ops per stream in the seeded op pool; streams cycle through theirs.
constexpr std::uint64_t kPoolOpsPerStream = 4096;
constexpr std::int64_t kSliceNs = 1'000'000'000;
/// Stamp capacity reserved per (origin, shard) stream and second of load:
/// about twice what one stream commits at saturation (~6.5k ops/s).
constexpr double kStampsPerStreamSecond = 16000.0;
constexpr std::uint32_t kSpanEvery = 16;
constexpr std::size_t kSpanCapacity = 1 << 13;

std::string ms3(double v) { return rcp::format_double(v, 3); }

const rcp::Bytes& hello() {
  static const rcp::Bytes h{std::byte{0xB7}, std::byte{0x11},
                            std::byte{0x0E}};
  return h;
}

/// State shared by the nodes of one cluster and the benchmark's threads.
struct Shared {
  bool setup_only = false;
  std::array<std::atomic<std::int64_t>, kN> ready_ns{};
  std::atomic<std::uint32_t> ready_count{0};
  std::array<std::atomic<int>, kN> loop_tid{};
  std::atomic<bool> go{false};      ///< sources may issue
  std::atomic<bool> stop{false};    ///< sources stop issuing
  std::atomic<bool> window{false};  ///< inside the steady window (tracing)
  std::array<std::atomic<std::uint64_t>, kN> final_ops{};
  std::atomic<std::uint32_t> finals_published{0};
};

/// One origin's client: an endless (until closed) supply of ops from the
/// seeded pool in, per-op stamps out. All state is touched by the owning
/// node's loop thread only (next() and the apply hook both run there), and
/// read after the loops are joined.
class BenchSource final : public rcp::service::OpSource {
 public:
  BenchSource(const Shared& shared, std::vector<std::vector<KvOp>> pool)
      : shared_(shared), pool_(std::move(pool)), issued_(kShards, 0),
        submit_ns_(kShards), apply_ns_(kShards) {}

  [[nodiscard]] std::optional<KvOp> next(std::uint32_t shard) override {
    if (closing_ || !shared_.go.load(std::memory_order_acquire)) {
      return std::nullopt;
    }
    const std::vector<KvOp>& script = pool_[shard];
    const KvOp op = script[issued_[shard] % script.size()];
    ++issued_[shard];
    submit_ns_[shard].push_back(now_ns());
    return op;
  }

  /// Apply hook (own ops, per-shard seq order).
  void on_apply(std::uint32_t shard, std::uint64_t seq) {
    if (seq != apply_ns_[shard].size()) {
      out_of_order_ = true;
    }
    apply_ns_[shard].push_back(now_ns());
  }

  /// No further ops (loop thread).
  void close() noexcept { closing_ = true; }
  [[nodiscard]] std::uint64_t issued_total() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t v : issued_) {
      total += v;
    }
    return total;
  }

  void reserve(std::size_t per_shard) {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      submit_ns_[s].reserve(per_shard);
      apply_ns_[s].reserve(per_shard);
    }
  }

  [[nodiscard]] const std::vector<std::int64_t>& submit_ns(
      std::uint32_t s) const {
    return submit_ns_[s];
  }
  [[nodiscard]] const std::vector<std::int64_t>& apply_ns(
      std::uint32_t s) const {
    return apply_ns_[s];
  }
  [[nodiscard]] bool out_of_order() const noexcept { return out_of_order_; }

 private:
  const Shared& shared_;
  std::vector<std::vector<KvOp>> pool_;
  bool closing_ = false;
  bool out_of_order_ = false;
  std::vector<std::uint64_t> issued_;
  std::vector<std::vector<std::int64_t>> submit_ns_;
  std::vector<std::vector<std::int64_t>> apply_ns_;
};

/// The benchmark's per-node decorator: mesh barrier and termination.
class NodeHarness final : public rcp::Process {
 public:
  NodeHarness(ProcessId id, Shared& shared, BenchSource& source,
              const KvReplica& replica, std::unique_ptr<rcp::Process> inner)
      : id_(id), shared_(shared), source_(source), replica_(replica),
        inner_(std::move(inner)) {}

  void on_start(rcp::Context& ctx) override {
    shared_.loop_tid[id_].store(current_tid(), std::memory_order_relaxed);
    ctx.broadcast(hello());
    inner_->on_start(ctx);
    after(ctx);
  }

  void on_message(rcp::Context& ctx, const rcp::Envelope& env) override {
    if (env.payload == hello()) {
      heard_ |= std::uint32_t{1} << env.sender;
      if (std::popcount(heard_) == static_cast<int>(kN)) {
        shared_.ready_ns[id_].store(now_ns(), std::memory_order_relaxed);
        shared_.ready_count.fetch_add(1, std::memory_order_acq_rel);
      }
    } else {
      inner_->on_message(ctx, env);
    }
    after(ctx);
  }

  void on_null(rcp::Context& ctx) override {
    inner_->on_null(ctx);
    after(ctx);
  }

  [[nodiscard]] rcp::Phase phase() const noexcept override {
    return inner_->phase();
  }

 private:
  void after(rcp::Context& ctx) {
    if (decided_) {
      return;
    }
    if (shared_.setup_only) {
      if (std::popcount(heard_) == static_cast<int>(kN)) {
        decide(ctx);
      }
      return;
    }
    if (!published_ &&
        shared_.stop.load(std::memory_order_acquire)) {
      source_.close();
      shared_.final_ops[id_].store(source_.issued_total(),
                                   std::memory_order_relaxed);
      shared_.finals_published.fetch_add(1, std::memory_order_acq_rel);
      published_ = true;
    }
    if (total_ == 0) {
      if (shared_.finals_published.load(std::memory_order_acquire) != kN) {
        return;
      }
      for (const auto& f : shared_.final_ops) {
        total_ += f.load(std::memory_order_relaxed);
      }
    }
    if (replica_.counters().ops_applied >= total_) {
      decide(ctx);
    }
  }

  void decide(rcp::Context& ctx) {
    ctx.decide(rcp::Value::one);
    decided_ = true;
  }

  ProcessId id_;
  Shared& shared_;
  BenchSource& source_;
  const KvReplica& replica_;
  std::unique_ptr<rcp::Process> inner_;
  std::uint32_t heard_ = 0;
  bool decided_ = false;
  bool published_ = false;
  std::uint64_t total_ = 0;
};

rcp::net::ClusterConfig cluster_config(std::uint64_t seed,
                                       std::uint32_t timeout_ms) {
  rcp::net::ClusterConfig cc;
  cc.n = kN;
  cc.seed = seed;
  cc.timeout_ms = timeout_ms;
  cc.loop_threads = kLoopThreads;
  // Replicas pull client ops on the idle tick when no frame is in flight.
  cc.limits.idle_tick_ms = 1;
  // Lossless transport for a throughput run (as kv_loadgen configures it).
  cc.limits.max_queued_frames = std::size_t{1} << 17;
  cc.limits.backpressure_high_water = std::size_t{1} << 16;
  return cc;
}

rcp::service::ReplicaConfig replica_config() {
  rcp::service::ReplicaConfig rc;
  rc.params = rcp::core::ConsensusParams{kN, kK};
  rc.shards = kShards;
  rc.batching = true;
  rc.window = kWindow;
  return rc;
}

/// Everything one cluster run leaves behind for the report.
struct Mesh {
  Shared shared;
  std::vector<std::shared_ptr<BenchSource>> sources;
  std::vector<const KvReplica*> replicas;
  std::vector<LayerTally> tallies = std::vector<LayerTally>(kN);
  std::vector<std::unique_ptr<SpanLog>> spans;
  std::unique_ptr<rcp::net::Cluster> cluster;
  std::int64_t construct_ns = 0;
};

/// Builds (and binds) one mesh. The caller owns the returned object and
/// must keep it alive until cluster->run() has returned.
std::unique_ptr<Mesh> build_mesh(
    bool setup_only, bool traced, std::uint64_t seed,
    std::uint32_t timeout_ms,
    const std::vector<std::vector<std::vector<KvOp>>>& pool) {
  auto mesh = std::make_unique<Mesh>();
  mesh->shared.setup_only = setup_only;
  mesh->construct_ns = now_ns();
  for (ProcessId p = 0; p < kN; ++p) {
    mesh->sources.push_back(
        std::make_shared<BenchSource>(mesh->shared, pool[p]));
    if (traced) {
      mesh->spans.push_back(std::make_unique<SpanLog>(
          kSpanEvery, kSpanCapacity, std::uint64_t{p} << 40));
    }
  }
  mesh->replicas.resize(kN, nullptr);
  mesh->cluster = std::make_unique<rcp::net::Cluster>(
      cluster_config(seed, timeout_ms), [&](ProcessId id) {
        auto replica =
            std::make_unique<KvReplica>(replica_config(), mesh->sources[id]);
        KvReplica* raw = replica.get();
        mesh->replicas[id] = raw;
        BenchSource* src = mesh->sources[id].get();
        raw->set_apply_hook([src](std::uint32_t shard, std::uint64_t seq,
                                  KvOp /*op*/) { src->on_apply(shard, seq); });
        std::unique_ptr<rcp::Process> inner = std::move(replica);
        if (traced) {
          inner = std::make_unique<TimedProcess>(
              std::move(inner),
              TraceSink{&mesh->tallies[id], mesh->spans[id].get(),
                        &mesh->shared.window, id, 0});
        }
        return std::make_unique<NodeHarness>(id, mesh->shared, *src, *raw,
                                             std::move(inner));
      });
  return mesh;
}

/// Blocks until every node has heard every peer (or `give_up` is set).
/// Returns the set-up time in seconds, or nullopt on give-up.
std::optional<double> await_mesh(const Mesh& mesh,
                                 const std::atomic<bool>& give_up) {
  while (mesh.shared.ready_count.load(std::memory_order_acquire) < kN) {
    if (give_up.load(std::memory_order_acquire)) {
      return std::nullopt;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::int64_t last = 0;
  for (const auto& r : mesh.shared.ready_ns) {
    last = std::max(last, r.load(std::memory_order_relaxed));
  }
  return static_cast<double>(last - mesh.construct_ns) * 1e-9;
}

void sleep_until_ns(std::int64_t t, const std::atomic<bool>& give_up) {
  for (;;) {
    const std::int64_t left = t - now_ns();
    if (left <= 0 || give_up.load(std::memory_order_acquire)) {
      return;
    }
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min<std::int64_t>(left, 5'000'000)));
  }
}

double setup_only_run(std::uint64_t seed,
                      const std::vector<std::vector<std::vector<KvOp>>>& pool) {
  const std::unique_ptr<Mesh> mesh =
      build_mesh(true, false, seed, 20000, pool);
  const rcp::net::ClusterResult r = mesh->cluster->run();
  const std::atomic<bool> done{true};
  const std::optional<double> s = await_mesh(*mesh, done);
  if (!r.success() || !s.has_value()) {
    throw std::runtime_error("kv_net: set-up-only mesh did not connect");
  }
  return *s;
}

struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<Snapshot> snaps;  ///< at start, each slice boundary, end
  std::map<int, double> threads_start;
  std::map<int, double> threads_end;
};


}  // namespace

RunResult run_kv_net_closed(const RunOptions& opt) {
  RunResult out;
  const rcp::core::ConsensusParams params{kN, kK};
  const rcp::service::Workload workload = rcp::service::build_workload(
      params, 0, kShards, kPoolOpsPerStream * kStreams, opt.seed);
  const auto& pool = workload.scripts;
  for (const auto& origin : pool) {
    for (const auto& script : origin) {
      if (script.empty()) {
        throw std::runtime_error("kv_net: empty op script");
      }
    }
  }

  // ---- set-up: median over several fresh meshes ------------------------
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(setup_only_run(opt.seed + 1000 + i, pool));
  }

  const double warmup_s = std::min(1.0, 0.1 * opt.seconds);
  const double load_s = warmup_s + opt.seconds;
  const auto timeout_ms = static_cast<std::uint32_t>(60000 + load_s * 1000);

  const std::unique_ptr<Mesh> mesh =
      build_mesh(false, opt.trace, opt.seed, timeout_ms, pool);
  Shared& sh = mesh->shared;
  for (ProcessId p = 0; p < kN; ++p) {
    mesh->sources[p]->reserve(
        static_cast<std::size_t>(kStampsPerStreamSecond * load_s));
  }

  // ---- control thread: barrier, then load, with window snapshots -------
  // The steady window is cut into 1 s slices; process CPU is read at every
  // slice boundary (the first and last also read per-thread CPU and open /
  // close the tracing window).
  std::atomic<bool> give_up{false};
  std::optional<double> setup_s;
  Window win;
  std::thread control([&] {
    setup_s = await_mesh(*mesh, give_up);
    if (!setup_s.has_value()) {
      return;
    }
    const std::int64_t t0 = now_ns() + 2'000'000;
    win.start_ns = t0 + static_cast<std::int64_t>(warmup_s * 1e9);
    win.end_ns = win.start_ns + static_cast<std::int64_t>(opt.seconds * 1e9);
    std::vector<std::int64_t> cuts;
    for (std::int64_t t = win.start_ns; t < win.end_ns; t += kSliceNs) {
      cuts.push_back(t);
    }
    cuts.push_back(win.end_ns);
    sleep_until_ns(t0, give_up);
    sh.go.store(true, std::memory_order_release);
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      sleep_until_ns(cuts[i], give_up);
      const bool last = i + 1 == cuts.size();
      if (last) {
        sh.window.store(false, std::memory_order_relaxed);
      }
      win.snaps.push_back(Snapshot{now_ns(), others_cpu_seconds()});
      if (opt.trace && (i == 0 || last)) {
        (i == 0 ? win.threads_start : win.threads_end) = thread_cpu_seconds();
      }
      if (i == 0) {
        sh.window.store(true, std::memory_order_relaxed);
      }
    }
    sh.stop.store(true, std::memory_order_release);
  });

  std::optional<rcp::net::ClusterResult> ran;
  try {
    ran = mesh->cluster->run();
  } catch (...) {
    give_up.store(true, std::memory_order_release);
    control.join();
    throw;
  }
  const rcp::net::ClusterResult& result = *ran;
  give_up.store(true, std::memory_order_release);
  control.join();
  if (!setup_s.has_value() || win.snaps.size() < 2) {
    throw std::runtime_error("kv_net: mesh never connected");
  }
  setups.push_back(*setup_s);

  // ---- correctness oracle ----------------------------------------------
  std::uint64_t total = 0;
  for (const auto& f : sh.final_ops) {
    total += f.load();
  }
  out.attempted = total;
  std::uint64_t missing = 0;
  bool digests_equal = true;
  std::uint64_t first_digest = 0;
  for (ProcessId p = 0; p < kN; ++p) {
    const KvReplica& r = *mesh->replicas[p];
    const std::uint64_t applied = r.counters().ops_applied;
    missing = std::max(missing, total > applied ? total - applied : 0);
    const std::uint64_t own = sh.final_ops[p].load();
    const std::uint64_t own_applied = r.counters().own_ops_applied;
    missing = std::max(missing, own > own_applied ? own - own_applied : 0);
    if (mesh->sources[p]->out_of_order()) {
      digests_equal = false;
    }
    const std::uint64_t d = rcp::service::correct_stream_digest(r, kN, kShards);
    if (p == 0) {
      first_digest = d;
    } else if (d != first_digest) {
      digests_equal = false;
    }
  }
  out.failed = missing;
  if (!digests_equal || !result.success() || result.timed_out) {
    out.failed = total;
    out.notes.push_back("oracle: replicas diverged, a node failed or the "
                        "run timed out");
  }
  out.correct = out.failed == 0;

  // ---- per-op commit latency over the steady window --------------------
  const std::int64_t slices =
      std::max<std::int64_t>(1, (win.end_ns - win.start_ns) / kSliceNs);
  std::vector<std::vector<double>> commit(slices);
  std::vector<std::int64_t> applied_at;
  for (ProcessId p = 0; p < kN; ++p) {
    const BenchSource& src = *mesh->sources[p];
    for (std::uint32_t s = 0; s < kShards; ++s) {
      const auto& sub = src.submit_ns(s);
      const auto& app = src.apply_ns(s);
      const std::size_t count = std::min(sub.size(), app.size());
      for (std::size_t i = 0; i < count; ++i) {
        if (app[i] >= win.start_ns && app[i] < win.end_ns) {
          applied_at.push_back(app[i]);
        }
        if (sub[i] < win.start_ns || sub[i] >= win.end_ns) {
          continue;
        }
        const auto slice = std::min<std::int64_t>(
            slices - 1, (sub[i] - win.start_ns) / kSliceNs);
        commit[slice].push_back(static_cast<double>(app[i] - sub[i]) * 1e-6);
      }
    }
  }
  const double cpu_s = win.snaps.back().cpu_s - win.snaps.front().cpu_s;
  const double ops = static_cast<double>(std::max<std::size_t>(
      1, applied_at.size()));
  const SliceRates rates = sliced_rates(win.snaps, std::move(applied_at));

  auto& m = out.metrics;
  m["setup_s"] = median(setups);
  std::sort(setups.begin(), setups.end());
  // A mesh slower than the first dial backoff step may have waited on one.
  const double first_backoff_s =
      rcp::net::NodeLimits{}.reconnect_initial_ms * 1e-3;
  const auto over_backoff = std::count_if(
      setups.begin(), setups.end(),
      [&](double v) { return v > first_backoff_s; });
  out.notes.push_back("set-up over " + std::to_string(setups.size()) +
                      " meshes: min " + ms3(setups.front() * 1e3) +
                      " ms, median " + ms3(m["setup_s"] * 1e3) +
                      " ms, max " + ms3(setups.back() * 1e3) + " ms, " +
                      std::to_string(over_backoff) + " slower than the " +
                      ms3(first_backoff_s * 1e3) + " ms first dial backoff");
  m["latency_p50_ms"] = sliced_quantile(commit, 0.50).value;
  m["latency_p99_ms"] = sliced_quantile(commit, 0.99).value;
  m["throughput_per_s"] = rates.per_s;
  m["cpu_us_per_unit"] = rates.cpu_us_per_event;
  if (!opt.trace) {
    return out;
  }

  // ---- per-layer (traced run) ------------------------------------------

  LayerTally service;
  for (const LayerTally& t : mesh->tallies) {
    service.merge(t);
  }
  m["service.on_message_us"] = service.message.self_per_call_ns() * 1e-3;
  m["service.on_null_us"] = service.null.self_per_call_ns() * 1e-3;
  m["net.send_ns"] = service.send.self_per_call_ns();

  std::uint64_t batches = 0, batched = 0, deliveries = 0, deferred = 0,
                drops = 0, late = 0;
  for (const KvReplica* r : mesh->replicas) {
    batches += r->batcher_stats().batches;
    batched += r->batcher_stats().batched_msgs;
    deliveries += r->counters().deliveries;
    deferred += r->counters().deferred_deliveries;
    const rcp::ext::RbEngineStats e = r->engine_stats();
    // Votes for an instance already applied and retired are the normal
    // tail of Bracha's quorums (delivery needs 2k+1 of n readies), not a
    // fault; every other drop is one.
    late += e.dropped_retired;
    drops += e.dropped_origin_range + e.dropped_value_range +
             e.dropped_sender_dup + e.dropped_slot_overflow +
             e.dropped_origin_flood;
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto total_ops =
      static_cast<double>(std::max<std::uint64_t>(1, total));
  m["service.msgs_per_batch"] = ratio(static_cast<double>(batched),
                                      static_cast<double>(batches));
  m["service.deferred_ratio"] = ratio(static_cast<double>(deferred),
                                      static_cast<double>(deliveries));
  m["service.engine_drops"] = static_cast<double>(drops);
  m["service.late_votes_per_op"] = static_cast<double>(late) / total_ops;
  m["extensions.rb.deliveries_per_op"] =
      static_cast<double>(deliveries) / total_ops;

  rcp::net::LatencyHistogram acks;
  std::uint64_t frames = 0, bytes = 0, retransmits = 0, spurious = 0,
                reconnects = 0, pauses = 0;
  std::size_t queue_peak = 0;
  for (const rcp::net::NodeOutcome& node : result.nodes) {
    acks.merge(node.stats.latency);
    pauses += node.stats.read_pauses;
    for (const rcp::net::PeerCounters& pc : node.stats.peers) {
      frames += pc.msgs_out;
      bytes += pc.bytes_out;
      retransmits += pc.retransmits;
      spurious += pc.spurious_retransmits;
      reconnects += pc.reconnects;
      queue_peak = std::max(queue_peak, pc.queue_peak);
    }
  }
  m["net.frames_per_op"] = static_cast<double>(frames) / total_ops;
  m["net.bytes_per_op"] = static_cast<double>(bytes) / total_ops;
  m["net.frame_ack_p50_ms"] = acks.quantile_ms(0.50);
  m["net.frame_ack_p99_ms"] = acks.quantile_ms(0.99);
  m["net.retransmits_per_kop"] = static_cast<double>(retransmits) * 1e3 /
                                 total_ops;
  m["net.spurious_retransmits"] = static_cast<double>(spurious);
  m["net.reconnects"] = static_cast<double>(reconnects);
  m["net.queue_peak"] = static_cast<double>(queue_peak);
  m["net.read_pauses"] = static_cast<double>(pauses);

  // CPU attribution over the window: loop threads run the service (self
  // time), its Context calls (net send) and the reactor (the rest). The
  // process CPU it splits already leaves out the control thread, which
  // read it (others_cpu_seconds).
  std::set<int> loop_tids;
  for (const auto& t : sh.loop_tid) {
    loop_tids.insert(t.load());
  }
  const double loop_cpu = cpu_delta(win.threads_start, win.threads_end,
                                    loop_tids);
  const double service_s = service.callback_self_s();
  const double send_s = service.send_s();
  const double reactor_s = loop_cpu - service_s - send_s;
  m["net.loop_cpu_us_per_op"] = reactor_s * 1e6 / ops;
  const double cpu = cpu_s > 0 ? cpu_s : 1.0;
  m["cpu.service_share"] = service_s / cpu;
  m["cpu.net_send_share"] = send_s / cpu;
  m["cpu.net_loop_share"] = reactor_s / cpu;
  const double rest = cpu - loop_cpu;
  m["cpu.unattributed_share"] = rest / cpu;
  out.notes.push_back("cpu split (window " + ms3(cpu_s) +
                      " s process cpu): service " + ms3(service_s) +
                      " s, net.send " + ms3(send_s) + " s, net.loop " +
                      ms3(reactor_s) + " s, unattributed " + ms3(rest) +
                      " s");

  if (!opt.spans_path.empty()) {
    std::vector<const SpanLog*> logs;
    for (const auto& s : mesh->spans) {
      logs.push_back(s.get());
    }
    std::ofstream f(opt.spans_path);
    write_spans_csv(f, logs, {"service"});
  }
  return out;
}

}  // namespace perfbench
