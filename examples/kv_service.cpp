// Minimal consensus-as-a-service demo: a sharded replicated KV log where
// every client write rides one Bracha-broadcast instance (docs/SERVICE.md).
//
// Runs one deterministic simulation of n replicas (one seat Byzantine) over
// a generated workload, then shows what the service guarantees: every
// correct replica applied the same ops in the same per-stream order, so
// their state digests match — even with an equivocator in the mesh.
//
//   $ ./kv_service
//   $ ./kv_service --n 7 --shards 4 --ops 5000 --adversary babbler
#include <iostream>
#include <optional>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "service/sim_service.hpp"

namespace {

using namespace rcp;

struct Options {
  std::uint32_t n = 7;
  std::optional<std::uint32_t> k;
  std::uint32_t shards = 2;
  std::uint64_t ops = 2000;
  std::string adversary = "equivocator";
  std::optional<std::uint32_t> byz;
  bool batching = true;
  std::uint64_t seed = 1;
};

cli::Parser flags(Options& opt) {
  cli::Parser p;
  p.value("--n", "N", opt.n, "replicas (default 7)")
      .value("--k", "K", opt.k, "resilience (default (n-1)/3)")
      .value("--shards", "S", opt.shards, ">= 1 per replica (default 2)", 1)
      .value("--ops", "OPS", opt.ops, "total client writes (default 2000)")
      .choice("--adversary", opt.adversary,
              {"none", "equivocator", "babbler", "lane_jammer"},
              "(default equivocator)")
      .value("--byz", "B", opt.byz, "Byzantine seats (default 1, 0 with none)")
      .set("--no-batching", opt.batching, false, "one frame per message")
      .value("--seed", "S", opt.seed, "(default 1)");
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!flags(opt).parse(argc, argv)) {
    return 2;
  }

  service::SimServiceConfig cfg;
  cfg.params = core::ConsensusParams{opt.n, opt.k.value_or((opt.n - 1) / 3)};
  cfg.shards = opt.shards;
  cfg.total_ops = opt.ops;
  cfg.batching = opt.batching;
  cfg.seed = opt.seed;
  cfg.adversary = opt.adversary == "equivocator"
                      ? service::KvAdversaryKind::equivocator
                  : opt.adversary == "babbler" ? service::KvAdversaryKind::babbler
                  : opt.adversary == "lane_jammer"
                      ? service::KvAdversaryKind::lane_jammer
                      : service::KvAdversaryKind::none;
  cfg.byzantine =
      opt.byz.value_or(opt.adversary == "none" ? 0U : 1U);

  try {
    const service::SimServiceResult r = service::run_sim_service(cfg);

    std::cout << "service  : n=" << opt.n << " k=" << cfg.params.k
              << " shards=" << opt.shards << " ops=" << opt.ops
              << " adversary=" << opt.adversary << "(" << cfg.byzantine
              << ")"
              << " batching=" << (opt.batching ? "on" : "off") << "\n";
    Table table({"replica", "correct-stream digest", "full digest"});
    for (std::size_t i = 0; i < r.correct_ids.size(); ++i) {
      table.row()
          .cell(static_cast<std::uint64_t>(r.correct_ids[i]))
          .cell(r.correct_digests[i])
          .cell(r.digests[i]);
    }
    table.print(std::cout);
    std::cout << "status   : "
              << (r.status == sim::RunStatus::all_decided ? "all applied"
                                                          : "INCOMPLETE")
              << "  steps=" << r.steps
              << "  messages=" << r.messages_delivered << "\n"
              << "batching : batches=" << r.batches
              << "  batched msgs=" << r.batched_msgs
              << "  unbatched msgs=" << r.unbatched_msgs << "\n"
              << "defense  : decode errors=" << r.decode_errors
              << "  engine drops=" << r.engine_drops
              << "  admission drops=" << r.admission_drops << "\n"
              << "replicas : "
              << (r.correct_streams_equal ? "state digests MATCH"
                                          : "state digests DIVERGED")
              << "\n";
    return r.status == sim::RunStatus::all_decided && r.correct_streams_equal
               ? 0
               : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
