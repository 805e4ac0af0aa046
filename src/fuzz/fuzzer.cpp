#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/mutate.hpp"
#include "runtime/seeding.hpp"
#include "runtime/trial_pool.hpp"

namespace rcp::fuzz {

namespace {

void fold_stats(FuzzStats& stats, const ExecResult& r) {
  ++stats.executions;
  switch (r.status) {
    case sim::RunStatus::all_decided:
      ++stats.decided;
      break;
    case sim::RunStatus::quiescent:
      ++stats.quiescent;
      break;
    case sim::RunStatus::step_limit:
      ++stats.step_limit;
      break;
  }
  stats.quorum_boundary += r.quorum_boundary ? 1 : 0;
  stats.near_boundary += r.near_boundary ? 1 : 0;
  stats.near_disagreement += r.near_disagreement ? 1 : 0;
  stats.dedup_overflow += r.dedup_overflow ? 1 : 0;
  stats.agreement_violations += r.agreement ? 0 : 1;
}

char hex_digit(std::uint64_t v) noexcept {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

std::string hex64(std::uint64_t v) {
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += hex_digit((v >> shift) & 0xf);
  }
  return out;
}

/// Signal priority for golden emission, most severe first.
struct SignalSpec {
  const char* name;
  bool (*matches)(const ExecResult&);
  bool (*keep)(const ExecResult&);
};

constexpr SignalSpec kSignals[] = {
    {"agreement-violation", [](const ExecResult& r) { return !r.agreement; },
     [](const ExecResult& r) { return !r.agreement; }},
    {"near-disagreement",
     [](const ExecResult& r) { return r.agreement && r.near_disagreement; },
     [](const ExecResult& r) { return r.near_disagreement; }},
    {"dedup-overflow",
     [](const ExecResult& r) {
       return r.agreement && !r.near_disagreement && r.dedup_overflow;
     },
     [](const ExecResult& r) { return r.dedup_overflow; }},
    {"quorum-boundary",
     [](const ExecResult& r) {
       return r.agreement && !r.near_disagreement && !r.dedup_overflow &&
              r.quorum_boundary;
     },
     [](const ExecResult& r) { return r.quorum_boundary; }},
};

}  // namespace

std::string EmittedPlan::file_name() const {
  std::string name = "fuzz_";
  name += adversary::token(plan.spec.protocol);
  name += '_';
  name += signal;
  name += '_';
  const std::uint64_t h = plan.content_hash();
  for (int shift = 60; shift >= 32; shift -= 4) {
    name += hex_digit((h >> shift) & 0xf);
  }
  name += ".plan";
  return name;
}

Fuzzer::Fuzzer(FuzzConfig cfg) : cfg_(cfg) {
  RCP_EXPECT(cfg_.batch > 0, "batch must be positive");
  RCP_EXPECT(cfg_.params.n > 0, "n must be positive");
}

FuzzOutcome Fuzzer::run() {
  FuzzOutcome out;
  runtime::TrialPool pool(cfg_.threads);

  // Trial index: global, monotonically increasing across seed corpus and
  // every mutation batch — the sole source of per-trial randomness.
  std::uint64_t trial = 0;

  const auto run_batch = [&](const std::vector<SchedulePlan>& plans) {
    std::vector<ExecResult> results(plans.size());
    pool.for_each(plans.size(), [&](std::uint64_t job, std::uint32_t) {
      results[job] = execute(plans[job]);
    });
    // Sequential fold in trial order: admission order (hence the corpus
    // digest) is independent of which worker finished first.
    for (std::size_t i = 0; i < plans.size(); ++i) {
      fold_stats(out.stats, results[i]);
      if (out.coverage.add(results[i].coverage_key)) {
        out.corpus.add({plans[i], results[i]});
      }
    }
  };

  // Seed corpus.
  {
    auto seeds = seed_corpus(cfg_.protocol, cfg_.params,
                             runtime::trial_seed(cfg_.seed, trial));
    trial += seeds.size();
    run_batch(seeds);
  }

  // Mutation batches against a frozen corpus snapshot per batch.
  while (out.stats.executions < cfg_.budget) {
    const std::size_t snapshot = out.corpus.size();
    std::vector<SchedulePlan> plans;
    plans.reserve(cfg_.batch);
    for (std::uint32_t i = 0; i < cfg_.batch; ++i) {
      Rng rng(runtime::trial_seed(cfg_.seed, trial++));
      const auto& parent =
          out.corpus.entry(static_cast<std::size_t>(rng.below(snapshot)));
      plans.push_back(mutate(parent.plan, rng));
    }
    run_batch(plans);
  }

  // Golden emission: walk signals by severity, corpus in admission order.
  for (const SignalSpec& sig : kSignals) {
    for (const CorpusEntry& entry : out.corpus.entries()) {
      if (out.emitted.size() >= cfg_.max_emit) {
        break;
      }
      if (!sig.matches(entry.result)) {
        continue;
      }
      SchedulePlan plan = entry.plan;
      if (cfg_.minimize) {
        plan = minimize(plan, sig.keep, cfg_.minimize_attempts);
      }
      ExecResult final_result = execute(plan);
      plan.expect.present = true;
      plan.expect.status = final_result.status;
      plan.expect.steps = final_result.steps;
      plan.expect.trace_digest = final_result.trace_digest;
      plan.expect.state_digest = final_result.state_digest;
      out.emitted.push_back({sig.name, std::move(plan), final_result});
      break;  // one golden per signal class keeps the set curated
    }
  }
  return out;
}

void write_report(std::ostream& os, const FuzzConfig& cfg,
                  const FuzzOutcome& outcome) {
  bench::JsonWriter w(os);
  w.begin_object();
  w.field("schema", "rcp-fuzz-v1");
  w.field("protocol", adversary::token(cfg.protocol));
  w.field("n", cfg.params.n);
  w.field("k", cfg.params.k);
  w.field("seed", cfg.seed);
  w.field("budget", cfg.budget);
  w.field("batch", cfg.batch);
  w.field("executions", outcome.stats.executions);
  w.field("corpus_size", static_cast<std::uint64_t>(outcome.corpus.size()));
  w.field("coverage_points",
          static_cast<std::uint64_t>(outcome.coverage.size()));
  w.field("corpus_digest", hex64(outcome.corpus.digest()));
  w.field("coverage_digest", hex64(outcome.coverage.digest()));
  w.key("status_counts");
  w.begin_object();
  w.field("decided", outcome.stats.decided);
  w.field("quiescent", outcome.stats.quiescent);
  w.field("step_limit", outcome.stats.step_limit);
  w.end_object();
  w.key("signals");
  w.begin_object();
  w.field("quorum_boundary", outcome.stats.quorum_boundary);
  w.field("near_boundary", outcome.stats.near_boundary);
  w.field("near_disagreement", outcome.stats.near_disagreement);
  w.field("dedup_overflow", outcome.stats.dedup_overflow);
  w.field("agreement_violations", outcome.stats.agreement_violations);
  w.end_object();
  w.key("emitted");
  w.begin_array();
  for (const EmittedPlan& e : outcome.emitted) {
    w.begin_object();
    w.field("file", e.file_name());
    w.field("signal", e.signal);
    w.field("status", status_token(e.result.status));
    w.field("steps", e.result.steps);
    w.field("trace_digest", hex64(e.result.trace_digest));
    w.field("state_digest", hex64(e.result.state_digest));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace rcp::fuzz
