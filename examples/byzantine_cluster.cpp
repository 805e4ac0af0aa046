// A 10-replica cluster agreeing on a feature-flag rollout while 3 replicas
// are actively malicious.
//
//   $ ./byzantine_cluster [strategy] [seed]
//     strategy: silent | equivocator | balancer | babbler   (default all)
//
// The correct replicas run Figure 2; the compromised ones run the chosen
// attack. The example prints per-strategy outcomes and, for one run, the
// tail of the execution trace so you can watch initial/echo quorums form.
#include <iostream>

#include "adversary/scenario.hpp"
#include "common/cli.hpp"
#include "sim/trace.hpp"

namespace {

using namespace rcp;
using adversary::ByzantineKind;

constexpr const char* kUsage =
    "[silent|equivocator|balancer|babbler [seed]]";

void run_strategy(ByzantineKind kind, std::uint64_t seed, bool with_trace) {
  const std::uint32_t n = 10;
  adversary::Scenario s;
  s.protocol = adversary::ProtocolKind::malicious;
  // The balancer is only analysed (and only practical) at k <= n/5.
  s.params = {n, kind == ByzantineKind::balancer ? 2u : 3u};
  s.inputs = adversary::inputs_with_ones(n, 6);  // 6 replicas want the flag on
  s.byzantine_kind = kind;
  for (std::uint32_t b = 0; b < s.params.k; ++b) {
    s.byzantine_ids.push_back(static_cast<ProcessId>(3 * b + 1));
  }
  s.seed = seed;
  s.max_steps = 8'000'000;

  auto simulation = adversary::build(s);
  sim::RecordingTrace trace(4096);
  if (with_trace) {
    simulation->set_trace(&trace);
  }
  const auto result = simulation->run();

  std::cout << "strategy=" << to_string(kind) << "  k=" << s.params.k
            << "  status="
            << (result.status == sim::RunStatus::all_decided ? "decided"
                                                             : "incomplete")
            << "  steps=" << result.steps
            << "  phases=" << simulation->metrics().max_phase
            << "  decision=";
  if (const auto v = simulation->agreed_value()) {
    std::cout << *v;
  } else {
    std::cout << '-';
  }
  std::cout << "  agreement="
            << (simulation->agreement_holds() ? "holds" : "VIOLATED") << "\n";

  if (with_trace) {
    std::cout << "\nlast trace events (decisions only):\n";
    for (const auto& e : trace.events()) {
      if (e.kind == sim::EventKind::decide) {
        std::cout << "  [step " << e.step << "] replica " << e.process
                  << " decided " << *e.decision << "\n";
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = cli::positional<std::uint64_t>(argc, argv, 2, 7, kUsage);
  std::cout << "Feature-flag rollout: 10 replicas, Byzantine minority, "
               "6 correct replicas prefer ON (value 1)\n\n";
  if (argc > 1) {
    const auto kind = adversary::parse_byzantine(argv[1]);
    if (!kind.has_value() || *kind == ByzantineKind::scripted) {
      cli::exit_usage(argv[0], kUsage, argv[1]);
    }
    run_strategy(*kind, seed, /*with_trace=*/true);
    return 0;
  }
  for (const auto kind :
       {ByzantineKind::silent, ByzantineKind::equivocator,
        ByzantineKind::balancer, ByzantineKind::babbler}) {
    run_strategy(kind, seed, /*with_trace=*/false);
  }
  std::cout << "\n(Pass a strategy name to see its decision trace.)\n";
  return 0;
}
