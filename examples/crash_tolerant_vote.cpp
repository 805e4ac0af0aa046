// A 9-node commit/abort vote that keeps working while nodes crash.
//
//   $ ./crash_tolerant_vote [crashes] [seed]
//
// The nodes run Figure 1 (fail-stop consensus) at full resilience
// k = floor((n-1)/2) = 4. Up to `crashes` (default 4) nodes die at phase
// boundaries — the moment the paper's proofs treat most carefully, since a
// node then dies right after sending its phase broadcast to an arbitrary
// subset of the cluster.
#include <iostream>

#include "adversary/crash_plan.hpp"
#include "adversary/scenario.hpp"
#include "common/cli.hpp"
#include "sim/trace.hpp"

int main(int argc, char** argv) {
  using namespace rcp;

  const char* usage = "[crashes [seed]]";
  const auto crashes = cli::positional<std::uint32_t>(argc, argv, 1, 4, usage);
  const auto seed = cli::positional<std::uint64_t>(argc, argv, 2, 11, usage);
  const std::uint32_t n = 9;
  const std::uint32_t k = core::max_resilience(core::FaultModel::fail_stop, n);
  if (crashes > k) {
    std::cerr << "this deployment tolerates at most k = " << k
              << " crashes (floor((n-1)/2) for n = " << n << ")\n";
    return 2;
  }

  adversary::Scenario s;
  s.protocol = adversary::ProtocolKind::fail_stop;
  s.params = {n, k};
  // 5 of 9 nodes vote COMMIT (1), 4 vote ABORT (0).
  s.inputs = adversary::inputs_with_ones(n, 5);
  s.crashes = adversary::CrashPlan::staggered(crashes);
  s.seed = seed;

  auto simulation = adversary::build(s);
  sim::RecordingTrace trace;
  simulation->set_trace(&trace);
  const auto result = simulation->run();

  std::cout << "cluster  : n = " << n << ", resilience k = " << k << "\n"
            << "inputs   : 5x COMMIT, 4x ABORT\n"
            << "crashes  : " << crashes << " nodes, one per phase boundary\n"
            << "status   : "
            << (result.status == sim::RunStatus::all_decided
                    ? "every surviving node decided"
                    : "incomplete")
            << " after " << result.steps << " steps\n\n";

  for (ProcessId p = 0; p < n; ++p) {
    std::cout << "node " << p << ": "
              << (simulation->alive(p) ? "alive " : "dead  ");
    if (const auto d = simulation->decision_of(p)) {
      std::cout << (*d == Value::one ? "COMMIT" : "ABORT");
    } else {
      std::cout << "-";
    }
    std::cout << "\n";
  }
  std::cout << "\nagreement: "
            << (simulation->agreement_holds() ? "holds" : "VIOLATED") << "\n";

  std::cout << "\ncrash and decision timeline:\n";
  for (const auto& e : trace.events()) {
    if (e.kind == sim::EventKind::crash) {
      std::cout << "  [step " << e.step << "] node " << e.process
                << " crashed\n";
    } else if (e.kind == sim::EventKind::decide) {
      std::cout << "  [step " << e.step << "] node " << e.process
                << " decided " << (*e.decision == Value::one ? "COMMIT" : "ABORT")
                << "\n";
    }
  }
  return simulation->agreement_holds() ? 0 : 1;
}
