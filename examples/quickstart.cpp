// Quickstart: reach Byzantine agreement among 7 simulated processes.
//
//   $ ./quickstart [seed]
//
// Builds the paper's malicious-case protocol (Figure 2) at full resilience
// k = floor((n-1)/3) = 2, runs it on the probabilistic asynchronous message
// system, and prints every process's decision.
#include <iostream>
#include <memory>
#include <vector>

#include "common/cli.hpp"
#include "core/malicious.hpp"
#include "sim/simulation.hpp"

int main(int argc, char** argv) {
  using namespace rcp;

  const auto seed = cli::positional<std::uint64_t>(argc, argv, 1, 42, "[seed]");
  const std::uint32_t n = 7;
  const core::ConsensusParams params{n, 2};

  // One process per slot, each with its own initial value.
  std::vector<std::unique_ptr<sim::Process>> processes;
  for (ProcessId p = 0; p < n; ++p) {
    const Value input = p < 3 ? Value::one : Value::zero;
    processes.push_back(core::MaliciousConsensus::make(params, input));
  }

  // The simulator implements the paper's model: one atomic step at a time,
  // with uniformly random message delivery (the probabilistic assumption
  // that makes termination-with-probability-1 work).
  sim::Simulation simulation(sim::SimConfig{.n = n, .seed = seed},
                             std::move(processes));
  const sim::RunResult result = simulation.run();

  std::cout << "status        : "
            << (result.status == sim::RunStatus::all_decided ? "all decided"
                                                             : "incomplete")
            << "\nsteps         : " << result.steps
            << "\nmessages sent : " << simulation.metrics().messages_sent
            << "\nmax phase     : " << simulation.metrics().max_phase << "\n";
  for (ProcessId p = 0; p < n; ++p) {
    std::cout << "process " << p << " decided "
              << *simulation.decision_of(p) << "\n";
  }
  std::cout << "agreement     : "
            << (simulation.agreement_holds() ? "holds" : "VIOLATED") << "\n";
  return simulation.agreement_holds() ? 0 : 1;
}
