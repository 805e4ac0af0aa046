#include "adversary/scenario.hpp"

#include <algorithm>

#include "adversary/byzantine.hpp"
#include "common/error.hpp"
#include "core/failstop.hpp"
#include "core/majority.hpp"
#include "core/malicious.hpp"

namespace rcp::adversary {

namespace {

template <class Kind, std::size_t N>
const KindName<Kind>* find(const std::array<KindName<Kind>, N>& names,
                           Kind kind) noexcept {
  for (const KindName<Kind>& e : names) {
    if (e.kind == kind) {
      return &e;
    }
  }
  return nullptr;
}

template <class Kind, std::size_t N>
std::optional<Kind> find(const std::array<KindName<Kind>, N>& names,
                         std::string_view token) noexcept {
  for (const KindName<Kind>& e : names) {
    if (token == e.token) {
      return e.kind;
    }
  }
  return std::nullopt;
}

}  // namespace

const char* to_string(ProtocolKind kind) noexcept {
  const auto* e = find(kProtocolNames, kind);
  return e != nullptr ? e->display : "?";
}

const char* token(ProtocolKind kind) noexcept {
  const auto* e = find(kProtocolNames, kind);
  return e != nullptr ? e->token : "?";
}

std::optional<ProtocolKind> parse_protocol(std::string_view token) noexcept {
  return find(kProtocolNames, token);
}

const char* to_string(ByzantineKind kind) noexcept {
  const auto* e = find(kByzantineNames, kind);
  return e != nullptr ? e->display : "?";
}

const char* token(ByzantineKind kind) noexcept {
  const auto* e = find(kByzantineNames, kind);
  return e != nullptr ? e->token : "?";
}

std::optional<ByzantineKind> parse_byzantine(std::string_view token) noexcept {
  return find(kByzantineNames, token);
}

std::unique_ptr<sim::Process> make_byzantine(
    ByzantineKind kind, core::ConsensusParams params,
    const std::vector<ScriptedMove>& moves) {
  switch (kind) {
    case ByzantineKind::silent:
      return std::make_unique<SilentByzantine>();
    case ByzantineKind::equivocator:
      return std::make_unique<EquivocatorByzantine>(params);
    case ByzantineKind::balancer:
      return std::make_unique<BalancerByzantine>(params);
    case ByzantineKind::babbler:
      return std::make_unique<BabblerByzantine>(params);
    case ByzantineKind::scripted:
      return std::make_unique<ScriptedByzantine>(params, moves);
  }
  RCP_INVARIANT(false, "unknown byzantine kind");
}

std::unique_ptr<sim::Process> make_process(const Scenario& s, ProcessId id) {
  if (std::find(s.byzantine_ids.begin(), s.byzantine_ids.end(), id) !=
      s.byzantine_ids.end()) {
    return make_byzantine(s.byzantine_kind, s.params, s.scripted_moves);
  }
  RCP_EXPECT(id < s.inputs.size(), "need one input per process");
  const Value input = s.inputs[id];
  switch (s.protocol) {
    case ProtocolKind::fail_stop:
      return s.unchecked
                 ? core::FailStopConsensus::make_unchecked(s.params, input)
                 : core::FailStopConsensus::make(s.params, input);
    case ProtocolKind::malicious:
      return s.unchecked
                 ? core::MaliciousConsensus::make_unchecked(s.params, input)
                 : core::MaliciousConsensus::make(s.params, input);
    case ProtocolKind::majority:
      return s.unchecked
                 ? core::MajorityConsensus::make_unchecked(s.params, input)
                 : core::MajorityConsensus::make(s.params, input);
  }
  RCP_INVARIANT(false, "unknown protocol kind");
}

std::unique_ptr<sim::Simulation> build(
    const Scenario& scenario, std::unique_ptr<sim::DeliveryPolicy> delivery,
    std::unique_ptr<sim::SchedulerPolicy> scheduler) {
  const std::uint32_t n = scenario.params.n;
  RCP_EXPECT(scenario.inputs.size() == n, "need one input per process");
  for (const ProcessId b : scenario.byzantine_ids) {
    RCP_EXPECT(b < n, "byzantine id outside [0, n)");
  }

  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.reserve(n);
  for (ProcessId p = 0; p < n; ++p) {
    procs.push_back(make_process(scenario, p));
  }

  auto simulation = std::make_unique<sim::Simulation>(
      sim::SimConfig{
          .n = n, .seed = scenario.seed, .max_steps = scenario.max_steps},
      std::move(procs), std::move(delivery), std::move(scheduler));
  for (const ProcessId b : scenario.byzantine_ids) {
    simulation->mark_faulty(b);
  }
  scenario.crashes.apply(*simulation);
  return simulation;
}

std::vector<Value> inputs_with_ones(std::uint32_t n, std::uint32_t ones) {
  RCP_EXPECT(ones <= n, "more ones than processes");
  std::vector<Value> inputs(n, Value::zero);
  std::fill_n(inputs.begin(), ones, Value::one);
  return inputs;
}

std::vector<Value> alternating_inputs(std::uint32_t n) {
  std::vector<Value> inputs(n, Value::zero);
  for (std::uint32_t p = 0; p < n; ++p) {
    inputs[p] = p % 2 == 0 ? Value::zero : Value::one;
  }
  return inputs;
}

std::vector<Value> random_inputs(std::uint32_t n, Rng& rng) {
  std::vector<Value> inputs(n, Value::zero);
  for (auto& v : inputs) {
    v = rng.bernoulli(0.5) ? Value::one : Value::zero;
  }
  return inputs;
}

namespace {

// The exact scenarios whose digests tests/sim/trace_digest_test.cpp pins.
// Changing any field here changes a golden digest — that is the point: the
// registry and the goldens must move together.
std::vector<NamedScenario> make_builtins() {
  std::vector<NamedScenario> out;

  {
    Scenario s;
    s.protocol = ProtocolKind::fail_stop;
    s.params = {5, 1};
    s.inputs = alternating_inputs(5);
    s.crashes = CrashPlan::staggered(1);
    s.seed = 42;
    s.max_steps = 200000;
    out.push_back({"failstop_n5",
                   "Fig 1, n=5 k=1, alternating inputs, staggered crash", s});
  }
  {
    Scenario s;
    s.protocol = ProtocolKind::malicious;
    s.params = {7, 2};
    s.inputs = alternating_inputs(7);
    s.byzantine_ids = {6};
    s.byzantine_kind = ByzantineKind::equivocator;
    s.seed = 2026;
    s.max_steps = 500000;
    out.push_back({"malicious_n7_equivocator",
                   "Fig 2, n=7 k=2, one equivocator", s});
  }
  {
    Scenario s;
    s.protocol = ProtocolKind::majority;
    s.params = {9, 2};
    s.inputs = inputs_with_ones(9, 5);
    s.seed = 7;
    s.max_steps = 500000;
    out.push_back({"majority_n9", "S4.1 variant, n=9 k=2, 5 ones", s});
  }
  {
    Scenario s;
    s.protocol = ProtocolKind::malicious;
    s.params = {10, 3};
    s.inputs = alternating_inputs(10);
    s.byzantine_ids = {0, 4, 8};
    s.byzantine_kind = ByzantineKind::babbler;
    s.seed = 777;
    s.max_steps = 2000000;
    out.push_back({"babbler_n10", "Fig 2, n=10 k=3, three babblers", s});
  }
  {
    Scenario s;
    s.protocol = ProtocolKind::malicious;
    s.params = {10, 2};
    s.inputs = alternating_inputs(10);
    s.byzantine_ids = {0, 5};
    s.byzantine_kind = ByzantineKind::balancer;
    s.seed = 31337;
    s.max_steps = 4000000;
    out.push_back({"balancer_n10", "Fig 2, n=10 k=2, two balancers", s});
  }
  return out;
}

}  // namespace

const std::vector<NamedScenario>& builtin_scenarios() {
  static const std::vector<NamedScenario> kBuiltins = make_builtins();
  return kBuiltins;
}

}  // namespace rcp::adversary
