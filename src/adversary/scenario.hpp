// Scenario builder: assembles complete simulations (protocol + inputs +
// faults + policies) so tests, benchmarks and examples share one vocabulary
// for describing experiments.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "adversary/byzantine.hpp"
#include "adversary/crash_plan.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/params.hpp"
#include "sim/simulation.hpp"

namespace rcp::adversary {

enum class ProtocolKind : std::uint8_t {
  fail_stop,  ///< Figure 1
  malicious,  ///< Figure 2
  majority,   ///< Section 4.1 variant
};

enum class ByzantineKind : std::uint8_t {
  silent,
  equivocator,
  balancer,
  babbler,
  scripted,  ///< move-table-driven (the fuzzer's search space)
};

/// The spellings of one enum value: `token` on command lines and in
/// rcp-plan-v1 files, `display` in human-readable reports.
template <class Kind>
struct KindName {
  Kind kind;
  const char* token;
  const char* display;
};

inline constexpr std::array<KindName<ProtocolKind>, 3> kProtocolNames{{
    {ProtocolKind::fail_stop, "fig1", "fail-stop (Fig 1)"},
    {ProtocolKind::malicious, "fig2", "malicious (Fig 2)"},
    {ProtocolKind::majority, "majority", "majority variant (S4.1)"},
}};

inline constexpr std::array<KindName<ByzantineKind>, 5> kByzantineNames{{
    {ByzantineKind::silent, "silent", "silent"},
    {ByzantineKind::equivocator, "equivocator", "equivocator"},
    {ByzantineKind::balancer, "balancer", "balancer"},
    {ByzantineKind::babbler, "babbler", "babbler"},
    {ByzantineKind::scripted, "scripted", "scripted"},
}};

/// The strategies a command line can name: all but `scripted` (last in
/// the table), whose move table only a plan file carries.
inline constexpr std::span<const KindName<ByzantineKind>> kZooNames{
    kByzantineNames.data(), kByzantineNames.size() - 1};

[[nodiscard]] const char* to_string(ProtocolKind kind) noexcept;
[[nodiscard]] const char* token(ProtocolKind kind) noexcept;
[[nodiscard]] std::optional<ProtocolKind> parse_protocol(
    std::string_view token) noexcept;

[[nodiscard]] const char* to_string(ByzantineKind kind) noexcept;
[[nodiscard]] const char* token(ByzantineKind kind) noexcept;
[[nodiscard]] std::optional<ByzantineKind> parse_byzantine(
    std::string_view token) noexcept;

/// Constructs one Byzantine process of the given strategy. For `scripted`,
/// `moves` supplies the move table (empty = silent).
[[nodiscard]] std::unique_ptr<sim::Process> make_byzantine(
    ByzantineKind kind, core::ConsensusParams params,
    const std::vector<ScriptedMove>& moves = {});

struct Scenario {
  ProtocolKind protocol = ProtocolKind::malicious;
  core::ConsensusParams params{};
  /// Initial value per process id; entries for Byzantine slots are ignored.
  /// Must have size params.n.
  std::vector<Value> inputs;
  /// Which slots run a Byzantine strategy instead of the protocol.
  std::vector<ProcessId> byzantine_ids;
  ByzantineKind byzantine_kind = ByzantineKind::silent;
  /// Move table for ByzantineKind::scripted (ignored otherwise).
  std::vector<ScriptedMove> scripted_moves;
  /// Crash schedule (fail-stop faults); victims stay protocol processes.
  CrashPlan crashes;
  std::uint64_t seed = 1;
  std::uint64_t max_steps = 2'000'000;
  /// Skip the resilience-bound validation (lower-bound experiments only).
  bool unchecked = false;
};

/// The process in slot `id`: the Byzantine strategy if `id` is one of
/// `byzantine_ids`, else the protocol with input `inputs[id]`.
[[nodiscard]] std::unique_ptr<sim::Process> make_process(
    const Scenario& scenario, ProcessId id);

/// Builds the simulation: protocol processes in every slot except the
/// Byzantine ones, Byzantine slots marked faulty, crash plan applied.
/// Delivery/scheduler default to the paper's probabilistic system.
[[nodiscard]] std::unique_ptr<sim::Simulation> build(
    const Scenario& scenario,
    std::unique_ptr<sim::DeliveryPolicy> delivery = nullptr,
    std::unique_ptr<sim::SchedulerPolicy> scheduler = nullptr);

// ---- Input patterns ----------------------------------------------------

/// n inputs, the first `ones` of which are one (rest zero).
[[nodiscard]] std::vector<Value> inputs_with_ones(std::uint32_t n,
                                                  std::uint32_t ones);

/// Alternating 0,1,0,1,...
[[nodiscard]] std::vector<Value> alternating_inputs(std::uint32_t n);

/// Uniform random inputs.
[[nodiscard]] std::vector<Value> random_inputs(std::uint32_t n, Rng& rng);

// ---- Built-in scenario registry ----------------------------------------

/// A named, fully specified scenario. The registry below is the single
/// source of truth for the repo's golden scenarios: the trace-digest suite
/// pins their digests, and `scenario_runner --list-scenarios` enumerates
/// them next to the fuzzer-emitted plans under tests/data/.
struct NamedScenario {
  const char* name;     ///< stable identifier, e.g. "malicious_n7_equivocator"
  const char* summary;  ///< one-line description for listings
  Scenario scenario;
};

/// The hand-curated golden scenarios (digest-pinned; see
/// tests/sim/trace_digest_test.cpp). Order is stable.
[[nodiscard]] const std::vector<NamedScenario>& builtin_scenarios();

}  // namespace rcp::adversary
