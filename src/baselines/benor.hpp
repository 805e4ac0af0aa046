// Ben-Or's randomized consensus protocol [BenO83], the paper's point of
// comparison: "The protocols are similar to those given in this paper, but
// randomization is incorporated in the protocol itself. They have an
// exponential expected termination time in the fail-stop case, and, in the
// malicious case, they can overcome up to n/5 malicious processes."
//
// Each round has two exchanges:
//   1. Report:  broadcast (R, r, x); wait for n-k reports.
//   2. Propose: if more than n/2 (crash) or (n+k)/2 (byzantine) reports
//      carried the same v, broadcast (P, r, v), else (P, r, bottom);
//      wait for n-k proposals. Then:
//        - decide v on >= k+1 (crash) / >= 2k+1 (byzantine) proposals for v,
//        - else adopt v on >= 1 (crash) / >= k+1 (byzantine) proposals,
//        - else x := private coin flip.
//
// Resilience: k <= floor((n-1)/2) for the crash variant, k <= floor((n-1)/5)
// for the byzantine variant. Processes keep participating after deciding.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/process.hpp"
#include "common/types.hpp"
#include "core/params.hpp"

namespace rcp::baselines {

enum class BenOrVariant : std::uint8_t { crash, byzantine };

/// The largest k the variant tolerates at cluster size n (see the
/// resilience note above); BenOrConsensus::make rejects anything larger.
[[nodiscard]] constexpr std::uint32_t benor_max_resilience(
    BenOrVariant variant, std::uint32_t n) noexcept {
  if (n == 0) {
    return 0;
  }
  // rcp-lint: allow(threshold) Ben-Or's own bound, not a Bracha-Toueg quorum
  return variant == BenOrVariant::crash ? (n - 1) / 2 : (n - 1) / 5;
}

class BenOrConsensus final : public sim::Process {
 public:
  /// Decoded wire message (exposed for the codec unit tests).
  struct WireMsg {
    std::uint8_t stage = 0;  ///< 0 = report, 1 = propose
    Phase round = 0;
    std::uint8_t val = 0;    ///< 0, 1, or 2 (= bottom, propose stage only)
  };

  /// Wire codec (public so adversarial processes in tests/benches can
  /// speak the protocol). Throws DecodeError on malformed input.
  [[nodiscard]] static Bytes encode_wire(const WireMsg& msg);
  [[nodiscard]] static WireMsg decode_wire(const Bytes& payload);

  /// Validating factory; throws if k exceeds the variant's bound.
  [[nodiscard]] static std::unique_ptr<BenOrConsensus> make(
      core::ConsensusParams params, BenOrVariant variant, Value initial_value);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Envelope& env) override;
  /// Rounds, for fault injection and metrics (one "phase" = one round).
  [[nodiscard]] Phase phase() const noexcept override { return round_; }

  [[nodiscard]] Value value() const noexcept { return value_; }
  [[nodiscard]] std::optional<Value> decision() const noexcept {
    return decision_;
  }
  /// Number of private coin flips performed so far (measurement hook).
  [[nodiscard]] std::uint64_t coin_flips() const noexcept {
    return coin_flips_;
  }

 private:
  BenOrConsensus(core::ConsensusParams params, BenOrVariant variant,
                 Value initial_value) noexcept;

  void begin_round(sim::Context& ctx);
  void handle_report(sim::Context& ctx, Value v);
  void handle_proposal(sim::Context& ctx, std::uint8_t proposal);

  [[nodiscard]] bool report_majority(std::uint32_t count) const noexcept;
  [[nodiscard]] std::uint32_t decide_threshold() const noexcept;
  [[nodiscard]] std::uint32_t adopt_threshold() const noexcept;

  core::ConsensusParams params_;
  BenOrVariant variant_;
  Value value_;
  Phase round_ = 0;
  bool in_propose_stage_ = false;
  ValueCounts report_count_;
  /// Proposal tallies: counts for value 0, value 1, and bottom.
  std::uint32_t proposal_count_[3] = {0, 0, 0};
  std::optional<Value> decision_;
  std::uint64_t coin_flips_ = 0;
  /// (sender, round, stage) already counted — Byzantine duplicate guard.
  std::set<std::tuple<ProcessId, Phase, std::uint8_t>> seen_;
  /// Messages from future rounds/stages, parked until we catch up.
  std::vector<WireMsg> deferred_;
};

}  // namespace rcp::baselines
