// Transport-level fault injection, mirroring the semantics of the
// simulator's adversaries (src/adversary/) at the socket layer:
//
//   drop   — with probability p a data frame is held back kDropHoldMs
//            longer, the time a lossy link's sender takes to notice the
//            loss and resend. The frame is late, never lost, and every
//            later frame waits behind it: delivery stays reliable and in
//            order, as the paper's model requires;
//   delay  — each outbound frame becomes eligible for transmission only
//            after a uniform-random hold (the paper's "arbitrarily long
//            transmission delay", bounded so runs terminate);
//   disconnect — the link to a chosen peer is force-closed once this node
//            has delivered a given number of messages; the connector's
//            backoff/reconnect path then restores it (the TCP analogue of
//            the simulator's partition-then-heal schedules).
//
// All randomness flows from the node's deterministic Rng, so a fault
// pattern is reproducible per (seed, node id) even though socket timing
// is not.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace rcp::net {

/// The time a sender takes to notice a loss and resend: what an injected
/// drop adds to a frame's eligibility delay.
inline constexpr std::uint32_t kDropHoldMs = 100;

/// Link-level loss/latency knobs, applied to every peer of the node.
struct LinkFaults {
  /// Probability a data frame is dropped, i.e. held kDropHoldMs extra.
  /// 0 disables.
  double drop_probability = 0.0;
  /// Uniform per-frame eligibility delay in [min, max] milliseconds.
  std::uint32_t delay_min_ms = 0;
  std::uint32_t delay_max_ms = 0;
};

/// Force-close the link to `peer` when the node's delivered-message count
/// reaches `after_delivered` (or, if the link is down then, once it is
/// up). Fires once.
struct DisconnectEvent {
  ProcessId peer = 0;
  std::uint64_t after_delivered = 0;
};

struct FaultPlan {
  LinkFaults link;
  std::vector<DisconnectEvent> disconnects;

  [[nodiscard]] bool any_link_faults() const noexcept {
    return link.drop_probability > 0.0 || link.delay_max_ms > 0;
  }
};

/// Stateful executor of one node's FaultPlan.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  /// Is the data frame enqueued now dropped (held kDropHoldMs extra)?
  [[nodiscard]] bool should_drop();

  /// Eligibility delay for a frame enqueued now, in milliseconds.
  [[nodiscard]] std::uint32_t delay_ms();

  /// Offers every unspent disconnect event that has matured at
  /// `delivered` messages to `cut(peer)`, which returns whether it closed
  /// a live link. Each event is spent by the first cut that does; until
  /// then it waits for its link to come up, so an injected disconnect
  /// always severs a connection rather than vanishing before one exists.
  template <typename Cut>
  void fire_due_disconnects(std::uint64_t delivered, Cut&& cut) {
    for (std::size_t i = 0; i < plan_.disconnects.size(); ++i) {
      if (!fired_[i] && delivered >= plan_.disconnects[i].after_delivered &&
          cut(plan_.disconnects[i].peer)) {
        fired_[i] = true;
      }
    }
  }

 private:
  FaultPlan plan_;
  Rng rng_;
  std::vector<bool> fired_;
};

}  // namespace rcp::net
