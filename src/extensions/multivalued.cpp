#include "extensions/multivalued.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rcp::ext {

namespace {

constexpr std::uint8_t kPropInitial = 50;
constexpr std::uint8_t kPropEcho = 51;
constexpr std::uint8_t kPropReady = 52;
constexpr std::uint8_t kSlotWrapped = 53;
constexpr std::size_t kMaxProposalBytes = 64 * 1024;

struct PropMsg {
  std::uint8_t kind = kPropInitial;
  ProcessId origin = 0;
  Bytes body;
};

Bytes encode_prop(const PropMsg& msg) {
  ByteWriter w(9 + msg.body.size());
  w.u8(msg.kind).u32(msg.origin).u32(static_cast<std::uint32_t>(msg.body.size()));
  Bytes out = std::move(w).take();
  out.insert(out.end(), msg.body.begin(), msg.body.end());
  return out;
}

PropMsg decode_prop(const Bytes& payload) {
  ByteReader r(payload);
  PropMsg msg;
  msg.kind = r.u8();
  if (msg.kind < kPropInitial || msg.kind > kPropReady) {
    throw DecodeError("not a proposal-broadcast message");
  }
  msg.origin = r.u32();
  const std::uint32_t len = r.u32();
  if (len > kMaxProposalBytes || len != r.remaining()) {
    throw DecodeError("bad proposal length");
  }
  msg.body.assign(payload.end() - len, payload.end());
  return msg;
}

Bytes wrap_slot(std::uint64_t slot, const Bytes& inner) {
  ByteWriter w(9 + inner.size());
  w.u8(kSlotWrapped).u64(slot);
  Bytes out = std::move(w).take();
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

std::string body_key(const Bytes& body) {
  return std::string(reinterpret_cast<const char*>(body.data()), body.size());
}

}  // namespace

// ---- ProposalRb ------------------------------------------------------------

Bytes ProposalRb::encode_initial(ProcessId self, const Bytes& proposal) {
  return encode_prop(
      PropMsg{.kind = kPropInitial, .origin = self, .body = proposal});
}

bool ProposalRb::is_proposal_msg(const Bytes& payload) {
  if (payload.empty()) {
    return false;
  }
  const auto tag = static_cast<std::uint8_t>(payload.front());
  return tag >= kPropInitial && tag <= kPropReady;
}

ProposalRb::Outcome ProposalRb::handle(ProcessId sender, const Bytes& payload) {
  Outcome out;
  const PropMsg msg = decode_prop(payload);
  if (msg.origin >= params_.n) {
    return out;  // Byzantine wire field: no such process, no instance
  }
  Instance& inst = instances_[msg.origin];
  switch (msg.kind) {
    case kPropInitial: {
      if (sender != msg.origin || inst.echoed) {
        return out;  // forged origin, or already echoed the first version
      }
      inst.echoed = true;
      out.to_broadcast.push_back(encode_prop(
          PropMsg{.kind = kPropEcho, .origin = msg.origin, .body = msg.body}));
      return out;
    }
    case kPropEcho: {
      if (!inst.echoers.insert(sender).second) {
        return out;  // one echo per echoer per origin
      }
      auto& from = inst.echo_from[body_key(msg.body)];
      from.insert(sender);
      if (from.size() >= params_.echo_acceptance_threshold() &&
          !inst.ready_sent) {
        inst.ready_sent = true;
        out.to_broadcast.push_back(encode_prop(PropMsg{
            .kind = kPropReady, .origin = msg.origin, .body = msg.body}));
      }
      return out;
    }
    case kPropReady: {
      if (!inst.readiers.insert(sender).second) {
        return out;
      }
      auto& from = inst.ready_from[body_key(msg.body)];
      from.insert(sender);
      if (from.size() >= params_.ready_amplification_threshold() &&
          !inst.ready_sent) {
        inst.ready_sent = true;
        out.to_broadcast.push_back(encode_prop(PropMsg{
            .kind = kPropReady, .origin = msg.origin, .body = msg.body}));
      }
      if (from.size() >= params_.ready_delivery_threshold() &&
          delivered_.find(msg.origin) == delivered_.end()) {
        delivered_.emplace(msg.origin, msg.body);
        out.delivered = std::make_pair(msg.origin, msg.body);
      }
      return out;
    }
    default:
      return out;
  }
}

std::optional<Bytes> ProposalRb::delivered(ProcessId origin) const {
  const auto it = delivered_.find(origin);
  if (it == delivered_.end()) {
    return std::nullopt;
  }
  return it->second;
}

// ---- MultiValuedConsensus ---------------------------------------------------

/// Context wrapper handed to a slot's binary instance: sends are wrapped
/// with the slot id, and the instance's binary decide() is swallowed (the
/// binary outcome is read back through MaliciousConsensus::decision(); only
/// the multivalued layer decides at the simulator level).
class MultiValuedConsensus::SlotContext final : public sim::Context {
 public:
  SlotContext(sim::Context& outer, std::uint64_t slot) noexcept
      : outer_(outer), slot_(slot) {}

  [[nodiscard]] ProcessId self() const noexcept override {
    return outer_.self();
  }
  [[nodiscard]] std::uint32_t n() const noexcept override {
    return outer_.n();
  }
  [[nodiscard]] std::uint64_t step() const noexcept override {
    return outer_.step();
  }

  void send(ProcessId to, Bytes payload) override {
    outer_.send(to, wrap_slot(slot_, payload));
  }

  void broadcast(const Bytes& payload) override {
    const Bytes wrapped = wrap_slot(slot_, payload);
    for (ProcessId q = 0; q < outer_.n(); ++q) {
      outer_.send(q, wrapped);
    }
  }

  void decide(Value /*v*/) override {
    // Intentionally swallowed; see class comment.
  }

  [[nodiscard]] Rng& rng() noexcept override { return outer_.rng(); }

 private:
  sim::Context& outer_;
  std::uint64_t slot_;
};

std::unique_ptr<MultiValuedConsensus> MultiValuedConsensus::make(
    core::ConsensusParams params, Bytes proposal) {
  params.validate(core::FaultModel::malicious);
  RCP_EXPECT(proposal.size() <= kMaxProposalBytes,
             "proposal exceeds 64 KiB");
  return std::unique_ptr<MultiValuedConsensus>(
      new MultiValuedConsensus(params, std::move(proposal)));
}

MultiValuedConsensus::MultiValuedConsensus(core::ConsensusParams params,
                                           Bytes proposal) noexcept
    : params_(params), proposal_(std::move(proposal)), rb_(params) {}

void MultiValuedConsensus::on_start(sim::Context& ctx) {
  ctx.broadcast(ProposalRb::encode_initial(ctx.self(), proposal_));
  open_current_slot(ctx);
  reconcile(ctx);
}

void MultiValuedConsensus::open_current_slot(sim::Context& ctx) {
  RCP_INVARIANT(slots_.size() == current_slot_, "slot opened out of order");
  const Value input =
      rb_.delivered(slot_origin(current_slot_)).has_value() ? Value::one
                                                            : Value::zero;
  slots_.push_back(core::MaliciousConsensus::make(params_, input));
  SlotContext sctx(ctx, current_slot_);
  slots_.back()->on_start(sctx);
  // Replay anything that arrived for this slot before we opened it.
  const auto it = deferred_.find(current_slot_);
  if (it != deferred_.end()) {
    const std::vector<sim::Envelope> backlog = std::move(it->second);
    deferred_.erase(it);
    for (const sim::Envelope& env : backlog) {
      slots_.back()->on_message(sctx, env);
    }
  }
}

void MultiValuedConsensus::reconcile(sim::Context& ctx) {
  for (;;) {
    if (decided_proposal_.has_value()) {
      return;
    }
    if (winning_slot_.has_value()) {
      // Waiting for the winner's proposal bytes (RB totality guarantees
      // they arrive: some correct process voted 1, so it delivered them).
      const auto bytes = rb_.delivered(*winning_origin_);
      if (!bytes.has_value()) {
        return;
      }
      decided_proposal_ = bytes;
      ctx.decide(Value::one);  // completion marker for the simulator
      return;
    }
    const auto decision = slots_[current_slot_]->decision();
    if (!decision.has_value()) {
      return;
    }
    if (*decision == Value::one) {
      winning_slot_ = current_slot_;
      winning_origin_ = slot_origin(current_slot_);
      continue;
    }
    current_slot_ += 1;
    open_current_slot(ctx);
  }
}

void MultiValuedConsensus::on_message(sim::Context& ctx,
                                      const sim::Envelope& env) {
  if (ProposalRb::is_proposal_msg(env.payload)) {
    ProposalRb::Outcome outcome;
    try {
      outcome = rb_.handle(env.sender, env.payload);
    } catch (const DecodeError&) {
      return;
    }
    for (const Bytes& reply : outcome.to_broadcast) {
      ctx.broadcast(reply);
    }
    if (outcome.delivered.has_value()) {
      reconcile(ctx);
    }
    return;
  }
  // Slot-wrapped binary-protocol traffic.
  if (env.payload.empty() ||
      static_cast<std::uint8_t>(env.payload.front()) != kSlotWrapped) {
    return;  // unknown tag; drop
  }
  std::uint64_t slot = 0;
  Bytes inner;
  try {
    ByteReader r(env.payload);
    (void)r.u8();
    slot = r.u64();
    inner.assign(env.payload.begin() + 9, env.payload.end());
  } catch (const DecodeError&) {
    return;
  }
  sim::Envelope unwrapped = env;
  unwrapped.payload = std::move(inner);
  if (slot >= slots_.size()) {
    deferred_[slot].push_back(std::move(unwrapped));
    return;
  }
  SlotContext sctx(ctx, slot);
  slots_[slot]->on_message(sctx, unwrapped);
  reconcile(ctx);
}

}  // namespace rcp::ext
