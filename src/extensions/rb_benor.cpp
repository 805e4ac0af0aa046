#include "extensions/rb_benor.hpp"

#include <string>

#include "common/error.hpp"

namespace rcp::ext {

std::unique_ptr<RbBenOr> RbBenOr::make(core::ConsensusParams params,
                                       Value initial_value) {
  RCP_EXPECT(params.n >= 1, "need at least one process");
  const std::uint32_t bound = (params.n - 1) / 5;
  RCP_EXPECT(params.k <= bound,
             "k = " + std::to_string(params.k) +
                 " exceeds the RB-Ben-Or bound floor((n-1)/5) = " +
                 std::to_string(bound) + " for n = " + std::to_string(params.n));
  return std::unique_ptr<RbBenOr>(new RbBenOr(params, initial_value));
}

RbBenOr::RbBenOr(core::ConsensusParams params, Value initial_value) noexcept
    : params_(params), value_(initial_value), engine_(params) {}

void RbBenOr::broadcast_rbx(sim::Context& ctx, const RbxMsg& msg) {
  ctx.broadcast(msg.encode());
}

void RbBenOr::on_start(sim::Context& ctx) {
  broadcast_rbx(ctx, engine_.start(ctx.self(), report_tag(),
                                   to_rb_value(value_)));
}

void RbBenOr::on_message(sim::Context& ctx, const sim::Envelope& env) {
  RbxMsg msg;
  try {
    msg = RbxMsg::decode(env.payload);
  } catch (const DecodeError&) {
    return;
  }
  RbEngine::Outcome outcome = engine_.handle(env.sender, msg);
  for (const RbxMsg& reply : outcome.to_broadcast) {
    broadcast_rbx(ctx, reply);
  }
  if (outcome.delivered.has_value()) {
    delivered_[outcome.delivered->tag][outcome.delivered->origin] =
        outcome.delivered->value;
    try_advance(ctx);
  }
}

void RbBenOr::try_advance(sim::Context& ctx) {
  for (;;) {
    const std::uint64_t tag = proposing_ ? propose_tag() : report_tag();
    const auto it = delivered_.find(tag);
    const std::size_t have = it == delivered_.end() ? 0 : it->second.size();
    if (have < params_.wait_quorum()) {
      return;
    }
    if (!proposing_) {
      // Report stage complete: propose the supermajority value, if any.
      std::uint32_t counts[2] = {0, 0};
      for (const auto& [origin, payload] : it->second) {
        if (payload <= kRbValueOne) {
          ++counts[payload];
        }
      }
      RbValue proposal = kRbValueBottom;
      for (const RbValue w : {kRbValueZero, kRbValueOne}) {
        if (2ULL * counts[w] > static_cast<std::uint64_t>(params_.n) +
                                   params_.k) {
          proposal = w;
        }
      }
      proposing_ = true;
      broadcast_rbx(ctx, engine_.start(ctx.self(), propose_tag(), proposal));
      continue;
    }
    // Proposal stage complete: decide / adopt / flip.
    std::uint32_t proposals[2] = {0, 0};
    for (const auto& [origin, payload] : it->second) {
      if (payload <= kRbValueOne) {
        ++proposals[payload];
      }
    }
    const RbValue leader =
        proposals[1] > proposals[0] ? kRbValueOne : kRbValueZero;
    const std::uint32_t leader_count = proposals[leader];
    if (leader_count >= params_.ready_delivery_threshold()) {
      value_ = value_from_int(leader);
      if (!decision_.has_value()) {
        decision_ = value_;
        ctx.decide(value_);
      }
    } else if (leader_count >= params_.k + 1) {
      value_ = value_from_int(leader);
    } else {
      value_ = ctx.rng().bernoulli(0.5) ? Value::one : Value::zero;
      ++coin_flips_;
    }
    round_ += 1;
    proposing_ = false;
    broadcast_rbx(ctx, engine_.start(ctx.self(), report_tag(),
                                     to_rb_value(value_)));
  }
}

}  // namespace rcp::ext
