#include "extensions/reliable_broadcast.hpp"

#include "common/error.hpp"

namespace rcp::ext {

namespace {
constexpr std::uint8_t kRbTagBase = 20;  // 20 initial, 21 echo, 22 ready

// RbMsg and the engine's RbxMsg number their kinds alike, so a kind
// converts between the two by a cast.
static_assert(static_cast<int>(RbMsg::Kind::echo) ==
                  static_cast<int>(RbxMsg::Kind::echo) &&
              static_cast<int>(RbMsg::Kind::ready) ==
                  static_cast<int>(RbxMsg::Kind::ready));
}  // namespace

Bytes RbMsg::encode() const {
  ByteWriter w(2);
  w.u8(static_cast<std::uint8_t>(kRbTagBase + static_cast<std::uint8_t>(kind)))
      .u8(static_cast<std::uint8_t>(value));
  return std::move(w).take();
}

RbMsg RbMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  const std::uint8_t tag = r.u8();
  if (tag < kRbTagBase || tag > kRbTagBase + 2) {
    throw DecodeError("not a reliable-broadcast message");
  }
  const std::uint8_t raw_value = r.u8();
  r.expect_done();
  if (raw_value > 1) {
    throw DecodeError("value field out of range");
  }
  return RbMsg{.kind = static_cast<RbMsg::Kind>(tag - kRbTagBase),
               .value = value_from_int(raw_value)};
}

std::unique_ptr<ReliableBroadcast> ReliableBroadcast::make(
    core::ConsensusParams params, ProcessId self, ProcessId designated_sender,
    Value value) {
  params.validate(core::FaultModel::malicious);
  RCP_EXPECT(self < params.n && designated_sender < params.n,
             "process ids must lie in [0, n)");
  return std::unique_ptr<ReliableBroadcast>(
      // rcp-lint: allow(hot-alloc) factory constructs the process once
      new ReliableBroadcast(params, self, designated_sender, value));
}

ReliableBroadcast::ReliableBroadcast(core::ConsensusParams params,
                                     ProcessId self,
                                     ProcessId designated_sender, Value value)
    : n_(params.n),
      self_(self),
      sender_(designated_sender),
      value_(value),
      engine_(params) {}

void ReliableBroadcast::on_start(sim::Context& ctx) {
  if (self_ == sender_) {
    ctx.broadcast(RbMsg{.kind = RbMsg::Kind::initial, .value = value_}.encode());
  }
}

void ReliableBroadcast::on_message(sim::Context& ctx,
                                   const sim::Envelope& env) {
  RbMsg msg;
  try {
    msg = RbMsg::decode(env.payload);
  } catch (const DecodeError&) {
    return;
  }
  if (env.sender >= n_) {
    return;  // no transport produces one; the engine's vote gates need < n
  }
  const auto out = engine_.handle(
      env.sender, RbxMsg{.kind = static_cast<RbxMsg::Kind>(msg.kind),
                         .origin = sender_,
                         .tag = 0,
                         .value = to_rb_value(msg.value)});
  for (const RbxMsg& m : out.to_broadcast) {
    sent_ready_ = sent_ready_ || m.kind == RbxMsg::Kind::ready;
    ctx.broadcast(RbMsg{.kind = static_cast<RbMsg::Kind>(m.kind),
                        .value = value_from_int(static_cast<int>(m.value))}
                      .encode());
  }
  if (out.delivered.has_value()) {
    delivered_ = value_from_int(static_cast<int>(out.delivered->value));
    ctx.decide(*delivered_);
  }
}

}  // namespace rcp::ext
