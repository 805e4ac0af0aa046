// RbxBatch framing (docs/SERVICE.md "Batching"): the cross-instance frame
// that coalesces every engine message of one atomic step into one payload
// per peer. The decoder is a Byzantine surface — every malformed shape a
// babbler can emit must throw DecodeError, never desync or over-read.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "extensions/rb_engine.hpp"

namespace rcp::ext {
namespace {

RbxMsg msg(RbxMsg::Kind kind, ProcessId origin, std::uint64_t tag,
           RbValue v) {
  return RbxMsg{.kind = kind, .origin = origin, .tag = tag, .value = v};
}

std::vector<RbxMsg> decode_all(const Bytes& frame,
                               RbValue max_value = kMaxRbValue) {
  std::vector<RbxMsg> out;
  RbxBatch::decode_into(frame, out, max_value);
  return out;
}

/// encode() takes a span; bridge the test's braced lists.
Bytes enc(std::initializer_list<RbxMsg> msgs) {
  const std::vector<RbxMsg> v(msgs);
  return RbxBatch::encode(v);
}

TEST(RbxBatch, RoundTripsMixedKindsAndWideValues) {
  const std::vector<RbxMsg> in = {
      msg(RbxMsg::Kind::initial, 0, 0, 0),
      msg(RbxMsg::Kind::echo, 6, (std::uint64_t{3} << 48) | 41,
          0xdeadbeefcafeULL),
      msg(RbxMsg::Kind::ready, 2, ~std::uint64_t{0} >> 1,
          ~std::uint64_t{0} - 1),
  };
  const Bytes frame = RbxBatch::encode(in);
  EXPECT_TRUE(RbxBatch::is_batch(frame));

  const std::vector<RbxMsg> out = decode_all(frame, kRbValueAny);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].kind, in[i].kind);
    EXPECT_EQ(out[i].origin, in[i].origin);
    EXPECT_EQ(out[i].tag, in[i].tag);
    EXPECT_EQ(out[i].value, in[i].value);
  }
}

TEST(RbxBatch, SingleMessageBatchRoundTrips) {
  const Bytes frame =
      enc({msg(RbxMsg::Kind::echo, 1, 7, kRbValueOne)});
  const std::vector<RbxMsg> out = decode_all(frame);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].origin, 1u);
}

TEST(RbxBatch, SingleMessagesAreNotBatches) {
  EXPECT_FALSE(
      RbxBatch::is_batch(msg(RbxMsg::Kind::echo, 1, 7, 1).encode()));
  EXPECT_FALSE(RbxBatch::is_batch(Bytes{}));
}

TEST(RbxBatch, RejectsTruncatedFrame) {
  Bytes frame = enc({msg(RbxMsg::Kind::echo, 1, 7, 1),
                     msg(RbxMsg::Kind::ready, 2, 8, 0)});
  frame.pop_back();
  std::vector<RbxMsg> out;
  EXPECT_THROW(RbxBatch::decode_into(frame, out, kMaxRbValue), DecodeError);
}

TEST(RbxBatch, RejectsCountBodyMismatch) {
  // Header claims two messages but carries one: a count/len mismatch must
  // throw, both when the body is short and when it trails extra bytes.
  Bytes frame = enc({msg(RbxMsg::Kind::echo, 1, 7, 1)});
  frame[1] = std::byte{2};  // count is little-endian at offset 1
  std::vector<RbxMsg> out;
  EXPECT_THROW(RbxBatch::decode_into(frame, out, kMaxRbValue), DecodeError);

  Bytes trailing = enc({msg(RbxMsg::Kind::echo, 1, 7, 1)});
  trailing.push_back(std::byte{0});
  EXPECT_THROW(RbxBatch::decode_into(trailing, out, kMaxRbValue),
               DecodeError);
}

TEST(RbxBatch, RejectsZeroAndOversizedCounts) {
  std::vector<RbxMsg> out;
  // count = 0: a batch must carry at least one message.
  Bytes empty = enc({msg(RbxMsg::Kind::echo, 1, 7, 1)});
  empty[1] = std::byte{0};
  empty[2] = std::byte{0};
  empty[3] = std::byte{0};
  empty[4] = std::byte{0};
  empty.resize(5);
  EXPECT_THROW(RbxBatch::decode_into(empty, out, kMaxRbValue), DecodeError);

  // count > kMaxMessages: reject on the header alone — a forged count must
  // not size any buffer.
  Bytes huge(5, std::byte{0});
  huge[0] = std::byte{RbxBatch::kTagByte};
  huge[1] = std::byte{0xff};
  huge[2] = std::byte{0xff};
  huge[3] = std::byte{0xff};
  huge[4] = std::byte{0xff};
  EXPECT_THROW(RbxBatch::decode_into(huge, out, kMaxRbValue), DecodeError);
}

TEST(RbxBatch, RejectsOutOfRangeEntryKind) {
  Bytes frame = enc({msg(RbxMsg::Kind::echo, 1, 7, 1)});
  frame[5] = std::byte{3};  // first entry's kind byte: only 0..2 are legal
  std::vector<RbxMsg> out;
  EXPECT_THROW(RbxBatch::decode_into(frame, out, kMaxRbValue), DecodeError);
}

TEST(RbxBatch, RejectsOutOfRangeEntryValue) {
  const Bytes frame = enc({msg(RbxMsg::Kind::echo, 1, 7, kMaxRbValue + 1)});
  std::vector<RbxMsg> out;
  EXPECT_THROW(RbxBatch::decode_into(frame, out, kMaxRbValue), DecodeError);
  // The same frame is legal under a wider value bound (the KV service).
  EXPECT_EQ(decode_all(frame, kRbValueAny).size(), 1u);
}

TEST(RbxBatch, DecodeIntoAppendsNothingOnFailure) {
  // The replica reuses one scratch vector across frames; a throw midway
  // must not leave phantom messages for the next decode to feed.
  Bytes frame = enc({msg(RbxMsg::Kind::echo, 1, 7, 1),
                     msg(RbxMsg::Kind::ready, 2, 8, 0)});
  frame[5 + 21] = std::byte{7};  // corrupt the second entry's kind
  std::vector<RbxMsg> out;
  EXPECT_THROW(RbxBatch::decode_into(frame, out, kMaxRbValue), DecodeError);
  EXPECT_TRUE(out.empty());
}

TEST(RbxBatch, BadLastEntryLeavesPrefilledOutputAtItsOldSize) {
  // Only the final entry is bad, so every entry before it has already been
  // decoded when the throw comes; all of them must be rolled back, and the
  // messages the caller had in `out` before the call must survive.
  Bytes frame = enc({msg(RbxMsg::Kind::initial, 0, 1, 0),
                     msg(RbxMsg::Kind::echo, 1, 7, 1),
                     msg(RbxMsg::Kind::ready, 2, 8, 0)});
  frame[5 + 2 * 21] = std::byte{3};  // the third entry's kind
  std::vector<RbxMsg> out = {msg(RbxMsg::Kind::echo, 5, 99, 1),
                             msg(RbxMsg::Kind::ready, 6, 100, 0)};
  EXPECT_THROW(RbxBatch::decode_into(frame, out, kMaxRbValue), DecodeError);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].origin, 5u);
  EXPECT_EQ(out[0].tag, 99u);
  EXPECT_EQ(out[1].origin, 6u);
  EXPECT_EQ(out[1].tag, 100u);
}

}  // namespace
}  // namespace rcp::ext
