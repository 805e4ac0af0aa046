// Pinned wire bytes: every codec's output for fixed inputs, written out as
// literal hex. Round-trip tests accept any self-consistent layout and the
// trace-digest goldens hash payload sizes, not bytes, so this file is what
// holds the wire format still — a change of byte order, field order or tag
// value fails here even when encoder and decoder change together.
//
// Field values are chosen so every byte of a multi-byte field differs,
// which makes a swapped or mis-sized field visible in the diff.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "baselines/benor.hpp"
#include "core/messages.hpp"
#include "extensions/rb_engine.hpp"
#include "net/frame.hpp"

namespace rcp {
namespace {

constexpr std::uint64_t kWide64 = 0x0102030405060708ULL;
constexpr std::uint64_t kOther64 = 0x1122334455667788ULL;
constexpr std::uint32_t kWide32 = 0x0a0b0c0dU;

/// Lower-case hex, one space between bytes.
std::string hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::byte b : bytes) {
    if (!out.empty()) {
      out += ' ';
    }
    const auto v = std::to_integer<unsigned>(b);
    out += kDigits[v >> 4];
    out += kDigits[v & 0xf];
  }
  return out;
}

std::string hex(const Bytes& payload) { return hex(payload.span()); }

TEST(WireBytes, FailStopMsg) {
  const core::FailStopMsg msg{
      .phase = kWide64, .value = Value::one, .cardinality = 0x11223344U};
  EXPECT_EQ(hex(msg.encode()),
            "01 08 07 06 05 04 03 02 01 01 44 33 22 11");
}

TEST(WireBytes, EchoProtocolMsg) {
  const core::EchoProtocolMsg initial{
      .is_echo = false, .from = kWide32, .value = Value::zero, .phase = kWide64};
  EXPECT_EQ(hex(initial.encode()),
            "02 0d 0c 0b 0a 00 08 07 06 05 04 03 02 01");
  const core::EchoProtocolMsg echo{
      .is_echo = true, .from = kWide32, .value = Value::one, .phase = kWide64};
  EXPECT_EQ(hex(echo.encode()),
            "03 0d 0c 0b 0a 01 08 07 06 05 04 03 02 01");
}

TEST(WireBytes, MajorityMsg) {
  const core::MajorityMsg msg{.phase = kWide64, .value = Value::one};
  EXPECT_EQ(hex(msg.encode()), "04 08 07 06 05 04 03 02 01 01");
}

TEST(WireBytes, RbxMsg) {
  const ext::RbxMsg msg{.kind = ext::RbxMsg::Kind::echo,
                        .origin = kWide32,
                        .tag = kOther64,
                        .value = kWide64};
  EXPECT_EQ(hex(msg.encode()),
            "29 0d 0c 0b 0a 88 77 66 55 44 33 22 11 "
            "08 07 06 05 04 03 02 01");
}

TEST(WireBytes, RbxBatchOfThree) {
  const std::vector<ext::RbxMsg> msgs = {
      {.kind = ext::RbxMsg::Kind::initial, .origin = 1, .tag = 0x100, .value = 0},
      {.kind = ext::RbxMsg::Kind::echo,
       .origin = kWide32,
       .tag = kOther64,
       .value = kWide64},
      {.kind = ext::RbxMsg::Kind::ready,
       .origin = 6,
       .tag = ~std::uint64_t{1},
       .value = 2},
  };
  EXPECT_EQ(hex(ext::RbxBatch::encode(msgs)),
            "2b 03 00 00 00 "
            "00 01 00 00 00 00 01 00 00 00 00 00 00 "
            "00 00 00 00 00 00 00 00 "
            "01 0d 0c 0b 0a 88 77 66 55 44 33 22 11 "
            "08 07 06 05 04 03 02 01 "
            "02 06 00 00 00 fe ff ff ff ff ff ff ff "
            "02 00 00 00 00 00 00 00");
}

TEST(WireBytes, BenOrWireMsg) {
  using baselines::BenOrConsensus;
  EXPECT_EQ(hex(BenOrConsensus::encode_wire(
                {.stage = 0, .round = kWide64, .val = 1})),
            "0a 08 07 06 05 04 03 02 01 01");
  EXPECT_EQ(hex(BenOrConsensus::encode_wire(
                {.stage = 1, .round = kWide64, .val = 2})),
            "0b 08 07 06 05 04 03 02 01 02");
}

TEST(WireBytes, HelloFrame) {
  std::vector<std::byte> out;
  net::append_hello(out, kWide32, 7);
  EXPECT_EQ(hex(out),
            "0e 00 00 00 01 4e 50 43 52 01 07 00 00 00 0d 0c 0b 0a");
}

TEST(WireBytes, DataFrameAndHeader) {
  const Bytes payload{std::byte{0xaa}, std::byte{0xbb}, std::byte{0xcc}};
  std::vector<std::byte> out;
  net::append_data(out, kWide64, payload);
  EXPECT_EQ(hex(out),
            "0c 00 00 00 02 08 07 06 05 04 03 02 01 aa bb cc");

  std::array<std::byte, net::kDataFrameHeader> header{};
  net::encode_data_header(header, kWide64, payload.size());
  EXPECT_EQ(hex(header), "0c 00 00 00 02 08 07 06 05 04 03 02 01");
}

TEST(WireBytes, AckFrame) {
  std::vector<std::byte> out;
  net::append_ack(out, kOther64);
  EXPECT_EQ(hex(out), "09 00 00 00 03 88 77 66 55 44 33 22 11");
}

TEST(WireBytes, FramesAppendToExistingBytes) {
  // Encoders append: a frame lands after whatever the buffer already holds.
  std::vector<std::byte> out{std::byte{0xee}};
  net::append_ack(out, 1);
  EXPECT_EQ(hex(out), "ee 09 00 00 00 03 01 00 00 00 00 00 00 00");
}

}  // namespace
}  // namespace rcp
