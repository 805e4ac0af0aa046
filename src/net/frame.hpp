// Length-prefixed frame codec for the real-network transport.
//
// TCP is a byte stream; the paper's message system delivers discrete
// messages. Frames restore the message boundary: every frame is a 4-byte
// little-endian body length followed by the body, whose first byte is the
// frame type. Three types exist:
//
//   hello  — identity handshake: magic, codec version, cluster size n and
//            the sender's node id. Exchanged once per connection before any
//            data; the id it carries is what the receiving node stamps as
//            Envelope::sender, giving the authenticated-identity guarantee
//            the paper's malicious model requires.
//   data   — one protocol payload (the same bytes a sim::Process hands to
//            Context::send), tagged with a per-link sequence number for the
//            reliable-delivery machinery (go-back-N retransmission and
//            dedupe after a reconnect).
//   ack    — cumulative acknowledgement of a link's data stream; the
//            sender retains frames until they are acked.
//
// Decoding is defensive end to end: an oversized length, an unknown type, a
// bad magic or a truncated body all throw DecodeError (the connection is
// then closed — transport-level garbage never reaches a protocol).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace rcp::net {

enum class FrameType : std::uint8_t {
  hello = 1,
  data = 2,
  ack = 3,
};

/// "RCPN" — rejects cross-talk from anything that is not this codec.
inline constexpr std::uint32_t kHelloMagic = 0x5243504e;
inline constexpr std::uint8_t kWireVersion = 1;

/// Upper bound on a frame body. Protocol messages are tens of bytes; the
/// bound exists so a malicious or corrupted length prefix cannot make a
/// receiver buffer gigabytes. Chosen comfortably above the largest
/// multivalued proposal the repo ever encodes.
inline constexpr std::uint32_t kMaxFrameBody = 1u << 20;

/// One decoded frame. `node_id`/`n` are meaningful for hello frames,
/// `seq` for data (sequence number) and ack (cumulative acked sequence),
/// `payload` for data.
struct Frame {
  FrameType type = FrameType::data;
  std::uint32_t node_id = 0;
  std::uint32_t n = 0;
  std::uint64_t seq = 0;
  Bytes payload;
};

// ---- Encoders: append one complete frame to a stream buffer -----------

void append_hello(std::vector<std::byte>& out, std::uint32_t node_id,
                  std::uint32_t n);
void append_data(std::vector<std::byte>& out, std::uint64_t seq,
                 const Bytes& payload);
void append_ack(std::vector<std::byte>& out, std::uint64_t acked_seq);

/// Everything in a data frame that precedes the payload bytes: length
/// prefix (4), type (1), sequence number (8). Precomputed per queued
/// frame so the send path can gather header + payload with writev and
/// never re-encode or copy the payload.
inline constexpr std::size_t kDataFrameHeader = 4 + 1 + 8;

/// Encodes the data-frame header for a payload of `payload_size` bytes.
/// Throws if the payload exceeds kMaxFrameBody.
void encode_data_header(std::span<std::byte, kDataFrameHeader> out,
                        std::uint64_t seq, std::size_t payload_size);

/// Incremental frame parser. feed() appends raw bytes from the socket (in
/// any fragmentation — frames may arrive split across arbitrarily many
/// reads or many per read); next() yields complete frames in order.
/// Throws DecodeError on an oversized length, unknown type, bad
/// magic/version or a body that does not match its type's layout. After a
/// throw the stream is unusable and the connection must be dropped.
class FrameDecoder {
 public:
  void feed(std::span<const std::byte> data);

  /// The next complete frame, or nullopt if more bytes are needed.
  [[nodiscard]] std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
};

}  // namespace rcp::net
