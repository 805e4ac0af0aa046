// Byte-level encoding helpers for protocol wire formats.
//
// The simulated message system (sim/) carries opaque byte payloads, exactly
// as a real network would; each protocol defines typed messages and encodes
// them through these little-endian writers/readers. Decoders throw
// DecodeError on malformed input so that fuzz/corruption tests can assert
// graceful failure instead of undefined behaviour.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/error.hpp"
#include "common/payload.hpp"

namespace rcp {

/// Wire payloads are small-buffer-optimized (see common/payload.hpp): every
/// protocol message fits Payload's inline capacity, so encoding and carrying
/// a message never allocates.
using Bytes = Payload;

/// Writes `v` at `p` as sizeof(T) little-endian bytes (`p` needs no
/// alignment) and returns the cursor just past them. Every codec in the
/// tree, down to the transport's frame headers, writes through this.
template <std::unsigned_integral T>
inline std::byte* store_le(std::byte* p, T v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::byte>(v >> (8 * i));
    }
  }
  return p + sizeof(T);
}

/// Reads sizeof(T) little-endian bytes at `p`. Unchecked: the caller has
/// already bounded the read.
template <std::unsigned_integral T>
[[nodiscard]] inline T load_le(const std::byte* p) noexcept {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(std::to_integer<T>(p[i]) << (8 * i));
    }
  }
  return v;
}

/// Appends fixed-width little-endian integers to a byte buffer, a whole
/// field (one capacity check) per call.
class ByteWriter {
 public:
  explicit ByteWriter(std::size_t reserve_hint = 16) { out_.reserve(reserve_hint); }

  ByteWriter& u8(std::uint8_t v) { return put(v); }
  ByteWriter& u32(std::uint32_t v) { return put(v); }
  ByteWriter& u64(std::uint64_t v) { return put(v); }

  [[nodiscard]] Bytes take() && { return std::move(out_); }

 private:
  template <std::unsigned_integral T>
  ByteWriter& put(T v) {
    store_le(out_.extend(sizeof(T)), v);
    return *this;
  }

  Bytes out_;
};

/// Consumes fixed-width little-endian integers from a byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) noexcept : data_(data) {}
  explicit ByteReader(const Payload& payload) noexcept
      : data_(payload.span()) {}

  [[nodiscard]] std::uint8_t u8() { return get<std::uint8_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

  /// Throws DecodeError unless the entire payload was consumed.
  void expect_done() const {
    if (pos_ != data_.size()) {
      throw DecodeError("trailing bytes after message payload");
    }
  }

 private:
  template <std::unsigned_integral T>
  [[nodiscard]] T get() {
    if (data_.size() - pos_ < sizeof(T)) {
      throw DecodeError("message payload truncated");
    }
    const T v = load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace rcp
