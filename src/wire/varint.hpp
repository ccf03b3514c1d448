// Base-128 varint and ZigZag codecs — the primitive layer of the telemetry
// wire format (paper §2: statistics protocols are "built with Google
// Protocol Buffers to minimize reporting overhead"; we implement the same
// encoding from scratch).
//
// Everything here is defined inline: the codecs run once per encoded field
// (tens of millions of calls per fleet harvest), and the per-call overhead
// of an out-of-line function dominated the actual bit twiddling in profiles.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace wlm::wire {

/// Appends the varint encoding of v (1-10 bytes) to out. Single-byte values
/// (field tags, small counters — the bulk of this wire) take the early
/// return; the multibyte loop sticks to push_back, whose inlined
/// capacity-check beats the library's out-of-line range-insert for these
/// tiny appends.
inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  if (v < 0x80) {
    out.push_back(static_cast<std::uint8_t>(v));
    return;
  }
  do {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  } while (v >= 0x80);
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Raw-pointer varint write for specialized encoders: writes v at p, which
/// has room for varint_size(v) bytes, and returns the advanced pointer.
/// Same bytes as put_varint.
inline std::uint8_t* raw_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Raw-pointer varint parse for specialized message decoders: reads one
/// varint starting at p, writes it to out, and returns the advanced pointer
/// — or nullptr on truncation / over-long encoding. Accepts exactly the
/// same encodings as get_varint.
[[nodiscard]] inline const std::uint8_t* parse_varint(const std::uint8_t* p,
                                                      const std::uint8_t* end,
                                                      std::uint64_t& out) {
  if (p == end) return nullptr;
  std::uint64_t value = *p & 0x7Fu;
  if ((*p & 0x80u) == 0) {
    out = value;
    return p + 1;
  }
  ++p;
  int shift = 7;
  for (int i = 1; i < 10 && p != end; ++i, ++p) {
    value |= static_cast<std::uint64_t>(*p & 0x7Fu) << shift;
    if ((*p & 0x80u) == 0) {
      out = value;
      return p + 1;
    }
    shift += 7;
  }
  return nullptr;  // truncated or over-long
}

/// Decoded value plus the number of bytes consumed.
struct VarintResult {
  std::uint64_t value = 0;
  std::size_t consumed = 0;
};

/// Reads a varint from the front of `in`. Returns nullopt on truncation or
/// an over-long (>10 byte) encoding.
[[nodiscard]] inline std::optional<VarintResult> get_varint(std::span<const std::uint8_t> in) {
  // Fast path: single-byte varints are the overwhelming majority of tags
  // and small field values on this wire.
  if (!in.empty() && (in[0] & 0x80) == 0) {
    return VarintResult{in[0], 1};
  }
  std::uint64_t value = 0;
  int shift = 0;
  for (std::size_t i = 0; i < in.size() && i < 10; ++i) {
    value |= static_cast<std::uint64_t>(in[i] & 0x7F) << shift;
    if ((in[i] & 0x80) == 0) {
      return VarintResult{value, i + 1};
    }
    shift += 7;
  }
  return std::nullopt;  // truncated or over-long
}

/// ZigZag maps signed to unsigned so small negatives stay small on the wire.
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Number of bytes put_varint would write: one per started 7-bit group.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

}  // namespace wlm::wire
