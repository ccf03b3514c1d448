#include "wire/messages.hpp"

#include <cstring>

#include "wire/decoder.hpp"
#include "wire/encoder.hpp"

namespace wlm::wire {

namespace {

// ApReport field numbers.
constexpr std::uint32_t kFApId = 1;
constexpr std::uint32_t kFTimestamp = 2;
constexpr std::uint32_t kFFirmware = 3;
constexpr std::uint32_t kFUsage = 4;
constexpr std::uint32_t kFUtilization = 5;
constexpr std::uint32_t kFNeighbor = 6;
constexpr std::uint32_t kFLink = 7;
constexpr std::uint32_t kFClient = 8;
// Mesh backhaul accounting (appended; emitted only when nonzero so wired
// reports keep their historical bytes).
constexpr std::uint32_t kFMeshHops = 9;
constexpr std::uint32_t kFMeshRelayUs = 10;

// --- specialized hot-row codecs -------------------------------------------
//
// Usage rows and client snapshots are the two sub-messages a fleet harvest
// carries millions of; the generic Encoder/Decoder field machinery spends
// more time on per-field bookkeeping than on the bytes. The emitters below
// assemble one row in a stack buffer with unchecked stores and hand it to
// the parent as a single length-delimited field; the parsers walk the
// expected tag sequence with raw pointers and fall back to the generic
// field loop on any deviation (old firmware, reordered or corrupt fields).
// Both produce/accept byte-for-byte the same wire as the generic path.

// Single-byte tags our encoder writes (field <= 8 always fits one byte).
constexpr std::uint8_t tag_byte(std::uint32_t field, WireType type) {
  return static_cast<std::uint8_t>(make_tag(field, type));
}

// The encode_* helpers write into a caller-owned scratch encoder instead of
// returning a fresh one: a usage report carries millions of sub-messages
// fleet-wide, and reusing one buffer keeps its capacity across rows. The
// bytes produced are identical to building a fresh encoder per row.

/// Emits one usage row straight into the parent as field kFUsage. Bytes are
/// identical to building the row with Encoder::add_uint field by field.
void encode_usage_into(const ClientUsage& u, Encoder& parent) {
  std::uint8_t tmp[48];  // 4 single-byte tags + 4 varints of <= 10 bytes
  std::uint8_t* p = tmp;
  *p++ = tag_byte(1, WireType::kVarint);
  p = raw_varint(p, u.client.to_u64());
  *p++ = tag_byte(2, WireType::kVarint);
  p = raw_varint(p, u.app_id);
  *p++ = tag_byte(3, WireType::kVarint);
  p = raw_varint(p, u.tx_bytes);
  *p++ = tag_byte(4, WireType::kVarint);
  p = raw_varint(p, u.rx_bytes);
  parent.add_bytes(kFUsage, {tmp, static_cast<std::size_t>(p - tmp)});
}

std::optional<ClientUsage> decode_usage_generic(std::span<const std::uint8_t> data) {
  ClientUsage u;
  Decoder d(data);
  while (auto f = d.next()) {
    switch (f->number) {
      case 1:
        u.client = MacAddress::from_u64(f->as_uint());
        break;
      case 2:
        u.app_id = static_cast<std::uint32_t>(f->as_uint());
        break;
      case 3:
        u.tx_bytes = f->as_uint();
        break;
      case 4:
        u.rx_bytes = f->as_uint();
        break;
      default:
        break;  // forward compatibility
    }
  }
  if (!d.ok()) return std::nullopt;
  return u;
}

std::optional<ClientUsage> decode_usage(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  constexpr std::uint8_t kTags[4] = {
      tag_byte(1, WireType::kVarint), tag_byte(2, WireType::kVarint),
      tag_byte(3, WireType::kVarint), tag_byte(4, WireType::kVarint)};
  std::uint64_t field[4];
  for (int i = 0; i < 4; ++i) {
    if (p == end || *p != kTags[i]) return decode_usage_generic(data);
    p = parse_varint(p + 1, end, field[i]);
    if (p == nullptr) return decode_usage_generic(data);
  }
  if (p != end) return decode_usage_generic(data);
  ClientUsage u;
  u.client = MacAddress::from_u64(field[0]);
  u.app_id = static_cast<std::uint32_t>(field[1]);
  u.tx_bytes = field[2];
  u.rx_bytes = field[3];
  return u;
}

void encode_util(const ChannelUtilization& c, Encoder& e) {
  e.clear();
  e.add_uint(1, c.band);
  e.add_sint(2, c.channel);
  e.add_uint(3, c.cycle_us);
  e.add_uint(4, c.busy_us);
  e.add_uint(5, c.rx_frame_us);
  e.add_uint(6, c.tx_us);
}

std::optional<ChannelUtilization> decode_util(std::span<const std::uint8_t> data) {
  ChannelUtilization c;
  Decoder d(data);
  while (auto f = d.next()) {
    switch (f->number) {
      case 1:
        c.band = static_cast<std::uint8_t>(f->as_uint());
        break;
      case 2:
        c.channel = static_cast<std::int32_t>(f->as_sint());
        break;
      case 3:
        c.cycle_us = f->as_uint();
        break;
      case 4:
        c.busy_us = f->as_uint();
        break;
      case 5:
        c.rx_frame_us = f->as_uint();
        break;
      case 6:
        c.tx_us = f->as_uint();
        break;
      default:
        break;
    }
  }
  if (!d.ok()) return std::nullopt;
  return c;
}

void encode_neighbor(const NeighborBss& n, Encoder& e) {
  e.clear();
  e.add_uint(1, n.bssid.to_u64());
  e.add_uint(2, n.band);
  e.add_sint(3, n.channel);
  e.add_double(4, n.rssi_dbm);
  e.add_bool(5, n.is_hotspot);
  e.add_bool(6, n.is_same_fleet);
}

std::optional<NeighborBss> decode_neighbor(std::span<const std::uint8_t> data) {
  NeighborBss n;
  Decoder d(data);
  while (auto f = d.next()) {
    switch (f->number) {
      case 1:
        n.bssid = MacAddress::from_u64(f->as_uint());
        break;
      case 2:
        n.band = static_cast<std::uint8_t>(f->as_uint());
        break;
      case 3:
        n.channel = static_cast<std::int32_t>(f->as_sint());
        break;
      case 4:
        n.rssi_dbm = f->as_double();
        break;
      case 5:
        n.is_hotspot = f->as_bool();
        break;
      case 6:
        n.is_same_fleet = f->as_bool();
        break;
      default:
        break;
    }
  }
  if (!d.ok()) return std::nullopt;
  return n;
}

void encode_link(const LinkProbeWindow& l, Encoder& e) {
  e.clear();
  e.add_uint(1, l.from_ap);
  e.add_uint(2, l.band);
  e.add_sint(3, l.channel);
  e.add_uint(4, l.probes_expected);
  e.add_uint(5, l.probes_received);
}

std::optional<LinkProbeWindow> decode_link(std::span<const std::uint8_t> data) {
  LinkProbeWindow l;
  Decoder d(data);
  while (auto f = d.next()) {
    switch (f->number) {
      case 1:
        l.from_ap = static_cast<std::uint32_t>(f->as_uint());
        break;
      case 2:
        l.band = static_cast<std::uint8_t>(f->as_uint());
        break;
      case 3:
        l.channel = static_cast<std::int32_t>(f->as_sint());
        break;
      case 4:
        l.probes_expected = static_cast<std::uint32_t>(f->as_uint());
        break;
      case 5:
        l.probes_received = static_cast<std::uint32_t>(f->as_uint());
        break;
      default:
        break;
    }
  }
  if (!d.ok()) return std::nullopt;
  return l;
}

/// Emits one client snapshot straight into the parent as field kFClient;
/// bytes identical to the generic add_uint/add_double sequence.
void encode_client_into(const ClientSnapshot& c, Encoder& parent) {
  std::uint8_t tmp[64];  // 5 single-byte tags + 4 varints + 1 fixed64
  std::uint8_t* p = tmp;
  *p++ = tag_byte(1, WireType::kVarint);
  p = raw_varint(p, c.client.to_u64());
  *p++ = tag_byte(2, WireType::kVarint);
  p = raw_varint(p, c.capability_bits);
  *p++ = tag_byte(3, WireType::kVarint);
  p = raw_varint(p, c.band);
  *p++ = tag_byte(4, WireType::kFixed64);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &c.rssi_dbm, sizeof bits);
  for (int i = 0; i < 8; ++i) *p++ = static_cast<std::uint8_t>(bits >> (8 * i));
  *p++ = tag_byte(5, WireType::kVarint);
  p = raw_varint(p, c.os_id);
  parent.add_bytes(kFClient, {tmp, static_cast<std::size_t>(p - tmp)});
}

std::optional<ClientSnapshot> decode_client_generic(std::span<const std::uint8_t> data) {
  ClientSnapshot c;
  Decoder d(data);
  while (auto f = d.next()) {
    switch (f->number) {
      case 1:
        c.client = MacAddress::from_u64(f->as_uint());
        break;
      case 2:
        c.capability_bits = static_cast<std::uint32_t>(f->as_uint());
        break;
      case 3:
        c.band = static_cast<std::uint8_t>(f->as_uint());
        break;
      case 4:
        c.rssi_dbm = f->as_double();
        break;
      case 5:
        c.os_id = static_cast<std::uint8_t>(f->as_uint());
        break;
      default:
        break;
    }
  }
  if (!d.ok()) return std::nullopt;
  return c;
}

std::optional<ClientSnapshot> decode_client(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  std::uint64_t client = 0, caps = 0, band = 0, os_id = 0, rssi_bits = 0;
  const auto expect_varint = [&](std::uint8_t tag, std::uint64_t& out) {
    if (p == nullptr || p == end || *p != tag) return false;
    p = parse_varint(p + 1, end, out);
    return p != nullptr;
  };
  if (expect_varint(tag_byte(1, WireType::kVarint), client) &&
      expect_varint(tag_byte(2, WireType::kVarint), caps) &&
      expect_varint(tag_byte(3, WireType::kVarint), band) && p != end &&
      *p == tag_byte(4, WireType::kFixed64) && end - p >= 9) {
    ++p;
    for (int i = 7; i >= 0; --i) rssi_bits = (rssi_bits << 8) | p[i];
    p += 8;
    if (expect_varint(tag_byte(5, WireType::kVarint), os_id) && p == end) {
      ClientSnapshot c;
      c.client = MacAddress::from_u64(client);
      c.capability_bits = static_cast<std::uint32_t>(caps);
      c.band = static_cast<std::uint8_t>(band);
      std::memcpy(&c.rssi_dbm, &rssi_bits, sizeof c.rssi_dbm);
      c.os_id = static_cast<std::uint8_t>(os_id);
      return c;
    }
  }
  return decode_client_generic(data);
}

}  // namespace

void encode_report_into(const ApReport& report, Encoder& e) {
  e.clear();
  e.add_uint(kFApId, report.ap_id);
  e.add_sint(kFTimestamp, report.timestamp_us);
  e.add_uint(kFFirmware, report.firmware);
  // Usage rows and client snapshots take the stack-buffer emitters (they are
  // the ~millions-per-harvest rows); the low-cardinality sub-messages keep
  // the shared child encoder.
  for (const auto& u : report.usage) encode_usage_into(u, e);
  Encoder child;
  for (const auto& c : report.utilization) {
    encode_util(c, child);
    e.add_message(kFUtilization, child);
  }
  for (const auto& n : report.neighbors) {
    encode_neighbor(n, child);
    e.add_message(kFNeighbor, child);
  }
  for (const auto& l : report.links) {
    encode_link(l, child);
    e.add_message(kFLink, child);
  }
  for (const auto& c : report.clients) encode_client_into(c, e);
  if (report.mesh_hops != 0) {
    e.add_uint(kFMeshHops, report.mesh_hops);
    e.add_uint(kFMeshRelayUs, report.mesh_relay_us);
  }
}

std::vector<std::uint8_t> encode_report(const ApReport& report) {
  Encoder e;
  encode_report_into(report, e);
  return std::move(e).take();
}

std::size_t encoded_report_size(const ApReport& report) {
  // Mirrors encode_report_into field for field. Every tag on this wire is
  // one byte (field numbers <= 10); a nested message costs its tag, its
  // length varint and its body. Booleans are 0/1 varints, doubles fixed64.
  const auto nested = [](std::size_t body) { return 1 + varint_size(body) + body; };
  const auto sint = [](std::int64_t v) { return varint_size(zigzag_encode(v)); };
  std::size_t n = 3 + varint_size(report.ap_id) + sint(report.timestamp_us) +
                  varint_size(report.firmware);
  for (const auto& u : report.usage) {
    n += nested(4 + varint_size(u.client.to_u64()) + varint_size(u.app_id) +
                varint_size(u.tx_bytes) + varint_size(u.rx_bytes));
  }
  for (const auto& c : report.utilization) {
    n += nested(6 + varint_size(c.band) + sint(c.channel) + varint_size(c.cycle_us) +
                varint_size(c.busy_us) + varint_size(c.rx_frame_us) + varint_size(c.tx_us));
  }
  for (const auto& nb : report.neighbors) {
    n += nested(6 + varint_size(nb.bssid.to_u64()) + varint_size(nb.band) +
                sint(nb.channel) + 8 + 1 + 1);
  }
  for (const auto& l : report.links) {
    n += nested(5 + varint_size(l.from_ap) + varint_size(l.band) + sint(l.channel) +
                varint_size(l.probes_expected) + varint_size(l.probes_received));
  }
  for (const auto& c : report.clients) {
    n += nested(5 + varint_size(c.client.to_u64()) + varint_size(c.capability_bits) +
                varint_size(c.band) + 8 + varint_size(c.os_id));
  }
  if (report.mesh_hops != 0) {
    n += 2 + varint_size(report.mesh_hops) + varint_size(report.mesh_relay_us);
  }
  return n;
}

namespace {

std::optional<ApReport> decode_report_generic(std::span<const std::uint8_t> data) {
  ApReport r;
  Decoder d(data);
  while (auto f = d.next()) {
    switch (f->number) {
      case kFApId:
        r.ap_id = static_cast<std::uint32_t>(f->as_uint());
        break;
      case kFTimestamp:
        r.timestamp_us = f->as_sint();
        break;
      case kFFirmware:
        r.firmware = static_cast<std::uint32_t>(f->as_uint());
        break;
      case kFUsage: {
        auto u = decode_usage(f->payload);
        if (!u) return std::nullopt;
        r.usage.push_back(*u);
        break;
      }
      case kFUtilization: {
        auto c = decode_util(f->payload);
        if (!c) return std::nullopt;
        r.utilization.push_back(*c);
        break;
      }
      case kFNeighbor: {
        auto n = decode_neighbor(f->payload);
        if (!n) return std::nullopt;
        r.neighbors.push_back(*n);
        break;
      }
      case kFLink: {
        auto l = decode_link(f->payload);
        if (!l) return std::nullopt;
        r.links.push_back(*l);
        break;
      }
      case kFClient: {
        auto c = decode_client(f->payload);
        if (!c) return std::nullopt;
        r.clients.push_back(*c);
        break;
      }
      case kFMeshHops:
        r.mesh_hops = static_cast<std::uint32_t>(f->as_uint());
        break;
      case kFMeshRelayUs:
        r.mesh_relay_us = f->as_uint();
        break;
      default:
        break;  // unknown field from newer firmware: skip
    }
  }
  if (!d.ok()) return std::nullopt;
  return r;
}

}  // namespace

std::optional<ApReport> decode_report(std::span<const std::uint8_t> data) {
  // Fast path for the tag sequence our own encoder emits: all field numbers
  // fit single-byte tags, so the dispatch is one byte-compare per field with
  // no Field/optional materialization. The first unexpected tag (newer
  // firmware, exotic ordering) restarts the whole message through the
  // generic skip-capable decoder; a malformed nested row still returns
  // nullopt exactly as before.
  ApReport r;
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();

  // Pre-scan: count the repeated fields so each vector is sized exactly once
  // instead of growing through the log2(n) realloc-and-copy ladder. The scan
  // only walks top-level tags (nested payloads are skipped wholesale), so it
  // is cheap next to the parse itself; any surprise defers to the generic
  // decoder below.
  {
    std::size_t n_usage = 0, n_util = 0, n_nbr = 0, n_link = 0, n_client = 0;
    const std::uint8_t* q = p;
    while (q != end) {
      const std::uint8_t tag = *q;
      if ((tag & 0x80u) != 0 || (tag >> 3) == 0) return decode_report_generic(data);
      ++q;
      std::uint64_t v = 0;
      if ((tag & 0x7u) == static_cast<std::uint8_t>(WireType::kVarint)) {
        q = parse_varint(q, end, v);
        if (q == nullptr) return decode_report_generic(data);
        continue;
      }
      if ((tag & 0x7u) != static_cast<std::uint8_t>(WireType::kLengthDelimited)) {
        return decode_report_generic(data);
      }
      q = parse_varint(q, end, v);
      if (q == nullptr || v > static_cast<std::uint64_t>(end - q)) {
        return decode_report_generic(data);
      }
      q += v;
      switch (tag >> 3) {
        case kFUsage: ++n_usage; break;
        case kFUtilization: ++n_util; break;
        case kFNeighbor: ++n_nbr; break;
        case kFLink: ++n_link; break;
        case kFClient: ++n_client; break;
        default: break;
      }
    }
    r.usage.reserve(n_usage);
    r.utilization.reserve(n_util);
    r.neighbors.reserve(n_nbr);
    r.links.reserve(n_link);
    r.clients.reserve(n_client);
  }

  while (p != end) {
    const std::uint8_t tag = *p;
    if ((tag & 0x80u) != 0) return decode_report_generic(data);
    ++p;
    std::uint64_t v = 0;
    switch (tag) {
      case tag_byte(kFApId, WireType::kVarint):
        p = parse_varint(p, end, v);
        if (p == nullptr) return decode_report_generic(data);
        r.ap_id = static_cast<std::uint32_t>(v);
        continue;
      case tag_byte(kFTimestamp, WireType::kVarint):
        p = parse_varint(p, end, v);
        if (p == nullptr) return decode_report_generic(data);
        r.timestamp_us = zigzag_decode(v);
        continue;
      case tag_byte(kFFirmware, WireType::kVarint):
        p = parse_varint(p, end, v);
        if (p == nullptr) return decode_report_generic(data);
        r.firmware = static_cast<std::uint32_t>(v);
        continue;
      case tag_byte(kFUsage, WireType::kLengthDelimited): {
        p = parse_varint(p, end, v);
        if (p == nullptr || v > static_cast<std::uint64_t>(end - p)) {
          return decode_report_generic(data);
        }
        // Inline parse of the dominant row type: four varint fields in tag
        // order, no Field materialization, no sub-decoder call. Any layout
        // surprise routes the row through the fallback-capable decoder.
        const std::uint8_t* const row_end = p + v;
        const std::uint8_t* q = p;
        std::uint64_t client = 0, app = 0, tx = 0, rx = 0;
        if (q != row_end && *q == tag_byte(1, WireType::kVarint) &&
            (q = parse_varint(q + 1, row_end, client)) != nullptr && q != row_end &&
            *q == tag_byte(2, WireType::kVarint) &&
            (q = parse_varint(q + 1, row_end, app)) != nullptr && q != row_end &&
            *q == tag_byte(3, WireType::kVarint) &&
            (q = parse_varint(q + 1, row_end, tx)) != nullptr && q != row_end &&
            *q == tag_byte(4, WireType::kVarint) &&
            (q = parse_varint(q + 1, row_end, rx)) != nullptr && q == row_end) {
          ClientUsage u;
          u.client = MacAddress::from_u64(client);
          u.app_id = static_cast<std::uint32_t>(app);
          u.tx_bytes = tx;
          u.rx_bytes = rx;
          r.usage.push_back(u);
        } else {
          auto u = decode_usage({p, static_cast<std::size_t>(v)});
          if (!u) return std::nullopt;
          r.usage.push_back(*u);
        }
        p = row_end;
        continue;
      }
      case tag_byte(kFUtilization, WireType::kLengthDelimited): {
        p = parse_varint(p, end, v);
        if (p == nullptr || v > static_cast<std::uint64_t>(end - p)) {
          return decode_report_generic(data);
        }
        auto c = decode_util({p, static_cast<std::size_t>(v)});
        if (!c) return std::nullopt;
        r.utilization.push_back(*c);
        p += v;
        continue;
      }
      case tag_byte(kFNeighbor, WireType::kLengthDelimited): {
        p = parse_varint(p, end, v);
        if (p == nullptr || v > static_cast<std::uint64_t>(end - p)) {
          return decode_report_generic(data);
        }
        auto n = decode_neighbor({p, static_cast<std::size_t>(v)});
        if (!n) return std::nullopt;
        r.neighbors.push_back(*n);
        p += v;
        continue;
      }
      case tag_byte(kFLink, WireType::kLengthDelimited): {
        p = parse_varint(p, end, v);
        if (p == nullptr || v > static_cast<std::uint64_t>(end - p)) {
          return decode_report_generic(data);
        }
        auto l = decode_link({p, static_cast<std::size_t>(v)});
        if (!l) return std::nullopt;
        r.links.push_back(*l);
        p += v;
        continue;
      }
      case tag_byte(kFClient, WireType::kLengthDelimited): {
        p = parse_varint(p, end, v);
        if (p == nullptr || v > static_cast<std::uint64_t>(end - p)) {
          return decode_report_generic(data);
        }
        auto c = decode_client({p, static_cast<std::size_t>(v)});
        if (!c) return std::nullopt;
        r.clients.push_back(*c);
        p += v;
        continue;
      }
      case tag_byte(kFMeshHops, WireType::kVarint):
        p = parse_varint(p, end, v);
        if (p == nullptr) return decode_report_generic(data);
        r.mesh_hops = static_cast<std::uint32_t>(v);
        continue;
      case tag_byte(kFMeshRelayUs, WireType::kVarint):
        p = parse_varint(p, end, v);
        if (p == nullptr) return decode_report_generic(data);
        r.mesh_relay_us = v;
        continue;
      default:
        return decode_report_generic(data);
    }
  }
  return r;
}

}  // namespace wlm::wire
