// Telemetry message schemas exchanged between access points and the backend.
//
// One ApReport is produced per AP per poll cycle and carries everything the
// paper's analyses consume: per-client usage counters keyed by MAC address,
// channel utilization counters, the neighbor-BSS table, link-probe delivery
// windows, and associated-client snapshots.
//
// Field numbers are part of the wire contract; append, never renumber.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/ids.hpp"

namespace wlm::wire {

class Encoder;

/// Per-client, per-application byte counters since the previous poll.
struct ClientUsage {
  MacAddress client;
  std::uint32_t app_id = 0;     // classify::AppId
  std::uint64_t tx_bytes = 0;   // upstream (client -> network)
  std::uint64_t rx_bytes = 0;   // downstream (network -> client)

  bool operator==(const ClientUsage&) const = default;
};

/// Channel occupancy counters over the report interval.
struct ChannelUtilization {
  std::uint8_t band = 0;  // 0 = 2.4 GHz, 1 = 5 GHz
  std::int32_t channel = 0;
  std::uint64_t cycle_us = 0;
  std::uint64_t busy_us = 0;
  std::uint64_t rx_frame_us = 0;
  std::uint64_t tx_us = 0;

  bool operator==(const ChannelUtilization&) const = default;
};

/// One entry of the neighbor-BSS scan table.
struct NeighborBss {
  MacAddress bssid;
  std::uint8_t band = 0;
  std::int32_t channel = 0;
  double rssi_dbm = -100.0;
  bool is_hotspot = false;   // classified by OUI (Novatel, Sierra, ...)
  bool is_same_fleet = false;  // our own APs; excluded from Table 7

  bool operator==(const NeighborBss&) const = default;
};

/// 300-second sliding-window delivery measurement for one mesh link.
struct LinkProbeWindow {
  std::uint32_t from_ap = 0;
  std::uint8_t band = 0;
  std::int32_t channel = 0;
  std::uint32_t probes_expected = 0;
  std::uint32_t probes_received = 0;

  [[nodiscard]] double delivery_ratio() const {
    return probes_expected > 0
               ? static_cast<double>(probes_received) / static_cast<double>(probes_expected)
               : 0.0;
  }
  bool operator==(const LinkProbeWindow&) const = default;
};

/// Associated-client snapshot (capabilities bitmask mirrors deploy::Capabilities).
struct ClientSnapshot {
  MacAddress client;
  std::uint32_t capability_bits = 0;
  std::uint8_t band = 0;
  double rssi_dbm = -100.0;
  std::uint8_t os_id = 0;  // classify::OsType

  bool operator==(const ClientSnapshot&) const = default;
};

/// Top-level per-poll report.
struct ApReport {
  std::uint32_t ap_id = 0;
  std::int64_t timestamp_us = 0;
  std::uint32_t firmware = 0;
  std::vector<ClientUsage> usage;
  std::vector<ChannelUtilization> utilization;
  std::vector<NeighborBss> neighbors;
  std::vector<LinkProbeWindow> links;
  std::vector<ClientSnapshot> clients;
  /// Mesh backhaul hops this report traversed to reach a gateway AP, and
  /// the relay delay (queueing + airtime) those hops added. Both stay 0 on
  /// wired APs and are omitted from the wire entirely when 0, so non-mesh
  /// reports encode byte-identically to firmware that predates the fields.
  std::uint32_t mesh_hops = 0;
  std::uint64_t mesh_relay_us = 0;

  bool operator==(const ApReport&) const = default;
};

/// Serializes a report to wire bytes.
[[nodiscard]] std::vector<std::uint8_t> encode_report(const ApReport& report);

/// Serializes into a caller-owned encoder (cleared first). Hot paths reuse
/// one encoder across reports so the buffer capacity survives; the bytes
/// are identical to encode_report's.
void encode_report_into(const ApReport& report, Encoder& e);

/// Byte length of encode_report(report), computed by walking the wire
/// format without writing it.
[[nodiscard]] std::size_t encoded_report_size(const ApReport& report);

/// Parses wire bytes; nullopt on malformed input. Unknown fields are skipped.
[[nodiscard]] std::optional<ApReport> decode_report(std::span<const std::uint8_t> data);

}  // namespace wlm::wire
