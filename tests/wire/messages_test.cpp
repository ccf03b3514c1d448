#include "wire/messages.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/rng.hpp"

namespace wlm::wire {
namespace {

ApReport sample_report() {
  ApReport r;
  r.ap_id = 1234;
  r.timestamp_us = 86'400'000'000LL;
  r.firmware = 2;
  r.usage.push_back(
      ClientUsage{MacAddress::from_u64(0x3c0754aabbccULL), 7, 1'000'000, 9'000'000});
  r.usage.push_back(ClientUsage{MacAddress::from_u64(0x001b21ddeeffULL), 2, 5, 0});
  ChannelUtilization u;
  u.band = 0;
  u.channel = 6;
  u.cycle_us = 300'000'000;
  u.busy_us = 75'000'000;
  u.rx_frame_us = 60'000'000;
  u.tx_us = 1'000'000;
  r.utilization.push_back(u);
  NeighborBss n;
  n.bssid = MacAddress::from_u64(0x001529123456ULL);
  n.band = 0;
  n.channel = 1;
  n.rssi_dbm = -77.25;
  n.is_hotspot = true;
  r.neighbors.push_back(n);
  LinkProbeWindow l;
  l.from_ap = 99;
  l.band = 1;
  l.channel = 36;
  l.probes_expected = 20;
  l.probes_received = 17;
  r.links.push_back(l);
  ClientSnapshot c;
  c.client = MacAddress::from_u64(0x3c0754aabbccULL);
  c.capability_bits = 0x1F;
  c.band = 1;
  c.rssi_dbm = -64.5;
  c.os_id = 2;
  r.clients.push_back(c);
  return r;
}

TEST(Messages, FullRoundTrip) {
  const ApReport original = sample_report();
  const auto bytes = encode_report(original);
  const auto decoded = decode_report(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(Messages, EmptyReportRoundTrip) {
  ApReport empty;
  const auto decoded = decode_report(encode_report(empty));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, empty);
}

TEST(Messages, NegativeTimestampSurvives) {
  ApReport r;
  r.timestamp_us = -42;  // pre-epoch timestamps must not corrupt
  const auto decoded = decode_report(encode_report(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->timestamp_us, -42);
}

TEST(Messages, LinkWindowDeliveryRatio) {
  LinkProbeWindow w;
  w.probes_expected = 20;
  w.probes_received = 15;
  EXPECT_DOUBLE_EQ(w.delivery_ratio(), 0.75);
  w.probes_expected = 0;
  EXPECT_DOUBLE_EQ(w.delivery_ratio(), 0.0);
}

TEST(Messages, MalformedBytesRejected) {
  std::vector<std::uint8_t> junk{0x00, 0xFF, 0x80};
  EXPECT_FALSE(decode_report(junk).has_value());
}

TEST(Messages, TruncatedReportRejected) {
  auto bytes = encode_report(sample_report());
  bytes.resize(bytes.size() / 2);
  // Either cleanly rejected or the truncation lands between fields; it must
  // never crash, and a mid-field cut must be detected.
  (void)decode_report(bytes);
}

TEST(Messages, WireSizeIsCompact) {
  // The §2 overhead budget depends on varint packing: a usage record with
  // small counters must cost far less than its in-memory footprint.
  ApReport r;
  r.ap_id = 1;
  r.usage.push_back(ClientUsage{MacAddress::from_u64(0xAABBCCDDEEFFULL), 3, 100, 2000});
  const auto bytes = encode_report(r);
  EXPECT_LT(bytes.size(), 32u);
}

TEST(Messages, ManyRecordsRoundTrip) {
  ApReport r;
  r.ap_id = 7;
  for (std::uint32_t i = 0; i < 500; ++i) {
    r.usage.push_back(ClientUsage{MacAddress::from_u64(i), i % 40, i, i * 2});
  }
  const auto decoded = decode_report(encode_report(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->usage.size(), 500u);
  EXPECT_EQ(*decoded, r);
}

/// A value of random bit width, so every varint length from 1 to 10 bytes
/// turns up.
std::uint64_t any_width(Rng& rng) { return rng.next_u64() >> rng.uniform_int(0, 63); }

template <typename T>
T narrow(Rng& rng) {
  return static_cast<T>(any_width(rng));
}

ApReport random_report(Rng& rng) {
  ApReport r;
  r.ap_id = narrow<std::uint32_t>(rng);
  r.timestamp_us = narrow<std::int64_t>(rng);
  r.firmware = narrow<std::uint32_t>(rng);
  for (int i = rng.uniform_int(0, 6); i > 0; --i) {
    r.usage.push_back(ClientUsage{MacAddress::from_u64(any_width(rng)),
                                  narrow<std::uint32_t>(rng), any_width(rng), any_width(rng)});
  }
  for (int i = rng.uniform_int(0, 3); i > 0; --i) {
    r.utilization.push_back(ChannelUtilization{narrow<std::uint8_t>(rng),
                                               narrow<std::int32_t>(rng), any_width(rng),
                                               any_width(rng), any_width(rng), any_width(rng)});
  }
  for (int i = rng.uniform_int(0, 4); i > 0; --i) {
    r.neighbors.push_back(NeighborBss{MacAddress::from_u64(any_width(rng)),
                                      narrow<std::uint8_t>(rng), narrow<std::int32_t>(rng),
                                      rng.uniform(-120.0, 0.0), rng.chance(0.5),
                                      rng.chance(0.5)});
  }
  for (int i = rng.uniform_int(0, 3); i > 0; --i) {
    r.links.push_back(LinkProbeWindow{narrow<std::uint32_t>(rng), narrow<std::uint8_t>(rng),
                                      narrow<std::int32_t>(rng), narrow<std::uint32_t>(rng),
                                      narrow<std::uint32_t>(rng)});
  }
  for (int i = rng.uniform_int(0, 4); i > 0; --i) {
    r.clients.push_back(ClientSnapshot{MacAddress::from_u64(any_width(rng)),
                                       narrow<std::uint32_t>(rng), narrow<std::uint8_t>(rng),
                                       rng.uniform(-100.0, -20.0), narrow<std::uint8_t>(rng)});
  }
  if (rng.chance(0.5)) r.mesh_hops = narrow<std::uint32_t>(rng);
  if (rng.chance(0.5)) r.mesh_relay_us = any_width(rng);
  return r;
}

TEST(Messages, EncodedSizeMatchesEncodingOnRandomReports) {
  Rng rng(20150817);
  for (int i = 0; i < 5000; ++i) {
    const ApReport r = random_report(rng);
    ASSERT_EQ(encoded_report_size(r), encode_report(r).size()) << "report " << i;
  }
}

TEST(Messages, EncodedSizeMatchesEncodingOnEdgeCases) {
  constexpr auto u64_max = std::numeric_limits<std::uint64_t>::max();
  constexpr auto u32_max = std::numeric_limits<std::uint32_t>::max();
  constexpr auto i32_min = std::numeric_limits<std::int32_t>::min();
  constexpr auto i32_max = std::numeric_limits<std::int32_t>::max();
  std::vector<ApReport> cases;
  cases.push_back(ApReport{});  // every child vector empty, mesh fields absent
  cases.push_back(sample_report());

  ApReport mesh_zero = sample_report();  // fields 9/10 both zero: omitted
  cases.push_back(mesh_zero);
  ApReport relay_only = sample_report();  // hops 0 hides a nonzero relay delay
  relay_only.mesh_relay_us = 12'345;
  cases.push_back(relay_only);
  ApReport hops_only = sample_report();  // hops nonzero: both fields, relay 0
  hops_only.mesh_hops = 3;
  cases.push_back(hops_only);
  ApReport mesh_max = sample_report();
  mesh_max.mesh_hops = u32_max;
  mesh_max.mesh_relay_us = u64_max;
  cases.push_back(mesh_max);

  ApReport widest;  // maximum-width varints in every field
  widest.ap_id = u32_max;
  widest.timestamp_us = std::numeric_limits<std::int64_t>::min();
  widest.firmware = u32_max;
  widest.usage.push_back(
      ClientUsage{MacAddress::from_u64(0xFFFFFFFFFFFFULL), u32_max, u64_max, u64_max});
  widest.utilization.push_back(
      ChannelUtilization{0xFF, i32_min, u64_max, u64_max, u64_max, u64_max});
  widest.neighbors.push_back(
      NeighborBss{MacAddress::from_u64(0xFFFFFFFFFFFFULL), 0xFF, i32_min, -0.0, true, true});
  widest.links.push_back(LinkProbeWindow{u32_max, 0xFF, i32_max, u32_max, u32_max});
  widest.clients.push_back(
      ClientSnapshot{MacAddress::from_u64(0xFFFFFFFFFFFFULL), u32_max, 0xFF, -1e300, 0xFF});
  widest.mesh_hops = u32_max;
  widest.mesh_relay_us = u64_max;
  cases.push_back(widest);

  ApReport negative = sample_report();  // negative timestamps and channels
  negative.timestamp_us = -1;
  negative.utilization[0].channel = -1;
  negative.neighbors[0].channel = -64;
  negative.links[0].channel = -65;
  cases.push_back(negative);
  ApReport int64_max = negative;
  int64_max.timestamp_us = std::numeric_limits<std::int64_t>::max();
  cases.push_back(int64_max);

  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(encoded_report_size(cases[i]), encode_report(cases[i]).size()) << "case " << i;
  }
}

}  // namespace
}  // namespace wlm::wire
