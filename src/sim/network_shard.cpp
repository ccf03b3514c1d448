#include "sim/network_shard.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "classify/dhcp.hpp"
#include "classify/oui.hpp"
#include "failsafe/failpoint.hpp"
#include "classify/user_agent.hpp"
#include "mac/beacon_frame.hpp"
#include "scan/scanner.hpp"
#include "telemetry/profile.hpp"
#include "traffic/broadcast.hpp"
#include "traffic/os_model.hpp"
#include "traffic/sessions.hpp"
#include "traffic/workload.hpp"

namespace wlm::sim {

namespace {

/// Client radios transmit well below an AP (battery, antenna): 15 dBm EIRP.
constexpr double kClientTxDbm = 15.0;
/// Extra uplink loss vs the downlink beacon path: body absorption, pocket/
/// desk orientation, and the elevation mismatch against a ceiling antenna.
constexpr double kClientBodyLossDb = 9.0;

/// Effective MAC-layer throughput used to convert offered bytes into duty.
double effective_rate_mbps(phy::Band band) {
  return band == phy::Band::k5GHz ? 80.0 : 20.0;
}

std::uint8_t band_code(phy::Band band) { return band == phy::Band::k5GHz ? 1 : 0; }

}  // namespace

double serving_utilization(const ApRuntime& ap, phy::Band band, double hour) {
  const auto& plan = phy::ChannelPlan::us();
  const int number = band == phy::Band::k5GHz ? ap.config().channel_5 : ap.config().channel_24;
  const auto channel = plan.find(band, number);
  if (!channel) return 0.0;
  const auto env = ap.environment(hour);
  const auto activity = env.activity_on(*channel, hour);
  const auto counters = scan::measure_serving_channel(
      activity, Duration::minutes(5), ap.tx_duty(band, hour), phy::noise_floor(20.0));
  return counters.utilization();
}

namespace {
/// Salt separating the fault substreams from the campaign substreams; both
/// are keyed by the network id below it.
constexpr std::uint64_t kFaultSeedSalt = 0xFA171FA171FA17ULL;
}  // namespace

NetworkShard::NetworkShard(const deploy::NetworkConfig& net, const WorldConfig& config)
    : net_(&net), config_(config),
      rng_(Rng::substream(config.seed, net.id.value())), poller_(store_) {
  pathloss_.exponent = 3.2;
  pathloss_.shadowing_sigma_db = 7.0;

  if (config_.mobility.enabled) {
    // Same substream discipline as the fault layer: mobility draws come
    // from a dedicated salted stream, so campaigns consume exactly the
    // same randomness with mobility on or off.
    mobility_rng_ =
        Rng::substream(config_.seed ^ mobility::kMobilitySeedSalt, net_->id.value());
  }
  if (config_.mesh.enabled()) {
    // Same discipline again for the mesh backhaul: gateway selection and
    // per-phase link drift draw from their own salted stream.
    mesh_rng_ = Rng::substream(config_.seed ^ mesh::kMeshSeedSalt, net_->id.value());
  }

  aps_.reserve(net_->aps.size());
  for (const auto& ap : net_->aps) {
    ap_index_[ap.id.value()] = aps_.size();
    aps_.emplace_back(ap, net_->id, net_->industry, config_.faults.tunnel_queue_limit);
  }
  // aps_ never grows after this point; tunnel pointers stay valid.
  for (auto& ap : aps_) poller_.attach(ap.tunnel());
  poller_.bind_telemetry(&metrics_, &recorder_);

  if (config_.faults.enabled()) {
    // The plan and the runtime fault draws come from a dedicated substream
    // pair: campaigns consume exactly the same randomness with faults on or
    // off, so a faulted run perturbs only what the faults themselves touch.
    Rng fault_stream = Rng::substream(config_.seed ^ kFaultSeedSalt, net_->id.value());
    injector_ = fault::FaultInjector(
        config_.faults, fault::FaultPlan::build(config_.faults, fault_stream.fork(), aps_.size()));
    fault_rng_ = fault_stream.fork();
    std::vector<std::uint64_t> ap_entities;
    ap_entities.reserve(aps_.size());
    for (const auto& ap : aps_) ap_entities.push_back(ap.id().value());
    injector_.bind_telemetry(&metrics_, &recorder_, std::move(ap_entities));
  }

  build_clients();
  build_duties_and_peers();
  build_links();

  if (config_.mesh.enabled()) {
    // Mesh membership draws in AP index order from the dedicated substream.
    // Index 0 is always a gateway, so a network never loses its last uplink.
    is_mesh_.assign(aps_.size(), false);
    for (std::size_t i = 1; i < aps_.size(); ++i) {
      is_mesh_[i] = mesh_rng_.chance(config_.mesh.mesh_fraction);
    }
    mesh_busy_until_us_.assign(aps_.size(), 0);
    mesh_enqueued_by_hops_.assign(static_cast<std::size_t>(config_.mesh.max_hops) + 1, 0);
  }
}

ApRuntime* NetworkShard::find_ap(ApId id) {
  const auto it = ap_index_.find(id.value());
  return it == ap_index_.end() ? nullptr : &aps_[it->second];
}

void NetworkShard::build_clients() {
  const deploy::PopulationModel population(epoch(), config_.mobility.roam_probability);
  const auto n_clients = static_cast<int>(
      net_->clients_per_ap * static_cast<double>(net_->aps.size()) * config_.client_scale + 0.5);
  const mac::AssociationPolicy policy;
  if (config_.mobility.enabled) mobility_roster_.resize(aps_.size());

  for (int i = 0; i < n_clients; ++i) {
    const ClientId cid{static_cast<std::uint32_t>((net_->id.value() << 16) | (i + 1))};
    deploy::ClientDevice device = population.sample(cid, rng_);
    // Place the client and evaluate every in-network BSS.
    const phy::Position pos{rng_.uniform(0.0, net_->site.width_m),
                            rng_.uniform(0.0, net_->site.height_m)};
    std::vector<mac::BssCandidate> candidates;
    for (ApRuntime& ap : aps_) {
      const double d = phy::distance_m(pos, ap.config().position);
      const int walls = static_cast<int>(d / 10.0 * net_->site.walls_per_10m);
      const double rx24 = ap.config().tx_power_24_dbm + 3.0 -
                          pathloss_.median_loss_db(d, FrequencyMhz{2437.0}, walls) +
                          rng_.normal(0.0, 3.0);
      candidates.push_back(mac::BssCandidate{ap.id(), phy::Band::k2_4GHz, PowerDbm{rx24}});
      // 5 GHz: more free-space loss and worse wall penetration.
      const double rx5 = ap.config().tx_power_5_dbm + 5.0 -
                         pathloss_.median_loss_db(d, FrequencyMhz{5250.0}, walls) -
                         static_cast<double>(walls) * 2.0 + rng_.normal(0.0, 3.0);
      candidates.push_back(mac::BssCandidate{ap.id(), phy::Band::k5GHz, PowerDbm{rx5}});
    }
    const auto result = mac::select_bss(candidates, device.caps.dual_band(), policy, rng_);
    if (!result) continue;  // out of coverage

    AssociatedClient client;
    client.device = device;
    client.band = result->band;
    // Uplink RSSI at the AP: client EIRP replaces the AP's; the path is
    // reciprocal, so reuse the downlink loss implied by the beacon RSSI.
    ApRuntime& home = aps_[ap_index_[result->ap.value()]];
    const double ap_tx = result->band == phy::Band::k5GHz
                             ? home.config().tx_power_5_dbm + 5.0
                             : home.config().tx_power_24_dbm + 3.0;
    client.rssi_at_ap_dbm =
        result->rssi.dbm() - ap_tx + kClientTxDbm + 3.0 - kClientBodyLossDb;

    // Device-typing evidence as the AP's slow path would collect it: the
    // client emits real DHCP packets, which the AP parses off the wire.
    classify::ClientEvidence evidence;
    evidence.mac = device.mac;
    auto emit_dhcp = [&](classify::OsType os) {
      classify::DhcpPacket pkt;
      pkt.type = classify::DhcpMessageType::kDiscover;
      pkt.xid = static_cast<std::uint32_t>(rng_.next_u64());
      pkt.client_mac = device.mac;
      pkt.parameter_request_list = classify::canonical_dhcp_params(os);
      pkt.vendor_class = classify::canonical_vendor_class(os);
      const auto bytes = classify::encode_dhcp(pkt);
      if (const auto parsed = classify::parse_dhcp(bytes)) {
        evidence.dhcp_fingerprints.push_back(parsed->parameter_request_list);
      }
    };
    if (device.os == classify::OsType::kUnknown) {
      // The genuinely ambiguous population: dual-boot boxes, VM hosts,
      // headless embedded devices.
      if (rng_.chance(0.5)) {
        emit_dhcp(classify::OsType::kWindows);
        emit_dhcp(classify::OsType::kLinux);
      }
    } else {
      emit_dhcp(device.os);
      if (rng_.chance(0.8)) {
        evidence.user_agents.push_back(classify::canonical_user_agent(
            device.os, static_cast<unsigned>(rng_.next_u64() & 3)));
      }
    }
    // The index routes the evidence lookups through its exact-match
    // buckets; the decision procedure (and result) is classify_os's own.
    client.detected_os = classify::classify_os(evidence, classify::HeuristicsVersion::k2015,
                                               &classify::RuleIndex::standard());
    home.add_client(std::move(client));
    if (config_.mobility.enabled) {
      // Roster rides the already-drawn placement (no extra campaign draws);
      // pos == target parks the client until its first mobility step.
      const std::size_t home_idx = ap_index_[result->ap.value()];
      MobileClient entry;
      entry.walks = device.roams;
      entry.dual_band = device.caps.dual_band();
      entry.motion.pos = pos;
      entry.motion.target = pos;
      entry.serving_ap = home_idx;
      entry.serving_band = result->band;
      entry.pending_ap = home_idx;
      entry.pending_band = result->band;
      mobility_roster_[home_idx].push_back(entry);
    }
    ++client_count_;
  }
}

void NetworkShard::build_duties_and_peers() {
  // Offered load per AP -> duty, then peer tables. Broadcast chatter
  // (ARP/mDNS/SSDP at the 1 Mb/s basic rate, paper §6.3) rides on every
  // AP of the shared L2 domain, scaled by the network's client count.
  std::size_t net_clients = 0;
  for (const ApRuntime& ap : aps_) net_clients += ap.clients().size();
  const auto bcast = traffic::broadcast_load(static_cast<int>(net_clients),
                                             traffic::BroadcastProfile{},
                                             phy::Modulation::kDsss1);
  for (ApRuntime& ap : aps_) {
    double bytes_24 = 0.0;
    double bytes_5 = 0.0;
    const auto devices = ap.clients().devices();
    const auto bands = ap.clients().bands();
    for (std::size_t i = 0; i < devices.size(); ++i) {
      const double mb = traffic::os_usage(devices[i].os, epoch()).mb_per_client;
      (bands[i] == phy::Band::k5GHz ? bytes_5 : bytes_24) += mb * 1e6;
    }
    const double week_s = 7.0 * 24 * 3600;
    // x2 for MAC overhead, retries, and rate fallback.
    const double duty24 =
        bytes_24 * 8.0 * 2.0 / (week_s * effective_rate_mbps(phy::Band::k2_4GHz) * 1e6) +
        bcast.airtime_duty;
    const double duty5 =
        bytes_5 * 8.0 * 2.0 / (week_s * effective_rate_mbps(phy::Band::k5GHz) * 1e6);
    ap.set_tx_duty(duty24, duty5);
  }
  for (ApRuntime& ap : aps_) {
    std::vector<FleetPeer> peers;
    for (const ApRuntime& other : aps_) {
      if (&other == &ap) continue;
      const double d = phy::distance_m(ap.config().position, other.config().position);
      const int walls = static_cast<int>(d / 10.0 * net_->site.walls_per_10m);
      FleetPeer peer;
      peer.channel_24 = other.config().channel_24;
      peer.channel_5 = other.config().channel_5;
      peer.rx_power_24_dbm = other.config().tx_power_24_dbm + 6.0 -
                             pathloss_.median_loss_db(d, FrequencyMhz{2437.0}, walls);
      peer.rx_power_5_dbm = other.config().tx_power_5_dbm + 10.0 -
                            pathloss_.median_loss_db(d, FrequencyMhz{5250.0}, walls);
      peer.tx_duty_24 = other.tx_duty(phy::Band::k2_4GHz, 12.0);
      peer.tx_duty_5 = other.tx_duty(phy::Band::k5GHz, 12.0);
      peers.push_back(peer);
    }
    ap.set_peers(std::move(peers));
  }
}

void NetworkShard::build_links() {
  for (const ApRuntime& a : aps_) {
    for (const ApRuntime& b : aps_) {
      if (&a == &b) continue;
      for (const phy::Band band : {phy::Band::k2_4GHz, phy::Band::k5GHz}) {
        const int ch_a = band == phy::Band::k5GHz ? a.config().channel_5 : a.config().channel_24;
        const int ch_b = band == phy::Band::k5GHz ? b.config().channel_5 : b.config().channel_24;
        if (ch_a != ch_b) continue;  // probes are heard co-channel only
        const double d = phy::distance_m(a.config().position, b.config().position);
        // APs are ceiling-mounted: roughly half the walls a floor-level
        // client path would cross.
        const int walls = static_cast<int>(d / 10.0 * net_->site.walls_per_10m * 0.5);
        const double tx = band == phy::Band::k5GHz ? a.config().tx_power_5_dbm
                                                   : a.config().tx_power_24_dbm;
        const LinkBudget budget =
            compute_link_budget(a.config().position, b.config().position, walls, band, tx,
                                pathloss_, rng_);
        if (budget.median_rx_dbm < -95.0) continue;  // never decodable
        links_.emplace_back(a.id(), b.id(), budget, rng_.fork());
      }
    }
  }
}

void NetworkShard::enqueue_report(ApRuntime& ap, wire::ApReport& report) {
  report.ap_id = ap.id().value();
  // Relay fields are per-enqueue outputs; callers reuse one scratch report
  // across APs, so clear them before any path stamps or frames them.
  report.mesh_hops = 0;
  report.mesh_relay_us = 0;
  const bool mesh_on = config_.mesh.enabled();
  if (mesh_on && is_mesh_[ap_index_[ap.id().value()]]) {
    if (!enqueue_via_mesh(ap_index_[ap.id().value()], ap, report)) {
      // Stranded: the report dies before any tunnel sees it, so the shard
      // counts it at the drop site (generated + lost_mesh_partition) to
      // keep the conservation invariant structural.
      ++mesh_partition_lost_;
      metrics_.counter("wlm_mesh_partition_lost_total").inc();
    }
    return;
  }
  if (!injector_.enabled()) {
    auto frame = backend::frame_report(report);
    record_enqueue(ap, report.timestamp_us, frame.size());
    ap.tunnel().enqueue(std::move(frame));
    if (mesh_on) record_mesh_hops(0, 0);
    return;
  }
  // The injector advances this AP's fault clock to the report's timestamp
  // (outages and reboots fire here, in time order), inflates skyscraper scan
  // tables, raises OOM reboots, and maybe corrupts the frame on the wire.
  const std::size_t idx = ap_index_[ap.id().value()];
  injector_.on_report(idx, report, ap.tunnel(), fault_rng_);
  auto frame = backend::frame_report(report);
  injector_.on_frame(frame, fault_rng_);
  record_enqueue(ap, report.timestamp_us, frame.size());
  ap.tunnel().enqueue(std::move(frame));
  if (mesh_on) record_mesh_hops(0, 0);
}

bool NetworkShard::enqueue_via_mesh(std::size_t idx, ApRuntime& origin,
                                    wire::ApReport& report) {
  if (mesh_routes_.empty() || !mesh_routes_[idx].routable) return false;
  const std::size_t gw_idx = mesh_routes_[idx].gateway;
  ApRuntime& gw = aps_[gw_idx];
  if (injector_.enabled()) {
    // The origin's own fault schedule still fires in time order (reboots,
    // skyscraper tables) even though its tunnel carries nothing; then the
    // gateway's clock advances to the report's time — a gateway inside a
    // WAN outage strands its whole subtree.
    injector_.on_report(idx, report, origin.tunnel(), fault_rng_);
    injector_.advance(gw_idx, report.timestamp_us, gw.tunnel());
    if (injector_.in_outage(gw_idx)) return false;
  }
  // Provisional encode sizes the frame before the relay walk: the relay
  // delay itself rides in the frame, so airtime is computed over the
  // pre-stamp bytes (the stamp adds a few varint bytes charged to no hop —
  // the approximation is deterministic, which is the contract that matters).
  const std::size_t frame_bytes = backend::frame_report(report).size();
  std::uint32_t hops = 0;
  std::int64_t cur = report.timestamp_us;
  std::size_t at = idx;
  while (!mesh_routes_[at].is_gateway) {
    const mesh::RouteEntry& r = mesh_routes_[at];
    // Store-and-forward: each relay radio serializes one frame at a time,
    // so a frame waits out the radio's previous transmission first.
    const std::int64_t start = std::max(cur, mesh_busy_until_us_[at]);
    const std::int64_t done =
        start +
        static_cast<std::int64_t>(mesh::hop_airtime_us(frame_bytes, r.next_hop_rx_dbm));
    mesh_busy_until_us_[at] = done;
    cur = done;
    at = r.next_hop;
    ++hops;
  }
  report.mesh_hops = hops;
  report.mesh_relay_us = static_cast<std::uint64_t>(cur - report.timestamp_us);
  // Final encode with the relay fields stamped; the frame enters the
  // GATEWAY's tunnel (ap_id stays the origin, so the store buckets the
  // report under the AP that generated it).
  auto frame = backend::frame_report(report);
  if (injector_.enabled()) injector_.on_frame(frame, fault_rng_);
  record_enqueue(origin, report.timestamp_us, frame.size());
  gw.tunnel().enqueue(std::move(frame));
  record_mesh_hops(hops, report.mesh_relay_us);
  return true;
}

void NetworkShard::record_mesh_hops(std::uint32_t hops, std::uint64_t relay_us) {
  // Ground truth for the hop-count property test, plus the per-hop generated
  // counter the delivery-vs-hops analysis divides by. Mesh runs only, so the
  // mesh-off metrics export stays byte-identical to pre-mesh builds.
  const std::size_t bucket =
      std::min<std::size_t>(hops, mesh_enqueued_by_hops_.size() - 1);
  ++mesh_enqueued_by_hops_[bucket];
  metrics_.counter("wlm_mesh_reports_by_hops_total", hops).inc();
  if (hops > 0) {
    metrics_.counter("wlm_mesh_relayed_reports_total").inc();
    metrics_.counter("wlm_mesh_hops_total").inc(hops);
    metrics_.counter("wlm_mesh_relay_us_total").inc(relay_us);
  }
}

void NetworkShard::mesh_phase_begin() {
  if (!config_.mesh.enabled()) return;
  // Shadowing drifts between campaign phases: redraw every directed link's
  // budget (in links_ order, so substream consumption is schedule-free) and
  // recompute routes over the drifted graph. Relay radios start the phase
  // idle.
  std::vector<mesh::MeshEdge> edges;
  edges.reserve(links_.size());
  for (auto& link : links_) {
    mesh::MeshEdge e;
    e.from = static_cast<std::uint32_t>(ap_index_[link.from().value()]);
    e.to = static_cast<std::uint32_t>(ap_index_[link.to().value()]);
    e.rx_dbm = link.median_rx_dbm() + mesh_rng_.normal(0.0, config_.mesh.drift_sigma_db);
    edges.push_back(e);
  }
  mesh_routes_ = mesh::compute_routes(aps_.size(), is_mesh_, edges, config_.mesh);
  mesh_busy_until_us_.assign(aps_.size(), 0);
}

void NetworkShard::record_enqueue(const ApRuntime& ap, std::int64_t t_us,
                                  std::size_t frame_bytes) {
  metrics_.counter("wlm_sim_reports_enqueued_total").inc();
  metrics_
      .histogram("wlm_sim_report_bytes",
                 {64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0})
      .observe(static_cast<double>(frame_bytes));
  recorder_.record({telemetry::SpanKind::kEnqueue, ap.id().value(), t_us, t_us,
                    static_cast<std::uint64_t>(frame_bytes)});
}

std::vector<wire::NeighborBss> NetworkShard::neighbor_records(const ApRuntime& ap) const {
  std::vector<wire::NeighborBss> out;
  for (const auto& n : ap.config().environment.neighbors) {
    if (n.rssi_dbm < kBeaconDecodeFloorDbm) continue;
    // The scan table entry comes from actually decoding the neighbor's
    // beacon frame: build the bytes it transmits and parse them as the
    // scanning radio would. A corrupted frame never enters the table.
    mac::BeaconFrame beacon;
    beacon.bssid = n.bssid;
    beacon.ssid = n.ssid;
    beacon.channel = n.channel;
    beacon.rates = n.legacy_11b ? mac::rates_11b() : mac::rates_11g();
    beacon.has_ht = !n.legacy_11b;
    const auto parsed = mac::parse_beacon_frame(mac::encode_beacon_frame(beacon));
    if (!parsed) continue;
    wire::NeighborBss rec;
    rec.bssid = parsed->bssid;
    rec.band = band_code(n.band);
    rec.channel = parsed->channel;
    rec.rssi_dbm = n.rssi_dbm;
    // The AP classifies hotspots by OUI, as the backend pipeline does.
    rec.is_hotspot = classify::is_hotspot_vendor(classify::vendor_for(parsed->bssid));
    rec.is_same_fleet = false;
    out.push_back(rec);
  }
  // Same-site fleet APs are audible too; flagged and excluded from Table 7.
  for (const auto& peer : ap.peers()) {
    if (peer.rx_power_24_dbm < kBeaconDecodeFloorDbm) continue;
    wire::NeighborBss rec;
    rec.bssid = MacAddress{};  // filled by nothing: fleet ids are internal
    rec.band = 0;
    rec.channel = peer.channel_24;
    rec.rssi_dbm = peer.rx_power_24_dbm;
    rec.is_same_fleet = true;
    out.push_back(rec);
  }
  return out;
}

void NetworkShard::mobility_candidates(const phy::Position& pos,
                                       std::vector<mac::BssCandidate>& out) {
  // Same propagation math as build_clients; only the shadowing draws differ
  // (they come from the mobility substream, never the campaign stream).
  out.clear();
  for (ApRuntime& ap : aps_) {
    const double d = phy::distance_m(pos, ap.config().position);
    const int walls = static_cast<int>(d / 10.0 * net_->site.walls_per_10m);
    const double rx24 = ap.config().tx_power_24_dbm + 3.0 -
                        pathloss_.median_loss_db(d, FrequencyMhz{2437.0}, walls) +
                        mobility_rng_.normal(0.0, 3.0);
    out.push_back(mac::BssCandidate{ap.id(), phy::Band::k2_4GHz, PowerDbm{rx24}});
    const double rx5 = ap.config().tx_power_5_dbm + 5.0 -
                       pathloss_.median_loss_db(d, FrequencyMhz{5250.0}, walls) -
                       static_cast<double>(walls) * 2.0 + mobility_rng_.normal(0.0, 3.0);
    out.push_back(mac::BssCandidate{ap.id(), phy::Band::k5GHz, PowerDbm{rx5}});
  }
}

std::uint32_t NetworkShard::walk_client_week(MobileClient& entry,
                                             std::vector<std::size_t>& visited,
                                             std::vector<mac::BssCandidate>& scan_scratch,
                                             MobilityWeekStats& stats) {
  visited.push_back(entry.serving_ap);
  // Static clients and single-AP networks never hand off; skipping the walk
  // outright keeps the mobility substream cheap without changing any other
  // client's draws (the substream is consumed strictly in client order).
  if (!entry.walks || aps_.size() <= 1) return 0;

  const mobility::MobilityConfig& mc = config_.mobility;
  const double dt_s = 7.0 * 24.0 * 3600.0 / static_cast<double>(mc.steps_per_week);
  mac::AssociationPolicy policy;
  policy.handoff_hysteresis_db = mc.handoff_hysteresis_db;
  policy.band_steer_bonus_db = mc.band_steer_bonus_db;

  std::uint32_t roams = 0;
  for (int step = 0; step < mc.steps_per_week; ++step) {
    const double hour = std::fmod(static_cast<double>(step) * dt_s / 3600.0, 24.0);
    if (!mobility_rng_.chance(mobility::occupancy(hour, net_->industry))) {
      // Off-site: the client neither moves nor scans, and any half-settled
      // handoff goes stale.
      if (entry.pending_steps > 0) {
        entry.pending_steps = 0;
        ++stats.handoffs_aborted;
      }
      continue;
    }
    ++stats.active_steps;
    mobility::advance(entry.motion, dt_s, mc, net_->site.width_m, net_->site.height_m,
                      mobility_rng_);
    mobility_candidates(entry.motion.pos, scan_scratch);
    // Candidates are pushed 2.4 GHz then 5 GHz per AP, in aps_ order.
    const mac::BssCandidate& serving =
        scan_scratch[entry.serving_ap * 2 + (entry.serving_band == phy::Band::k5GHz ? 1 : 0)];
    const auto rival = mac::select_handoff(scan_scratch, entry.dual_band, serving.ap,
                                           entry.serving_band, serving.rssi, policy);
    if (!rival) {
      if (entry.pending_steps > 0) {
        entry.pending_steps = 0;
        ++stats.handoffs_aborted;
      }
      continue;
    }
    const std::size_t rival_idx = ap_index_[rival->ap.value()];
    if (entry.pending_steps > 0 && rival_idx == entry.pending_ap &&
        rival->band == entry.pending_band) {
      ++entry.pending_steps;
    } else {
      if (entry.pending_steps > 0) ++stats.handoffs_aborted;  // rival changed mid-settle
      entry.pending_ap = rival_idx;
      entry.pending_band = rival->band;
      entry.pending_steps = 1;
      ++stats.handoffs_armed;
    }
    if (entry.pending_steps >= static_cast<std::uint32_t>(mc.handoff_settle_steps)) {
      if (rival_idx != entry.serving_ap) {
        ++roams;
        ++stats.roams;
        entry.serving_ap = rival_idx;
        if (std::find(visited.begin(), visited.end(), rival_idx) == visited.end()) {
          visited.push_back(rival_idx);
        }
      }
      if (rival->band != entry.serving_band) ++stats.band_switches;
      entry.serving_band = rival->band;
      entry.pending_steps = 0;
    }
  }
  return roams;
}

void NetworkShard::run_usage_week(int reports_per_week,
                                  const std::vector<traffic::UpdateSpike>& spikes) {
  mesh_phase_begin();
  traffic::WorkloadModel workload(epoch(), rng_.fork());

  // Per-report-period download multiplier for each OS under the injected
  // update spikes (paper §6.2: vendor releases drive fleet-wide surges).
  const Duration period = Duration::days(7) / reports_per_week;
  auto spike_multiplier = [&](classify::OsType os, int report_index) {
    const bool apple = os == classify::OsType::kAppleIos || os == classify::OsType::kMacOsX;
    const bool windows = os == classify::OsType::kWindows;
    double extra = 0.0;
    const SimTime start = SimTime::epoch() + period * report_index;
    const SimTime end = start + period;
    for (const auto& s : spikes) {
      if (!(apple ? s.affects_apple : windows && s.affects_windows)) continue;
      // Overlap of the spike with this reporting period, as a fraction.
      const auto lo = std::max(start.as_micros(), s.start.as_micros());
      const auto hi = std::min(end.as_micros(), (s.start + s.duration).as_micros());
      if (hi <= lo) continue;
      const double frac = static_cast<double>(hi - lo) / static_cast<double>(period.as_micros());
      extra += (s.download_multiplier - 1.0) * frac;
    }
    return 1.0 + extra;
  };

  // Per-report-period usage rows, accumulated per (client, app) at the AP
  // that carried the traffic. Struct-of-arrays, indexed by AP position (not
  // a map keyed by AP id): the report loop below re-walks every row once
  // per reporting period touching two or three columns per pass, so the
  // columns keep those passes dense. Backed by the shard arena — the rows
  // die when the week's reports are built, and reset() below recycles the
  // memory for the next campaign.
  struct RowColumns {
    core::ArenaVector<MacAddress> mac;
    core::ArenaVector<classify::OsType> os;
    core::ArenaVector<classify::AppId> app;
    core::ArenaVector<std::uint64_t> up;
    core::ArenaVector<std::uint64_t> down;

    explicit RowColumns(core::Arena& arena)
        : mac(core::ArenaAllocator<MacAddress>(arena)),
          os(core::ArenaAllocator<classify::OsType>(arena)),
          app(core::ArenaAllocator<classify::AppId>(arena)),
          up(core::ArenaAllocator<std::uint64_t>(arena)),
          down(core::ArenaAllocator<std::uint64_t>(arena)) {}

    void push(MacAddress m, classify::OsType o, classify::AppId a, std::uint64_t u,
              std::uint64_t d) {
      mac.push_back(m);
      os.push_back(o);
      app.push_back(a);
      up.push_back(u);
      down.push_back(d);
    }
    [[nodiscard]] std::size_t size() const { return mac.size(); }
  };

  {
  // Allocation-pressure site: arms as action=oom to model the arena build
  // OOMing under a pathological week (the supervisor catches bad_alloc like
  // any other shard failure).
  failsafe::failpoint("shard.alloc");
  std::vector<RowColumns> rows_by_ap;
  rows_by_ap.reserve(aps_.size());
  for (std::size_t i = 0; i < aps_.size(); ++i) rows_by_ap.emplace_back(arena_);

  const auto cache_before = classifier_.cache().stats();
  const auto slow_before = classifier_.slow_path_calls();
  std::uint64_t fragments_seen = 0;
  // One scratch week for the whole sweep: flow slots and their payload
  // buffers are rewritten in place per device instead of reallocated.
  traffic::DeviceWeek week;
  const bool mobility_on = config_.mobility.enabled;
  MobilityWeekStats mob_stats;
  std::vector<std::size_t> walk_visited;
  std::vector<mac::BssCandidate> scan_scratch;
  if (mobility_on) {
    mobility_traces_.clear();
    mobility_traces_.reserve(client_count_);
    scan_scratch.reserve(aps_.size() * 2);
  }
  for (std::size_t home_idx = 0; home_idx < aps_.size(); ++home_idx) {
    ApRuntime& home = aps_[home_idx];
    const auto devices = home.clients().devices();
    for (std::size_t row = 0; row < devices.size(); ++row) {
      const auto& device = devices[row];
      workload.generate_week(device, week);

      // Roaming phones appear on several of the network's APs during the
      // week; their bytes split across them and the backend must re-merge
      // by MAC (paper §2.3). With mobility off, the legacy coin-flip picks
      // at most home + 2 extras; with mobility on, the set is the APs the
      // client's waypoint walk genuinely handed off to.
      std::array<std::size_t, 3> visited{home_idx, 0, 0};
      std::size_t n_visited = 1;
      const std::size_t* visited_aps = visited.data();
      std::uint32_t client_roams = 0;
      if (!mobility_on) {
        if (device.roams && aps_.size() > 1) {
          const int extra = static_cast<int>(rng_.uniform_int(1, std::min<std::int64_t>(
                                                  2, static_cast<std::int64_t>(aps_.size()) - 1)));
          for (int e = 0; e < extra; ++e) {
            const auto other = static_cast<std::size_t>(
                rng_.uniform_int(0, static_cast<std::int64_t>(aps_.size()) - 1));
            if (other != home_idx) visited[n_visited++] = other;
          }
        }
      } else {
        walk_visited.clear();
        client_roams = walk_client_week(mobility_roster_[home_idx][row], walk_visited,
                                        scan_scratch, mob_stats);
        visited_aps = walk_visited.data();
        n_visited = walk_visited.size();
      }

      for (const auto& flow : week.flows) {
        // The AP observes the flow `fragments` times. The first observation
        // takes the slow path (parse + rule match) and pins the verdict; the
        // rest are attributed from the cache. bench_perf_micro contrasts this
        // with the reference engine reparsing every fragment; verdicts are
        // identical either way.
        const classify::FlowKey key{device.mac.to_u64(), home.id().value(),
                                    flow.dst_host, flow.src_port, flow.sample.dst_port,
                                    flow.sample.transport == classify::Transport::kUdp
                                        ? std::uint8_t{17}
                                        : std::uint8_t{6}};
        classify::AppId detected = classifier_.classify(key, flow.sample);
        for (std::uint16_t frag = 1; frag < flow.fragments; ++frag) {
          detected = classifier_.classify(key, flow.sample);
        }
        fragments_seen += flow.fragments;
        ++flows_classified_;
        if (detected != flow.truth) ++flows_misclassified_;
        const auto share = static_cast<std::uint64_t>(n_visited);
        for (std::size_t v = 0; v < n_visited; ++v) {
          rows_by_ap[visited_aps[v]].push(device.mac, device.os, detected,
                                          flow.upstream_bytes / share,
                                          flow.downstream_bytes / share);
        }
      }

      if (mobility_on) {
        // Ground truth for the backend's ap_count: APs that carried usage
        // rows (only when the device generated flows at all) plus the home
        // AP, which client snapshots pin regardless of the walk.
        ClientTrace trace;
        trace.mac = device.mac.to_u64();
        trace.roams = client_roams;
        if (!week.flows.empty()) {
          for (std::size_t v = 0; v < n_visited; ++v) {
            trace.ap_ids.push_back(aps_[visited_aps[v]].id().value());
          }
        }
        const std::uint32_t home_id = home.id().value();
        if (std::find(trace.ap_ids.begin(), trace.ap_ids.end(), home_id) ==
            trace.ap_ids.end()) {
          trace.ap_ids.push_back(home_id);
        }
        std::sort(trace.ap_ids.begin(), trace.ap_ids.end());
        mobility_traces_.push_back(std::move(trace));
      }
    }
  }

  if (mobility_on) {
    // Folded once per week, and only on mobility runs: the mobility-off
    // Prometheus export must stay byte-identical to pre-mobility builds.
    std::uint64_t walkers = 0;
    for (const auto& roster : mobility_roster_) {
      for (const auto& entry : roster) walkers += entry.walks ? 1 : 0;
    }
    metrics_.counter("wlm_mobility_clients_walking_total").inc(walkers);
    metrics_.counter("wlm_mobility_steps_active_total").inc(mob_stats.active_steps);
    metrics_.counter("wlm_mobility_roams_total").inc(mob_stats.roams);
    metrics_.counter("wlm_mobility_handoffs_armed_total").inc(mob_stats.handoffs_armed);
    metrics_.counter("wlm_mobility_handoffs_aborted_total").inc(mob_stats.handoffs_aborted);
    metrics_.counter("wlm_mobility_band_switches_total").inc(mob_stats.band_switches);
  }

  // Deterministic event counts only (hit/miss/evict/slow-path tallies depend
  // on the flow sequence, never on wall time); the nanosecond slow-path
  // profile stays in the classifier, outside this registry, because registry
  // exports must be bit-identical across --jobs.
  const auto& cache_after = classifier_.cache().stats();
  metrics_.counter("wlm_classify_fragments_total").inc(fragments_seen);
  telemetry::work_tally().fragments.fetch_add(fragments_seen, std::memory_order_relaxed);
  metrics_.counter("wlm_classify_cache_hits_total").inc(cache_after.hits - cache_before.hits);
  metrics_.counter("wlm_classify_cache_misses_total")
      .inc(cache_after.misses - cache_before.misses);
  metrics_.counter("wlm_classify_cache_evictions_total")
      .inc(cache_after.evictions - cache_before.evictions);
  metrics_.counter("wlm_classify_slow_path_total")
      .inc(classifier_.slow_path_calls() - slow_before);

  // Report-index-major so simulated time advances monotonically across the
  // whole shard: the fault schedule fires in order, and with faults enabled
  // the backend polls between reporting periods — that mid-week delivery is
  // what makes a later reboot or outage visible as a reporting gap instead
  // of an invisible reshuffle at harvest. (Clean runs skip the mid-week
  // polls; their store content is identical either way because reports only
  // land at harvest.) Per-AP queue order matches the old AP-major loop, so
  // the store's arrival order is unchanged.
  // One scratch report for the whole loop: its row vectors keep capacity
  // across APs instead of reallocating per report. enqueue_report only
  // reads the report (framing copies the bytes), so reuse is safe.
  wire::ApReport report;
  for (int r = 0; r < reports_per_week; ++r) {
    // One hit per reporting period per shard: `after=N` in a failpoint
    // schedule kills the shard exactly N report-periods into the week.
    failsafe::failpoint("shard.step");
    const std::int64_t t_us =
        (Duration::days(7) / reports_per_week * r + Duration::hours(12)).as_micros();
    for (std::size_t ap_idx = 0; ap_idx < aps_.size(); ++ap_idx) {
      ApRuntime& ap = aps_[ap_idx];
      const auto& rows = rows_by_ap[ap_idx];
      report.usage.clear();
      report.utilization.clear();
      report.neighbors.clear();
      report.links.clear();
      report.clients.clear();
      report.timestamp_us = t_us;
      report.firmware = 2;  // the second 2014 firmware revision
      report.usage.reserve(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        wire::ClientUsage usage;
        usage.client = rows.mac[i];
        usage.app_id = static_cast<std::uint32_t>(rows.app[i]);
        usage.tx_bytes = rows.up[i] / static_cast<std::uint64_t>(reports_per_week);
        const double mult = spikes.empty() ? 1.0 : spike_multiplier(rows.os[i], r);
        usage.rx_bytes = static_cast<std::uint64_t>(
            static_cast<double>(rows.down[i] / static_cast<std::uint64_t>(reports_per_week)) *
            mult);
        report.usage.push_back(usage);
      }
      const auto& cols = ap.clients();
      const auto devices = cols.devices();
      const auto bands = cols.bands();
      const auto rssi = cols.rssi_at_ap_dbm();
      const auto detected = cols.detected_os();
      report.clients.reserve(cols.size());
      for (std::size_t i = 0; i < cols.size(); ++i) {
        wire::ClientSnapshot snap;
        snap.client = devices[i].mac;
        snap.capability_bits = devices[i].caps.bits;
        snap.band = band_code(bands[i]);
        snap.rssi_dbm = rssi[i];
        snap.os_id = static_cast<std::uint8_t>(detected[i]);
        report.clients.push_back(snap);
      }
      enqueue_report(ap, report);
    }
    if (injector_.enabled()) {
      poller_.set_now(t_us);
      poller_.poll_all(64);
    }
  }
  }  // row columns die here ...
  arena_.reset();  // ... so the arena can recycle their memory wholesale
}

void NetworkShard::snapshot_clients(SimTime t) {
  mesh_phase_begin();
  // A real-time snapshot only sees clients currently in a session (the
  // paper's evening snapshot caught ~309 k of the week's 5.58 M clients).
  for (auto& ap : aps_) {
    traffic::SessionModelParams session_params;
    session_params.industry = ap.industry();
    const traffic::SessionModel sessions(session_params, Rng{config_.seed ^ 0xfeed});
    const double presence = sessions.presence_probability(t.hour_of_day());
    wire::ApReport report;
    report.timestamp_us = t.as_micros();
    const auto& cols = ap.clients();
    const auto devices = cols.devices();
    const auto bands = cols.bands();
    const auto rssi = cols.rssi_at_ap_dbm();
    const auto detected = cols.detected_os();
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (!rng_.chance(presence)) continue;
      wire::ClientSnapshot snap;
      snap.client = devices[i].mac;
      snap.capability_bits = devices[i].caps.bits;
      snap.band = band_code(bands[i]);
      snap.rssi_dbm = rssi[i];
      snap.os_id = static_cast<std::uint8_t>(detected[i]);
      report.clients.push_back(snap);
    }
    enqueue_report(ap, report);
  }
  if (injector_.enabled()) {
    poller_.set_now(t.as_micros());
    poller_.poll_all(64);
  }
}

void NetworkShard::run_mr16_interference(SimTime t) {
  mesh_phase_begin();
  const double hour = t.hour_of_day();
  const auto& plan = phy::ChannelPlan::us();
  for (auto& ap : aps_) {
    wire::ApReport report;
    report.timestamp_us = t.as_micros();
    const auto env = ap.environment(hour);
    for (const phy::Band band : {phy::Band::k2_4GHz, phy::Band::k5GHz}) {
      const int number =
          band == phy::Band::k5GHz ? ap.config().channel_5 : ap.config().channel_24;
      const auto channel = plan.find(band, number);
      if (!channel) continue;
      const auto activity = env.activity_on(*channel, hour);
      const auto counters = scan::measure_serving_channel(
          activity, Duration::minutes(5), ap.tx_duty(band, hour), phy::noise_floor(20.0));
      wire::ChannelUtilization util;
      util.band = band_code(band);
      util.channel = number;
      util.cycle_us = static_cast<std::uint64_t>(counters.cycle_us);
      util.busy_us = static_cast<std::uint64_t>(counters.busy_us);
      util.rx_frame_us = static_cast<std::uint64_t>(counters.rx_frame_us);
      util.tx_us = static_cast<std::uint64_t>(counters.tx_us);
      report.utilization.push_back(util);
    }
    report.neighbors = neighbor_records(ap);
    enqueue_report(ap, report);
  }
  if (injector_.enabled()) {
    poller_.set_now(t.as_micros());
    poller_.poll_all(64);
  }
}

void NetworkShard::run_mr18_scan(SimTime t, double hour) {
  mesh_phase_begin();
  const auto scanner = scan::default_mr18_scanner();
  const auto& plan = phy::ChannelPlan::us();
  for (auto& ap : aps_) {
    wire::ApReport report;
    report.timestamp_us = t.as_micros();
    const auto env = ap.environment(hour);
    const auto activities = env.activities_all(plan, hour);
    auto results = scanner.scan_window(activities, phy::noise_floor(20.0), rng_);
    for (const auto& r : results) {
      wire::ChannelUtilization util;
      util.band = band_code(r.channel.band);
      util.channel = r.channel.number;
      util.cycle_us = static_cast<std::uint64_t>(r.counters.cycle_us);
      util.busy_us = static_cast<std::uint64_t>(r.counters.busy_us);
      util.rx_frame_us = static_cast<std::uint64_t>(r.counters.rx_frame_us);
      report.utilization.push_back(util);
    }
    report.neighbors = neighbor_records(ap);
    enqueue_report(ap, report);
  }
  if (injector_.enabled()) {
    poller_.set_now(t.as_micros());
    poller_.poll_all(64);
  }
}

void NetworkShard::run_link_windows(SimTime t) {
  mesh_phase_begin();
  const double hour = t.hour_of_day();
  for (auto& link : links_) {
    auto& receiver = aps_[ap_index_[link.to().value()]];
    ProbeOutcomeModel model;
    model.receiver_utilization = serving_utilization(receiver, link.band(), hour);
    model.hidden_fraction = ProbeOutcomeModel::default_hidden_fraction(link.band());
    const auto window = link.measure_window(model);

    // Feed the receiver's link table probe by probe for its own routing use
    // and attach the wire record to its next report.
    wire::ApReport report;
    report.timestamp_us = t.as_micros();
    wire::LinkProbeWindow rec;
    rec.from_ap = link.from().value();
    rec.band = band_code(link.band());
    rec.channel = link.band() == phy::Band::k5GHz ? receiver.config().channel_5
                                                  : receiver.config().channel_24;
    rec.probes_expected = static_cast<std::uint32_t>(window.expected);
    rec.probes_received = static_cast<std::uint32_t>(window.received);
    report.links.push_back(rec);
    enqueue_report(receiver, report);
  }
  if (injector_.enabled()) {
    poller_.set_now(t.as_micros());
    poller_.poll_all(64);
  }
}

void NetworkShard::harvest_local(HarvestMode mode) {
  const std::int64_t horizon_us = fault::FaultPlan::horizon().as_micros();
  poller_.set_now(horizon_us);
  const std::uint64_t stored_before = poller_.stats().reports_stored;
  if (injector_.enabled()) {
    // Drive every AP's fault schedule to the horizon first; kFinal then
    // reconnects even APs whose outage is still open (§2 catch-up), while
    // kWeekEnd leaves them offline with their backlog in flight.
    for (std::size_t i = 0; i < aps_.size(); ++i) {
      injector_.on_harvest(i, aps_[i].tunnel(), mode == HarvestMode::kFinal);
    }
  } else {
    for (auto& ap : aps_) ap.tunnel().reconnect();
  }
  // Pull-based with a per-cycle budget: loop until every reachable tunnel
  // drained. Backoff is overridden — the final harvest pulls quarantined
  // devices too, so nothing recoverable is stranded by the retry policy.
  for (int cycle = 0; cycle < 1000; ++cycle) {
    bool any = false;
    for (const auto& ap : aps_) {
      if (ap.tunnel().connected() && ap.tunnel().queued() > 0) {
        any = true;
        break;
      }
    }
    if (!any) break;
    poller_.poll_all(64, /*ignore_backoff=*/true);
  }
  recorder_.record({telemetry::SpanKind::kHarvest, net_->id.value(), horizon_us,
                    horizon_us, poller_.stats().reports_stored - stored_before});
  publish_telemetry();
}

void NetworkShard::drain_connected(std::int64_t now_us) {
  poller_.set_now(now_us);
  // Same bounded pull loop as harvest_local, minus the reconnect and the
  // fault-plan fast-forward: only tunnels that are up right now drain, and
  // an AP mid-outage keeps queueing (§2: the backend polls queued data when
  // the connection is reestablished).
  for (int cycle = 0; cycle < 1000; ++cycle) {
    bool any = false;
    for (const auto& ap : aps_) {
      if (ap.tunnel().connected() && ap.tunnel().queued() > 0) {
        any = true;
        break;
      }
    }
    if (!any) break;
    poller_.poll_all(64, /*ignore_backoff=*/true);
  }
}

void NetworkShard::publish_telemetry() {
  const fault::LossLedger ledger = loss_ledger();
  // Gauges, not counters: harvest may run more than once (week-end then
  // final), and the registry must reflect the latest ledger each time.
  // Entity 0 + additive merge turns these per-shard snapshots into fleet
  // totals at harvest, mirroring fault::LossLedger::merge.
  metrics_.gauge("wlm_ledger_generated").set(static_cast<double>(ledger.generated));
  metrics_.gauge("wlm_ledger_delivered").set(static_cast<double>(ledger.delivered));
  metrics_.gauge("wlm_ledger_shed").set(static_cast<double>(ledger.shed));
  metrics_.gauge("wlm_ledger_lost_reboot").set(static_cast<double>(ledger.lost_reboot));
  metrics_.gauge("wlm_ledger_lost_corruption")
      .set(static_cast<double>(ledger.lost_corruption));
  metrics_.gauge("wlm_ledger_in_flight").set(static_cast<double>(ledger.in_flight));
  // Always 0 for a live shard (supervision loss exists only fleet-side, for
  // quarantined shards); published so the key exists for reconciliation.
  metrics_.gauge("wlm_ledger_lost_supervision")
      .set(static_cast<double>(ledger.lost_supervision));
  // Structure gauges keyed by network id stay per-shard after the merge.
  const auto entity = static_cast<std::uint64_t>(net_->id.value());
  metrics_.gauge("wlm_shard_aps", entity).set(static_cast<double>(aps_.size()));
  metrics_.gauge("wlm_shard_clients", entity).set(static_cast<double>(client_count_));
  metrics_.gauge("wlm_shard_mesh_links", entity).set(static_cast<double>(links_.size()));
  if (config_.mesh.enabled()) {
    // Published only on mesh runs, so the mesh-off export stays byte-
    // identical to pre-mesh builds. Entity 0 + additive merge, like the
    // other ledger gauges.
    metrics_.gauge("wlm_ledger_lost_mesh_partition")
        .set(static_cast<double>(ledger.lost_mesh_partition));
    std::uint64_t mesh_aps = 0;
    for (std::size_t i = 0; i < is_mesh_.size(); ++i) mesh_aps += is_mesh_[i] ? 1 : 0;
    metrics_.gauge("wlm_mesh_aps", entity).set(static_cast<double>(mesh_aps));
  }
}

fault::LossLedger NetworkShard::loss_ledger() const {
  fault::LossLedger ledger;
  for (const auto& ap : aps_) {
    const auto& ts = ap.tunnel().stats();
    ledger.generated += ts.frames_queued;
    ledger.shed += ts.frames_dropped;
    ledger.lost_reboot += ts.frames_flushed;
    ledger.in_flight += ap.tunnel().queued();
  }
  // Each frame carries exactly one report (backend::frame_report), so the
  // poller's per-report and per-frame counters add up against the tunnels'.
  const auto& ps = poller_.stats();
  ledger.delivered = ps.reports_stored;
  ledger.lost_corruption = ps.corrupt_frames + ps.malformed_reports;
  // Partition-stranded reports never reach a tunnel; the shard counted them
  // at the drop site, so conservation closes with the mesh bucket.
  ledger.generated += mesh_partition_lost_;
  ledger.lost_mesh_partition = mesh_partition_lost_;
  return ledger;
}

}  // namespace wlm::sim
