// One network's slice of the simulated fleet: its APs, clients, mesh links,
// RNG substream, and a thread-confined backend store.
//
// A shard is the unit of parallelism in the fleet runtime. Everything it
// touches — the RNG, the AP runtimes, the tunnels, the poller, the report
// store — belongs to it alone, so campaigns on different shards can run on
// different worker threads with no synchronization, and the results are
// bit-identical for any thread count (the RNG is a substream keyed by the
// network id, not a shared stream whose consumption order would depend on
// scheduling).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "backend/poller.hpp"
#include "backend/store.hpp"
#include "core/arena.hpp"
#include "classify/verdict_cache.hpp"
#include "deploy/generator.hpp"
#include "fault/injector.hpp"
#include "fault/loss_ledger.hpp"
#include "mac/association.hpp"
#include "mac/mesh.hpp"
#include "mobility/mobility.hpp"
#include "sim/ap.hpp"
#include "sim/link.hpp"
#include "sim/world_config.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "traffic/diurnal.hpp"

namespace wlm::sim {

/// How harvest treats tunnels that are down when the week ends.
enum class HarvestMode {
  /// Reconnect everything and catch up (paper §2: the backend polls for
  /// queued information when the connection is reestablished). After this,
  /// in_flight is zero and no report is stranded.
  kFinal,
  /// Leave tunnels inside a still-open WAN outage disconnected: their
  /// backlog stays in flight and the backend sees those APs as offline —
  /// the view HealthMonitor alerts on.
  kWeekEnd,
};

/// One roaming client's mobility runtime, roster-aligned with its home
/// AP's ClientColumns row. Static clients carry an entry too (walks ==
/// false) so the roster indexes exactly like the columns.
struct MobileClient {
  /// True for devices that walk (deploy::ClientDevice::roams); static
  /// entries never move or hand off.
  bool walks = false;
  bool dual_band = false;
  mobility::MotionState motion;
  /// Index into aps_ of the currently serving AP, plus the serving band.
  std::size_t serving_ap = 0;
  phy::Band serving_band = phy::Band::k2_4GHz;
  /// Pending handoff debounce: the rival must win handoff_settle_steps
  /// consecutive evaluations before the roam commits. 0 = nothing pending.
  std::uint32_t pending_steps = 0;
  std::size_t pending_ap = 0;
  phy::Band pending_band = phy::Band::k2_4GHz;
};

/// Ground truth for the backend's roaming aggregation: the distinct APs
/// whose reports will carry this MAC over the last usage week (visited APs
/// when the device generated flows, plus the home AP, which snapshots pin
/// regardless). The ap_count property test unions these by MAC fleet-wide
/// and compares against backend::UsageAggregator.
struct ClientTrace {
  std::uint64_t mac = 0;
  std::vector<std::uint32_t> ap_ids;  // sorted, distinct
  std::uint32_t roams = 0;            // committed AP changes during the week
};

class NetworkShard {
 public:
  /// `config` is the owning runner's clamped configuration (the shard keeps
  /// its own copy, next to the state its hot loops touch).
  NetworkShard(const deploy::NetworkConfig& net, const WorldConfig& config);

  NetworkShard(const NetworkShard&) = delete;
  NetworkShard& operator=(const NetworkShard&) = delete;

  // --- structure ---
  [[nodiscard]] NetworkId id() const { return net_->id; }
  [[nodiscard]] deploy::Epoch epoch() const { return config_.fleet.epoch; }
  [[nodiscard]] const deploy::NetworkConfig& network() const { return *net_; }
  [[nodiscard]] std::vector<ApRuntime>& aps() { return aps_; }
  [[nodiscard]] const std::vector<ApRuntime>& aps() const { return aps_; }
  [[nodiscard]] std::vector<MeshLink>& links() { return links_; }
  [[nodiscard]] const std::vector<MeshLink>& links() const { return links_; }
  [[nodiscard]] backend::ReportStore& store() { return store_; }
  [[nodiscard]] const backend::Poller& poller() const { return poller_; }
  [[nodiscard]] backend::Poller& poller() { return poller_; }
  [[nodiscard]] const fault::FaultInjector& injector() const { return injector_; }
  [[nodiscard]] fault::FaultInjector& injector() { return injector_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  /// Runtime fault draw stream (corruption, skyscraper tables) — a sibling
  /// of the campaign stream; checkpoints capture both.
  [[nodiscard]] Rng& fault_rng() { return fault_rng_; }
  /// Mobility draw stream (waypoints, occupancy, shadowing along the walk).
  /// A sibling of the campaign stream under kMobilitySeedSalt; checkpoints
  /// capture it when mobility is enabled.
  [[nodiscard]] Rng& mobility_rng() { return mobility_rng_; }
  [[nodiscard]] bool mobility_enabled() const { return config_.mobility.enabled; }
  /// Mobility roster, [ap index][client row] aligned with each AP's
  /// ClientColumns. Empty when mobility is disabled. Mutable for checkpoint
  /// restore (motion state is campaign state).
  [[nodiscard]] std::vector<std::vector<MobileClient>>& mobility_roster() {
    return mobility_roster_;
  }
  [[nodiscard]] const std::vector<std::vector<MobileClient>>& mobility_roster() const {
    return mobility_roster_;
  }
  /// Ground-truth roaming traces from the last usage week (mobility runs
  /// only; cleared at the start of each usage week).
  [[nodiscard]] const std::vector<ClientTrace>& mobility_traces() const {
    return mobility_traces_;
  }
  // --- mesh backhaul (empty/zero unless config.mesh.enabled()) ---
  [[nodiscard]] bool mesh_enabled() const { return config_.mesh.enabled(); }
  /// Mesh draw stream (gateway selection, per-phase link drift). A sibling
  /// of the campaign stream under mesh::kMeshSeedSalt; checkpoints capture
  /// it when mesh is enabled.
  [[nodiscard]] Rng& mesh_rng() { return mesh_rng_; }
  /// Which APs (by aps_ index) have no WAN uplink. Drawn once at
  /// construction from mesh_rng_; index 0 is always a gateway.
  [[nodiscard]] const std::vector<bool>& mesh_membership() const { return is_mesh_; }
  /// Current routing table, aps_-indexed. Recomputed at every campaign
  /// phase boundary as shadowing drifts; mutable for checkpoint restore.
  [[nodiscard]] std::vector<mesh::RouteEntry>& mesh_routes() { return mesh_routes_; }
  [[nodiscard]] const std::vector<mesh::RouteEntry>& mesh_routes() const {
    return mesh_routes_;
  }
  /// Per-AP relay-radio busy horizon (store-and-forward queueing state);
  /// mutable for checkpoint restore.
  [[nodiscard]] std::vector<std::int64_t>& mesh_busy_until_us() {
    return mesh_busy_until_us_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& mesh_busy_until_us() const {
    return mesh_busy_until_us_;
  }
  /// Reports stranded by a down relay path (gateway outage or no route).
  [[nodiscard]] std::uint64_t mesh_partition_lost() const { return mesh_partition_lost_; }
  /// Exact overwrite for checkpoint restore (partition drops are shard
  /// campaign state, invisible to tunnels and poller).
  void restore_mesh_partition_lost(std::uint64_t n) { mesh_partition_lost_ = n; }
  /// Ground truth for the hop-count property test: reports enqueued per hop
  /// count (index 0 = direct/wired), counted at tunnel-enqueue time. Test
  /// state only — never serialized.
  [[nodiscard]] const std::vector<std::uint64_t>& mesh_enqueued_by_hops() const {
    return mesh_enqueued_by_hops_;
  }
  [[nodiscard]] std::size_t client_count() const { return client_count_; }
  [[nodiscard]] ApRuntime* find_ap(ApId id);
  /// Shard-confined telemetry sinks: the poller and injector write here too.
  [[nodiscard]] telemetry::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const telemetry::MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] const telemetry::FlightRecorder& recorder() const { return recorder_; }
  [[nodiscard]] telemetry::FlightRecorder& recorder() { return recorder_; }

  /// Exact overwrite for checkpoint restore (classification tallies are
  /// shard campaign state, not derivable from the store).
  void restore_flow_counters(std::uint64_t classified, std::uint64_t misclassified) {
    flows_classified_ = classified;
    flows_misclassified_ = misclassified;
  }

  /// The AP-side two-tier classifier (slow path + verdict cache). Exposed
  /// mutably so checkpoints can capture and restore the cache contents.
  [[nodiscard]] classify::TwoTierClassifier& classifier() { return classifier_; }
  [[nodiscard]] const classify::TwoTierClassifier& classifier() const { return classifier_; }

  // --- campaigns: each enqueues reports into this shard's AP tunnels ---
  // (Semantics documented on sim::FleetRunner, which fans them out.)
  void run_usage_week(int reports_per_week, const std::vector<traffic::UpdateSpike>& spikes);
  void snapshot_clients(SimTime t);
  void run_mr16_interference(SimTime t);
  void run_mr18_scan(SimTime t, double hour);
  void run_link_windows(SimTime t);

  /// Drains this shard's tunnels into the shard-local store. kFinal
  /// reconnects every tunnel first (queued reports survive a WAN outage, per
  /// the paper's §2 queue-and-catch-up design); kWeekEnd leaves APs inside a
  /// still-open outage offline, backlog in flight.
  void harvest_local(HarvestMode mode = HarvestMode::kFinal);

  /// Incremental-harvest drain: pulls whatever the connected tunnels have
  /// queued at `now_us` into the shard store, without touching fault
  /// schedules (no injector on_harvest — that drives plans to the horizon
  /// and belongs to the final harvest only), reconnecting anything, or
  /// republishing telemetry. APs inside an outage keep their backlog in
  /// flight. Shard-confined, so phase-boundary drains on different shards
  /// parallelize like campaigns do.
  void drain_connected(std::int64_t now_us);

  // --- pipeline statistics ---
  [[nodiscard]] std::uint64_t flows_classified() const { return flows_classified_; }
  [[nodiscard]] std::uint64_t flows_misclassified() const { return flows_misclassified_; }
  /// End-to-end loss accounting, derived from this shard's tunnel and poller
  /// statistics (see fault::LossLedger for the conservation invariant).
  [[nodiscard]] fault::LossLedger loss_ledger() const;

 private:
  const deploy::NetworkConfig* net_;
  WorldConfig config_;
  Rng rng_;
  /// Runtime fault draws (corruption, skyscraper tables). A sibling of the
  /// plan's substream, so faults never consume campaign randomness.
  Rng fault_rng_;
  /// Mobility draws (waypoints, occupancy, walk shadowing). A sibling of
  /// the campaign stream, so mobility never consumes campaign randomness.
  Rng mobility_rng_;
  /// Mesh draws (gateway selection, per-phase link drift). A sibling of the
  /// campaign stream, so mesh never consumes campaign randomness.
  Rng mesh_rng_;
  std::vector<std::vector<MobileClient>> mobility_roster_;
  std::vector<ClientTrace> mobility_traces_;
  std::vector<bool> is_mesh_;
  std::vector<mesh::RouteEntry> mesh_routes_;
  std::vector<std::int64_t> mesh_busy_until_us_;
  std::uint64_t mesh_partition_lost_ = 0;
  std::vector<std::uint64_t> mesh_enqueued_by_hops_;
  fault::FaultInjector injector_;
  phy::PathLossModel pathloss_;
  std::vector<ApRuntime> aps_;
  std::unordered_map<std::uint32_t, std::size_t> ap_index_;
  std::vector<MeshLink> links_;
  backend::ReportStore store_;
  backend::Poller poller_;
  telemetry::MetricsRegistry metrics_;
  telemetry::FlightRecorder recorder_;
  classify::TwoTierClassifier classifier_;
  /// Scratch arena for the usage-week row columns; reset once the rows have
  /// been folded into reports, so every week reruns in recycled memory.
  core::Arena arena_;
  std::size_t client_count_ = 0;
  std::uint64_t flows_classified_ = 0;
  std::uint64_t flows_misclassified_ = 0;

  void build_clients();
  void build_duties_and_peers();
  void build_links();
  /// Per-step mobility counters accumulated while walking a usage week,
  /// folded into wlm_mobility_* metrics once per week (mobility runs only,
  /// so mobility-off telemetry exports stay byte-identical).
  struct MobilityWeekStats {
    std::uint64_t active_steps = 0;
    std::uint64_t roams = 0;
    std::uint64_t handoffs_armed = 0;
    std::uint64_t handoffs_aborted = 0;
    std::uint64_t band_switches = 0;
  };
  /// Walks one client through the simulated week: advances its waypoint
  /// motion under the occupancy wave, evaluates hysteresis handoffs per
  /// step, and appends the distinct serving-AP indices to `visited`
  /// (serving AP at week start first). Draws only from mobility_rng_.
  /// Returns the client's committed AP changes (its roam count).
  std::uint32_t walk_client_week(MobileClient& entry, std::vector<std::size_t>& visited,
                                 std::vector<mac::BssCandidate>& scan_scratch,
                                 MobilityWeekStats& stats);
  /// RSSI of every in-network BSS at `pos`, with walk shadowing drawn from
  /// mobility_rng_. Same propagation math as build_clients.
  void mobility_candidates(const phy::Position& pos,
                           std::vector<mac::BssCandidate>& out);
  /// Frames and queues one report. The report is read (and, with faults
  /// enabled, mutated by the injector) but never consumed, so callers can
  /// reuse one scratch report across calls. On a WAN-less AP the frame is
  /// relayed hop by hop into its gateway's tunnel; a down relay path
  /// (gateway outage, no route) strands the report in lost_mesh_partition.
  void enqueue_report(ApRuntime& ap, wire::ApReport& report);
  /// Relay path for a mesh AP's report: walks the route accumulating
  /// store-and-forward airtime + queueing, stamps mesh_hops/mesh_relay_us,
  /// and enqueues into the gateway's tunnel (ap_id stays the origin).
  /// Returns false when the relay path is down — the report is stranded.
  bool enqueue_via_mesh(std::size_t idx, ApRuntime& origin, wire::ApReport& report);
  /// Folds one successful enqueue into the hop histogram and the per-hop
  /// wlm_mesh_* counters (mesh runs only).
  void record_mesh_hops(std::uint32_t hops, std::uint64_t relay_us);
  /// Campaign phase boundary: redraws per-link shadowing drift from
  /// mesh_rng_, recomputes the routing table over the drifted link budget
  /// graph, and resets the relay queue horizons. No-op when mesh is off.
  void mesh_phase_begin();
  void record_enqueue(const ApRuntime& ap, std::int64_t t_us, std::size_t frame_bytes);
  /// Refreshes the ledger and shard gauges from current state (set, not
  /// add: calling it twice must not double-count).
  void publish_telemetry();
  [[nodiscard]] std::vector<wire::NeighborBss> neighbor_records(const ApRuntime& ap) const;
};

/// Busy fraction on an AP's serving channel (used as collision exposure for
/// its incoming probes). Pure function of the AP's environment and duty.
[[nodiscard]] double serving_utilization(const ApRuntime& ap, phy::Band band, double hour);

}  // namespace wlm::sim
