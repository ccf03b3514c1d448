// The fleet runtime: partitions a generated fleet into per-network shards,
// fans campaigns out across a worker pool (sim/parallel_for.hpp), and at
// harvest seals each shard's report store into a columnar segment of the
// fleet's tsdb vault.
//
// Determinism contract: for a fixed WorldConfig (minus `threads`), every
// byte of simulated output is identical for any thread count, including 1.
// Three properties carry that guarantee:
//   1. each shard draws its RNG from a substream keyed by the network id,
//      so no draw depends on cross-shard scheduling;
//   2. every mutable object a campaign touches (APs, tunnels, poller, store)
//      is confined to its shard, so workers never contend;
//   3. harvest seals shard stores in the workers (a segment's bytes are a
//      pure function of one shard's canonical store) and appends them to
//      the vault in fleet order, so the vault's contents are independent of
//      which worker ran which shard.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/report_source.hpp"
#include "backend/store.hpp"
#include "core/ptr_span.hpp"
#include "deploy/generator.hpp"
#include "failsafe/supervisor.hpp"
#include "sim/network_shard.hpp"
#include "sim/world_config.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/trace.hpp"
#include "tsdb/fleet_store.hpp"

namespace wlm::sim {

/// Delivery-ratio time series sample for one link (Figures 4/5).
struct SeriesPoint {
  double hour_of_week = 0.0;
  double ratio = 0.0;
};

class FleetRunner {
 public:
  explicit FleetRunner(WorldConfig config);

  // The supervision hooks capture `this`, so the runner never moves.
  FleetRunner(const FleetRunner&) = delete;
  FleetRunner& operator=(const FleetRunner&) = delete;

  // --- structure ---
  [[nodiscard]] const WorldConfig& config() const { return config_; }
  [[nodiscard]] deploy::Epoch epoch() const { return config_.fleet.epoch; }
  [[nodiscard]] const deploy::Fleet& fleet() const { return fleet_; }
  [[nodiscard]] const std::vector<std::unique_ptr<NetworkShard>>& shards() const {
    return shards_;
  }
  /// All AP runtimes across shards, in fleet order (flat non-owning view).
  [[nodiscard]] PtrSpan<ApRuntime> aps() { return {ap_ptrs_.data(), ap_ptrs_.size()}; }
  [[nodiscard]] PtrSpan<const ApRuntime> aps() const {
    return {ap_ptrs_.data(), ap_ptrs_.size()};
  }
  [[nodiscard]] PtrSpan<MeshLink> mesh_links() {
    return {link_ptrs_.data(), link_ptrs_.size()};
  }
  /// Legacy row view of the harvested fleet. Reports live in columnar tsdb
  /// segments after harvest(); the first store() call after a segment
  /// change materializes them back into rows (canonical order, exact
  /// round-trip). Prefer reports() — it reads the segments directly, one
  /// network resident at a time.
  [[nodiscard]] backend::ReportStore& store();
  /// The harvested fleet as a columnar read source (backend/report_source
  /// contract: canonical order, byte-identical to store()'s view).
  [[nodiscard]] const backend::ReportSource& reports() const { return fleet_tsdb_; }
  /// Segment vault access for checkpointing and bench accounting.
  [[nodiscard]] const tsdb::FleetStore& fleet_tsdb() const { return fleet_tsdb_; }
  [[nodiscard]] tsdb::FleetStore& fleet_tsdb() { return fleet_tsdb_; }
  /// Marks the legacy row view stale (checkpoint restore adopts segments
  /// behind store()'s back).
  void invalidate_store_view() { store_stale_ = true; }
  [[nodiscard]] std::size_t client_count() const;
  [[nodiscard]] ApRuntime* find_ap(ApId id);

  // --- campaigns: each fans out shard-by-shard across the worker pool ---

  /// The one-week usage study (Tables 3/5/6): generates each client's
  /// weekly workload, classifies its flows AT THE AP with the real parsers
  /// and rule engine, and emits `reports_per_week` usage reports per AP.
  /// `spikes` injects fleet-wide software-update events (paper §6.2).
  void run_usage_week(int reports_per_week = 7,
                      const std::vector<traffic::UpdateSpike>& spikes = {});

  /// Associated-client snapshot (Figure 1 / Table 4): capabilities + RSSI.
  void snapshot_clients(SimTime t);

  /// MR16-style interference measurement: serving-channel utilization plus
  /// the neighbor scan table (Figures 2/6, Table 7).
  void run_mr16_interference(SimTime t);

  /// MR18-style dedicated-radio scan window across all channels
  /// (Figures 7/8/9/10). `hour` selects day/night activity.
  void run_mr18_scan(SimTime t, double hour);

  /// Link-probe windows for every mesh link, recorded at the receiver and
  /// reported (Figure 3).
  void run_link_windows(SimTime t);

  /// Drains each shard's tunnels into its local store in parallel, then
  /// seals the shard stores into tsdb segments in parallel and appends
  /// them to the vault in fleet order. kFinal
  /// reconnects every tunnel first (queued reports must survive a WAN
  /// outage, per the paper's §2 design); kWeekEnd leaves APs inside a
  /// still-open outage offline, their backlog in flight.
  void harvest(HarvestMode mode = HarvestMode::kFinal);

  /// Delivery-ratio time series for one link across a simulated week
  /// (Figures 4/5); `link_index` indexes the flat mesh_links() view.
  [[nodiscard]] std::vector<SeriesPoint> link_week_series(std::size_t link_index,
                                                          Duration step);

  // --- pipeline statistics ---
  [[nodiscard]] std::uint64_t flows_classified() const;
  [[nodiscard]] std::uint64_t flows_misclassified() const;
  /// Total framed bytes enqueued per AP over the last usage campaign, for
  /// the ~1 kbit/s overhead claim.
  [[nodiscard]] double mean_report_bytes_per_ap() const;
  /// Fleet-wide end-to-end loss accounting, summed over shards in fleet
  /// order (see fault::LossLedger for the conservation invariant). A
  /// quarantined shard contributes its quarantined view: delivered and
  /// in-flight work moves to lost_supervision, keeping the fleet invariant
  /// closed while naming what supervision cost.
  [[nodiscard]] fault::LossLedger loss_ledger() const;

  // --- supervision ---

  /// The shard supervision layer: exception isolation, watchdog deadlines,
  /// checkpoint-based retry, quarantine (see failsafe::ShardSupervisor).
  /// Every campaign phase runs through it.
  [[nodiscard]] const failsafe::ShardSupervisor& supervisor() const { return supervisor_; }
  [[nodiscard]] failsafe::ShardSupervisor& supervisor() { return supervisor_; }
  /// Checkpoint restore: adopt a saved degraded-run manifest and rebuild
  /// the quarantine set from it.
  void restore_supervision(failsafe::DegradedRunManifest manifest);

  // --- telemetry ---

  /// Merged fleet metrics, rebuilt from the shard registries (in fleet
  /// order) at every harvest(). Empty before the first harvest. Like the
  /// store, the snapshot is bit-identical for any thread count.
  [[nodiscard]] const telemetry::MetricsRegistry& metrics() const { return metrics_; }
  /// Mutable access for checkpoint restore (overlays the merged snapshot).
  [[nodiscard]] telemetry::MetricsRegistry& metrics() { return metrics_; }
  /// Merged trace spans, shard-major in fleet order, same rebuild rule.
  [[nodiscard]] const std::vector<telemetry::TraceSpan>& trace() const { return trace_; }
  [[nodiscard]] std::vector<telemetry::TraceSpan>& trace() { return trace_; }
  /// Wall-clock phase breakdown (build, campaigns, harvest). Real elapsed
  /// time: NOT deterministic, and never part of metrics()/trace().
  [[nodiscard]] const telemetry::PhaseProfiler& profiler() const { return profiler_; }

  // --- campaign progress ---

  /// Simulated hours covered by campaigns so far (usage weeks contribute
  /// 168 h each; instantaneous snapshots contribute none). Checkpoint
  /// cadence (`--checkpoint-every <sim-hours>`) keys off this.
  [[nodiscard]] double campaign_sim_hours() const { return campaign_sim_hours_; }
  /// Restore-side overwrite, paired with the checkpoint's progress record.
  void set_campaign_sim_hours(double hours) { campaign_sim_hours_ = hours; }

 private:
  WorldConfig config_;
  deploy::Fleet fleet_;
  std::vector<std::unique_ptr<NetworkShard>> shards_;
  std::vector<ApRuntime*> ap_ptrs_;
  std::vector<MeshLink*> link_ptrs_;
  std::unordered_map<std::uint32_t, ApRuntime*> ap_lookup_;
  tsdb::FleetStore fleet_tsdb_;
  backend::ReportStore store_;
  /// True when segments changed since store_ was last materialized.
  bool store_stale_ = false;
  telemetry::MetricsRegistry metrics_;
  std::vector<telemetry::TraceSpan> trace_;
  telemetry::PhaseProfiler profiler_;
  failsafe::ShardSupervisor supervisor_;
  double campaign_sim_hours_ = 0.0;

  /// Campaign-phase dispatch under supervision: fans `fn` out across the
  /// worker pool with per-shard exception isolation, then lets the
  /// supervisor restore/retry/quarantine failed shards in fleet order.
  void run_supervised(const char* phase, const std::function<void(NetworkShard&)>& fn);
  /// One campaign phase: runs `fn` under supervision, records the phase's
  /// wall clock, advances the campaign clock by `sim_hours`, then (streaming
  /// harvest) drains and seals at the boundary. The clock advances before
  /// the drain because sim_now_us() stamps it.
  void run_campaign(const char* phase, double sim_hours,
                    const std::function<void(NetworkShard&)>& fn);
  /// Streaming harvest (mem_ceiling_mb > 0): drains connected tunnels in
  /// parallel, seals each shard's batch on the worker pool, appends the
  /// segments to the vault in fleet order, and spills if the ceiling
  /// presses. Runs at every campaign phase boundary, so checkpoint cuts see
  /// sealed segments.
  void incremental_harvest();
  /// Seals the local store of every shard with merge[i] != 0 in parallel
  /// (releasing it), then appends the non-empty batches in fleet order.
  void seal_shards(const std::vector<std::uint8_t>& merge);
  /// Sim-time stamp for supervision incidents/spans: the campaign clock at
  /// the current phase's start.
  [[nodiscard]] std::int64_t sim_now_us() const {
    return static_cast<std::int64_t>(campaign_sim_hours_ * 3.6e9);
  }
  /// Records a wall-clock phase into this runner's profiler and the
  /// process-wide one (telemetry::global_profiler), which bench mains dump.
  void record_phase(const char* phase, double seconds);
};

}  // namespace wlm::sim
