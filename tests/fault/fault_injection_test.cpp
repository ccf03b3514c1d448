// End-to-end fault injection through the sharded fleet runtime: the loss
// ledger's conservation invariant under mixed faults, bit-identical replay
// across thread counts, and the §6.1 OOM-reboot loss path.
#include <gtest/gtest.h>

#include "core/checksum.hpp"
#include "sim/fleet_runner.hpp"
#include "wire/messages.hpp"

namespace wlm::sim {
namespace {

WorldConfig faulted_fleet(const fault::FaultSpec& faults, int networks = 10,
                          std::uint64_t seed = 77, int threads = 1) {
  WorldConfig cfg;
  cfg.fleet.epoch = deploy::Epoch::kJan2015;
  cfg.fleet.network_count = networks;
  cfg.fleet.seed = seed;
  cfg.seed = seed + 1;
  cfg.threads = threads;
  cfg.faults = faults;
  return cfg;
}

/// A scenario with every loss process active at once.
fault::FaultSpec mixed_faults() {
  fault::FaultSpec faults;
  faults.flap_fraction = 0.3;
  faults.outage_rate_per_week = 8.0;
  faults.outage_mean_hours = 20.0;
  faults.reboot_rate_per_week = 6.0;
  faults.corrupt_probability = 0.05;
  faults.tunnel_queue_limit = 3;  // force shedding on flapped backlogs
  return faults;
}

std::uint32_t store_digest(backend::ReportStore& store) {
  std::uint32_t crc = 0;
  for (const ApId ap : store.aps()) {
    for (const auto& report : store.reports_for(ap)) {
      crc = crc32_update(crc, wire::encode_report(report));
    }
  }
  return crc;
}

TEST(FaultInjection, MixedFaultLedgerConserved) {
  FleetRunner runner(faulted_fleet(mixed_faults()));
  runner.run_usage_week(/*reports_per_week=*/7);
  runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  runner.harvest(HarvestMode::kFinal);

  const fault::LossLedger ledger = runner.loss_ledger();
  EXPECT_TRUE(ledger.conserved()) << ledger.render();
  EXPECT_EQ(ledger.in_flight, 0u) << "final harvest must drain everything";
  // Every loss bucket is active under the mixed scenario.
  EXPECT_GT(ledger.generated, 0u);
  EXPECT_GT(ledger.delivered, 0u);
  EXPECT_GT(ledger.shed, 0u);
  EXPECT_GT(ledger.lost_reboot, 0u);
  EXPECT_GT(ledger.lost_corruption, 0u);
  // "delivered" is exactly what the store holds.
  EXPECT_EQ(runner.store().report_count(), ledger.delivered);
}

TEST(FaultInjection, LedgerAndStoreBitIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    FleetRunner runner(faulted_fleet(mixed_faults(), 10, 77, threads));
    runner.run_usage_week(7);
    runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
    runner.harvest(HarvestMode::kFinal);
    return std::make_pair(store_digest(runner.store()), runner.loss_ledger());
  };
  const auto serial = run(1);
  const auto parallel4 = run(4);
  const auto parallel3 = run(3);
  EXPECT_EQ(serial.first, parallel4.first);
  EXPECT_EQ(serial.first, parallel3.first);
  EXPECT_EQ(serial.second, parallel4.second) << serial.second.render() << "\nvs\n"
                                             << parallel4.second.render();
  EXPECT_EQ(serial.second, parallel3.second);
}

TEST(FaultInjection, FaultsDoNotPerturbCampaignDraws) {
  // The plan comes from a dedicated substream, so a faults-enabled run
  // generates exactly the same reports as a clean run — only their fate
  // differs. With lossless faults (pure flap + final harvest) the stores
  // must be byte-identical.
  auto digest_with = [](const fault::FaultSpec& faults) {
    FleetRunner runner(faulted_fleet(faults, 8, 21));
    runner.run_usage_week(7);
    runner.harvest(HarvestMode::kFinal);
    return store_digest(runner.store());
  };
  fault::FaultSpec flap_only;
  flap_only.flap_fraction = 0.9;
  EXPECT_EQ(digest_with(fault::FaultSpec{}), digest_with(flap_only));
}

TEST(FaultInjection, BadKnobsClampInsteadOfMisbehaving) {
  fault::FaultSpec faults;
  faults.flap_fraction = 2.5;         // > 1
  faults.outage_rate_per_week = -4.0; // negative
  WorldConfig cfg = faulted_fleet(faults, 2, 5);
  cfg.client_scale = -3.0;
  FleetRunner runner(cfg);
  EXPECT_DOUBLE_EQ(runner.config().client_scale, 0.0);
  EXPECT_DOUBLE_EQ(runner.config().faults.flap_fraction, 1.0);
  EXPECT_DOUBLE_EQ(runner.config().faults.outage_rate_per_week, 0.0);
  runner.run_usage_week(3);
  runner.harvest();
  EXPECT_TRUE(runner.loss_ledger().conserved());
}

TEST(FaultInjection, OomRebootsFlushQueuedTelemetry) {
  // §6.1: skyscraper APs inflate their neighbor tables until the box
  // OOM-reboots, flushing queued state. Flap everything so the usage
  // backlog is still queued when the scan report triggers the reboot.
  fault::FaultSpec faults;
  faults.flap_fraction = 1.0;
  faults.skyscraper_fraction = 1.0;
  faults.skyscraper_neighbors = 600;
  faults.oom_neighbor_threshold = 400;
  FleetRunner runner(faulted_fleet(faults, 4, 13));
  runner.run_usage_week(/*reports_per_week=*/3);
  runner.run_mr16_interference(SimTime::epoch() + Duration::days(3));
  runner.harvest(HarvestMode::kFinal);

  std::uint64_t oom_reboots = 0;
  for (const auto& shard : runner.shards()) {
    oom_reboots += shard->injector().oom_reboots();
  }
  EXPECT_GT(oom_reboots, 0u);
  const fault::LossLedger ledger = runner.loss_ledger();
  EXPECT_TRUE(ledger.conserved()) << ledger.render();
  // Every AP lost its 3 queued usage reports to the OOM reboot.
  EXPECT_GE(ledger.lost_reboot, 3u * runner.aps().size());
}

TEST(FaultInjection, WeekEndHarvestLeavesOpenOutagesInFlight) {
  fault::FaultSpec faults;
  faults.outage_rate_per_week = 2.0;
  faults.outage_mean_hours = 400.0;  // most outages stay open past the week
  FleetRunner runner(faulted_fleet(faults, 8, 19));
  runner.run_usage_week(7);
  runner.harvest(HarvestMode::kWeekEnd);

  const fault::LossLedger ledger = runner.loss_ledger();
  EXPECT_TRUE(ledger.conserved()) << ledger.render();
  EXPECT_GT(ledger.in_flight, 0u) << "open outages must strand their backlog";
  bool any_offline = false;
  for (const auto& ap : runner.aps()) {
    if (!ap.tunnel().connected()) any_offline = true;
  }
  EXPECT_TRUE(any_offline);
}

TEST(FaultInjection, CorruptionExercisesPollerCrcPath) {
  fault::FaultSpec faults;
  faults.corrupt_probability = 0.2;
  FleetRunner runner(faulted_fleet(faults, 6, 23));
  runner.run_usage_week(7);
  runner.harvest(HarvestMode::kFinal);

  std::uint64_t frames_corrupted = 0;
  std::uint64_t poller_corrupt = 0;
  for (const auto& shard : runner.shards()) {
    frames_corrupted += shard->injector().frames_corrupted();
    poller_corrupt += shard->poller().stats().corrupt_frames;
  }
  EXPECT_GT(frames_corrupted, 0u);
  // CRC32 catches every single-bit flip, so the poller sees exactly what
  // the injector corrupted.
  EXPECT_EQ(poller_corrupt, frames_corrupted);
  const fault::LossLedger ledger = runner.loss_ledger();
  EXPECT_TRUE(ledger.conserved()) << ledger.render();
  EXPECT_EQ(ledger.lost_corruption, frames_corrupted);
}

}  // namespace
}  // namespace wlm::sim
