// Fleet-level byte-identity across worker counts: the `wlmctl stats`
// Prometheus export and the campaign checkpoint bytes must be byte-for-byte
// identical at 1, 2 and 8 workers; "close" is a failure. The guarded
// SINR->PER probe path is pinned against the scalar formula at unit level
// (MeshLink.GuardedProbeMatchesScalarOracle).
//
// Carries the `perf` ctest label: it replays several small fleets end to
// end, so the sanitizer lanes in tools/ci.sh exclude it (like `slow`).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/campaign.hpp"
#include "sim/fleet_runner.hpp"
#include "telemetry/export.hpp"

namespace wlm {
namespace {

TEST(JobsIdentity, StatsExportAndCheckpointIdenticalAcrossJobs) {
  // {1, 2, 8 workers} must produce one identical metrics export and one
  // identical checkpoint byte stream. Mirrors what `wlmctl stats --jobs N`
  // prints to stdout.
  std::string baseline_stats;
  std::vector<std::uint8_t> baseline_ckpt;
  bool have_baseline = false;

  for (const int jobs : {1, 2, 8}) {
    sim::WorldConfig cfg;
    cfg.fleet.epoch = deploy::Epoch::kJan2015;
    cfg.fleet.network_count = 8;
    cfg.fleet.seed = 2015;
    cfg.seed = 2015;
    cfg.threads = jobs;
    sim::FleetRunner runner(cfg);
    runner.run_usage_week();
    runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
    runner.harvest(sim::HarvestMode::kFinal);

    const std::string stats = telemetry::to_prometheus(runner.metrics());
    ckpt::CampaignProgress progress;
    progress.phases_done = {"usage_week", "mr16", "harvest"};
    const auto ckpt_bytes = ckpt::save_campaign(runner, progress);
    ASSERT_FALSE(ckpt_bytes.empty());

    if (!have_baseline) {
      baseline_stats = stats;
      baseline_ckpt = ckpt_bytes;
      have_baseline = true;
      continue;
    }
    EXPECT_EQ(stats, baseline_stats) << "stats diverge: jobs=" << jobs;
    EXPECT_EQ(ckpt_bytes, baseline_ckpt) << "checkpoint diverges: jobs=" << jobs;
  }
}

}  // namespace
}  // namespace wlm
