// Fleet-level byte-identity between the scalar kReference PER path and the
// kTable lookup fast path, across worker counts — the acceptance gate for
// the hot-path rewrite. Rendered paper artifacts (Table 2/3, Figure 3/6),
// the `wlmctl stats` Prometheus export, and campaign checkpoint bytes must
// all be byte-for-byte identical for every (per_mode, jobs) combination;
// "close" is a failure.
//
// Carries the `perf` ctest label: it replays several small fleets end to
// end, so the sanitizer lanes in tools/ci.sh exclude it (like `slow`).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "ckpt/campaign.hpp"
#include "sim/fleet_runner.hpp"
#include "telemetry/export.hpp"

namespace wlm {
namespace {

analysis::ScenarioScale scale_for(phy::PerMode mode, int threads) {
  analysis::ScenarioScale scale;
  scale.networks = 10;
  scale.seed = 2015;
  scale.threads = threads;
  scale.per_mode = mode;
  return scale;
}

TEST(PerModeIdentity, RendersIdenticalAcrossModes) {
  const auto ref = scale_for(phy::PerMode::kReference, 1);
  const auto tab = scale_for(phy::PerMode::kTable, 1);

  EXPECT_EQ(analysis::render_table2(ref), analysis::render_table2(tab));

  const auto usage_ref = analysis::run_usage_study(ref);
  const auto usage_tab = analysis::run_usage_study(tab);
  EXPECT_EQ(analysis::render_table3(usage_ref), analysis::render_table3(usage_tab));

  const auto link_ref = analysis::run_link_study(ref);
  const auto link_tab = analysis::run_link_study(tab);
  EXPECT_EQ(analysis::render_fig3(link_ref), analysis::render_fig3(link_tab));

  const auto util_ref = analysis::run_utilization_study(ref);
  const auto util_tab = analysis::run_utilization_study(tab);
  EXPECT_EQ(analysis::render_fig6(util_ref), analysis::render_fig6(util_tab));
}

TEST(PerModeIdentity, StatsExportAndCheckpointIdenticalAcrossModesAndJobs) {
  // The full cross product {reference, table} x {1, 2, 8 workers} must
  // produce one identical metrics export and one identical checkpoint byte
  // stream. Mirrors what `wlmctl stats --jobs N` prints to stdout.
  std::string baseline_stats;
  std::vector<std::uint8_t> baseline_ckpt;
  bool have_baseline = false;

  for (const auto mode : {phy::PerMode::kReference, phy::PerMode::kTable}) {
    for (const int jobs : {1, 2, 8}) {
      sim::WorldConfig cfg;
      cfg.fleet.epoch = deploy::Epoch::kJan2015;
      cfg.fleet.network_count = 8;
      cfg.fleet.seed = 2015;
      cfg.seed = 2015;
      cfg.per_mode = mode;
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
      EXPECT_EQ(stats, baseline_stats)
          << "stats diverge: mode=" << phy::per_mode_name(mode) << " jobs=" << jobs;
      EXPECT_EQ(ckpt_bytes, baseline_ckpt)
          << "checkpoint diverges: mode=" << phy::per_mode_name(mode) << " jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace wlm
