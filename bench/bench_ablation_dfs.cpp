// Ablation: why the DFS bands sit nearly empty in Figure 2 — auto-channel
// fleets under radar pressure drain out of UNII-2/UNII-2e even when those
// channels are no busier than the rest.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "core/rng.hpp"
#include "scan/dfs.hpp"

int main(int argc, char** argv) {
  using namespace wlm;
  const int fleet = bench::count_from_args(argc, argv, "fleet", 400);
  std::printf("=== Ablation: DFS radar pressure vs 5 GHz channel occupancy ===\n");
  std::printf("(%d auto-channel APs, uniform utilization everywhere, 4 simulated weeks)\n\n",
              fleet);

  auto run_fleet = [&](double radar_per_hour) {
    scan::DfsPolicy dfs;
    dfs.radar_prob_per_hour = radar_per_hour;
    Rng rng(404);
    // Uniform scan: every channel equally busy, so planning alone is neutral.
    std::vector<scan::ChannelScanResult> scan;
    for (const auto& channel : phy::ChannelPlan::us().band_channels(phy::Band::k5GHz)) {
      scan::ChannelScanResult r;
      r.channel = channel;
      r.counters.cycle_us = 1'000'000;
      r.counters.busy_us = 100'000;
      scan.push_back(r);
    }
    const auto& channels = phy::ChannelPlan::us().band_channels(phy::Band::k5GHz);
    std::map<std::string, int> where;
    std::uint64_t evacuations = 0;
    for (int a = 0; a < fleet; ++a) {
      // Start uniformly across all 5 GHz channels.
      const auto start = channels[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(channels.size()) - 1))];
      scan::AutoChannelAgent ap(start, scan::PlannerPolicy{}, dfs);
      SimTime t;
      for (int h = 0; h < 24 * 28; ++h) {
        (void)ap.tick(t, Duration::hours(1), scan, rng);
        t += Duration::hours(1);
      }
      ++where[std::string(phy::unii_name(ap.current().unii))];
      evacuations += ap.radar_evacuations();
    }
    return std::make_pair(where, evacuations);
  };

  for (double pressure : {0.0, 0.02, 0.08}) {
    const auto [where, evac] = run_fleet(pressure);
    std::printf("radar %.2f/hr (%llu evacuations): ", pressure,
                static_cast<unsigned long long>(evac));
    for (const auto& [band, count] : where) {
      std::printf("%s %.0f%%  ", band.c_str(), 100.0 * count / fleet);
    }
    std::printf("\n");
  }
  std::printf("\npaper Figure 2: nearly all 5 GHz networks sit in UNII-1/UNII-3; the\n"
              "DFS-free bands fill up because radar events evict everyone else.\n");
  return 0;
}
