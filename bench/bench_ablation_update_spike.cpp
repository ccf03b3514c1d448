// Ablation: the paper's §6.2 software-update surges — "software updates
// from Apple and Microsoft would drive large downloads across large numbers
// of clients, sometimes causing sudden increases totaling tens or hundreds
// of gigabytes".
#include <cstdio>
#include <vector>

#include "backend/aggregate.hpp"
#include "bench_common.hpp"
#include "sim/fleet_runner.hpp"

int main(int argc, char** argv) {
  using namespace wlm;
  const int networks = bench::count_from_args(argc, argv, "networks", 60);
  std::printf("=== Ablation: vendor software-update spike (paper SS6.2) ===\n\n");

  auto run_week = [&](const std::vector<traffic::UpdateSpike>& spikes) {
    sim::WorldConfig config;
    config.fleet.epoch = deploy::Epoch::kJan2015;
    config.fleet.network_count = networks;
    config.seed = 31337;
    sim::FleetRunner runner(config);
    runner.run_usage_week(7, spikes);
    runner.harvest();
    // Daily fleet download bytes from the report store.
    std::vector<double> daily(7, 0.0);
    runner.store().for_each([&](const wire::ApReport& report) {
      const auto day = static_cast<std::size_t>(
          report.timestamp_us / Duration::days(1).as_micros());
      if (day >= daily.size()) return;
      for (const auto& u : report.usage) daily[day] += static_cast<double>(u.rx_bytes);
    });
    return daily;
  };

  traffic::UpdateSpike spike;
  spike.start = SimTime::epoch() + Duration::days(3) + Duration::hours(10);
  spike.duration = Duration::hours(8);
  spike.affects_apple = true;
  spike.download_multiplier = 9.0;

  const auto baseline = run_week({});
  const auto spiked = run_week({spike});

  std::printf("day   baseline GB   with-iOS-release GB   delta\n");
  for (int d = 0; d < 7; ++d) {
    const double base = baseline[static_cast<std::size_t>(d)] / 1e9;
    const double with = spiked[static_cast<std::size_t>(d)] / 1e9;
    std::printf("%-5d %11.2f %21.2f   %+5.1f%%%s\n", d, base, with,
                base > 0 ? (with / base - 1.0) * 100.0 : 0.0,
                d == 3 ? "   <- release day" : "");
  }
  return 0;
}
