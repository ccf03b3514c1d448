// Quickstart: build a small simulated fleet, run one day of measurements,
// and read the results back out of the backend — the minimal end-to-end use
// of the library's public API.
#include <cstdio>

#include "backend/aggregate.hpp"
#include "core/stats.hpp"
#include "sim/fleet_runner.hpp"

int main() {
  using namespace wlm;

  // 1. Describe the world: 20 networks' worth of access points and clients,
  //    January 2015 vintage.
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 20;
  config.seed = 42;
  sim::FleetRunner runner(config);
  std::printf("world: %d APs, %zu clients, %zu mesh links\n", runner.fleet().total_aps(),
              runner.client_count(), runner.mesh_links().size());

  // 2. Run the measurement campaigns: client usage for a week, one
  //    interference snapshot, and the mesh link probes.
  runner.run_usage_week();
  runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  runner.run_link_windows(SimTime::epoch() + Duration::hours(14));

  // 3. Collect: every report flows tunnel -> poller -> store.
  runner.harvest();
  std::printf("backend store: %zu reports from %zu APs\n", runner.reports().report_count(),
              runner.reports().ap_count());

  // 4. Ask questions. Who used the most data this week?
  backend::UsageAggregator agg;
  agg.consume(runner.reports(), SimTime::epoch(), SimTime::epoch() + Duration::days(8));
  std::uint64_t best_total = 0;
  classify::OsType best_os = classify::OsType::kUnknown;
  for (const auto& [mac, client] : agg.clients()) {
    if (client.total() > best_total) {
      best_total = client.total();
      best_os = client.os;
    }
  }
  std::printf("clients seen: %zu; heaviest client: %.1f MB (%s)\n", agg.client_count(),
              static_cast<double>(best_total) / 1e6, std::string(classify::os_name(best_os)).c_str());

  // 5. And how busy is the spectrum?
  RunningStats util;
  runner.reports().for_each([&](const wire::ApReport& report) {
    for (const auto& u : report.utilization) {
      if (u.band == 0 && u.cycle_us > 0) {
        util.add(static_cast<double>(u.busy_us) / static_cast<double>(u.cycle_us));
      }
    }
  });
  std::printf("mean 2.4 GHz serving-channel utilization: %.1f%%\n", util.mean() * 100.0);
  return 0;
}
