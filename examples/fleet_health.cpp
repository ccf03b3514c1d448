// Fleet health triage: runs a week of telemetry under a mixed fault scenario
// — WAN outages, a couple of reboot processes, wire corruption, and a
// "skyscraper" outlier inflating its scan tables — then lets the backend's
// health monitor find the damage from the reports and tunnel statistics
// alone: the paper's §6.1 operational workflow.
#include <cstdio>

#include "backend/health.hpp"
#include "backend/timeseries.hpp"
#include "sim/fleet_runner.hpp"

int main() {
  using namespace wlm;

  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 25;
  config.seed = 2026;
  // The fault scenario: a flaky WAN under some sites, occasional power
  // events, a lossy long-haul link, and a few Manhattan-skyscraper APs whose
  // neighbor tables grow until the box OOM-reboots (§6.1).
  config.faults.flap_fraction = 0.1;
  config.faults.outage_rate_per_week = 1.0;
  config.faults.outage_mean_hours = 30.0;
  config.faults.reboot_rate_per_week = 0.5;
  config.faults.corrupt_probability = 0.005;
  config.faults.skyscraper_fraction = 0.05;
  config.faults.skyscraper_neighbors = 600;
  config.faults.oom_neighbor_threshold = 400;
  sim::FleetRunner runner(config);

  runner.run_usage_week(7);
  runner.run_mr16_interference(SimTime::epoch() + Duration::days(3));
  // Week-end harvest: APs still inside an open outage stay offline, which is
  // exactly what the dashboard should be alerting on.
  runner.harvest(sim::HarvestMode::kWeekEnd);

  // Feed per-AP neighbor counts into the time-series store (the dashboard's
  // backing data) and run the health analysis.
  backend::TimeSeriesStore tsdb;
  std::uint32_t outlier_ap = 0;
  std::size_t outlier_neighbors = 0;
  runner.reports().for_each([&](const wire::ApReport& report) {
    tsdb.append(backend::SeriesKey{"neighbors", report.ap_id},
                SimTime::from_micros(report.timestamp_us),
                static_cast<double>(report.neighbors.size()));
    if (report.neighbors.size() > outlier_neighbors) {
      outlier_neighbors = report.neighbors.size();
      outlier_ap = report.ap_id;
    }
  });
  std::printf("tsdb: %zu series, %zu points\n", tsdb.series_count(), tsdb.total_points());

  backend::HealthPolicy policy;
  policy.expected_interval = Duration::days(1);
  const backend::HealthMonitor monitor(policy);
  auto findings = monitor.analyze(runner.reports(), SimTime::epoch() + Duration::days(7));
  for (const auto& ap : runner.aps()) {
    const auto tunnel_findings = monitor.analyze_tunnel(ap.tunnel());
    findings.insert(findings.end(), tunnel_findings.begin(), tunnel_findings.end());
  }
  std::fputs(backend::HealthMonitor::render(findings).c_str(), stdout);

  // End-to-end loss accounting: every generated report lands in exactly one
  // bucket, so the operator can tell shed from lost from still-queued.
  std::printf("\n%s\n", runner.loss_ledger().render().c_str());

  // The worst offender's neighbor series, downsampled for a dashboard panel.
  const auto buckets = tsdb.downsample(backend::SeriesKey{"neighbors", outlier_ap},
                                       SimTime::epoch(),
                                       SimTime::epoch() + Duration::days(7),
                                       Duration::days(1), backend::Agg::kMax);
  std::printf("\nAP%u daily max audible neighbors:", outlier_ap);
  for (const auto& b : buckets) std::printf(" %.0f", b.value);
  std::printf("\n");
  return 0;
}
