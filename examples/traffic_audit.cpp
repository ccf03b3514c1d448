// Traffic audit: the paper's practical implication #1 — "traffic shaping at
// the wireless access point to better serve the growing number of bandwidth
// hungry clients and applications".
//
// Classifies a generated flow log with the production rule engine, prints
// the per-category usage profile of one network, and flags the categories a
// shaping policy would target.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "backend/aggregate.hpp"
#include "sim/fleet_runner.hpp"

int main() {
  using namespace wlm;

  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 5;
  config.client_scale = 2.0;
  config.seed = 99;
  sim::FleetRunner runner(config);

  runner.run_usage_week();
  runner.harvest();

  backend::UsageAggregator agg;
  agg.consume(runner.reports(), SimTime::epoch(), SimTime::epoch() + Duration::days(8));

  std::printf("audited %zu clients, %llu flows classified (%llu disagreed with ground "
              "truth)\n\n",
              agg.client_count(),
              static_cast<unsigned long long>(runner.flows_classified()),
              static_cast<unsigned long long>(runner.flows_misclassified()));

  const auto categories = agg.by_category();
  std::uint64_t total = 0;
  for (const auto& c : categories) total += c.up + c.down;

  struct Row {
    classify::Category cat;
    std::uint64_t bytes;
    std::uint64_t down;
    std::uint64_t clients;
  };
  std::vector<Row> rows;
  for (int c = 0; c < classify::kCategoryCount; ++c) {
    const auto& r = categories[static_cast<std::size_t>(c)];
    if (r.clients == 0) continue;
    rows.push_back(Row{static_cast<classify::Category>(c), r.up + r.down, r.down, r.clients});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) { return a.bytes > b.bytes; });

  std::printf("%-32s %10s %8s %8s %9s\n", "category", "GB", "% total", "% down", "clients");
  for (const auto& row : rows) {
    std::printf("%-32s %10.2f %7.1f%% %7.1f%% %9llu\n",
                std::string(classify::category_name(row.cat)).c_str(),
                static_cast<double>(row.bytes) / 1e9,
                100.0 * static_cast<double>(row.bytes) / static_cast<double>(total),
                100.0 * static_cast<double>(row.down) / std::max<std::uint64_t>(1, row.bytes),
                static_cast<unsigned long long>(row.clients));
  }

  // Shaping advice: categories that are >20% of bytes but <30% of clients.
  std::printf("\nshaping candidates (high bytes, few clients):\n");
  const double total_clients = static_cast<double>(agg.client_count());
  for (const auto& row : rows) {
    const double byte_share = static_cast<double>(row.bytes) / static_cast<double>(total);
    const double client_share = static_cast<double>(row.clients) / total_clients;
    if (byte_share > 0.15 && client_share < 0.5) {
      std::printf("  - %s: %.0f%% of bytes from %.0f%% of clients\n",
                  std::string(classify::category_name(row.cat)).c_str(), byte_share * 100.0,
                  client_share * 100.0);
    }
  }
  return 0;
}
