// Ablation: bounded vs unbounded link tables under the paper's §6.1
// "skyscraper" failure mode — an AP in a Manhattan high-rise decoding
// beacons from miles away grows its neighbor state without limit until the
// 64 MB platform OOMs and reboots.
#include <cstdio>

#include "bench_common.hpp"
#include "core/rng.hpp"
#include "probe/link_table.hpp"

int main(int argc, char** argv) {
  using namespace wlm;
  const int distinct_links = bench::count_from_args(argc, argv, "links", 20'000);
  std::printf("=== Ablation: bounded link table vs unbounded growth ===\n");
  std::printf("(a skyscraper AP hears %d distinct foreign transmitters)\n\n", distinct_links);

  Rng rng(7);
  const std::size_t caps[] = {256, 1024, static_cast<std::size_t>(distinct_links) * 2};
  std::printf("%-12s %-10s %-11s %-16s\n", "capacity", "tracked", "evictions", "approx memory");
  for (const auto cap : caps) {
    probe::LinkTable table(cap);
    SimTime t;
    for (int round = 0; round < 3; ++round) {
      for (int link = 0; link < distinct_links; ++link) {
        table.record(probe::LinkKey{ApId{static_cast<std::uint32_t>(link)},
                                    phy::Band::k2_4GHz},
                     t, rng.chance(0.5));
        t += Duration::millis(10);
      }
    }
    // Rough per-entry footprint: window deque (20 entries) + map/list nodes.
    const double mem_kb = static_cast<double>(table.size()) * 0.4;
    std::printf("%-12zu %-10zu %-11llu %8.0f kB %s\n", cap, table.size(),
                static_cast<unsigned long long>(table.evictions()), mem_kb,
                cap > static_cast<std::size_t>(distinct_links)
                    ? "<- unbounded: the OOM-reboot configuration"
                    : "");
  }
  std::printf("\nbounded tables trade eviction churn for a hard memory ceiling; the\n"
              "production fix after the §6.1 incident was exactly this shape.\n");
  return 0;
}
