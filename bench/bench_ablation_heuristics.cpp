// Ablation: device-typing heuristics, 2014 vs 2015 revisions (paper §3.2:
// "the reduction in unknown devices between January 2014 and 2015 is due to
// improvements in our heuristics").
#include <cstdio>

#include "bench_common.hpp"
#include "classify/classifier.hpp"
#include "classify/dhcp_fingerprint.hpp"
#include "classify/oui.hpp"
#include "classify/user_agent.hpp"
#include "core/rng.hpp"
#include "deploy/population.hpp"

int main(int argc, char** argv) {
  using namespace wlm;
  const int n = bench::count_from_args(argc, argv, "devices", 50'000);
  std::printf("=== Ablation: OS heuristics 2014 vs 2015 (%d devices) ===\n\n", n);

  const deploy::PopulationModel population(deploy::Epoch::kJan2015);
  Rng rng(42);
  int unknown_2014 = 0;
  int unknown_2015 = 0;
  int correct_2014 = 0;
  int correct_2015 = 0;
  for (int i = 0; i < n; ++i) {
    const auto dev = population.sample(ClientId{static_cast<std::uint32_t>(i)}, rng);
    classify::ClientEvidence evidence;
    evidence.mac = dev.mac;
    if (dev.os != classify::OsType::kUnknown) {
      // Realistic evidence capture: DHCP usually seen, UA sometimes, and
      // some stacks append vendor options that defeat exact matching.
      if (rng.chance(0.9)) {
        auto params = classify::canonical_dhcp_params(dev.os);
        if (rng.chance(0.3)) params.push_back(224);  // vendor suffix
        evidence.dhcp_fingerprints.push_back(params);
      }
      if (rng.chance(0.6)) {
        evidence.user_agents.push_back(
            classify::canonical_user_agent(dev.os, static_cast<unsigned>(rng.next_u64() & 3)));
      }
    }
    const auto os14 = classify::classify_os(evidence, classify::HeuristicsVersion::k2014);
    const auto os15 = classify::classify_os(evidence, classify::HeuristicsVersion::k2015);
    unknown_2014 += os14 == classify::OsType::kUnknown;
    unknown_2015 += os15 == classify::OsType::kUnknown;
    correct_2014 += os14 == dev.os;
    correct_2015 += os15 == dev.os;
  }
  std::printf("heuristics  unknown-share  accuracy\n");
  std::printf("2014        %6.1f%%        %6.1f%%\n", 100.0 * unknown_2014 / n,
              100.0 * correct_2014 / n);
  std::printf("2015        %6.1f%%        %6.1f%%\n", 100.0 * unknown_2015 / n,
              100.0 * correct_2015 / n);
  std::printf("\npaper: Unknown clients shrank 8.9%% year-over-year while every other "
              "population grew,\nattributed to heuristic improvements (prefix matching, "
              "vendor priors).\n");
  return 0;
}
