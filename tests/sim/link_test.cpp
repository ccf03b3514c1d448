#include "sim/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace wlm::sim {
namespace {

MeshLink link_with_rx(double rx_dbm, phy::Band band = phy::Band::k2_4GHz,
                      std::uint64_t seed = 3) {
  return MeshLink{ApId{1}, ApId{2}, LinkBudget{rx_dbm, band}, Rng{seed}};
}

TEST(MeshLink, StrongLinkDeliversCleanAir) {
  MeshLink link = link_with_rx(-55.0);
  ProbeOutcomeModel model;  // no interference
  const auto window = link.measure_window(model);
  EXPECT_EQ(window.expected, 20);
  EXPECT_GE(window.received, 19);
}

TEST(MeshLink, HopelessLinkDeliversNothing) {
  MeshLink link = link_with_rx(-105.0);
  ProbeOutcomeModel model;
  const auto window = link.measure_window(model);
  EXPECT_LE(window.received, 1);
}

TEST(MeshLink, DeliveryMonotonicInBudget) {
  ProbeOutcomeModel model;
  double last = -0.01;
  for (double rx : {-100.0, -94.0, -90.0, -86.0, -80.0, -70.0}) {
    MeshLink link = link_with_rx(rx, phy::Band::k2_4GHz, 7);
    double total = 0.0;
    for (int i = 0; i < 50; ++i) total += link.measure_window(model).ratio();
    const double mean = total / 50.0;
    EXPECT_GE(mean, last - 0.05) << "rx " << rx;
    last = mean;
  }
}

TEST(MeshLink, InterferenceDegradesDelivery) {
  ProbeOutcomeModel quiet;
  ProbeOutcomeModel busy;
  busy.receiver_utilization = 0.5;
  MeshLink a = link_with_rx(-60.0, phy::Band::k2_4GHz, 9);
  MeshLink b = link_with_rx(-60.0, phy::Band::k2_4GHz, 9);
  double quiet_total = 0.0;
  double busy_total = 0.0;
  for (int i = 0; i < 40; ++i) {
    quiet_total += a.measure_window(quiet).ratio();
    busy_total += b.measure_window(busy).ratio();
  }
  EXPECT_GT(quiet_total, busy_total + 2.0);
}

TEST(MeshLink, MarginalLinkIsIntermediate) {
  // Near the DSSS-1 threshold, fading makes windows land strictly between
  // 0 and 1 most of the time — the paper's core observation.
  MeshLink link = link_with_rx(-89.0, phy::Band::k2_4GHz, 11);
  ProbeOutcomeModel model;
  model.receiver_utilization = 0.25;
  int intermediate = 0;
  for (int i = 0; i < 60; ++i) {
    const auto r = link.measure_window(model).ratio();
    if (r > 0.02 && r < 0.98) ++intermediate;
  }
  EXPECT_GT(intermediate, 30);
}

TEST(MeshLink, GuardedProbeMatchesScalarOracle) {
  // probe_with decides most draws from the shared SINR->PER table and falls
  // back to the scalar packet_error_rate() only inside the table's bracket.
  // Its outcome must equal `u < p` bit for bit, where p is
  // delivery_probability() taken just before the call: the scalar formula
  // on the same pre-advance fading state. Budgets sweep the PER waterfall
  // of both probe rates and run off both ends of the table grid; three of
  // every four draws sit on or right next to p, where the bracket cannot
  // decide and the fallback must.
  Rng draws(0x9B0BE);
  int probes = 0;
  for (const auto band : {phy::Band::k2_4GHz, phy::Band::k5GHz}) {
    for (double rx = -125.0; rx <= -35.0; rx += 0.25) {
      MeshLink link = link_with_rx(rx, band, static_cast<std::uint64_t>(probes) + 1);
      ProbeOutcomeModel model;
      model.receiver_utilization = draws.uniform(0.0, 0.6);
      model.hidden_fraction = ProbeOutcomeModel::default_hidden_fraction(band);
      for (int i = 0; i < 24; ++i, ++probes) {
        const double p = link.delivery_probability(model);
        double u = draws.uniform();
        switch (i % 4) {
          case 1:
            u = std::clamp(p + (u - 0.5) * 1e-3, 0.0, 1.0);
            break;
          case 2:
            u = p;
            break;
          case 3:
            u = std::nextafter(p, i % 8 == 3 ? 0.0 : 1.0);
            break;
          default:
            break;
        }
        ASSERT_EQ(link.probe_with(model, u), u < p)
            << "band=" << static_cast<int>(band) << " rx=" << rx << " probe=" << i
            << " p=" << p << " u=" << u;
      }
    }
  }
  EXPECT_GT(probes, 17'000);
}

TEST(MeshLink, HiddenFractionDefaultsByBand) {
  EXPECT_GT(ProbeOutcomeModel::default_hidden_fraction(phy::Band::k2_4GHz),
            ProbeOutcomeModel::default_hidden_fraction(phy::Band::k5GHz));
}

TEST(ComputeLinkBudget, DistanceAndWallsReduceRx) {
  phy::PathLossModel model;
  model.shadowing_sigma_db = 0.0;  // deterministic for the comparison
  Rng rng(3);
  const auto near = compute_link_budget({0, 0}, {10, 0}, 0, phy::Band::k2_4GHz, 23.0,
                                        model, rng);
  const auto far = compute_link_budget({0, 0}, {60, 0}, 0, phy::Band::k2_4GHz, 23.0,
                                       model, rng);
  const auto walled = compute_link_budget({0, 0}, {10, 0}, 4, phy::Band::k2_4GHz, 23.0,
                                          model, rng);
  EXPECT_GT(near.median_rx_dbm, far.median_rx_dbm);
  EXPECT_GT(near.median_rx_dbm, walled.median_rx_dbm);
}

TEST(ComputeLinkBudget, FiveGhzLosesMoreOverAir) {
  phy::PathLossModel model;
  model.shadowing_sigma_db = 0.0;
  Rng rng(5);
  const auto b24 =
      compute_link_budget({0, 0}, {30, 0}, 0, phy::Band::k2_4GHz, 24.0, model, rng);
  const auto b5 =
      compute_link_budget({0, 0}, {30, 0}, 0, phy::Band::k5GHz, 24.0, model, rng);
  // Higher frequency loses ~6.7 dB more, partly offset by +2 dB antennas.
  EXPECT_GT(b24.median_rx_dbm, b5.median_rx_dbm);
}

}  // namespace
}  // namespace wlm::sim
