// Differential suite for the SINR -> PER lookup tables against the verbatim
// scalar oracle in phy/modulation.cpp, plus pinning of the constants the
// hot-path rewrite hoisted (q_function's sqrt(2), reference_loss_db's
// per-frequency log10 cache). The table's determinism contract is strict:
// grid values are the *same doubles* the scalar path produces, guarded
// Bernoulli draws agree bit-for-bit everywhere, and bracket widening is
// pinned at the documented ULP count so a silent widening (masking a real
// monotonicity bug) fails loudly.
#include "phy/per_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/rng.hpp"
#include "phy/modulation.hpp"
#include "phy/propagation.hpp"

namespace wlm::phy {
namespace {

// Mirrors the builder's widening so the test pins both the bracket
// construction and its documented width (kWidenUlps = 8).
constexpr int kPinnedWidenUlps = 8;

double ulp_down(double x, int ulps) {
  for (int i = 0; i < ulps; ++i) x = std::nextafter(x, -1.0);
  return x < 0.0 ? 0.0 : x;
}

double ulp_up(double x, int ulps) {
  for (int i = 0; i < ulps; ++i) x = std::nextafter(x, 2.0);
  return x > 1.0 ? 1.0 : x;
}

TEST(PerTable, FullGridMatchesScalarExactly) {
  // Every grid point of every modulation, at both fleet payload sizes
  // (60-byte probes, 1500-byte data frames), must store the exact double
  // the scalar oracle computes — zero tolerance.
  for (const int payload : {60, 1500}) {
    for (const auto& info : all_rates()) {
      const PerTable table(info.modulation, payload);
      for (int i = 0; i < PerTable::kGridPoints; ++i) {
        const double sinr = PerTable::grid_sinr_db(i);
        ASSERT_EQ(table.grid_value(i), packet_error_rate(info.modulation, sinr, payload))
            << info.name << " payload=" << payload << " i=" << i;
      }
    }
  }
}

TEST(PerTable, GridGeometryPinned) {
  EXPECT_DOUBLE_EQ(PerTable::kGridMinDb, -10.0);
  EXPECT_DOUBLE_EQ(PerTable::kGridMaxDb, 45.0);
  EXPECT_DOUBLE_EQ(PerTable::kGridStepDb, 0.125);
  EXPECT_EQ(PerTable::kGridPoints, 441);
  EXPECT_DOUBLE_EQ(PerTable::grid_sinr_db(PerTable::kGridPoints - 1), PerTable::kGridMaxDb);
}

TEST(PerTable, BracketWideningPinnedAndContainsGridEndpoints) {
  // bounds() must be the grid endpoints min/max pushed outward by exactly
  // the pinned ULP count; anything wider silently hides monotonicity bugs,
  // anything narrower breaks the containment guarantee.
  const PerTable table(Modulation::kOfdm24, 1500);
  for (int i = 0; i + 1 < PerTable::kGridPoints; ++i) {
    // Query strictly inside interval i.
    const double sinr = PerTable::grid_sinr_db(i) + 0.4 * PerTable::kGridStepDb;
    const auto b = table.bounds(sinr);
    ASSERT_TRUE(b.has_value());
    const double lo = std::min(table.grid_value(i), table.grid_value(i + 1));
    const double hi = std::max(table.grid_value(i), table.grid_value(i + 1));
    ASSERT_EQ(b->lo, ulp_down(lo, kPinnedWidenUlps)) << "interval " << i;
    ASSERT_EQ(b->hi, ulp_up(hi, kPinnedWidenUlps)) << "interval " << i;
  }
}

TEST(PerTable, RandomOffGridBracketContainsExactScalar) {
  // 100k random off-grid SINRs: the widened bracket must contain the exact
  // scalar PER — this is the invariant chance_error()'s fast accept/reject
  // depends on.
  Rng rng(0x9e1);
  const PerTableSet set(1500);
  const auto& rates = all_rates();
  for (int trial = 0; trial < 100'000; ++trial) {
    const auto& info = rates[static_cast<std::size_t>(trial) % rates.size()];
    const double sinr = rng.uniform(PerTable::kGridMinDb, PerTable::kGridMaxDb);
    const auto b = set.table(info.modulation).bounds(sinr);
    ASSERT_TRUE(b.has_value());
    const double exact = packet_error_rate(info.modulation, sinr, 1500);
    ASSERT_GE(exact, b->lo) << info.name << " sinr=" << sinr;
    ASSERT_LE(exact, b->hi) << info.name << " sinr=" << sinr;
  }
}

TEST(PerTable, RandomGuardedDrawsMatchScalarBitForBit) {
  // 100k random (SINR, u) pairs, including SINRs beyond the grid edges:
  // the guarded Bernoulli must equal `u < per_exact` exactly. Skew half the
  // u draws into the bracket's neighborhood so the exact-fallback branch is
  // exercised, not just the fast accept/reject.
  Rng rng(0x51a7);
  const PerTableSet set(60);
  const auto& rates = all_rates();
  for (int trial = 0; trial < 100'000; ++trial) {
    const auto& info = rates[static_cast<std::size_t>(trial) % rates.size()];
    const double sinr = rng.uniform(-15.0, 50.0);
    const double exact = packet_error_rate(info.modulation, sinr, 60);
    double u = rng.uniform();
    if (trial % 2 == 0) {
      // Near the exact value (within a few percent) — lands inside or next
      // to the bracket far more often than a uniform draw would.
      u = std::clamp(exact + (u - 0.5) * 0.05, 0.0, 1.0);
    }
    const bool expected = u < exact;
    ASSERT_EQ(set.table(info.modulation).chance_error(sinr, u), expected)
        << info.name << " sinr=" << sinr << " u=" << u;
  }
}

TEST(PerTable, OffGridQueriesFallBackToScalar) {
  const PerTable table(Modulation::kDsss1, 60);
  EXPECT_FALSE(table.bounds(PerTable::kGridMinDb - 0.5).has_value());
  EXPECT_FALSE(table.bounds(PerTable::kGridMaxDb + 0.5).has_value());
  EXPECT_FALSE(table.bounds(std::nan("")).has_value());
}

TEST(PerTable, ProbeTablesSharedAndCorrect) {
  const auto& dsss = probe_per_table(Modulation::kDsss1);
  const auto& ofdm = probe_per_table(Modulation::kOfdm6);
  EXPECT_EQ(dsss.modulation(), Modulation::kDsss1);
  EXPECT_EQ(ofdm.modulation(), Modulation::kOfdm6);
  EXPECT_EQ(dsss.payload_bytes(), 60);
  EXPECT_EQ(ofdm.payload_bytes(), 60);
  // Magic statics: repeated lookups return the same shared object.
  EXPECT_EQ(&probe_per_table(Modulation::kDsss1), &dsss);
}

// --- Hoisted-constant pinning (hot-path rewrite satellite) ---------------
//
// q_function() hoisted sqrt(2.0) into a namespace constant and
// reference_loss_db() memoizes its 20*log10(...) per frequency. Both must
// yield the *identical doubles* the original expressions produced. The BER
// values are pinned as hexfloat literals (any drift — a "harmless"
// refactor, a changed constant, an FMA contraction — flips a bit here
// before it silently changes fleet outputs).

TEST(PhyHoistedConstants, QFunctionValuesPinned) {
  EXPECT_EQ(bit_error_rate(Modulation::kDsss1, 5.0), 0x1.06faec2d18fedp-50);
  EXPECT_EQ(bit_error_rate(Modulation::kOfdm6, 8.0), 0x1.cb73aa137a2fcp-34);
  EXPECT_EQ(bit_error_rate(Modulation::kOfdm54, 23.0), 0x1.ff0d468e6a4ap-19);
  EXPECT_EQ(packet_error_rate(Modulation::kCck11, 12.0, 1500), 0x1.5988e582af1acp-2);
  EXPECT_EQ(packet_error_rate(Modulation::kOfdm24, 17.0, 60), 0x1.662e532e4p-19);
}

TEST(PhyHoistedConstants, ReferenceLossCacheReturnsUncachedDouble) {
  // The memoized value must be the same double as the direct Friis
  // expression, and a second (cached) call must return it again.
  for (const double mhz : {2412.0, 2437.0, 2462.0, 5180.0, 5745.0}) {
    const FrequencyMhz freq{mhz};
    const double direct = 20.0 * std::log10(4.0 * M_PI * 1.0 * freq.hz() / 299'792'458.0);
    EXPECT_EQ(PathLossModel::reference_loss_db(freq), direct) << mhz;
    EXPECT_EQ(PathLossModel::reference_loss_db(freq), direct) << mhz << " (cached)";
  }
  EXPECT_EQ(PathLossModel::reference_loss_db(FrequencyMhz{2412}), 0x1.40c33c00e201ep+5);
  EXPECT_EQ(PathLossModel::reference_loss_db(FrequencyMhz{5180}), 0x1.75e001ca97f17p+5);
}

}  // namespace
}  // namespace wlm::phy
