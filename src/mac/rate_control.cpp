#include "mac/rate_control.hpp"

#include <algorithm>

namespace wlm::mac {

MinstrelController::MinstrelController(RateControlConfig config, Rng rng)
    : config_(config), rng_(rng) {
  for (const auto& info : phy::all_rates()) {
    if (config_.ofdm_only && !info.is_ofdm) continue;
    rates_.push_back(RateState{info.modulation, 0.5, 0});
  }
}

double MinstrelController::expected_throughput(const RateState& state) const {
  const double rate_mbps = phy::rate_info(state.modulation).rate.as_mbps();
  // A failed frame costs a retry at the same airtime; heavily lossy rates
  // are additionally penalized to avoid the classic EWMA 'high rate with
  // 30% delivery still wins' trap.
  const double p = state.ewma_success;
  if (p < 0.1) return 0.0;
  return rate_mbps * p;
}

phy::Modulation MinstrelController::select() {
  ++transmissions_;
  // Probe an under-sampled or random rate a fraction of the time.
  if (rng_.chance(config_.probe_fraction)) {
    ++probes_;
    // Prefer the least-recently-attempted rate for probing.
    const auto it = std::min_element(rates_.begin(), rates_.end(),
                                     [](const RateState& a, const RateState& b) {
                                       return a.attempts < b.attempts;
                                     });
    return it->modulation;
  }
  return best_rate();
}

phy::Modulation MinstrelController::best_rate() const {
  const RateState* best = &rates_.front();
  for (const auto& state : rates_) {
    if (expected_throughput(state) > expected_throughput(*best)) best = &state;
  }
  return best->modulation;
}

void MinstrelController::on_result(phy::Modulation rate, bool success) {
  for (auto& state : rates_) {
    if (state.modulation != rate) continue;
    ++state.attempts;
    state.ewma_success = config_.ewma_alpha * (success ? 1.0 : 0.0) +
                         (1.0 - config_.ewma_alpha) * state.ewma_success;
    return;
  }
}

double MinstrelController::delivery_estimate(phy::Modulation rate) const {
  for (const auto& state : rates_) {
    if (state.modulation == rate) return state.ewma_success;
  }
  return 0.0;
}

double simulate_throughput(MinstrelController& controller, double sinr_db,
                           int payload_bytes, int n, Rng& rng) {
  double delivered_bits = 0.0;
  double airtime_us = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto rate = controller.select();
    const bool ok = !rng.chance(phy::packet_error_rate(rate, sinr_db, payload_bytes));
    controller.on_result(rate, ok);
    airtime_us += static_cast<double>(phy::airtime_us(rate, payload_bytes));
    if (ok) delivered_bits += static_cast<double>(payload_bytes) * 8.0;
  }
  return airtime_us > 0.0 ? delivered_bits / airtime_us : 0.0;  // bits/us == Mb/s
}

}  // namespace wlm::mac
