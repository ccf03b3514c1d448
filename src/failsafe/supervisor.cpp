#include "failsafe/supervisor.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>

#include "failsafe/failpoint.hpp"

namespace wlm::failsafe {

namespace {

/// First retry's sim-time penalty; doubles per subsequent retry.
constexpr double kRetryBackoffHours = 1.0;

std::string current_exception_what() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

std::int64_t backoff_end_us(std::int64_t start_us, double backoff_hours) {
  return start_us + static_cast<std::int64_t>(backoff_hours * 3.6e9);
}

}  // namespace

bool DegradedRunManifest::degraded() const {
  return std::any_of(incidents.begin(), incidents.end(), [](const ShardIncident& inc) {
    return inc.outcome == IncidentOutcome::kQuarantined;
  });
}

std::vector<std::uint64_t> DegradedRunManifest::quarantined_networks() const {
  std::vector<std::uint64_t> ids;
  for (const auto& inc : incidents) {
    if (inc.outcome == IncidentOutcome::kQuarantined) ids.push_back(inc.network);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::uint64_t DegradedRunManifest::total_failures() const {
  std::uint64_t n = 0;
  for (const auto& inc : incidents) n += inc.failures;
  return n;
}

std::uint64_t DegradedRunManifest::total_retries() const {
  std::uint64_t n = 0;
  for (const auto& inc : incidents) n += inc.retries;
  return n;
}

std::string DegradedRunManifest::render() const {
  char line[512];
  std::snprintf(line, sizeof line,
                "degraded-run manifest: %zu incident(s), %llu failure(s), %llu "
                "retr%s, %zu network(s) quarantined",
                incidents.size(), static_cast<unsigned long long>(total_failures()),
                static_cast<unsigned long long>(total_retries()),
                total_retries() == 1 ? "y" : "ies", quarantined_networks().size());
  std::string out = line;
  for (const auto& inc : incidents) {
    const bool q = inc.outcome == IncidentOutcome::kQuarantined;
    std::snprintf(line, sizeof line,
                  "\n  [%s] network %llu in %s: %llu failure(s), %llu retr%s, "
                  "%.1fh backoff — %s",
                  q ? "quarantined" : "recovered",
                  static_cast<unsigned long long>(inc.network), inc.phase.c_str(),
                  static_cast<unsigned long long>(inc.failures),
                  static_cast<unsigned long long>(inc.retries),
                  inc.retries == 1 ? "y" : "ies", inc.backoff_hours, inc.error.c_str());
    out += line;
    if (q) {
      const fault::LossLedger view = ShardSupervisor::quarantined_view(inc.ledger);
      std::snprintf(line, sizeof line, "\n    lost to supervision: %llu report(s)",
                    static_cast<unsigned long long>(view.lost_supervision));
      out += line;
    }
  }
  return out;
}

void ShardSupervisor::configure(SupervisorConfig config, std::size_t shard_count,
                                ShardHooks hooks) {
  config_ = config;
  hooks_ = std::move(hooks);
  quarantined_.assign(shard_count, 0);
  snapshots_.assign(shard_count, {});
  has_snapshot_.assign(shard_count, 0);
  manifest_ = {};
}

std::size_t ShardSupervisor::quarantined_count() const {
  std::size_t n = 0;
  for (const std::uint8_t q : quarantined_) n += q != 0 ? 1 : 0;
  return n;
}

void ShardSupervisor::run_phase(
    std::string_view phase, std::int64_t sim_now_us,
    const std::function<void(std::size_t)>& body,
    const std::function<void(const std::function<void(std::size_t)>&)>& run_all) {
  const std::size_t count = quarantined_.size();
  std::vector<Failure> failures(count);
  const bool capture =
      config_.capture_checkpoints && config_.max_shard_retries > 0 && hooks_.snapshot;

  // Worker pass: each shard's failure lands in its own slot, so the only
  // cross-thread state is index-addressed and write-once per phase.
  run_all([&](std::size_t i) {
    if (quarantined_[i] != 0) return;
    try {
      if (capture) {
        snapshots_[i] = hooks_.snapshot(i);
        has_snapshot_[i] = 1;
      }
      const ScopedShardContext ctx(hooks_.network_id(i), config_.shard_deadline_hours);
      body(i);
    } catch (...) {
      failures[i] = Failure{true, current_exception_what()};
    }
  });

  // Recovery pass: serial, fleet order, on the orchestrating thread — the
  // manifest and every restored shard's state end up identical for any
  // worker-pool size.
  for (std::size_t i = 0; i < count; ++i) {
    if (!failures[i].failed) continue;
    recover(i, phase, sim_now_us, std::move(failures[i].error), body);
  }
}

void ShardSupervisor::recover(std::size_t shard, std::string_view phase,
                              std::int64_t sim_now_us, std::string first_error,
                              const std::function<void(std::size_t)>& body) {
  const std::uint64_t network = hooks_.network_id(shard);
  ShardIncident incident;
  incident.network = network;
  incident.phase = std::string(phase);
  incident.error = std::move(first_error);
  incident.sim_us = sim_now_us;
  incident.failures = 1;

  const bool can_restore = has_snapshot_[shard] != 0 && hooks_.restore != nullptr;
  while (can_restore && incident.retries < config_.max_shard_retries) {
    if (!hooks_.restore(shard, snapshots_[shard])) break;
    // Backoff is a recorded sim-time penalty (base doubling per retry), not
    // a wall-clock sleep — determinism forbids waiting.
    incident.backoff_hours +=
        kRetryBackoffHours * static_cast<double>(1ULL << incident.retries);
    ++incident.retries;
    try {
      const ScopedShardContext ctx(network, config_.shard_deadline_hours);
      body(shard);
      incident.outcome = IncidentOutcome::kRecovered;
      if (hooks_.ledger) incident.ledger = hooks_.ledger(shard);
      manifest_.incidents.push_back(std::move(incident));
      return;
    } catch (...) {
      ++incident.failures;
      incident.error = current_exception_what();
    }
  }

  // Retries exhausted (or no snapshot to retry from): park the shard in its
  // last good state so its ledger stays internally consistent, and
  // quarantine it — later phases and harvest merges skip it.
  if (can_restore) hooks_.restore(shard, snapshots_[shard]);
  quarantined_[shard] = 1;
  incident.outcome = IncidentOutcome::kQuarantined;
  if (hooks_.ledger) incident.ledger = hooks_.ledger(shard);
  manifest_.incidents.push_back(std::move(incident));
}

bool ShardSupervisor::guard_merge(std::size_t shard, std::int64_t sim_now_us) {
  if (quarantined(shard)) return false;
  if (!failpoints().armed()) return true;

  const std::uint64_t network = hooks_.network_id(shard);
  ShardIncident incident;
  incident.network = network;
  incident.phase = "harvest.merge";
  incident.sim_us = sim_now_us;
  for (;;) {
    try {
      const ScopedShardContext ctx(network, config_.shard_deadline_hours);
      failpoint("harvest.merge");
      if (incident.failures > 0) {
        incident.outcome = IncidentOutcome::kRecovered;
        if (hooks_.ledger) incident.ledger = hooks_.ledger(shard);
        manifest_.incidents.push_back(std::move(incident));
      }
      return true;
    } catch (...) {
      ++incident.failures;
      incident.error = current_exception_what();
      if (incident.retries >= config_.max_shard_retries) break;
      incident.backoff_hours +=
          kRetryBackoffHours * static_cast<double>(1ULL << incident.retries);
      ++incident.retries;
    }
  }
  quarantined_[shard] = 1;
  incident.outcome = IncidentOutcome::kQuarantined;
  if (hooks_.ledger) incident.ledger = hooks_.ledger(shard);
  manifest_.incidents.push_back(std::move(incident));
  return false;
}

void ShardSupervisor::publish(telemetry::MetricsRegistry& metrics,
                              std::vector<telemetry::TraceSpan>& trace) const {
  if (manifest_.incidents.empty()) return;

  for (const auto& inc : manifest_.incidents) {
    metrics.counter("wlm_supervisor_failures_total", inc.network).inc(inc.failures);
    if (inc.retries > 0) {
      metrics.counter("wlm_supervisor_retries_total", inc.network).inc(inc.retries);
      trace.push_back({telemetry::SpanKind::kShardRetry, inc.network, inc.sim_us,
                       backoff_end_us(inc.sim_us, inc.backoff_hours), inc.retries});
    }
    if (inc.outcome == IncidentOutcome::kQuarantined) {
      trace.push_back({telemetry::SpanKind::kShardQuarantine, inc.network, inc.sim_us,
                       inc.sim_us, inc.failures});
    }
  }
  metrics.counter("wlm_supervisor_failures_total").inc(manifest_.total_failures());
  metrics.counter("wlm_supervisor_retries_total").inc(manifest_.total_retries());

  const std::vector<std::uint64_t> quarantined = manifest_.quarantined_networks();
  metrics.gauge("wlm_supervisor_quarantined_networks")
      .set(static_cast<double>(quarantined.size()));
  for (const std::uint64_t network : quarantined) {
    metrics.gauge("wlm_supervisor_quarantined", network).set(1.0);
  }
}

void ShardSupervisor::restore_manifest(DegradedRunManifest manifest) {
  manifest_ = std::move(manifest);
  std::fill(quarantined_.begin(), quarantined_.end(), 0);
  for (const auto& inc : manifest_.incidents) {
    if (inc.outcome != IncidentOutcome::kQuarantined) continue;
    for (std::size_t i = 0; i < quarantined_.size(); ++i) {
      if (hooks_.network_id && hooks_.network_id(i) == inc.network) {
        quarantined_[i] = 1;
        break;
      }
    }
  }
}

fault::LossLedger ShardSupervisor::quarantined_view(const fault::LossLedger& ledger) {
  fault::LossLedger view = ledger;
  view.lost_supervision += view.delivered + view.in_flight;
  view.delivered = 0;
  view.in_flight = 0;
  return view;
}

}  // namespace wlm::failsafe
