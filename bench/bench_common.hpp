// Shared helpers for the experiment-regeneration binaries.
#pragma once

#include <string>

#include "analysis/experiments.hpp"
#include "telemetry/profile.hpp"

namespace wlm::bench {

/// Wall-clock phase timer for bench mains, built on the telemetry profiler:
/// construction starts the clock, destruction records the elapsed seconds
/// under `phase` in telemetry::global_profiler() — the same sink FleetRunner
/// feeds its build/campaign/harvest phases into, so everything a bench
/// times lands in the one `telemetry` section of its BENCH_*.json record.
class Timer {
 public:
  explicit Timer(std::string phase) : phase_(std::move(phase)) {}
  ~Timer() { telemetry::global_profiler().record(phase_, watch_.seconds()); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  [[nodiscard]] double seconds() const { return watch_.seconds(); }
  [[nodiscard]] const std::string& phase() const { return phase_; }

 private:
  std::string phase_;
  telemetry::Stopwatch watch_;
};

/// Scale from argv: bench_x [networks] [client_scale] [seed] [threads].
/// Benches default to a smaller fleet than the integration tests so that
/// `for b in build/bench/*; do $b; done` finishes in minutes. Arguments are
/// parsed strictly (networks >= 1, client_scale >= 0, threads >= 1); a bad
/// one prints a usage error and exits 2 before anything runs.
[[nodiscard]] analysis::ScenarioScale scale_from_args(int argc, char** argv,
                                                      int default_networks = 250);

/// The one optional argument of the ablation benches: bench_x [name], an
/// integer >= 1 (`fallback` when absent). Parsed as strictly as
/// scale_from_args: junk, a value below 1 or a second argument prints a
/// usage error and exits 2.
[[nodiscard]] int count_from_args(int argc, char** argv, const char* name, int fallback);

/// Renders the two fields every BENCH_*.json record carries regardless of
/// shape — `"fragments_frames_per_sec": R, "peak_rss_bytes": B` (no braces,
/// so emitters splice it into their own records). `work_items` is the
/// record's own deterministic work count and `seconds` its own wall clock;
/// peak RSS is the process high-water mark from getrusage.
[[nodiscard]] std::string rate_rss_fields(std::uint64_t work_items, double seconds);

/// Prints a standard header naming the experiment and starts the wall-clock
/// measurement. At process exit a line-delimited JSON record
///   {"bench": ..., "networks": ..., "threads": ..., "seconds": ...,
///    "fragments": ..., "frames": ..., "fragments_frames_per_sec": ...,
///    "peak_rss_bytes": ..., "telemetry": {"phases": [...]}}
/// is appended to $WLM_BENCH_JSON (default ./BENCH_fleetrunner.json).
/// `fragments`/`frames` come from telemetry::work_tally() — deterministic
/// work counts, so `fragments_frames_per_sec` is the scenario's fixed work
/// divided by this run's wall clock, and `peak_rss_bytes` is getrusage
/// ru_maxrss. The
/// `telemetry` section is the global profiler's phase breakdown (fleet
/// build, each campaign, harvest drain/merge, plus any bench::Timer the
/// binary ran), so a sweep over thread counts leaves a machine-readable
/// trace of where the time went, not just how much there was.
void print_header(const char* experiment, const analysis::ScenarioScale& scale);

}  // namespace wlm::bench
