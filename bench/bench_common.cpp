#include "bench_common.hpp"

#include <sys/resource.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "cli/parse.hpp"

namespace wlm::bench {

namespace {

// Bookkeeping for the JSON trace written at exit. Plain globals: each bench
// binary calls print_header exactly once, from main. The total-run Timer
// lives here too; its destructor fires after the atexit hook, so the hook
// reads it explicitly instead of waiting for the record.
std::string g_experiment;
analysis::ScenarioScale g_scale;
std::optional<Timer> g_total;

void write_bench_json() {
  const double seconds = g_total ? g_total->seconds() : 0.0;
  telemetry::global_profiler().record("bench_total", seconds);
  const char* path = std::getenv("WLM_BENCH_JSON");
  if (path == nullptr) path = "BENCH_fleetrunner.json";
  std::FILE* out = std::fopen(path, "a");
  if (out == nullptr) return;
  // Throughput = deterministic work count / wall clock. The tally (fragments
  // classified by shards + report frames harvested by the poller) is fixed by
  // the scenario, so run-to-run and thread-count comparisons divide the same
  // numerator — only `seconds` moves.
  const auto& tally = telemetry::work_tally();
  const std::uint64_t fragments = tally.fragments.load(std::memory_order_relaxed);
  const std::uint64_t frames = tally.frames.load(std::memory_order_relaxed);
  std::fprintf(out,
               "{\"bench\": \"%s\", \"networks\": %d, \"client_scale\": %.3f, "
               "\"seed\": %llu, \"threads\": %d, \"seconds\": %.3f, "
               "\"fragments\": %llu, \"frames\": %llu, %s, "
               "\"telemetry\": %s}\n",
               g_experiment.c_str(), g_scale.networks, g_scale.client_scale,
               static_cast<unsigned long long>(g_scale.seed), g_scale.threads, seconds,
               static_cast<unsigned long long>(fragments),
               static_cast<unsigned long long>(frames),
               rate_rss_fields(fragments + frames, seconds).c_str(),
               telemetry::global_profiler().to_json().c_str());
  std::fclose(out);
}

/// Usage error on a bench argument: same contract as wlmctl's numeric
/// flags (strict parse, exit 2), so a typo never runs a rescaled fleet.
[[noreturn]] void reject_arg(const char* program, const char* name, const char* want,
                             const char* got,
                             const char* usage = "[networks] [client_scale] [seed] [threads]") {
  std::fprintf(stderr, "%s: %s must be %s (got '%s')\n", program, name, want, got);
  std::fprintf(stderr, "usage: %s %s\n", program, usage);
  std::exit(2);
}

}  // namespace

std::string rate_rss_fields(std::uint64_t work_items, double seconds) {
  const double per_sec =
      seconds > 0.0 ? static_cast<double>(work_items) / seconds : 0.0;
  // Linux reports ru_maxrss in kilobytes.
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const unsigned long long peak_rss_bytes =
      static_cast<unsigned long long>(usage.ru_maxrss) * 1024ULL;
  char fields[96];
  std::snprintf(fields, sizeof fields,
                "\"fragments_frames_per_sec\": %.1f, \"peak_rss_bytes\": %llu",
                per_sec, peak_rss_bytes);
  return fields;
}

analysis::ScenarioScale scale_from_args(int argc, char** argv, int default_networks) {
  analysis::ScenarioScale scale;
  scale.networks = default_networks;
  if (argc > 1) {
    const auto networks = cli::parse_int(argv[1], 1, INT_MAX);
    if (!networks) reject_arg(argv[0], "networks", "an integer >= 1", argv[1]);
    scale.networks = static_cast<int>(*networks);
  }
  if (argc > 2) {
    const auto client_scale = cli::parse_double(argv[2]);
    if (!client_scale || *client_scale < 0.0) {
      reject_arg(argv[0], "client_scale", "a number >= 0", argv[2]);
    }
    scale.client_scale = *client_scale;
  }
  if (argc > 3) {
    const auto seed = cli::parse_int(argv[3]);
    if (!seed) reject_arg(argv[0], "seed", "an integer", argv[3]);
    scale.seed = static_cast<std::uint64_t>(*seed);
  }
  if (argc > 4) {
    const auto threads = cli::parse_int(argv[4], 1, INT_MAX);
    if (!threads) reject_arg(argv[0], "threads", "an integer >= 1", argv[4]);
    scale.threads = static_cast<int>(*threads);
  }
  return scale;
}

int count_from_args(int argc, char** argv, const char* name, int fallback) {
  const std::string usage = std::string("[") + name + "]";
  if (argc > 2) reject_arg(argv[0], "argv", "at most one argument", argv[2], usage.c_str());
  if (argc < 2) return fallback;
  const auto count = cli::parse_int(argv[1], 1, INT_MAX);
  if (!count) reject_arg(argv[0], name, "an integer >= 1", argv[1], usage.c_str());
  return static_cast<int>(*count);
}

void print_header(const char* experiment, const analysis::ScenarioScale& scale) {
  std::printf(
      "=== %s ===\n(simulated fleet: %d networks, client scale %.2f, seed %llu, "
      "%d worker thread%s)\n\n",
      experiment, scale.networks, scale.client_scale,
      static_cast<unsigned long long>(scale.seed), scale.threads,
      scale.threads == 1 ? "" : "s");
  g_experiment = experiment;
  g_scale = scale;
  // The Timer's own destructor records "bench_total" again after the atexit
  // hook runs; that late duplicate is never serialized.
  g_total.emplace("bench_total");
  std::atexit(write_bench_json);
}

}  // namespace wlm::bench
