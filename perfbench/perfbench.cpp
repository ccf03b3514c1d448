// Benchmark binary: runs one workload of the repo benchmark against the wlm
// libraries' public API and prints one JSON record of raw samples on stdout.
// perfbench/run.py builds this binary, runs it, and turns the samples into
// the benchmark's metrics; see perfbench/README.md for the workloads.
//
// Everything timed here is a call into a public function (FleetRunner
// campaigns, the ReportSource read path, UsageAggregator, HealthMonitor,
// ckpt save/restore, the Prometheus exporter, the table renders). The
// phase split inside a campaign call comes from FleetRunner::profiler().
// With --trace-out, it also records its own spans around those
// calls (in memory) and writes them to that file at exit.
//
// Inputs are generated here from --seed: the fleet config and the query
// list. Correctness gates run on every campaign and every query; a failed
// gate marks that operation failed and names why.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "backend/aggregate.hpp"
#include "backend/health.hpp"
#include "backend/store.hpp"
#include "ckpt/campaign.hpp"
#include "core/checksum.hpp"
#include "deploy/generator.hpp"
#include "deploy/population.hpp"
#include "sim/fleet_runner.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profile.hpp"
#include "wire/encoder.hpp"
#include "wire/messages.hpp"

namespace {

using namespace wlm;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------------ inputs

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int networks = 0;  // 0: the workload's default size
  int jobs = 4;
  int min_queries = 200;  // query_mix
  std::string spill_dir;
  std::string trace_out;
  long perturb_oracle = -1;  // test hook: corrupt the oracle of query #N
};

// Per-run shape. query_mix loads its store kSetups times (the first load
// warms the process up); the campaign workloads run at least
// kMinCampaigns campaigns (again the first warms up) and read
// kQueryRounds queries of each kind after each measured one, one of each
// after the warm-up. Every campaign constructs its FleetRunner kBuilds
// times and saves and restores its checkpoint kCheckpointRounds times;
// the metrics take the median of each.
constexpr int kSetups = 6;
constexpr int kMinCampaigns = 4;
constexpr int kQueryRounds = 4;
constexpr int kBuilds = 5;
constexpr int kCheckpointRounds = 3;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Picks the fleet seed among kCandidates drawn from the run seed: the one
/// closest to the candidates' median AP count and median expected client
/// count (summed relative distance). Fleet size varies a lot from one draw
/// to the next; reports, and so the seal and every read, scale with the
/// APs, and the sim work with the clients. Taking the draw nearest the
/// median of both keeps the amount of work, and so every timing, about the
/// same from seed to seed.
std::uint64_t pick_fleet_seed(deploy::FleetConfig fleet, std::uint64_t& s) {
  constexpr int kCandidates = 15;
  std::vector<std::uint64_t> seeds;
  std::vector<double> aps;
  std::vector<double> clients;
  for (int i = 0; i < kCandidates; ++i) {
    fleet.seed = splitmix64(s);
    const deploy::Fleet f = deploy::generate_fleet(fleet);
    double n_clients = 0.0;
    for (const auto& net : f.networks) {
      n_clients += static_cast<double>(net.aps.size()) * net.clients_per_ap;
    }
    seeds.push_back(fleet.seed);
    aps.push_back(f.total_aps());
    clients.push_back(n_clients);
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double mid_aps = median(aps);
  const double mid_clients = median(clients);
  int best = 0;
  double best_distance = 0.0;
  for (int i = 0; i < kCandidates; ++i) {
    const double d = std::abs(aps[i] / mid_aps - 1.0) + std::abs(clients[i] / mid_clients - 1.0);
    if (i == 0 || d < best_distance) {
      best = i;
      best_distance = d;
    }
  }
  return seeds[best];
}

/// Fleet config for a workload, derived from the seed alone.
sim::WorldConfig make_config(const Options& opt) {
  std::uint64_t s = opt.seed;
  sim::WorldConfig cfg;
  cfg.fleet.epoch = deploy::Epoch::kJan2015;
  cfg.seed = splitmix64(s);
  cfg.threads = opt.jobs;
  if (opt.workload == "fleet_week") {
    cfg.fleet.network_count = opt.networks > 0 ? opt.networks : 250;
  } else if (opt.workload == "churn_spill") {
    cfg.fleet.network_count = opt.networks > 0 ? opt.networks : 150;
    cfg.mobility.enabled = true;
    cfg.mesh.mesh_fraction = 0.3;
    cfg.faults.outage_rate_per_week = 2.0;
    cfg.faults.outage_mean_hours = 12.0;
    cfg.faults.reboot_rate_per_week = 1.0;
    cfg.faults.corrupt_probability = 0.01;
    // Small enough that sealed segments spill at several phase boundaries.
    cfg.mem_ceiling_mb = 1;
    cfg.spill_dir = opt.spill_dir;
  } else {  // query_mix
    cfg.fleet.network_count = opt.networks > 0 ? opt.networks : 100;
  }
  cfg.fleet.seed = pick_fleet_seed(cfg.fleet, s);
  return cfg;
}

enum class QueryKind : int { kWindow = 0, kPerAp, kAggregate, kHealth };
constexpr const char* kQueryNames[] = {"window", "per_ap", "aggregate", "health"};

struct Query {
  QueryKind kind = QueryKind::kWindow;
  std::int64_t a = 0;  // window: start hour; aggregate: start day; health: now hour
  std::int64_t b = 0;  // aggregate: length in days
  [[nodiscard]] std::uint64_t key() const {
    return (static_cast<std::uint64_t>(kind) << 48) | (static_cast<std::uint64_t>(a) << 16) |
           static_cast<std::uint64_t>(b);
  }
};

/// The seed's query list: kinds uniform over the four (an assumption, not
/// observed traffic), parameters inside the campaign's first simulated
/// week. Window starts fall on any of its 168 hours, health times on any
/// hour of the 8th day, aggregate ranges on one of 49 (start day, length)
/// pairs; per_ap has no parameter, so every per_ap query repeats.
std::vector<Query> make_queries(std::uint64_t seed, std::size_t n) {
  std::uint64_t s = seed ^ 0x5157455259ULL;
  std::vector<Query> out(n);
  for (auto& q : out) {
    q.kind = static_cast<QueryKind>(splitmix64(s) % 4);
    switch (q.kind) {
      case QueryKind::kWindow: q.a = static_cast<std::int64_t>(splitmix64(s) % 168); break;
      case QueryKind::kPerAp: break;
      case QueryKind::kAggregate:
        q.a = static_cast<std::int64_t>(splitmix64(s) % 7);
        q.b = 1 + static_cast<std::int64_t>(splitmix64(s) % 7);
        break;
      case QueryKind::kHealth: q.a = 168 + static_cast<std::int64_t>(splitmix64(s) % 24); break;
    }
  }
  return out;
}

// ----------------------------------------------------------------- answers

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Runs one query against a store and folds the answer into one number.
std::uint64_t answer(const backend::ReportSource& src, const Query& q) {
  std::uint64_t h = 0;
  switch (q.kind) {
    case QueryKind::kWindow: {
      const SimTime from = SimTime::epoch() + Duration::hours(q.a);
      std::uint64_t n = 0;
      src.for_each_in(from, from + Duration::hours(6), [&](const wire::ApReport& r) {
        ++n;
        h = mix(h, (static_cast<std::uint64_t>(r.ap_id) << 40) ^
                       static_cast<std::uint64_t>(r.timestamp_us) ^ r.usage.size());
      });
      return mix(h, n);
    }
    case QueryKind::kPerAp: {
      src.for_each_ap([&](ApId ap, const std::vector<wire::ApReport>& reports) {
        h = mix(h, (static_cast<std::uint64_t>(ap.value()) << 32) | reports.size());
      });
      return h;
    }
    case QueryKind::kAggregate: {
      backend::UsageAggregator agg;
      const SimTime from = SimTime::epoch() + Duration::days(q.a);
      agg.consume(src, from, from + Duration::days(q.b));
      h = mix(h, agg.client_count());
      for (const auto& r : agg.by_os()) h = mix(mix(mix(h, r.up), r.down), r.clients);
      return h;
    }
    case QueryKind::kHealth: {
      const backend::HealthMonitor monitor;
      const auto findings = monitor.analyze(src, SimTime::epoch() + Duration::hours(q.a));
      for (const auto& f : findings) {
        h = mix(h, (static_cast<std::uint64_t>(f.ap.value()) << 8) |
                       static_cast<std::uint64_t>(f.issue));
      }
      return mix(h, findings.size());
    }
  }
  return h;
}

// ------------------------------------------------------------------- spans

/// The benchmark's own spans, kept in memory and written at exit. Disabled
/// (a no-op) unless --trace-out was given. Operation spans (op.*) are
/// recorded for every operation; the spans inside an operation only while
/// `detail` is on, which the traced run alternates per operation so that
/// the same run also measures its untraced twin (the tracing overhead).
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0: top-level
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    bool detail = false;  // op spans: whether child spans were recorded
  };

  void enable(std::uint64_t run_id) {
    enabled_ = true;
    run_id_ = run_id;
    spans_.reserve(1 << 14);
  }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  void set_detail(bool on) { detail_ = on; }
  [[nodiscard]] bool detail() const { return enabled_ && detail_; }

  std::uint32_t open(const char* name, bool op = false) {
    if (!enabled_ || !(op || detail_)) return 0;
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = name;
    s.start_s = now();
    s.detail = op && detail_;
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void close(std::uint32_t id) {
    if (!enabled_ || id == 0) return;
    spans_[id - 1].end_s = now();
    stack_.pop_back();
  }
  /// A closed child of the innermost open span, placed from a duration the
  /// program measured itself (the FleetRunner profiler's phase split).
  void child(const char* name, double start_s, double seconds) {
    if (!enabled_ || !detail_ || seconds <= 0.0) return;
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = name;
    s.start_s = start_s;
    s.end_s = start_s + seconds;
    spans_.push_back(std::move(s));
  }

  void mark_timed(double start_s, double end_s) {
    timed_start_ = start_s;
    timed_end_ = end_s;
  }

  [[nodiscard]] bool write(const std::string& path, const std::string& workload,
                           std::uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"run_id\":\"%016llx\",\"workload\":\"%s\",\"seed\":%llu,"
                 "\"timed_start_s\":%.9f,\"timed_end_s\":%.9f,\"spans\":[",
                 static_cast<unsigned long long>(run_id_), workload.c_str(),
                 static_cast<unsigned long long>(seed), timed_start_, timed_end_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n{\"run_id\":\"%016llx\",\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                      "\"start_s\":%.9f,\"end_s\":%.9f,\"detail\":%s}",
                   i == 0 ? "" : ",", static_cast<unsigned long long>(run_id_), s.id, s.parent,
                   s.name.c_str(), s.start_s, s.end_s, s.detail ? "true" : "false");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  bool detail_ = true;
  std::uint64_t run_id_ = 0;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  double timed_start_ = 0.0;
  double timed_end_ = 0.0;
};

Tracer g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool op = false) : id_(g_tracer.open(name, op)) {}
  ~ScopedSpan() { g_tracer.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint32_t id_;
};

/// Times one call: wall seconds, plus a span of the same name when tracing.
template <typename Fn>
double timed(const char* span, Fn&& fn) {
  const ScopedSpan s(span);
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double profile_seconds(const sim::FleetRunner& runner, const char* phase) {
  for (const auto& [name, stats] : runner.profiler().phases()) {
    if (name == phase) return stats.seconds;
  }
  return 0.0;
}

/// A campaign call, with the profiler's streaming-harvest share split out
/// as a tsdb.seal child span.
template <typename Fn>
double campaign_call(sim::FleetRunner& runner, const char* span, Fn&& fn) {
  const double seal_before = profile_seconds(runner, "incremental_harvest");
  const ScopedSpan s(span);
  const auto t0 = Clock::now();
  fn();
  const double total = seconds_since(t0);
  const double seal = profile_seconds(runner, "incremental_harvest") - seal_before;
  g_tracer.child("tsdb.seal", g_tracer.now() - seal, seal);
  return total - seal;
}

std::uint64_t counter_sum(const telemetry::MetricsRegistry& m, const char* name) {
  std::uint64_t total = 0;
  m.for_each_counter([&](const telemetry::MetricKey& k, const telemetry::Counter& c) {
    if (k.name == name) total += c.value();
  });
  return total;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint32_t reports_crc(const backend::ReportSource& src) {
  std::uint32_t crc = 0;
  wire::Encoder e;
  src.for_each([&](const wire::ApReport& r) {
    wire::encode_report_into(r, e);
    crc = crc32_update(crc, e.bytes());
  });
  return crc;
}

std::uint32_t text_crc(const std::string& s) {
  return crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

// ----------------------------------------------------------------- records

class Json {
 public:
  Json& key(const char* k) {
    if (comma_) out_ += ',';
    out_ += '"';
    out_ += k;
    out_ += "\":";
    after_key_ = true;
    return *this;
  }
  Json& num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return value(buf);
  }
  Json& str(const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n') ? ' ' : c;
    }
    return value(q + '"');
  }
  Json& boolean(bool v) { return value(v ? "true" : "false"); }
  Json& open(char c) {
    value(std::string(1, c));
    comma_ = false;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    comma_ = true;
    return *this;
  }
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  Json& value(const std::string& v) {
    if (comma_ && !after_key_) out_ += ',';
    out_ += v;
    after_key_ = false;
    comma_ = true;
    return *this;
  }
  std::string out_;
  bool comma_ = false;
  bool after_key_ = false;
};

struct Campaign {
  bool ok = true;
  std::string why;
  std::string signature;
  std::map<std::string, double> v;  // named samples and counts
  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

struct QuerySample {
  std::size_t index = 0;  // entry of the query list
  std::uint64_t got = 0;  // the answer, checked after the timed part
  double ms = 0.0;
  bool ok = true;
  bool traced = false;
  bool warm_up = false;  // sent during the run's first campaign
};

/// One run of a workload: its inputs, oracle, and every sample taken.
struct Bench {
  explicit Bench(const Options& o)
      : opt(o), config(make_config(o)), queries(make_queries(o.seed, 4096)) {}

  const Options& opt;
  const sim::WorldConfig config;
  std::vector<Query> queries;
  std::size_t next_query = 0;
  std::size_t next_of_kind[4] = {0, 0, 0, 0};
  std::vector<Campaign> campaigns;
  std::vector<QuerySample> samples;
  // The last campaign's runner, kept until the next campaign starts: the
  // loaded store of query_mix, and the oracle's source after the run.
  std::unique_ptr<sim::FleetRunner> kept;
  std::string kept_spill;

  std::string spill_path() const {
    return opt.spill_dir + "/c" + std::to_string(campaigns.size());
  }

  const Query& query(std::size_t index) const { return queries[index % queries.size()]; }

  /// Runs list entry `index` and keeps its answer for check_queries().
  void run_query(sim::FleetRunner& runner, std::size_t index) {
    const Query& q = query(index);
    const ScopedSpan s(q.kind == QueryKind::kWindow      ? "query.window"
                       : q.kind == QueryKind::kPerAp     ? "query.per_ap"
                       : q.kind == QueryKind::kAggregate ? "query.aggregate"
                                                         : "query.health");
    const auto t0 = Clock::now();
    const std::uint64_t got = answer(runner.reports(), q);
    const double ms = seconds_since(t0) * 1e3;
    samples.push_back({index, got, ms, runner.fleet_tsdb().last_error().ok(), g_tracer.detail(),
                       campaigns.empty()});
  }

  /// Row oracle, after the timed part: every sampled answer must equal the
  /// same query's answer on the last campaign's backend::ReportStore view
  /// (campaigns of one run are identical, which their signature gate
  /// checks), memoized per distinct query. Returns the distinct count.
  std::size_t check_queries() {
    const ScopedSpan s("gate.oracle");
    std::map<std::uint64_t, std::uint64_t> memo;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      QuerySample& sample = samples[i];
      const Query& q = query(sample.index);
      auto it = memo.find(q.key());
      if (it == memo.end()) it = memo.emplace(q.key(), answer(kept->store(), q)).first;
      std::uint64_t expect = it->second;
      if (static_cast<long>(i) == opt.perturb_oracle) expect ^= 1;
      sample.ok = sample.ok && sample.got == expect;
    }
    return memo.size();
  }

  void release_kept() {
    if (!kept) return;
    const ScopedSpan teardown("sim.teardown");
    kept.reset();
    if (!kept_spill.empty()) std::filesystem::remove_all(kept_spill);
  }

  /// The list's next query of one kind (campaign workloads read one query
  /// of each kind per round, so every run has the same mix).
  std::size_t next_index_of(int kind) {
    std::size_t& i = next_of_kind[kind];
    while (static_cast<int>(queries[i % queries.size()].kind) != kind) ++i;
    return i++;
  }

  /// One campaign: builds, phase script, harvest, tables, scan, export,
  /// checkpoint round trips, gates, then `rounds` rounds of one query of
  /// each kind. The runner is kept until the next campaign starts.
  void campaign(int rounds) {
    const ScopedSpan op("op.campaign", true);
    release_kept();
    Campaign c;
    c.v["traced"] = g_tracer.detail() ? 1 : 0;
    sim::WorldConfig cfg = config;
    if (cfg.mem_ceiling_mb > 0) {
      cfg.spill_dir = spill_path();
      std::filesystem::create_directories(cfg.spill_dir);
    }
    // Construction is short, so it runs kBuilds times; the last runner
    // runs the campaign.
    std::vector<double> builds;
    std::unique_ptr<sim::FleetRunner> runner;
    for (int i = 0; i < kBuilds; ++i) {
      if (runner) {
        const ScopedSpan teardown("sim.teardown");
        runner.reset();
      }
      builds.push_back(timed("deploy.build", [&] {
        runner = std::make_unique<sim::FleetRunner>(cfg);
      }));
    }
    const double last_build_s = builds.back();
    std::sort(builds.begin(), builds.end());
    c.v["setup_s"] = builds[builds.size() / 2];

    auto& tally = telemetry::work_tally();
    const std::uint64_t frag0 = tally.fragments.load();
    const std::uint64_t frames0 = tally.frames.load();
    const auto t_campaign = Clock::now();
    c.v["sim.usage_week_s"] = campaign_call(*runner, "sim.usage_week", [&] {
      runner->run_usage_week(/*reports_per_week=*/7);
    });
    const SimTime t14 = SimTime::epoch() + Duration::hours(14);
    c.v["sim.mr16_s"] =
        campaign_call(*runner, "sim.mr16", [&] { runner->run_mr16_interference(t14); });
    c.v["sim.link_windows_s"] =
        campaign_call(*runner, "sim.link_windows", [&] { runner->run_link_windows(t14); });
    {
      const ScopedSpan s("backend.harvest");
      const double start = g_tracer.now();
      runner->harvest();
      const double drain = profile_seconds(*runner, "harvest_drain");
      g_tracer.child("backend.drain", start, drain);
      g_tracer.child("tsdb.seal", start + drain, profile_seconds(*runner, "harvest_merge"));
    }
    const double campaign_s = seconds_since(t_campaign);
    c.v["sim.fragments"] = static_cast<double>(tally.fragments.load() - frag0);
    c.v["sim.frames"] = static_cast<double>(tally.frames.load() - frames0);
    c.v["campaign_s"] = campaign_s;
    c.v["fragments_frames_per_s"] = (c.v["sim.fragments"] + c.v["sim.frames"]) / campaign_s;
    c.v["backend.drain_s"] = profile_seconds(*runner, "harvest_drain");
    c.v["tsdb.seal_s"] = profile_seconds(*runner, "harvest_merge") +
                         profile_seconds(*runner, "incremental_harvest");

    analysis::UsageRun tables;
    c.v["backend.consume_s"] = timed("backend.consume", [&] {
      tables.agg_2015.consume(runner->reports(), SimTime::epoch(),
                              SimTime::epoch() + Duration::days(8));
    });
    tables.upscale_2015 = deploy::total_clients(deploy::Epoch::kJan2015) /
                          static_cast<double>(std::max<std::size_t>(tables.agg_2015.client_count(), 1));
    std::size_t table_bytes = 0;
    c.v["analysis.render_s"] = timed("analysis.render", [&] {
      table_bytes = analysis::render_table3(tables).size() +
                    analysis::render_table5(tables).size() +
                    analysis::render_table6(tables).size();
    });
    c.v["time_to_tables_s"] = last_build_s + seconds_since(t_campaign);
    c.v["backend.clients"] = static_cast<double>(tables.agg_2015.client_count());
    if (table_bytes == 0) c.fail("tables rendered empty");

    std::uint64_t scanned = 0;
    c.v["tsdb.scan_s"] = timed("tsdb.scan", [&] {
      runner->reports().for_each([&](const wire::ApReport& r) { scanned += r.usage.size() + 1; });
    });
    c.v["tsdb.decode_reports_per_s"] =
        static_cast<double>(runner->reports().report_count()) / c.v["tsdb.scan_s"];
    std::string prom;
    c.v["telemetry.export_s"] =
        timed("telemetry.export", [&] { prom = telemetry::to_prometheus(runner->metrics()); });

    std::uint32_t crc_reports = 0;
    {
      const ScopedSpan s("gate.crc");
      crc_reports = reports_crc(runner->reports());
    }
    const std::uint32_t crc_prom = text_crc(prom);
    // The checkpoint round trip is short, so it runs kCheckpointRounds
    // times and reports the median of each half.
    ckpt::CampaignProgress progress;
    progress.phases_done = {"usage_week", "mr16", "link_windows", "harvest"};
    progress.label = "perfbench";
    std::vector<std::uint8_t> ckpt_bytes;
    std::uint32_t crc_ckpt = 0;
    std::vector<double> saves;
    std::vector<double> restores;
    ckpt::RestoredCampaign restored;
    for (int round = 0; round < kCheckpointRounds; ++round) {
      if (restored.runner) {
        const ScopedSpan teardown("sim.teardown");
        restored.runner.reset();
      }
      saves.push_back(
          timed("ckpt.save", [&] { ckpt_bytes = ckpt::save_campaign(*runner, progress); }));
      if (round == 0) crc_ckpt = crc32(ckpt_bytes);
      if (crc32(ckpt_bytes) != crc_ckpt) c.fail("checkpoint bytes differ between saves");
      ckpt::Error err;
      restores.push_back(timed("ckpt.restore", [&] {
        err = ckpt::restore_campaign(ckpt_bytes, opt.jobs, restored);
      }));
      if (err) {
        c.fail("restore failed: " + err.detail);
        break;
      }
    }
    std::sort(saves.begin(), saves.end());
    std::sort(restores.begin(), restores.end());
    c.v["checkpoint_save_s"] = saves[saves.size() / 2];
    c.v["checkpoint_restore_s"] = restores[restores.size() / 2];
    c.v["ckpt.bytes"] = static_cast<double>(ckpt_bytes.size());
    if (restored.runner) {
      const ScopedSpan s("gate.crc");
      if (reports_crc(restored.runner->reports()) != crc_reports) {
        c.fail("restored reports CRC differs");
      }
      if (text_crc(telemetry::to_prometheus(restored.runner->metrics())) != crc_prom) {
        c.fail("restored Prometheus CRC differs");
      }
    }
    {
      const ScopedSpan teardown("sim.teardown");
      restored.runner.reset();
    }
    char sig[64];
    std::snprintf(sig, sizeof sig, "%08x-%08x-%08x", crc_reports, crc_prom, crc_ckpt);
    c.signature = sig;

    {
      const ScopedSpan s("gate.ledger");
      const fault::LossLedger ledger = runner->loss_ledger();
      const auto& m = runner->metrics();
      if (!ledger.conserved()) c.fail("loss ledger not conserved");
      if (counter_sum(m, "wlm_poller_reports_stored_total") != ledger.delivered) {
        c.fail("reports_stored_total != ledger.delivered");
      }
      const auto& ts = runner->fleet_tsdb().stats();
      if (config.mem_ceiling_mb > 0 && ts.segments_spilled == 0) c.fail("nothing spilled");
      c.v["fault.generated"] = static_cast<double>(ledger.generated);
      c.v["fault.delivered"] = static_cast<double>(ledger.delivered);
      c.v["fault.delivery_ratio"] = ledger.delivery_ratio();
      c.v["classify.fragments"] = static_cast<double>(counter_sum(m, "wlm_classify_fragments_total"));
      const double hits = static_cast<double>(counter_sum(m, "wlm_classify_cache_hits_total"));
      const double misses = static_cast<double>(counter_sum(m, "wlm_classify_cache_misses_total"));
      c.v["classify.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
      c.v["classify.slow_path_calls"] = static_cast<double>(counter_sum(m, "wlm_classify_slow_path_total"));
      c.v["backend.frames_harvested"] =
          static_cast<double>(counter_sum(m, "wlm_poller_frames_harvested_total"));
      c.v["backend.corrupt_frames"] = static_cast<double>(counter_sum(m, "wlm_poller_corrupt_frames_total"));
      c.v["backend.polls_backed_off"] =
          static_cast<double>(counter_sum(m, "wlm_poller_polls_skipped_backoff_total"));
      c.v["mobility.roams"] = static_cast<double>(counter_sum(m, "wlm_mobility_roams_total"));
      c.v["mesh.relayed_reports"] = static_cast<double>(counter_sum(m, "wlm_mesh_relayed_reports_total"));
      c.v["mesh.partition_lost"] = static_cast<double>(ledger.lost_mesh_partition);
      c.v["tsdb.segments_sealed"] = static_cast<double>(ts.segments_sealed);
      c.v["tsdb.segments_spilled"] = static_cast<double>(ts.segments_spilled);
      c.v["tsdb.spill_files"] = static_cast<double>(ts.spill_files);
      c.v["tsdb.segment_bytes"] = static_cast<double>(ts.segment_bytes());
      c.v["tsdb.compression_ratio"] = ts.compression_ratio();
      c.v["tsdb.seal_reports_per_s"] = static_cast<double>(ts.reports) / c.v["tsdb.seal_s"];
    }

    for (int round = 0; round < rounds; ++round) {
      for (int kind = 0; kind < 4; ++kind) {
        run_query(*runner, next_index_of(kind));
      }
    }
    if (!runner->fleet_tsdb().last_error().ok()) {
      c.fail("tsdb read error: " + runner->fleet_tsdb().last_error().detail);
    }
    kept = std::move(runner);
    kept_spill = config.mem_ceiling_mb > 0 ? cfg.spill_dir : std::string();
    campaigns.push_back(std::move(c));
  }
};

void usage() {
  std::fprintf(stderr,
               "usage: wlm_perfbench --workload fleet_week|churn_spill|query_mix --seed N "
               "--seconds S [--networks N] [--jobs N] [--spill-dir DIR] [--trace-out FILE]\n"
               "       [--min-queries N] [--perturb-oracle I]\n");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    try {
      if (k == "--workload") opt.workload = v;
      else if (k == "--seed") opt.seed = std::stoull(v);
      else if (k == "--seconds") opt.seconds = std::stod(v);
      else if (k == "--networks") opt.networks = std::stoi(v);
      else if (k == "--jobs") opt.jobs = std::stoi(v);
      else if (k == "--min-queries") opt.min_queries = std::stoi(v);
      else if (k == "--spill-dir") opt.spill_dir = v;
      else if (k == "--trace-out") opt.trace_out = v;
      else if (k == "--perturb-oracle") opt.perturb_oracle = std::stol(v);
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  const bool known = opt.workload == "fleet_week" || opt.workload == "churn_spill" ||
                     opt.workload == "query_mix";
  return known && opt.seconds > 0 && opt.jobs >= 1 &&
         (opt.workload != "churn_spill" || !opt.spill_dir.empty());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  if (!opt.trace_out.empty()) {
    std::uint64_t s = opt.seed ^ static_cast<std::uint64_t>(getpid()) ^
                      static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
    g_tracer.enable(splitmix64(s));
  }
  Bench r(opt);
  // A traced run records detail spans on every other operation only; the
  // operations in between are its untraced twin. The first operation, the
  // warm-up that run.py leaves out of the metrics, is untraced.
  std::size_t op_index = 0;
  const auto alternate = [&] { g_tracer.set_detail(op_index++ % 2 == 1); };

  const auto t0 = Clock::now();
  double timed_start = g_tracer.now();
  if (opt.workload == "query_mix") {
    // Set-up: load the store several times (median set-up time) and keep
    // the last one.
    for (int i = 0; i < kSetups; ++i) {
      alternate();
      r.campaign(0);
    }
    // Timed part: a closed loop with one client, for what set-up left of
    // --seconds.
    op_index = 0;
    timed_start = g_tracer.now();
    const auto q0 = Clock::now();
    const double loop_s = opt.seconds - seconds_since(t0);
    while (seconds_since(q0) < loop_s ||
           r.samples.size() < static_cast<std::size_t>(opt.min_queries)) {
      alternate();
      const ScopedSpan op("op.query", true);
      r.run_query(*r.kept, r.next_query++);
    }
    r.campaigns.back().v["query_loop_s"] = seconds_since(q0);
  } else {
    // Campaigns until the time is spent; one more only if it still fits.
    double last = 0.0;
    while (static_cast<int>(r.campaigns.size()) < kMinCampaigns ||
           seconds_since(t0) + last < opt.seconds) {
      alternate();
      const auto c0 = Clock::now();
      r.campaign(r.campaigns.empty() ? 1 : kQueryRounds);
      last = seconds_since(c0);
    }
  }
  g_tracer.mark_timed(timed_start, g_tracer.now());
  // Peak RSS covers every operation of the run but not the oracle, which is
  // the benchmark's memory, not the program's.
  const double rss_mib = peak_rss_mib();
  g_tracer.set_detail(true);
  const std::size_t distinct = r.check_queries();
  r.release_kept();
  if (!opt.spill_dir.empty()) std::filesystem::remove_all(opt.spill_dir);

  Json j;
  j.open('{');
  j.key("workload").str(opt.workload);
  j.key("seed").num(static_cast<double>(opt.seed));
  j.key("networks").num(r.config.fleet.network_count);
  j.key("jobs").num(opt.jobs);
  j.key("wall_s").num(seconds_since(t0));
  j.key("peak_rss_mib").num(rss_mib);
  j.key("distinct_queries").num(static_cast<double>(distinct));
  j.key("query_kinds").open('[');
  for (const char* name : kQueryNames) j.str(name);
  j.close(']');
  j.key("campaigns").open('[');
  for (const Campaign& c : r.campaigns) {
    j.open('{');
    j.key("ok").boolean(c.ok);
    j.key("why").str(c.why);
    j.key("signature").str(c.signature);
    for (const auto& [k, v] : c.v) j.key(k.c_str()).num(v);
    j.close('}');
  }
  j.close(']');
  // [kind, ms, ok, traced, warm_up] per query, in the order sent.
  j.key("queries").open('[');
  for (const QuerySample& q : r.samples) {
    j.open('[').num(static_cast<int>(r.query(q.index).kind)).num(q.ms).num(q.ok ? 1 : 0).num(q.traced ? 1 : 0);
    j.num(q.warm_up ? 1 : 0).close(']');
  }
  j.close(']');
  j.close('}');
  std::puts(j.text().c_str());

  if (g_tracer.enabled() && !g_tracer.write(opt.trace_out, opt.workload, opt.seed)) {
    std::fprintf(stderr, "wlm_perfbench: cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  return 0;
}
