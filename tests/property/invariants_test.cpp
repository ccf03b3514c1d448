// Cross-module property tests: randomized invariants that must hold for any
// input, swept with parameterized seeds.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "backend/aggregate.hpp"
#include "backend/tunnel.hpp"
#include "ckpt/state.hpp"
#include "classify/rules.hpp"
#include "classify/verdict_cache.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "failsafe/failpoint.hpp"
#include "mac/beacon.hpp"
#include "phy/channel.hpp"
#include "sim/fleet_runner.hpp"
#include "traffic/flowgen.hpp"
#include "wire/messages.hpp"

namespace wlm {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1ULL, 7ULL, 42ULL, 1337ULL, 2015ULL, 99991ULL));

wire::ApReport random_report(Rng& rng) {
  wire::ApReport r;
  r.ap_id = static_cast<std::uint32_t>(rng.next_u64());
  r.timestamp_us = static_cast<std::int64_t>(rng.next_u64() >> 2) *
                   (rng.chance(0.2) ? -1 : 1);
  r.firmware = static_cast<std::uint32_t>(rng.uniform_int(0, 10));
  const auto n_usage = rng.uniform_int(0, 50);
  for (std::int64_t i = 0; i < n_usage; ++i) {
    r.usage.push_back(wire::ClientUsage{MacAddress::from_u64(rng.next_u64() & 0xFFFFFFFFFFFF),
                                        static_cast<std::uint32_t>(rng.uniform_int(0, 44)),
                                        rng.next_u64() >> 20, rng.next_u64() >> 20});
  }
  const auto n_util = rng.uniform_int(0, 35);
  for (std::int64_t i = 0; i < n_util; ++i) {
    wire::ChannelUtilization u;
    u.band = rng.chance(0.5) ? 0 : 1;
    u.channel = static_cast<std::int32_t>(rng.uniform_int(1, 165));
    u.cycle_us = rng.next_u64() >> 40;
    u.busy_us = u.cycle_us > 0 ? rng.next_u64() % (u.cycle_us + 1) : 0;
    u.rx_frame_us = u.busy_us > 0 ? rng.next_u64() % (u.busy_us + 1) : 0;
    r.utilization.push_back(u);
  }
  const auto n_nb = rng.uniform_int(0, 80);
  for (std::int64_t i = 0; i < n_nb; ++i) {
    wire::NeighborBss n;
    n.bssid = MacAddress::from_u64(rng.next_u64() & 0xFFFFFFFFFFFF);
    n.band = rng.chance(0.8) ? 0 : 1;
    n.channel = static_cast<std::int32_t>(rng.uniform_int(1, 165));
    n.rssi_dbm = rng.uniform(-95.0, -40.0);
    n.is_hotspot = rng.chance(0.2);
    r.neighbors.push_back(n);
  }
  return r;
}

TEST_P(SeededProperty, WireRoundTripIsIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const auto report = random_report(rng);
    const auto decoded = wire::decode_report(wire::encode_report(report));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, report);
  }
}

TEST_P(SeededProperty, WireEncodingIsDeterministic) {
  Rng rng(GetParam());
  const auto report = random_report(rng);
  EXPECT_EQ(wire::encode_report(report), wire::encode_report(report));
}

TEST_P(SeededProperty, AggregationConservesBytesUnderRoaming) {
  Rng rng(GetParam() * 31 + 5);
  backend::ReportStore store;
  std::uint64_t total_in = 0;
  for (int i = 0; i < 40; ++i) {
    auto report = random_report(rng);
    report.timestamp_us = static_cast<std::int64_t>(rng.next_u64() % 1'000'000);
    for (const auto& u : report.usage) total_in += u.tx_bytes + u.rx_bytes;
    store.add(std::move(report));
  }
  backend::UsageAggregator agg;
  agg.consume(store, SimTime::epoch(), SimTime::from_micros(2'000'000));
  std::uint64_t total_out = 0;
  for (const auto& [mac, client] : agg.clients()) total_out += client.total();
  EXPECT_EQ(total_out, total_in);
}

TEST_P(SeededProperty, BeaconAirtimePartitionsExactly) {
  // Airtime over a window equals the sum over any partition of the window.
  Rng rng(GetParam() * 17 + 3);
  for (int i = 0; i < 50; ++i) {
    const auto interval = rng.uniform_int(1'000, 200'000);
    const auto airtime = rng.uniform_int(0, interval);
    const auto offset = rng.uniform_int(0, interval - 1);
    mac::BeaconSchedule sched(interval, offset, airtime);
    const auto start = rng.uniform_int(0, 1'000'000);
    const auto len = rng.uniform_int(1, 500'000);
    const auto split = rng.uniform_int(1, len);
    const auto whole = sched.airtime_in_window(start, len);
    const auto left = sched.airtime_in_window(start, split);
    const auto right = sched.airtime_in_window(start + split, len - split);
    EXPECT_EQ(whole, left + right);
    EXPECT_LE(whole, len);
  }
}

TEST_P(SeededProperty, CdfQuantileIsRightInverse) {
  Rng rng(GetParam() * 101 + 7);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(rng.normal(0.0, 5.0));
  EmpiricalCdf cdf(std::move(samples));
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double x = cdf.quantile(p);
    // F(quantile(p)) >= p (step CDF) with limited overshoot.
    EXPECT_GE(cdf.at(x) + 1e-9, p);
    EXPECT_LE(cdf.at(x), p + 0.01);
  }
}

TEST_P(SeededProperty, ChannelOverlapSymmetricSameWidth) {
  Rng rng(GetParam());
  const auto& channels = phy::ChannelPlan::us().channels();
  for (int i = 0; i < 200; ++i) {
    const auto& a = channels[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(channels.size()) - 1))];
    const auto& b = channels[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(channels.size()) - 1))];
    // Same 20 MHz width everywhere in the plan: overlap must be symmetric.
    EXPECT_DOUBLE_EQ(phy::channel_overlap(a, b), phy::channel_overlap(b, a));
    EXPECT_GE(phy::channel_overlap(a, b), 0.0);
    EXPECT_LE(phy::channel_overlap(a, b), 1.0);
  }
}

TEST_P(SeededProperty, HistogramFractionsSumToOne) {
  Rng rng(GetParam() + 1);
  Histogram h(-10.0, 10.0, 16);
  for (int i = 0; i < 1000; ++i) h.add(rng.normal(0.0, 6.0));
  double sum = 0.0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) sum += h.bin_fraction(b);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(SeededProperty, CheckpointStoreSaveLoadSaveIsIdentity) {
  // Canonical serialization: for ANY store contents, save -> load -> save
  // emits identical bytes, and the loaded store holds the same reports.
  Rng rng(GetParam() * 13 + 1);
  backend::ReportStore store;
  const auto n = rng.uniform_int(0, 30);
  for (std::int64_t i = 0; i < n; ++i) store.add(random_report(rng));

  ckpt::Buf first;
  ckpt::save_store(first, store);
  const auto bytes = first.take();
  ckpt::Cursor c(bytes);
  backend::ReportStore loaded;
  ASSERT_TRUE(ckpt::load_store(c, loaded));
  ASSERT_TRUE(c.at_end());
  EXPECT_EQ(loaded.report_count(), store.report_count());
  ckpt::Buf second;
  ckpt::save_store(second, loaded);
  EXPECT_EQ(bytes, second.take());
}

TEST_P(SeededProperty, CheckpointRngRestoreMatchesEveryDistribution) {
  // Cut the generator at a random point in a random draw mix; the restored
  // clone must continue the exact stream across every distribution.
  Rng rng(GetParam() * 7 + 9);
  Rng subject(GetParam());
  const auto warmup = rng.uniform_int(0, 200);
  for (std::int64_t i = 0; i < warmup; ++i) {
    if (rng.chance(0.3)) {
      (void)subject.normal();  // may leave a cached Box–Muller variate
    } else {
      (void)subject.next_u64();
    }
  }
  ckpt::Buf b;
  ckpt::save_rng(b, subject.state());
  const auto bytes = b.take();
  ckpt::Cursor c(bytes);
  Rng::State state;
  ASSERT_TRUE(ckpt::load_rng(c, state));
  Rng clone(0);
  clone.restore(state);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(subject.next_u64(), clone.next_u64());
    EXPECT_EQ(subject.normal(), clone.normal());
    EXPECT_EQ(subject.exponential(0.5), clone.exponential(0.5));
    EXPECT_EQ(subject.poisson(4.0), clone.poisson(4.0));
  }
}

TEST_P(SeededProperty, CheckpointTunnelSaveLoadSaveIsIdentity) {
  // Random op sequences (enqueue/disconnect/reconnect/poll/overflow) leave
  // the tunnel in an arbitrary reachable state; identity must hold for all.
  Rng rng(GetParam() * 23 + 11);
  backend::Tunnel tunnel(ApId{9}, /*queue_limit=*/8);
  const auto ops = rng.uniform_int(0, 60);
  for (std::int64_t i = 0; i < ops; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        std::vector<std::uint8_t> frame(static_cast<std::size_t>(rng.uniform_int(0, 12)));
        for (auto& byte : frame) byte = static_cast<std::uint8_t>(rng.next_u64());
        tunnel.enqueue(std::move(frame));
        break;
      }
      case 1: tunnel.disconnect(); break;
      case 2: tunnel.reconnect(); break;
      default: (void)tunnel.poll(static_cast<std::size_t>(rng.uniform_int(0, 4))); break;
    }
  }
  ckpt::Buf first;
  ckpt::save_tunnel(first, tunnel);
  const auto bytes = first.take();
  ckpt::Cursor c(bytes);
  backend::Tunnel loaded(ApId{9}, /*queue_limit=*/8);
  ASSERT_TRUE(ckpt::load_tunnel(c, loaded));
  ASSERT_TRUE(c.at_end());
  EXPECT_EQ(loaded.pending(), tunnel.pending());
  EXPECT_EQ(loaded.connected(), tunnel.connected());
  ckpt::Buf second;
  ckpt::save_tunnel(second, loaded);
  EXPECT_EQ(bytes, second.take());
}

// Interleaved fragment workload shared by the cache properties below:
// a handful of flows, each emitting several fragments, shuffled so that
// distinct flow keys contend for cache slots mid-flow.
struct FragmentEvent {
  classify::FlowKey key;
  const classify::FlowSample* sample;
  std::uint64_t bytes;
};

std::vector<FragmentEvent> random_fragment_workload(
    Rng& rng, std::vector<traffic::GeneratedFlow>& storage) {
  traffic::FlowGenerator gen{Rng{rng.next_u64()}};
  const auto& catalog = classify::app_catalog();
  const auto n_flows = rng.uniform_int(5, 40);
  storage.clear();
  storage.reserve(static_cast<std::size_t>(n_flows));
  std::vector<FragmentEvent> events;
  for (std::int64_t i = 0; i < n_flows; ++i) {
    const auto& app = catalog[static_cast<std::size_t>(rng.next_u64() % catalog.size())];
    const auto os = static_cast<classify::OsType>(rng.uniform_int(0, classify::kOsTypeCount - 1));
    storage.push_back(gen.make_flow(app.id, os, rng.next_u64() % (1u << 22),
                                    rng.next_u64() % (1u << 26)));
  }
  for (std::size_t i = 0; i < storage.size(); ++i) {
    const auto& flow = storage[i];
    const classify::FlowKey key{
        0xAA00'0000'0000ULL + i, static_cast<std::uint32_t>(i % 3), flow.dst_host,
        flow.src_port, flow.sample.dst_port,
        flow.sample.transport == classify::Transport::kUdp ? std::uint8_t{17} : std::uint8_t{6}};
    const auto frags = std::max<std::uint16_t>(flow.fragments, 2);
    for (std::uint16_t f = 0; f < frags; ++f) {
      events.push_back(FragmentEvent{key, &flow.sample, rng.next_u64() % 100'000});
    }
  }
  rng.shuffle(events);
  return events;
}

TEST_P(SeededProperty, VerdictCacheConservesAttribution) {
  // Conservation: every lookup is exactly one hit or one miss, evictions
  // never exceed insertions, live entries never exceed capacity, and the
  // bytes attributed per app through the cache equal the bytes attributed
  // by the reference engine (reparse + linear scan, no cache) on the same
  // event stream.
  Rng rng(GetParam() * 41 + 13);
  std::vector<traffic::GeneratedFlow> storage;
  const auto events = random_fragment_workload(rng, storage);

  classify::TwoTierClassifier cached(/*cache_capacity=*/8);
  const auto& reference = classify::RuleSet::standard();
  std::map<classify::AppId, std::uint64_t> bytes_cached;
  std::map<classify::AppId, std::uint64_t> bytes_reference;
  for (const auto& ev : events) {
    bytes_cached[cached.classify(ev.key, *ev.sample)] += ev.bytes;
    bytes_reference[reference.classify(classify::extract_metadata(*ev.sample))] += ev.bytes;
  }
  EXPECT_EQ(bytes_cached, bytes_reference);

  const auto& stats = cached.cache().stats();
  EXPECT_EQ(stats.hits + stats.misses, events.size());
  EXPECT_EQ(stats.hits + cached.slow_path_calls(), events.size());
  EXPECT_LE(stats.evictions, stats.misses);
  EXPECT_LE(cached.cache().size(), cached.cache().capacity());
}

TEST_P(SeededProperty, VerdictCacheEvictionIsCapacityInvariant) {
  // Eviction determinism: the verdict SEQUENCE is identical at any capacity
  // >= 1 (an evicted entry just re-runs the slow path, which re-derives the
  // same verdict), and replaying the same stream is bit-identical.
  Rng rng(GetParam() * 53 + 29);
  std::vector<traffic::GeneratedFlow> storage;
  const auto events = random_fragment_workload(rng, storage);

  std::vector<classify::AppId> baseline;
  std::uint64_t baseline_hits = 0;
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                     std::size_t{64}, std::size_t{100'000}}) {
    classify::TwoTierClassifier tier(capacity);
    std::vector<classify::AppId> verdicts;
    verdicts.reserve(events.size());
    for (const auto& ev : events) verdicts.push_back(tier.classify(ev.key, *ev.sample));
    if (baseline.empty()) {
      baseline = verdicts;
      baseline_hits = tier.cache().stats().hits;
      // Replay determinism at the smallest capacity: same stream, same stats.
      classify::TwoTierClassifier replay(capacity);
      for (const auto& ev : events) (void)replay.classify(ev.key, *ev.sample);
      EXPECT_EQ(replay.cache().stats().hits, tier.cache().stats().hits);
      EXPECT_EQ(replay.cache().stats().evictions, tier.cache().stats().evictions);
    } else {
      ASSERT_EQ(verdicts, baseline) << "capacity=" << capacity;
      // Bigger caches can only hit more often, never less.
      EXPECT_GE(tier.cache().stats().hits, baseline_hits) << "capacity=" << capacity;
    }
  }
}

TEST_P(SeededProperty, LossLedgerConservesUnderSupervisionOutcomes) {
  // The fleet ledger's conservation invariant (generated = delivered + shed
  // + lost_reboot + lost_corruption + in_flight + lost_supervision) must
  // close for EVERY supervision outcome — clean pass, recovered retry,
  // watchdog trip, or quarantine — and the whole degraded accounting must
  // be bit-identical for any worker count. The seed sweeps the failpoint
  // schedule (site, skip count, firing bound, retry budget) across those
  // outcomes.
  Rng rng(GetParam() * 31 + 17);
  static constexpr const char* kSites[] = {"shard.step", "poller.poll",
                                           "harvest.merge", "shard.alloc"};
  const char* site = kSites[rng.next_u64() % 4];
  const bool oom = std::string_view(site) == "shard.alloc";
  const std::uint64_t after = rng.next_u64() % 4;
  const std::uint64_t times = rng.next_u64() % 3;  // 0 = fire forever
  const std::uint64_t retries = rng.next_u64() % 3;
  const std::size_t victim_index = static_cast<std::size_t>(rng.next_u64() % 4);

  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 4;
  config.fleet.seed = 21;
  config.seed = 22;
  config.supervision.max_shard_retries = retries;
  config.supervision.capture_checkpoints = true;

  const std::uint64_t victim = [&] {
    const sim::FleetRunner probe(config);
    return probe.shards().at(victim_index)->id().value();
  }();
  const std::string spec = std::string("site=") + site +
                           ",net=" + std::to_string(victim) +
                           ",action=" + (oom ? "oom" : "throw") +
                           ",after=" + std::to_string(after) +
                           ",times=" + std::to_string(times);

  std::string baseline_ledger;
  std::string baseline_manifest;
  for (const int jobs : {1, 2, 8}) {
    failsafe::failpoints().disarm_all();
    ASSERT_TRUE(failsafe::failpoints().arm_list(spec)) << spec;
    config.threads = jobs;
    sim::FleetRunner runner(config);
    runner.run_usage_week();
    runner.harvest(sim::HarvestMode::kFinal);
    failsafe::failpoints().disarm_all();

    const auto ledger = runner.loss_ledger();
    EXPECT_TRUE(ledger.conserved()) << spec << " jobs=" << jobs << "\n"
                                    << ledger.render();
    // A quarantine is never silent: it must show up in both the manifest
    // and the ledger's supervision bucket (unless the shard died before
    // producing anything — then the bucket is legitimately zero).
    if (runner.supervisor().quarantined_count() > 0) {
      EXPECT_TRUE(runner.supervisor().degraded());
      EXPECT_EQ(runner.supervisor().manifest().quarantined_networks(),
                std::vector<std::uint64_t>{victim});
    } else {
      EXPECT_EQ(ledger.lost_supervision, 0u);
    }
    if (jobs == 1) {
      baseline_ledger = ledger.render();
      baseline_manifest = runner.supervisor().manifest().render();
    } else {
      EXPECT_EQ(ledger.render(), baseline_ledger) << spec << " jobs=" << jobs;
      EXPECT_EQ(runner.supervisor().manifest().render(), baseline_manifest)
          << spec << " jobs=" << jobs;
    }
  }
}

TEST_P(SeededProperty, LossLedgerConservesUnderRoamingChurn) {
  // Mobility churn (per-flow usage fanned out across the roam set) must not
  // break byte conservation while faults chew on the tunnels and the
  // supervisor retries a failpoint-shot shard — and the whole degraded
  // accounting must stay bit-identical across worker counts. Odd seeds arm
  // a mid-week shard failure so the churn × supervision corner is covered.
  const std::uint64_t seed = GetParam();
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 4;
  config.fleet.seed = seed * 2 + 21;
  config.seed = seed * 3 + 22;
  config.client_scale = 0.25;
  config.mobility.enabled = true;
  config.mobility.steps_per_week = 48;
  config.mobility.handoff_hysteresis_db = (seed % 2 == 0) ? 3.0 : 6.0;
  config.mobility.band_steer_bonus_db = (seed % 3 == 0) ? 6.0 : 0.0;
  config.faults.outage_rate_per_week = 2.0;
  config.faults.outage_mean_hours = 12.0;
  config.faults.reboot_rate_per_week = 1.0;
  config.faults.corrupt_probability = 0.01;
  config.faults.tunnel_queue_limit = 64;
  config.supervision.max_shard_retries = 1;
  config.supervision.capture_checkpoints = true;

  const bool inject = (seed % 2) == 1;
  std::string spec;
  if (inject) {
    const std::uint64_t victim = [&] {
      const sim::FleetRunner probe(config);
      return probe.shards().at(static_cast<std::size_t>(seed % 4))->id().value();
    }();
    spec = "site=shard.step,net=" + std::to_string(victim) +
           ",action=throw,after=1,times=1";
  }

  std::string baseline;
  for (const int jobs : {1, 2, 8}) {
    if (inject) {
      failsafe::failpoints().disarm_all();
      ASSERT_TRUE(failsafe::failpoints().arm_list(spec)) << spec;
    }
    config.threads = jobs;
    sim::FleetRunner runner(config);
    runner.run_usage_week();
    runner.harvest(sim::HarvestMode::kFinal);
    failsafe::failpoints().disarm_all();

    const auto ledger = runner.loss_ledger();
    EXPECT_TRUE(ledger.conserved())
        << "seed=" << seed << " jobs=" << jobs << "\n" << ledger.render();
    if (jobs == 1) {
      baseline = ledger.render();
    } else {
      EXPECT_EQ(ledger.render(), baseline) << "seed=" << seed << " jobs=" << jobs;
    }
  }
}

TEST_P(SeededProperty, LossLedgerConservesUnderMeshPartition) {
  // Mesh backhaul adds a new way to lose work — a partitioned relay subtree
  // (no route within max_hops, or a gateway mid-outage) drops reports
  // before they ever reach a tunnel — and the ledger's lost_mesh_partition
  // bucket must keep conservation closed through it, stacked with tunnel
  // faults and failpoint supervision, bit-identically across worker counts.
  // The seed sweeps hop budgets, drift, and a mid-week shard failure.
  const std::uint64_t seed = GetParam();
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 4;
  config.fleet.seed = seed * 5 + 31;
  config.seed = seed * 7 + 32;
  config.client_scale = 0.25;
  config.mesh.mesh_fraction = 0.6;
  config.mesh.max_hops = (seed % 2 == 0) ? 8 : 2;
  config.mesh.drift_sigma_db = (seed % 3 == 0) ? 0.0 : 4.0;
  // Long outages against a dense mesh: when one lands on a gateway AP its
  // whole relay subtree strands into lost_mesh_partition.
  config.faults.outage_rate_per_week = 3.0;
  config.faults.outage_mean_hours = 24.0;
  config.faults.reboot_rate_per_week = 1.0;
  config.faults.corrupt_probability = 0.01;
  config.faults.tunnel_queue_limit = 64;
  config.supervision.max_shard_retries = 1;
  config.supervision.capture_checkpoints = true;

  const bool inject = (seed % 2) == 1;
  std::string spec;
  if (inject) {
    const std::uint64_t victim = [&] {
      const sim::FleetRunner probe(config);
      return probe.shards().at(static_cast<std::size_t>(seed % 4))->id().value();
    }();
    spec = "site=shard.step,net=" + std::to_string(victim) +
           ",action=throw,after=1,times=1";
  }

  std::string baseline;
  for (const int jobs : {1, 2, 8}) {
    if (inject) {
      failsafe::failpoints().disarm_all();
      ASSERT_TRUE(failsafe::failpoints().arm_list(spec)) << spec;
    }
    config.threads = jobs;
    sim::FleetRunner runner(config);
    runner.run_usage_week();
    runner.harvest(sim::HarvestMode::kFinal);
    failsafe::failpoints().disarm_all();

    const auto ledger = runner.loss_ledger();
    EXPECT_TRUE(ledger.conserved())
        << "seed=" << seed << " jobs=" << jobs << "\n" << ledger.render();
    if (!runner.supervisor().degraded()) {
      // The hot-path partition counter must agree with the ledger bucket
      // (a quarantined shard's registry leaves the merge, so only clean
      // runs can make this comparison).
      EXPECT_EQ(runner.metrics().counter_value("wlm_mesh_partition_lost_total"),
                ledger.lost_mesh_partition)
          << "seed=" << seed << " jobs=" << jobs;
    }
    if (jobs == 1) {
      baseline = ledger.render();
    } else {
      EXPECT_EQ(ledger.render(), baseline) << "seed=" << seed << " jobs=" << jobs;
    }
  }
}

TEST_P(SeededProperty, MeshHopHistogramMatchesBackendObservation) {
  // Ground truth: the hop distribution the backend decodes from delivered
  // reports must equal the union of the shards' enqueue-time histograms,
  // and the wlm_mesh_* counters must re-derive from the same reports. The
  // config is fault-free so every enqueued report is delivered — any gap
  // between the two views is a wire/tsdb/relay accounting bug, not loss.
  // (Topology can still strand APs — disconnected or beyond max_hops — so
  // partition loss is reconciled against the ledger, not assumed zero.)
  const std::uint64_t seed = GetParam();
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 4;
  config.fleet.seed = seed + 3015;
  config.seed = seed + 3016;
  config.client_scale = 0.25;
  config.threads = 2;
  config.mesh.mesh_fraction = 0.5;
  config.mesh.drift_sigma_db = 3.0;

  sim::FleetRunner runner(config);
  runner.run_usage_week(7);
  runner.harvest(sim::HarvestMode::kFinal);

  std::vector<std::uint64_t> truth;
  for (const auto& shard : runner.shards()) {
    const auto& hist = shard->mesh_enqueued_by_hops();
    if (hist.size() > truth.size()) truth.resize(hist.size(), 0);
    for (std::size_t h = 0; h < hist.size(); ++h) truth[h] += hist[h];
  }
  ASSERT_FALSE(truth.empty());

  std::vector<std::uint64_t> observed(truth.size(), 0);
  std::uint64_t relayed = 0, hops_total = 0, relay_us_total = 0;
  runner.reports().for_each([&](const wire::ApReport& r) {
    if (r.mesh_hops >= observed.size()) {
      ADD_FAILURE() << "hop count " << r.mesh_hops << " beyond the config budget";
      return;
    }
    ++observed[r.mesh_hops];
    if (r.mesh_hops != 0) {
      ++relayed;
      hops_total += r.mesh_hops;
      relay_us_total += r.mesh_relay_us;
    } else {
      EXPECT_EQ(r.mesh_relay_us, 0u);  // direct reports carry no relay delay
    }
  });
  EXPECT_EQ(observed, truth) << "seed=" << seed;

  const auto& metrics = runner.metrics();
  for (std::size_t h = 0; h < truth.size(); ++h) {
    EXPECT_EQ(metrics.counter_value("wlm_mesh_reports_by_hops_total", h), truth[h])
        << "seed=" << seed << " hops=" << h;
  }
  EXPECT_EQ(metrics.counter_value("wlm_mesh_relayed_reports_total"), relayed);
  EXPECT_EQ(metrics.counter_value("wlm_mesh_hops_total"), hops_total);
  EXPECT_EQ(metrics.counter_value("wlm_mesh_relay_us_total"), relay_us_total);
  const auto ledger = runner.loss_ledger();
  EXPECT_TRUE(ledger.conserved()) << ledger.render();
  EXPECT_EQ(metrics.counter_value("wlm_mesh_partition_lost_total"),
            ledger.lost_mesh_partition);
}

TEST_P(SeededProperty, BackendApCountMatchesGroundTruthTraces) {
  // The backend's per-MAC ap_count (paper §2.3: aggregate by MAC to account
  // for roaming) must equal the distinct APs in the client's ground-truth
  // walk trace. Traces are unioned per MAC across the whole fleet before
  // comparing: the randomized MAC tail can collide across networks, and the
  // aggregator keys by MAC alone, so a collision legitimately merges two
  // clients' AP sets. Clean fault-free config: every report is delivered.
  const std::uint64_t seed = GetParam();
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 4;
  config.fleet.seed = seed + 2015;
  config.seed = seed + 2016;
  config.client_scale = 0.25;
  config.threads = 2;
  config.mobility.enabled = true;
  config.mobility.steps_per_week = 48;

  sim::FleetRunner runner(config);
  runner.run_usage_week(7);
  runner.harvest(sim::HarvestMode::kFinal);

  std::map<std::uint64_t, std::set<std::uint32_t>> truth;
  for (const auto& shard : runner.shards()) {
    for (const auto& trace : shard->mobility_traces()) {
      truth[trace.mac].insert(trace.ap_ids.begin(), trace.ap_ids.end());
    }
  }
  ASSERT_FALSE(truth.empty());

  backend::UsageAggregator agg;
  agg.consume(runner.reports(), SimTime::epoch(),
              SimTime::epoch() + Duration::days(8));
  EXPECT_EQ(agg.clients().size(), truth.size()) << "seed=" << seed;
  for (const auto& [mac, client] : agg.clients()) {
    const auto it = truth.find(mac.to_u64());
    ASSERT_NE(it, truth.end()) << "seed=" << seed << " mac=" << mac.to_u64();
    EXPECT_EQ(static_cast<std::size_t>(client.ap_count), it->second.size())
        << "seed=" << seed << " mac=" << mac.to_u64();
  }
}

}  // namespace
}  // namespace wlm
