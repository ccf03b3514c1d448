// Adversarial checkpoint inputs (style of tests/wire/fuzz_test.cpp).
//
// A checkpoint file crosses a trust boundary: it may come from a different
// binary, a different scenario, a torn write, or a hostile hand. The
// restore path must answer every such input with a typed Error — never a
// crash, hang, out-of-bounds read (ASan/UBSan suites run this file), or a
// partially restored runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/campaign.hpp"
#include "ckpt/container.hpp"
#include "ckpt/state.hpp"
#include "core/rng.hpp"

namespace wlm {
namespace {

std::vector<std::uint8_t> valid_checkpoint() {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 3;
  config.fleet.seed = 31;
  config.seed = 32;
  config.client_scale = 0.2;
  config.faults.outage_rate_per_week = 2.0;
  config.faults.outage_mean_hours = 8.0;
  config.faults.corrupt_probability = 0.02;
  sim::FleetRunner runner(config);
  runner.run_usage_week();
  runner.harvest();
  ckpt::CampaignProgress progress;
  progress.label = "fuzz";
  progress.phases_done = {"usage_week", "harvest"};
  return ckpt::save_campaign(runner, progress);
}

/// The one assertion every adversarial case reduces to: restore either
/// succeeds or reports a typed error, and on error `out` stays empty.
void expect_typed_outcome(std::span<const std::uint8_t> bytes) {
  ckpt::RestoredCampaign out;
  const auto err = ckpt::restore_campaign(bytes, /*threads=*/1, out);
  if (err) {
    EXPECT_NE(err.status, ckpt::Status::kOk);
    EXPECT_EQ(out.runner, nullptr) << "partial restore leaked a runner";
  } else {
    EXPECT_NE(out.runner, nullptr);
  }
}

TEST(CkptFuzz, EveryTruncationFailsTyped) {
  const auto valid = valid_checkpoint();
  // Every prefix of a valid checkpoint, including the empty file. CRC-guarded
  // sections mean any cut lands in kTruncated/kBadCrc/kMalformed territory.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const std::span<const std::uint8_t> prefix{valid.data(), cut};
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(prefix, 1, out);
    EXPECT_TRUE(err) << "truncation at " << cut << " restored successfully";
    EXPECT_EQ(out.runner, nullptr);
  }
}

TEST(CkptFuzz, BitFlipsNeverCrash) {
  const auto valid = valid_checkpoint();
  Rng rng(101);
  for (int i = 0; i < 400; ++i) {
    auto mutated = valid;
    const int flips = 1 + static_cast<int>(rng.next_u64() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng.next_u64() % mutated.size()] ^=
          static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
    }
    expect_typed_outcome(mutated);
  }
}

TEST(CkptFuzz, SingleBitFlipsInHeaderAndFirstSections) {
  const auto valid = valid_checkpoint();
  // Exhaustive single-bit flips over the structural front of the file:
  // magic, version, section count, first tags/lengths/CRCs.
  const std::size_t front = std::min<std::size_t>(valid.size(), 512);
  for (std::size_t byte = 0; byte < front; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = valid;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      expect_typed_outcome(mutated);
    }
  }
}

TEST(CkptFuzz, RandomGarbageFailsTyped) {
  Rng rng(102);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.next_u64() % 400);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(junk, 1, out);
    EXPECT_TRUE(err);
    EXPECT_EQ(out.runner, nullptr);
  }
}

TEST(CkptFuzz, WrongMagicAndVersionAreTypedErrors) {
  auto valid = valid_checkpoint();
  {
    auto mutated = valid;
    mutated[0] = 'X';
    ckpt::RestoredCampaign out;
    EXPECT_EQ(ckpt::restore_campaign(mutated, 1, out).status, ckpt::Status::kBadMagic);
  }
  {
    // Version bump: a future format must fail closed, not half-parse.
    auto mutated = valid;
    mutated[8] = 0xFF;
    ckpt::RestoredCampaign out;
    EXPECT_EQ(ckpt::restore_campaign(mutated, 1, out).status, ckpt::Status::kBadVersion);
  }
}

// Valid container framing around hostile payloads: the CRC passes, so the
// per-section loaders themselves must reject the content.
TEST(CkptFuzz, ValidCrcMalformedSectionsFailTyped) {
  Rng rng(103);
  for (int i = 0; i < 300; ++i) {
    ckpt::Writer w;
    const int sections = static_cast<int>(rng.next_u64() % 6);
    for (int s = 0; s < sections; ++s) {
      std::vector<std::uint8_t> payload(rng.next_u64() % 80);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
      w.add_section(static_cast<ckpt::SectionTag>(rng.next_u64() % 8), std::move(payload));
    }
    expect_typed_outcome(w.finish());
  }
}

TEST(CkptFuzz, HugeCountsInsideSectionsDoNotAllocateOrSpin) {
  // A config section whose phase/shard counts claim 2^60 entries in a
  // 30-byte payload: plausible_count must reject before any loop trusts it.
  ckpt::Writer w;
  ckpt::Buf meta;
  meta.str("evil");
  meta.u64(1ULL << 60);  // phases_done count
  w.add_section(ckpt::SectionTag::kMeta, meta.take());
  ckpt::Buf config;
  config.u64(1ULL << 60);
  w.add_section(ckpt::SectionTag::kConfig, config.take());
  expect_typed_outcome(w.finish());
}

TEST(CkptFuzz, CrossScenarioResumeFailsClosed) {
  // A structurally perfect checkpoint from scenario A must not restore when
  // its own config is swapped for scenario B's (different seed -> different
  // world): the shard overlay or the ledger cross-check has to catch it.
  const auto valid = valid_checkpoint();
  ckpt::Reader r;
  ASSERT_FALSE(r.load(valid));

  const auto with_config = [&](const sim::WorldConfig& other) {
    ckpt::Writer w;
    for (const auto& section : r.sections()) {
      if (section.tag == ckpt::SectionTag::kConfig) {
        ckpt::Buf b;
        ckpt::save_world_config(b, other);
        w.add_section(ckpt::SectionTag::kConfig, b.take());
      } else {
        w.add_section(section.tag, {section.payload.begin(), section.payload.end()});
      }
    }
    return w.finish();
  };

  sim::WorldConfig base;
  base.fleet.epoch = deploy::Epoch::kJan2015;
  base.fleet.network_count = 3;
  base.fleet.seed = 31;
  base.seed = 32;
  base.client_scale = 0.2;
  base.faults.outage_rate_per_week = 2.0;
  base.faults.outage_mean_hours = 8.0;
  base.faults.corrupt_probability = 0.02;

  {
    // Wrong fleet size: the shard-section count check fails closed.
    sim::WorldConfig other = base;
    other.fleet.network_count = 4;
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(with_config(other), 1, out);
    EXPECT_EQ(err.status, ckpt::Status::kBadConfig) << err.detail;
    EXPECT_EQ(out.runner, nullptr);
  }
  {
    // Same world, faults stripped: the rebuilt (disabled) injector rejects
    // the checkpoint's fault-schedule cursors.
    sim::WorldConfig other = base;
    other.faults = {};
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(with_config(other), 1, out);
    EXPECT_TRUE(err) << "resumed a faulted checkpoint into a clean scenario";
    EXPECT_EQ(err.status, ckpt::Status::kBadConfig) << err.detail;
    EXPECT_EQ(out.runner, nullptr);
  }
}

// ---------------------------------------------------------------------------
// v5 mobility-block adversarial vectors. The shard sections now end with the
// walk state (rng, roster counts, per-client motion); every lie in that tail
// must die in the semantic validators, because the container CRC is honest.

std::vector<std::uint8_t> valid_mobility_checkpoint() {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 3;
  config.fleet.seed = 31;
  config.seed = 32;
  config.client_scale = 0.2;
  config.mobility.enabled = true;
  config.mobility.steps_per_week = 24;
  sim::FleetRunner runner(config);
  runner.run_usage_week();
  runner.harvest();
  ckpt::CampaignProgress progress;
  progress.label = "fuzz-mobility";
  progress.phases_done = {"usage_week", "harvest"};
  return ckpt::save_campaign(runner, progress);
}

/// Rebuilds `bytes` with one shard section's payload transformed (Writer
/// recomputes the CRC, so only semantic validation can object).
std::vector<std::uint8_t> with_shard_payload(
    const std::vector<std::uint8_t>& bytes, std::size_t shard_index,
    const std::function<void(std::vector<std::uint8_t>&)>& mutate) {
  ckpt::Reader r;
  EXPECT_FALSE(r.load(bytes));
  ckpt::Writer w;
  std::size_t seen_shards = 0;
  for (const auto& section : r.sections()) {
    std::vector<std::uint8_t> payload{section.payload.begin(), section.payload.end()};
    if (section.tag == ckpt::SectionTag::kShard && seen_shards++ == shard_index) {
      mutate(payload);
    }
    w.add_section(section.tag, std::move(payload));
  }
  return w.finish();
}

TEST(CkptFuzz, TruncatedMobilityTailFailsTyped) {
  // The mobility block sits at the end of each shard section; cutting any
  // number of bytes off that tail (CRC re-stamped over the shorter payload)
  // must be caught by the loader's bounds checks, never by reading past the
  // cursor. Sweep the whole block depth on every shard.
  const auto valid = valid_mobility_checkpoint();
  for (std::size_t shard = 0; shard < 3; ++shard) {
    for (std::size_t cut = 1; cut <= 512; ++cut) {
      const auto mutated = with_shard_payload(
          valid, shard, [&](std::vector<std::uint8_t>& payload) {
            payload.resize(payload.size() - std::min(cut, payload.size()));
          });
      ckpt::RestoredCampaign out;
      const auto err = ckpt::restore_campaign(mutated, 1, out);
      EXPECT_TRUE(err) << "shard " << shard << " tail cut of " << cut
                       << " bytes restored successfully";
      EXPECT_EQ(out.runner, nullptr);
    }
  }
}

TEST(CkptFuzz, MobilityTailTamperWithRecomputedCrcFailsTyped) {
  // Random byte-level lies inside the mobility tail — which is where the
  // roster counts, serving indices, and waypoint coordinates live. A varint
  // flip here claims a different roster shape; the loader must cross-check
  // against the deterministically rebuilt roster and fail typed.
  const auto valid = valid_mobility_checkpoint();
  Rng rng(105);
  for (int i = 0; i < 200; ++i) {
    const std::size_t shard = rng.next_u64() % 3;
    const auto mutated = with_shard_payload(
        valid, shard, [&](std::vector<std::uint8_t>& payload) {
          const std::size_t tail = std::min<std::size_t>(payload.size(), 400);
          const std::size_t pos = payload.size() - 1 - rng.next_u64() % tail;
          payload[pos] ^= static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
        });
    expect_typed_outcome(mutated);
  }
}

TEST(CkptFuzz, MobilityEnabledBitMismatchFailsClosed) {
  // A mobility checkpoint resumed into a mobility-off scenario (or the
  // reverse) would silently drop or invent walk state; both directions must
  // fail as kBadConfig, like any other cross-scenario resume.
  const auto swap_config = [](const std::vector<std::uint8_t>& bytes,
                              const sim::WorldConfig& other) {
    ckpt::Reader r;
    EXPECT_FALSE(r.load(bytes));
    ckpt::Writer w;
    for (const auto& section : r.sections()) {
      if (section.tag == ckpt::SectionTag::kConfig) {
        ckpt::Buf b;
        ckpt::save_world_config(b, other);
        w.add_section(ckpt::SectionTag::kConfig, b.take());
      } else {
        w.add_section(section.tag, {section.payload.begin(), section.payload.end()});
      }
    }
    return w.finish();
  };

  sim::WorldConfig base;
  base.fleet.epoch = deploy::Epoch::kJan2015;
  base.fleet.network_count = 3;
  base.fleet.seed = 31;
  base.seed = 32;
  base.client_scale = 0.2;

  {
    // Saved with mobility on, config says off.
    sim::WorldConfig off = base;
    off.mobility.enabled = false;
    off.mobility.steps_per_week = 24;
    ckpt::RestoredCampaign out;
    const auto err =
        ckpt::restore_campaign(swap_config(valid_mobility_checkpoint(), off), 1, out);
    EXPECT_EQ(err.status, ckpt::Status::kBadConfig) << err.detail;
    EXPECT_EQ(out.runner, nullptr);
  }
  {
    // Saved with mobility off, config claims on: the shard sections carry no
    // walk state for the rebuilt roster to restore from.
    sim::WorldConfig on = base;
    on.mobility.enabled = true;
    on.mobility.steps_per_week = 24;
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(swap_config(valid_checkpoint(), on), 1, out);
    EXPECT_TRUE(err) << "mobility-off checkpoint restored into a mobility-on world";
    EXPECT_EQ(out.runner, nullptr);
  }
}

TEST(CkptFuzz, OutOfRangeMobilityKnobsInConfigSectionFailTyped) {
  // The loader validates every mobility knob against the same ranges
  // MobilityConfig::clamped() enforces; a hostile config section claiming
  // speed 500 m/s or 10^7 steps must not construct a world.
  const auto valid = valid_mobility_checkpoint();
  ckpt::Reader r;
  ASSERT_FALSE(r.load(valid));

  sim::WorldConfig hostile;
  hostile.fleet.epoch = deploy::Epoch::kJan2015;
  hostile.fleet.network_count = 3;
  hostile.fleet.seed = 31;
  hostile.seed = 32;
  hostile.client_scale = 0.2;
  hostile.mobility.enabled = true;
  hostile.mobility.steps_per_week = 24;

  const std::vector<std::function<void(mobility::MobilityConfig&)>> cases = {
      [](mobility::MobilityConfig& m) { m.speed_mps = 500.0; },
      [](mobility::MobilityConfig& m) { m.speed_mps = -1.0; },
      [](mobility::MobilityConfig& m) { m.pause_mean_s = 1e12; },
      [](mobility::MobilityConfig& m) { m.steps_per_week = 10'000'000; },
      [](mobility::MobilityConfig& m) { m.steps_per_week = 0; },
      [](mobility::MobilityConfig& m) { m.handoff_settle_steps = 5000; },
      [](mobility::MobilityConfig& m) { m.handoff_hysteresis_db = 400.0; },
      [](mobility::MobilityConfig& m) { m.band_steer_bonus_db = 99.0; },
      [](mobility::MobilityConfig& m) { m.roam_probability = 2.0; },
  };
  for (const auto& poison : cases) {
    sim::WorldConfig other = hostile;
    poison(other.mobility);
    ckpt::Writer w;
    for (const auto& section : r.sections()) {
      if (section.tag == ckpt::SectionTag::kConfig) {
        ckpt::Buf b;
        ckpt::save_world_config(b, other);
        w.add_section(ckpt::SectionTag::kConfig, b.take());
      } else {
        w.add_section(section.tag, {section.payload.begin(), section.payload.end()});
      }
    }
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(w.finish(), 1, out);
    EXPECT_TRUE(err) << "out-of-range mobility knob restored successfully";
    EXPECT_EQ(out.runner, nullptr);
  }
}

// ---------------------------------------------------------------------------
// v6 mesh-block adversarial vectors. Shard sections now end with the mesh
// backhaul state (mesh rng, the phase's routing table, per-AP relay busy
// horizons, partition-drop count); the routing table is the juicy target —
// a dangling next-hop index would be an out-of-bounds read at relay time,
// a self-loop an infinite relay walk — so every such lie must die in the
// loader, CRC honesty notwithstanding.

sim::WorldConfig mesh_fuzz_config() {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 3;
  config.fleet.seed = 31;
  config.seed = 32;
  config.client_scale = 0.2;
  config.mesh.mesh_fraction = 0.6;
  return config;
}

std::unique_ptr<sim::FleetRunner> run_mesh_campaign() {
  auto runner = std::make_unique<sim::FleetRunner>(mesh_fuzz_config());
  runner->run_usage_week();
  runner->harvest();
  return runner;
}

std::vector<std::uint8_t> save_mesh_campaign(sim::FleetRunner& runner) {
  ckpt::CampaignProgress progress;
  progress.label = "fuzz-mesh";
  progress.phases_done = {"usage_week", "harvest"};
  return ckpt::save_campaign(runner, progress);
}

std::vector<std::uint8_t> valid_mesh_checkpoint() {
  return save_mesh_campaign(*run_mesh_campaign());
}

TEST(CkptFuzz, TruncatedMeshTailFailsTyped) {
  // The mesh block is the last thing in each shard section; every cut depth
  // through it (CRC re-stamped over the shorter payload) must land in the
  // loader's bounds checks, never past the cursor.
  const auto valid = valid_mesh_checkpoint();
  for (std::size_t shard = 0; shard < 3; ++shard) {
    for (std::size_t cut = 1; cut <= 512; ++cut) {
      const auto mutated = with_shard_payload(
          valid, shard, [&](std::vector<std::uint8_t>& payload) {
            payload.resize(payload.size() - std::min(cut, payload.size()));
          });
      ckpt::RestoredCampaign out;
      const auto err = ckpt::restore_campaign(mutated, 1, out);
      EXPECT_TRUE(err) << "shard " << shard << " mesh tail cut of " << cut
                       << " bytes restored successfully";
      EXPECT_EQ(out.runner, nullptr);
    }
  }
}

TEST(CkptFuzz, MeshTailTamperWithRecomputedCrcFailsTyped) {
  // Random byte lies in the mesh tail — routing-table varints, busy
  // horizons, the partition count. Either the restore succeeds (the flip
  // produced an equally-valid value, e.g. a different partition count) or
  // it fails typed; it must never crash or leak a half-built runner.
  const auto valid = valid_mesh_checkpoint();
  Rng rng(106);
  for (int i = 0; i < 200; ++i) {
    const std::size_t shard = rng.next_u64() % 3;
    const auto mutated = with_shard_payload(
        valid, shard, [&](std::vector<std::uint8_t>& payload) {
          const std::size_t tail = std::min<std::size_t>(payload.size(), 400);
          const std::size_t pos = payload.size() - 1 - rng.next_u64() % tail;
          payload[pos] ^= static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
        });
    expect_typed_outcome(mutated);
  }
}

TEST(CkptFuzz, PoisonedRoutingTableEntriesFailTyped) {
  // Surgical routing-table lies with an honest CRC: serialize a live
  // campaign whose in-memory routing table has been poisoned, then demand
  // the loader reject it. Covers the three classic relay-time disasters —
  // dangling AP index, self-loop, hop-count overflow — plus a gateway
  // mismatch against the deterministically rebuilt membership and a
  // negative relay busy horizon.
  struct Poison {
    const char* name;
    std::function<bool(sim::NetworkShard&)> apply;  // false = no target entry
  };
  const std::vector<Poison> poisons = {
      {"dangling next_hop", [](sim::NetworkShard& shard) {
         for (auto& r : shard.mesh_routes()) {
           if (!r.is_gateway && r.routable) { r.next_hop = 60'000; return true; }
         }
         return false;
       }},
      {"self-loop next_hop", [](sim::NetworkShard& shard) {
         auto& routes = shard.mesh_routes();
         for (std::size_t i = 0; i < routes.size(); ++i) {
           if (!routes[i].is_gateway && routes[i].routable) {
             routes[i].next_hop = static_cast<std::uint32_t>(i);
             return true;
           }
         }
         return false;
       }},
      {"hop-count overflow", [](sim::NetworkShard& shard) {
         for (auto& r : shard.mesh_routes()) {
           if (!r.is_gateway && r.routable) { r.hop_count = 1'000'000; return true; }
         }
         return false;
       }},
      {"path ends at a mesh AP", [](sim::NetworkShard& shard) {
         auto& routes = shard.mesh_routes();
         std::uint32_t mesh_ap = 0;
         bool found = false;
         for (std::size_t i = 0; i < routes.size(); ++i) {
           if (!routes[i].is_gateway) { mesh_ap = static_cast<std::uint32_t>(i); found = true; break; }
         }
         if (!found) return false;
         for (auto& r : routes) {
           if (!r.is_gateway && r.routable) { r.gateway = mesh_ap; return true; }
         }
         return false;
       }},
      {"gateway flag contradicts membership", [](sim::NetworkShard& shard) {
         for (auto& r : shard.mesh_routes()) {
           if (!r.is_gateway) { r.is_gateway = true; return true; }
         }
         return false;
       }},
      {"negative busy horizon", [](sim::NetworkShard& shard) {
         auto& busy = shard.mesh_busy_until_us();
         if (busy.empty()) return false;
         busy[0] = -5;
         return true;
       }},
  };

  for (const auto& poison : poisons) {
    const auto runner = run_mesh_campaign();
    bool applied = false;
    for (const auto& shard : runner->shards()) {
      if (poison.apply(*shard)) { applied = true; break; }
    }
    ASSERT_TRUE(applied) << poison.name << ": no entry to poison at this scale";
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(save_mesh_campaign(*runner), 1, out);
    EXPECT_TRUE(err) << poison.name << " restored successfully";
    EXPECT_EQ(out.runner, nullptr) << poison.name;
  }
}

TEST(CkptFuzz, MeshEnabledBitMismatchFailsClosed) {
  // A mesh checkpoint resumed into a mesh-off scenario (or the reverse)
  // would drop or invent relay state; both directions fail kBadConfig.
  const auto swap_config = [](const std::vector<std::uint8_t>& bytes,
                              const sim::WorldConfig& other) {
    ckpt::Reader r;
    EXPECT_FALSE(r.load(bytes));
    ckpt::Writer w;
    for (const auto& section : r.sections()) {
      if (section.tag == ckpt::SectionTag::kConfig) {
        ckpt::Buf b;
        ckpt::save_world_config(b, other);
        w.add_section(ckpt::SectionTag::kConfig, b.take());
      } else {
        w.add_section(section.tag, {section.payload.begin(), section.payload.end()});
      }
    }
    return w.finish();
  };

  {
    // Saved with mesh on, config says off.
    sim::WorldConfig off = mesh_fuzz_config();
    off.mesh.mesh_fraction = 0.0;
    ckpt::RestoredCampaign out;
    const auto err =
        ckpt::restore_campaign(swap_config(valid_mesh_checkpoint(), off), 1, out);
    EXPECT_EQ(err.status, ckpt::Status::kBadConfig) << err.detail;
    EXPECT_EQ(out.runner, nullptr);
  }
  {
    // Saved with mesh off, config claims on: the shard sections carry no
    // relay state for the rebuilt topology to restore from.
    sim::WorldConfig on = mesh_fuzz_config();
    // valid_checkpoint() runs a faulted, mesh-off scenario; mirror it.
    on.faults.outage_rate_per_week = 2.0;
    on.faults.outage_mean_hours = 8.0;
    on.faults.corrupt_probability = 0.02;
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(swap_config(valid_checkpoint(), on), 1, out);
    EXPECT_TRUE(err) << "mesh-off checkpoint restored into a mesh-on world";
    EXPECT_EQ(out.runner, nullptr);
  }
}

TEST(CkptFuzz, OutOfRangeMeshKnobsInConfigSectionFailTyped) {
  // The loader validates every mesh knob against the same ranges
  // MeshConfig::clamped() enforces; a hostile config section claiming a
  // 1.5 mesh fraction or 40 hops must not construct a world.
  const auto valid = valid_mesh_checkpoint();
  ckpt::Reader r;
  ASSERT_FALSE(r.load(valid));

  const std::vector<std::function<void(mesh::MeshConfig&)>> cases = {
      [](mesh::MeshConfig& m) { m.mesh_fraction = 1.5; },
      [](mesh::MeshConfig& m) { m.mesh_fraction = -0.1; },
      [](mesh::MeshConfig& m) { m.max_hops = 0; },
      [](mesh::MeshConfig& m) { m.max_hops = 40; },
      [](mesh::MeshConfig& m) { m.relay_floor_dbm = -200.0; },
      [](mesh::MeshConfig& m) { m.relay_floor_dbm = 0.0; },
      [](mesh::MeshConfig& m) { m.drift_sigma_db = -1.0; },
      [](mesh::MeshConfig& m) { m.drift_sigma_db = 100.0; },
  };
  for (const auto& poison : cases) {
    sim::WorldConfig other = mesh_fuzz_config();
    poison(other.mesh);
    ckpt::Writer w;
    for (const auto& section : r.sections()) {
      if (section.tag == ckpt::SectionTag::kConfig) {
        ckpt::Buf b;
        ckpt::save_world_config(b, other);
        w.add_section(ckpt::SectionTag::kConfig, b.take());
      } else {
        w.add_section(section.tag, {section.payload.begin(), section.payload.end()});
      }
    }
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(w.finish(), 1, out);
    EXPECT_TRUE(err) << "out-of-range mesh knob restored successfully";
    EXPECT_EQ(out.runner, nullptr);
  }
}

TEST(CkptFuzz, TamperedSectionWithRecomputedCrcFailsTyped) {
  // Flip payload bytes but fix the CRC by re-framing through the Writer, so
  // only the semantic validators stand between the tamper and a restore.
  const auto valid = valid_checkpoint();
  ckpt::Reader r;
  ASSERT_FALSE(r.load(valid));
  Rng rng(104);
  for (int i = 0; i < 120; ++i) {
    ckpt::Writer w;
    const std::size_t victim = rng.next_u64() % r.sections().size();
    for (std::size_t s = 0; s < r.sections().size(); ++s) {
      std::vector<std::uint8_t> payload{r.sections()[s].payload.begin(),
                                        r.sections()[s].payload.end()};
      if (s == victim && !payload.empty()) {
        payload[rng.next_u64() % payload.size()] ^=
            static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
      }
      w.add_section(r.sections()[s].tag, std::move(payload));
    }
    expect_typed_outcome(w.finish());
  }
}

// ---------------------------------------------------------------------------
// Reserved slots. The config section keeps three v6 slots whose settings are
// gone (classifier engine, verdict cache bound, retry backoff base) and each
// shard section one (classifier engine). A save writes the one value this
// build runs with; a load answers any other value with a typed error:
// kBadConfig for a value an older build could have written (resuming it
// would not be byte-identical), kMalformed for one no build could write.

/// Replaces the single occurrence of `from` in `payload` with `to`.
void replace_once(std::vector<std::uint8_t>& payload, const std::vector<std::uint8_t>& from,
                  const std::vector<std::uint8_t>& to) {
  const auto at = std::search(payload.begin(), payload.end(), from.begin(), from.end());
  if (at == payload.end()) {
    ADD_FAILURE() << "reserved-slot bytes not found";
    return;
  }
  EXPECT_EQ(std::search(at + 1, payload.end(), from.begin(), from.end()), payload.end())
      << "reserved-slot bytes are ambiguous";
  const auto pos = at - payload.begin();
  payload.erase(at, at + static_cast<std::ptrdiff_t>(from.size()));
  payload.insert(payload.begin() + pos, to.begin(), to.end());
}

TEST(CkptFuzz, PoisonedReservedSlotsFailTyped) {
  const auto valid = valid_checkpoint();
  const auto expect_status = [](const std::vector<std::uint8_t>& bytes, ckpt::Status want,
                                const std::string& what) {
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(bytes, 1, out);
    EXPECT_EQ(err.status, want) << what << ": " << err.detail;
    EXPECT_EQ(out.runner, nullptr) << what;
  };

  // Config section: the three reserved slots around the two supervision
  // knobs that stay, as valid_checkpoint() (default supervision) saves them.
  const failsafe::SupervisorConfig supervision;
  const auto config_run = [&](std::uint64_t mode, std::uint64_t capacity, double backoff) {
    ckpt::Buf b;
    b.u64(mode);
    b.u64(capacity);
    b.u64(supervision.max_shard_retries);
    b.f64(supervision.shard_deadline_hours);
    b.f64(backoff);
    return b.take();
  };
  constexpr std::uint64_t kCapacity = classify::VerdictCache::kDefaultCapacity;
  const auto saved = config_run(1, kCapacity, 1.0);
  struct Case {
    const char* what;
    std::vector<std::uint8_t> run;
    ckpt::Status want;
  };
  const Case cases[] = {
      {"reference classifier", config_run(0, kCapacity, 1.0), ckpt::Status::kBadConfig},
      {"unknown classifier", config_run(2, kCapacity, 1.0), ckpt::Status::kMalformed},
      {"smaller cache", config_run(1, 64, 1.0), ckpt::Status::kBadConfig},
      {"larger cache", config_run(1, kCapacity + 1, 1.0), ckpt::Status::kBadConfig},
      {"zero cache", config_run(1, 0, 1.0), ckpt::Status::kMalformed},
      {"doubled backoff", config_run(1, kCapacity, 2.0), ckpt::Status::kBadConfig},
      {"no backoff", config_run(1, kCapacity, 0.0), ckpt::Status::kBadConfig},
      {"negative backoff", config_run(1, kCapacity, -1.0), ckpt::Status::kMalformed},
  };
  ckpt::Reader r;
  ASSERT_FALSE(r.load(valid));
  for (const Case& c : cases) {
    ckpt::Writer w;
    for (const auto& section : r.sections()) {
      std::vector<std::uint8_t> payload{section.payload.begin(), section.payload.end()};
      if (section.tag == ckpt::SectionTag::kConfig) replace_once(payload, saved, c.run);
      w.add_section(section.tag, std::move(payload));
    }
    expect_status(w.finish(), c.want, c.what);
  }

  // Shard sections: the classifier block opens with the reserved engine
  // slot. Its bytes are the restored shard's own classifier serialization.
  ckpt::RestoredCampaign restored;
  ASSERT_FALSE(ckpt::restore_campaign(valid, 1, restored));
  for (std::size_t shard = 0; shard < restored.runner->shards().size(); ++shard) {
    ckpt::Buf b;
    ckpt::save_classifier(b, restored.runner->shards()[shard]->classifier());
    const auto block = b.take();
    ASSERT_EQ(block.front(), 1);
    for (const auto& [engine, want] :
         {std::pair{std::uint8_t{0}, ckpt::Status::kBadConfig},
          std::pair{std::uint8_t{2}, ckpt::Status::kMalformed}}) {
      auto poisoned = block;
      poisoned.front() = engine;
      expect_status(with_shard_payload(valid, shard,
                                       [&](std::vector<std::uint8_t>& payload) {
                                         replace_once(payload, block, poisoned);
                                       }),
                    want, "shard " + std::to_string(shard) + " engine " +
                              std::to_string(engine));
    }
  }
}

}  // namespace
}  // namespace wlm
