// The WorldConfig behind every study driver (experiments_*.cpp): one place
// maps a ScenarioScale onto the fleet runtime, so a new scale knob is wired
// once for all studies.
#pragma once

#include <cstdint>

#include "analysis/experiments.hpp"
#include "sim/world_config.hpp"

namespace wlm::analysis {

/// A study fleet at `scale`, seeded the way the usage studies (Tables
/// 3/5/6) seed it. The mesh and mobility studies keep that seeding so their
/// renders compare directly with the usage tables at the same scale; the
/// radio studies re-salt both seeds.
[[nodiscard]] inline sim::WorldConfig study_world_config(
    const ScenarioScale& scale, deploy::Epoch epoch = deploy::Epoch::kJan2015,
    deploy::ApModel model = deploy::ApModel::kMr16) {
  sim::WorldConfig cfg;
  cfg.fleet.epoch = epoch;
  cfg.fleet.network_count = scale.networks;
  cfg.fleet.model = model;
  cfg.fleet.seed = scale.seed ^ (static_cast<std::uint64_t>(epoch) << 32);
  cfg.client_scale = scale.client_scale;
  cfg.seed = scale.seed * 1315423911ULL + static_cast<std::uint64_t>(epoch);
  cfg.threads = scale.threads;
  cfg.mem_ceiling_mb = scale.mem_ceiling_mb;
  cfg.spill_dir = scale.spill_dir;
  return cfg;
}

}  // namespace wlm::analysis
