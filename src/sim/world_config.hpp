// The one configuration record of the fleet runtime. FleetRunner clamps it
// once at construction and every NetworkShard reads that clamped copy, so a
// scenario knob is declared, validated and checkpointed in exactly one
// place.
#pragma once

#include <cstdint>
#include <string>

#include "deploy/generator.hpp"
#include "failsafe/supervisor.hpp"
#include "fault/spec.hpp"
#include "mac/mesh.hpp"
#include "mobility/mobility.hpp"

namespace wlm::sim {

struct WorldConfig {
  /// Fleet shape; `fleet.epoch` is also the epoch every shard simulates.
  deploy::FleetConfig fleet;
  /// Scales clients per AP (1.0 = the industry-calibrated counts).
  /// Negative or NaN values clamp to 0 at construction.
  double client_scale = 1.0;
  /// Base seed; each shard draws substream `network id` of it.
  std::uint64_t seed = 7;
  /// Fault scenario applied per shard; all-zeros runs a clean campaign. The
  /// shard's FaultPlan is drawn from a dedicated substream, so enabling
  /// faults never perturbs the campaign's own draws.
  fault::FaultSpec faults;
  /// Client mobility: random-waypoint walks + occupancy-wave handoffs.
  /// Disabled by default; disabled runs are byte-identical to pre-mobility
  /// builds (mobility draws live in their own salted substream).
  mobility::MobilityConfig mobility;
  /// Mesh backhaul: a fraction of each network's APs lose their WAN uplink
  /// and relay report batches hop by hop to gateway APs. Disabled by
  /// default (mesh_fraction == 0); disabled runs are byte-identical to
  /// pre-mesh builds (mesh draws live in their own salted substream).
  mesh::MeshConfig mesh;
  /// Worker threads for shard campaigns; 1 runs fully serial. Output is
  /// bit-identical regardless of this value.
  int threads = 1;
  /// Per-shard memory ceiling in MiB; 0 runs the classic hold-until-final
  /// harvest. Nonzero turns on streaming harvest: every campaign phase
  /// boundary drains connected tunnels, seals each shard's batch into a
  /// columnar tsdb segment, releases the shard's row store, and spills
  /// sealed segments to `spill_dir` when resident segment bytes press the
  /// ceiling. The on/off bit is determinism-relevant (phase drains add poll
  /// cycles) and is checkpointed; the value itself is a host resource knob
  /// like `threads` — output is bit-identical for ANY nonzero ceiling,
  /// across thread counts, and across spill on/off.
  std::uint64_t mem_ceiling_mb = 0;
  /// Where sealed segments spill when the ceiling presses (see above).
  std::string spill_dir = ".";
  /// Shard supervision knobs (retry budget, watchdog deadline, snapshot
  /// capture). Defaults supervise without snapshots: a failing shard is
  /// isolated and quarantined rather than retried. A clean campaign's
  /// output is byte-identical whatever these are set to.
  failsafe::SupervisorConfig supervision;
};

}  // namespace wlm::sim
