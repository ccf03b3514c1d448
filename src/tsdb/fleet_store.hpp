// Fleet-wide segment vault: the columnar replacement for holding every
// shard's ReportStore in memory until the final harvest.
//
// FleetRunner seals each shard's drained reports into one immutable segment
// per (network, phase) batch and hands it here. Segments stay resident
// until the configured memory ceiling presses, then spill to disk as
// sections of a ckpt container (tag kTsdbSegments) and are read back — and
// re-validated against their own CRCs — only when a reader visits that
// network. Reads materialize one network at a time, so peak read-side
// memory is one network's reports, not the fleet's.
//
// Determinism: segments are sealed from canonically-ordered stores and
// visited ascending by network id, batch order within a network. AP ids
// are assigned globally ascending in network-generation order, so this
// visit order IS the canonical global order (ascending AP id, per-AP
// arrival order) — byte-identical to backend::ReportStore's read path.
// Spill decisions key on deterministic byte accounting, never getrusage,
// so spilling changes where bytes live but not any analysis output.
//
// Threading: sealing is a pure function of one shard's batch (the static
// FleetStore::seal), so FleetRunner runs it on the worker pool. Everything
// else, the index append included, mutates the vault and is not
// thread-safe: only the orchestrating thread calls it, in fleet order, so
// the vault's segment sequence is independent of worker scheduling.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "backend/report_source.hpp"
#include "backend/store.hpp"
#include "tsdb/segment.hpp"

namespace wlm::tsdb {

/// Deterministic byte accounting, exported as wlm_tsdb_* gauges. Everything
/// here derives from sealed bytes — identical across --jobs and across
/// spill on/off — so it is safe to put in golden-checked telemetry.
struct FleetStoreStats {
  std::uint64_t segments_sealed = 0;
  std::uint64_t segments_spilled = 0;
  std::uint64_t spill_files = 0;
  std::uint64_t resident_bytes = 0;  // sealed segment bytes currently in memory
  std::uint64_t spilled_bytes = 0;   // sealed segment bytes on disk
  std::uint64_t raw_wire_bytes = 0;  // row-encoding baseline of the same reports
  std::uint64_t reports = 0;

  [[nodiscard]] std::uint64_t segment_bytes() const { return resident_bytes + spilled_bytes; }
  /// Raw row-wire bytes per sealed segment byte (>= 3x is the north star).
  [[nodiscard]] double compression_ratio() const {
    return segment_bytes() > 0
               ? static_cast<double>(raw_wire_bytes) / static_cast<double>(segment_bytes())
               : 0.0;
  }
};

/// One shard batch sealed into segment bytes, not yet indexed by a vault.
struct SealedBatch {
  std::uint32_t network_id = 0;
  std::uint32_t batch_seq = 0;
  std::uint64_t n_reports = 0;  // 0: the batch was empty, no bytes sealed
  std::uint64_t raw_wire_bytes = 0;
  std::vector<std::uint32_t> ap_ids;  // distinct, ascending
  std::vector<std::uint8_t> bytes;
};

class FleetStore final : public backend::ReportSource {
 public:
  /// Ceiling for resident sealed bytes, in bytes; 0 disables spilling.
  /// Sealed segments spill once they exceed a quarter of it — the rest of
  /// the budget belongs to the live shards still simulating.
  void set_mem_ceiling(std::uint64_t bytes) { mem_ceiling_bytes_ = bytes; }
  void set_spill_dir(std::string dir) { spill_dir_ = std::move(dir); }
  [[nodiscard]] std::uint64_t mem_ceiling() const { return mem_ceiling_bytes_; }

  /// Seals `store`'s reports (canonical order) into one segment for
  /// `network_id` and consumes the store: seal() then append_sealed().
  /// Batch sequence numbers increment per network in call order. Empty
  /// stores seal nothing.
  void append_store(std::uint32_t network_id, backend::ReportStore&& store);

  /// Sequence number the next batch of `network_id` seals under.
  [[nodiscard]] std::uint32_t next_batch_seq(std::uint32_t network_id) const;

  /// Seals `store` into segment bytes and consumes it. Pure: touches no
  /// vault, so concurrent calls on different stores are safe. The bytes
  /// depend only on the arguments and the store's canonical contents.
  [[nodiscard]] static SealedBatch seal(std::uint32_t network_id, std::uint32_t batch_seq,
                                        backend::ReportStore&& store);

  /// Indexes a sealed batch; its batch_seq must be the network's
  /// next_batch_seq(). Empty batches append nothing.
  void append_sealed(SealedBatch&& batch);

  /// Restore path: validates a sealed segment and adopts it. The batch
  /// counter advances past the segment's own sequence number.
  [[nodiscard]] Error adopt_segment(std::vector<std::uint8_t> bytes);

  /// Drops every segment of one network (quarantined shard: its partial
  /// batches must not reach any analysis).
  void drop_network(std::uint32_t network_id);

  /// Spills all resident segments to the next spill file when resident
  /// bytes exceed the ceiling's spill threshold. No-op without a ceiling.
  [[nodiscard]] Error maybe_spill();

  void clear();

  // Segment enumeration (checkpoint save path).
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  struct SegmentInfo {
    std::uint32_t network_id = 0;
    std::uint32_t batch_seq = 0;
    std::uint64_t n_reports = 0;
    std::uint64_t size = 0;
    bool spilled = false;
  };
  [[nodiscard]] SegmentInfo info(std::size_t i) const;
  /// Materializes segment i's bytes (from memory or its spill file).
  [[nodiscard]] Error segment_bytes(std::size_t i, std::vector<std::uint8_t>& out) const;

  [[nodiscard]] const FleetStoreStats& stats() const { return stats_; }
  /// First read-path failure, if any: ReportSource visitors cannot return
  /// errors, so decode failures latch here and visit nothing further.
  [[nodiscard]] const Error& last_error() const { return last_error_; }

  // backend::ReportSource
  [[nodiscard]] std::size_t report_count() const override {
    return static_cast<std::size_t>(stats_.reports);
  }
  [[nodiscard]] std::size_t ap_count() const override;
  void for_each(const std::function<void(const wire::ApReport&)>& fn) const override;
  void for_each_in(SimTime from, SimTime to,
                   const std::function<void(const wire::ApReport&)>& fn) const override;
  void for_each_ap(const std::function<void(ApId, const std::vector<wire::ApReport>&)>& fn)
      const override;

 private:
  struct Segment {
    std::uint32_t network_id = 0;
    std::uint32_t batch_seq = 0;
    std::uint64_t n_reports = 0;
    std::uint64_t size = 0;
    std::vector<std::uint8_t> bytes;  // resident; empty once spilled
    std::string spill_file;           // non-empty once spilled
    std::uint64_t spill_offset = 0;
  };
  struct Network {
    std::uint32_t next_batch_seq = 0;
    std::vector<std::size_t> segment_idx;  // into segments_, batch order
    std::vector<std::uint32_t> ap_ids;     // distinct, ascending
    std::uint64_t reports = 0;
  };

  void index_segment(Segment seg, const std::vector<std::uint32_t>& seg_aps);
  [[nodiscard]] Error load_segment(const Segment& seg, std::vector<std::uint8_t>& out) const;
  /// Decodes one network's segments into a scratch row store (canonical
  /// order within the network). Latches + reports false on failure.
  [[nodiscard]] bool materialize(const Network& net, backend::ReportStore& out) const;

  std::uint64_t mem_ceiling_bytes_ = 0;
  std::string spill_dir_ = ".";
  std::uint64_t next_spill_seq_ = 0;
  std::vector<Segment> segments_;
  std::map<std::uint32_t, Network> networks_;  // ascending network id
  FleetStoreStats stats_;
  mutable Error last_error_;
};

}  // namespace wlm::tsdb
