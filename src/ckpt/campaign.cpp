#include "ckpt/campaign.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "ckpt/state.hpp"
#include "failsafe/failpoint.hpp"

namespace wlm::ckpt {

namespace {

Error section_error(const Cursor& c, const std::string& what) {
  // The cursor separates "bytes are broken" from "bytes disagree with the
  // rebuilt world": a latched cursor is malformed input, an intact cursor
  // with a failed load is a config mismatch.
  if (!c.ok()) return {Status::kMalformed, what + ": malformed payload"};
  return {Status::kBadConfig, what + ": inconsistent with the rebuilt world"};
}

}  // namespace

std::vector<std::uint8_t> save_campaign(sim::FleetRunner& runner,
                                        const CampaignProgress& progress) {
  Writer w;

  Buf meta;
  meta.str(progress.label);
  meta.u64(progress.phases_done.size());
  for (const auto& phase : progress.phases_done) meta.str(phase);
  meta.f64(runner.campaign_sim_hours());
  save_ledger(meta, runner.loss_ledger());
  w.add_section(SectionTag::kMeta, meta.take());

  Buf config;
  save_world_config(config, runner.config());
  w.add_section(SectionTag::kConfig, config.take());

  // v4: the harvested fleet serializes as its sealed columnar segments —
  // no row materialization, and spilled segments are pulled back from disk
  // so the checkpoint stands alone. If a spill file has become unreadable,
  // the section keeps its leading report total but carries zero segments:
  // any attempt to restore then fails the count cross-check loudly instead
  // of silently resuming without the harvested reports.
  Buf fleet_store;
  if (!save_fleet_segments(fleet_store, runner.fleet_tsdb())) {
    fleet_store = Buf{};
    fleet_store.u64(runner.fleet_tsdb().stats().reports);
    fleet_store.u64(0);  // zero segments: poisoned on purpose
  }
  w.add_section(SectionTag::kFleetStore, fleet_store.take());

  Buf fleet_telemetry;
  save_metrics(fleet_telemetry, runner.metrics());
  save_spans(fleet_telemetry, runner.trace());
  w.add_section(SectionTag::kFleetTelemetry, fleet_telemetry.take());

  // Shards serialize on this (the orchestrating) thread in fleet order, so
  // the container bytes are byte-identical for any --jobs.
  for (const auto& shard : runner.shards()) {
    Buf b;
    save_shard_state(b, *shard);
    w.add_section(SectionTag::kShard, b.take());
  }

  // The supervision manifest rides in every checkpoint (usually empty): a
  // resumed degraded run must keep its incident history and quarantine set.
  Buf supervision;
  save_manifest(supervision, runner.supervisor().manifest());
  w.add_section(SectionTag::kSupervision, supervision.take());

  return w.finish();
}

Error save_campaign_file(const std::string& path, sim::FleetRunner& runner,
                         const CampaignProgress& progress) {
  if (failsafe::failpoint_fails("ckpt.save.write")) {
    return {Status::kIo, "injected failpoint: ckpt.save.write"};
  }
  const auto bytes = save_campaign(runner, progress);
  // Atomic like Writer::write_file: a crash mid-write must never leave a
  // half-checkpoint where a resume would find it.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return {Status::kIo, "cannot open " + tmp + " for writing"};
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    std::remove(tmp.c_str());
    return {Status::kIo, "short write to " + tmp};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return {Status::kIo, "cannot rename " + tmp + " to " + path};
  }
  return {};
}

Error restore_campaign(std::span<const std::uint8_t> bytes, int threads,
                       RestoredCampaign& out) {
  Reader reader;
  if (auto err = reader.load({bytes.begin(), bytes.end()})) return err;

  const auto config_payload = reader.find(SectionTag::kConfig);
  if (!config_payload) return {Status::kMalformed, "missing config section"};
  Cursor config_cursor(*config_payload);
  sim::WorldConfig config;
  if (!load_world_config(config_cursor, config)) {
    if (!config_cursor.ok()) return {Status::kMalformed, "config section: malformed payload"};
    return {Status::kBadConfig, "config section: a reserved slot holds a setting this build "
                                "no longer runs"};
  }
  if (!config_cursor.at_end()) return {Status::kMalformed, "config section: malformed payload"};
  config.threads = threads < 1 ? 1 : threads;

  // Reconstruction: deterministic from the config alone. Everything below
  // overlays mutable state onto this fresh world; the runner only reaches
  // `out` after every section applied cleanly.
  auto runner = std::make_unique<sim::FleetRunner>(config);

  const auto shard_sections = reader.find_all(SectionTag::kShard);
  if (shard_sections.size() != runner->shards().size()) {
    return {Status::kBadConfig,
            "checkpoint has " + std::to_string(shard_sections.size()) +
                " shard sections, rebuilt world has " +
                std::to_string(runner->shards().size())};
  }
  for (std::size_t i = 0; i < shard_sections.size(); ++i) {
    Cursor c(shard_sections[i]);
    if (!load_shard_state(c, *runner->shards()[i])) {
      return section_error(c, "shard " + std::to_string(i));
    }
  }

  if (const auto payload = reader.find(SectionTag::kFleetStore)) {
    Cursor c(*payload);
    if (!load_fleet_segments(c, runner->fleet_tsdb()) || !c.at_end()) {
      return section_error(c, "fleet store");
    }
    // The legacy row view materializes from the adopted segments on first
    // store() access.
    runner->invalidate_store_view();
  } else {
    return {Status::kMalformed, "missing fleet store section"};
  }

  if (const auto payload = reader.find(SectionTag::kFleetTelemetry)) {
    Cursor c(*payload);
    std::vector<telemetry::TraceSpan> spans;
    if (!load_metrics(c, runner->metrics()) || !load_spans(c, spans) || !c.at_end()) {
      return section_error(c, "fleet telemetry");
    }
    runner->trace() = std::move(spans);
  } else {
    return {Status::kMalformed, "missing fleet telemetry section"};
  }

  // Supervision restores BEFORE the meta ledger cross-check: the fleet
  // ledger folds quarantined shards into lost_supervision, so the
  // quarantine set must be in place for the cross-check to balance.
  if (const auto payload = reader.find(SectionTag::kSupervision)) {
    Cursor c(*payload);
    failsafe::DegradedRunManifest manifest;
    if (!load_manifest(c, manifest) || !c.at_end()) {
      return section_error(c, "supervision manifest");
    }
    runner->restore_supervision(std::move(manifest));
  } else {
    return {Status::kMalformed, "missing supervision section"};
  }

  CampaignProgress progress;
  const auto meta_payload = reader.find(SectionTag::kMeta);
  if (!meta_payload) return {Status::kMalformed, "missing meta section"};
  {
    Cursor c(*meta_payload);
    progress.label = c.str();
    const std::uint64_t n_phases = c.u64();
    if (!c.ok() || n_phases > c.remaining()) {
      return {Status::kMalformed, "meta: malformed payload"};
    }
    for (std::uint64_t i = 0; i < n_phases && c.ok(); ++i) {
      progress.phases_done.push_back(c.str());
    }
    progress.sim_hours = c.f64();
    fault::LossLedger saved_ledger;
    if (!load_ledger(c, saved_ledger) || !c.at_end()) {
      return {Status::kMalformed, "meta: malformed payload"};
    }
    // Final cross-check: the ledger is derived from tunnel + poller state
    // across every shard, so equality here means the overlay reproduced the
    // campaign's end-to-end accounting exactly.
    if (runner->loss_ledger() != saved_ledger) {
      return {Status::kBadConfig, "loss ledger cross-check failed after overlay"};
    }
  }
  runner->set_campaign_sim_hours(progress.sim_hours);

  out.runner = std::move(runner);
  out.progress = std::move(progress);
  return {};
}

Error restore_campaign_file(const std::string& path, int threads, RestoredCampaign& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return {Status::kIo, "cannot open " + path + ": " + std::strerror(errno)};
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[65536];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return {Status::kIo, "read error on " + path};
  return restore_campaign(bytes, threads, out);
}

}  // namespace wlm::ckpt
