//===- obs/Instruments.cpp - Per-subsystem metric pointer bundles ---------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Instruments.h"

namespace regmon::obs {

std::string streamLabel(std::uint32_t Stream) {
  std::string Out = "stream=\"";
  Out += std::to_string(Stream);
  Out += '"';
  return Out;
}

MonitorInstruments makeMonitorInstruments(MetricsRegistry &Registry,
                                          EventTracer *Tracer,
                                          std::uint32_t Stream,
                                          std::string_view Label) {
  MonitorInstruments I;
  I.Intervals = &Registry.counter("monitor_intervals_total",
                                  "intervals observed by the monitor", Label);
  I.UndersampledIntervals =
      &Registry.counter("monitor_undersampled_intervals_total",
                        "intervals skipped by the degraded-mode gate", Label);
  I.SamplesTotal = &Registry.counter("monitor_samples_total",
                                     "PC samples attributed", Label);
  I.SamplesUcr = &Registry.counter(
      "monitor_samples_ucr_total", "samples landing in uncovered code", Label);
  I.SamplesOutOfRegion = &Registry.counter(
      "monitor_samples_out_of_region_total",
      "samples rejected by a region histogram's bounds check", Label);
  I.RegionsFormed = &Registry.counter("monitor_regions_formed_total",
                                      "regions formed from UCR spikes", Label);
  I.RegionsRetired = &Registry.counter("monitor_regions_retired_total",
                                       "cold regions pruned", Label);
  I.FormationTriggers =
      &Registry.counter("monitor_formation_triggers_total",
                        "UCR threshold crossings that ran formation", Label);
  I.PhaseChanges =
      &Registry.counter("monitor_phase_changes_total",
                        "LPD stable-boundary phase changes", Label);
  I.MissPhaseChanges =
      &Registry.counter("monitor_miss_phase_changes_total",
                        "cache-miss phase changes on stable regions", Label);
  I.SimilarityFallbacks = &Registry.counter(
      "monitor_similarity_fallbacks_total",
      "out-of-enum similarity kinds replaced by Pearson", Label);
  I.SimilarityCompares =
      &Registry.counter("monitor_similarity_compares_total",
                        "interval-end similarity evaluations", Label);
  I.ActiveRegions = &Registry.gauge("monitor_active_regions",
                                    "regions currently tracked", Label);
  I.LastUcrFraction = &Registry.gauge(
      "monitor_last_ucr_fraction", "UCR fraction of the last interval", Label);
  I.HotpathKernel = &Registry.gauge(
      "monitor_hotpath_kernel",
      "configured hot-path kernel (0 = scalar, 1 = auto)", Label);
  I.IntervalSamples = &Registry.histogram(
      "monitor_interval_samples", {0, 64, 256, 1024, 4096, 16384},
      "samples delivered per interval", Label);
  I.PhaseR = &Registry.histogram(
      "monitor_phase_r", {-0.5, 0, 0.5, 0.8, 0.9, 0.95, 1},
      "Pearson r per region observation", Label);
  I.SamplingPeriodCurrent =
      &Registry.gauge("sampling_period_current",
                      "controller-recommended sampling period (cycles)",
                      Label);
  I.SamplingSamplesSaved = &Registry.counter(
      "sampling_samples_saved_total",
      "base-rate samples avoided by adaptive period scaling", Label);
  I.SamplingLengthens =
      &Registry.counter("sampling_lengthen_transitions_total",
                        "controller period-lengthening transitions", Label);
  I.SamplingTightens =
      &Registry.counter("sampling_tighten_transitions_total",
                        "controller tighten-to-base transitions", Label);
  I.Tracer = Tracer;
  I.Stream = Stream;
  return I;
}

SamplerInstruments makeSamplerInstruments(MetricsRegistry &Registry,
                                          EventTracer *Tracer,
                                          std::uint32_t Stream,
                                          std::string_view Label) {
  SamplerInstruments I;
  I.ConfigClamps =
      &Registry.counter("sampler_config_clamps_total",
                        "invalid sampling configuration fields clamped",
                        Label);
  I.ScaleClamps = &Registry.counter(
      "sampler_scale_clamps_total",
      "dynamic period-scale requests clamped to the ceiling", Label);
  I.ScaleChanges = &Registry.counter("sampler_scale_changes_total",
                                     "dynamic period-scale changes applied",
                                     Label);
  I.PeriodCurrent = &Registry.gauge(
      "sampler_period_cycles", "effective sampling period (cycles)", Label);
  I.Tracer = Tracer;
  I.Stream = Stream;
  return I;
}

GpdInstruments makeGpdInstruments(MetricsRegistry &Registry,
                                  EventTracer *Tracer, std::uint32_t Stream,
                                  std::string_view Label) {
  GpdInstruments I;
  I.Intervals = &Registry.counter("gpd_intervals_total",
                                  "intervals observed by the GPD", Label);
  I.PhaseChanges = &Registry.counter("gpd_phase_changes_total",
                                     "centroid phase changes", Label);
  I.StableIntervals = &Registry.counter("gpd_stable_intervals_total",
                                        "intervals classified stable", Label);
  I.Tracer = Tracer;
  I.Stream = Stream;
  return I;
}

PersistInstruments makePersistInstruments(MetricsRegistry &Registry,
                                          EventTracer *Tracer,
                                          std::uint32_t Stream,
                                          std::string_view Label) {
  PersistInstruments I;
  I.SnapshotsCommitted = &Registry.counter("persist_snapshots_committed_total",
                                           "checkpoint commits", Label);
  I.CommitFailures = &Registry.counter("persist_commit_failures_total",
                                       "checkpoint commits that failed", Label);
  I.CorruptSnapshots =
      &Registry.counter("persist_corrupt_snapshots_total",
                        "snapshot rungs rejected as corrupt", Label);
  I.FallbacksUsed =
      &Registry.counter("persist_fallbacks_total",
                        "restores that fell back to an older rung", Label);
  I.ColdStarts = &Registry.counter("persist_cold_starts_total",
                                   "restores with no usable state", Label);
  I.JournalRecordsReplayed = &Registry.counter(
      "persist_journal_records_replayed_total", "journal records replayed",
      Label);
  I.JournalRecordsSkipped = &Registry.counter(
      "persist_journal_records_skipped_total",
      "already-compacted journal records skipped", Label);
  I.JournalTornTails =
      &Registry.counter("persist_journal_torn_tails_total",
                        "torn journal tails detected", Label);
  I.JournalRepairs = &Registry.counter("persist_journal_repairs_total",
                                       "journal tails truncated clean", Label);
  I.Tracer = Tracer;
  I.Stream = Stream;
  return I;
}

TraceInstruments makeTraceInstruments(MetricsRegistry &Registry,
                                      std::string_view Label) {
  TraceInstruments I;
  I.RecordsTotal = &Registry.counter("trace_records_total",
                                     "flight-recorder records appended",
                                     Label);
  I.RecordsDropped =
      &Registry.counter("trace_records_dropped_total",
                        "drop records appended (batches evicted by the "
                        "DropOldest policy while recording)",
                        Label);
  I.BytesTotal = &Registry.counter("trace_bytes_total",
                                   "flight-recorder bytes appended", Label);
  I.AppendFailures =
      &Registry.counter("trace_append_failures_total",
                        "flight-recorder appends that failed", Label);
  return I;
}

FleetInstruments makeFleetInstruments(MetricsRegistry &Registry,
                                      const std::vector<double> &StableBounds,
                                      std::string_view Label) {
  FleetInstruments I;
  I.SummariesEmitted = &Registry.counter(
      "fleet_summaries_emitted_total", "leaf summaries built", Label);
  I.MessagesSent = &Registry.counter("fleet_messages_sent_total",
                                     "summary messages sent on links", Label);
  I.MessagesDelivered =
      &Registry.counter("fleet_messages_delivered_total",
                        "summary messages delivered by links", Label);
  I.MessagesDropped = &Registry.counter(
      "fleet_messages_dropped_total", "summary messages lost in transit",
      Label);
  I.MessagesDuplicated =
      &Registry.counter("fleet_messages_duplicated_total",
                        "summary messages delivered twice", Label);
  I.MessagesReordered =
      &Registry.counter("fleet_messages_reordered_total",
                        "summary messages delayed one epoch", Label);
  I.MessagesStale = &Registry.counter(
      "fleet_messages_stale_total",
      "deliveries replaced by a replayed older payload", Label);
  I.DecodeFailures =
      &Registry.counter("fleet_decode_failures_total",
                        "summary messages rejected by the codec", Label);
  I.BytesSent = &Registry.counter("fleet_bytes_sent_total",
                                  "summary bytes sent on links", Label);
  I.ResyncAttempts = &Registry.counter(
      "fleet_resync_attempts_total", "pull-path re-syncs attempted", Label);
  I.ResyncSuccesses = &Registry.counter(
      "fleet_resync_successes_total", "pull-path re-syncs succeeded", Label);
  I.AggEpochsStalled = &Registry.counter(
      "fleet_agg_epochs_stalled_total", "aggregator merge rounds skipped",
      Label);
  I.LeafCrashes = &Registry.counter("fleet_leaf_crashes_total",
                                    "leaf services crashed", Label);
  I.LeafRestores = &Registry.counter("fleet_leaf_restores_total",
                                     "leaf services restarted", Label);
  I.LeafColdRestores =
      &Registry.counter("fleet_leaf_cold_restores_total",
                        "leaf restarts that recovered no state", Label);
  I.LeafBatchesDiscarded =
      &Registry.counter("fleet_leaf_batches_discarded_total",
                        "batches sampled while the leaf was down", Label);
  I.Epoch = &Registry.gauge("fleet_epoch", "epochs completed", Label);
  I.LeavesTotal =
      &Registry.gauge("fleet_leaves_total", "leaves in the topology", Label);
  I.LeavesPresent =
      &Registry.gauge("fleet_leaves_present",
                      "leaves within the staleness horizon", Label);
  I.LeavesExpired = &Registry.gauge(
      "fleet_leaves_expired", "leaves aged past the staleness horizon",
      Label);
  I.CoverageFraction = &Registry.gauge(
      "fleet_coverage_fraction", "exact rollup coverage (present/total)",
      Label);
  I.MaxStalenessEpochs =
      &Registry.gauge("fleet_max_staleness_epochs",
                      "max staleness of in-view entries", Label);
  I.StableFraction = &Registry.histogram(
      "fleet_region_stable_fraction", StableBounds,
      "per-region stable-time fraction fleet-wide", Label);
  return I;
}

} // namespace regmon::obs
