//===- obs/Instruments.h - Per-subsystem metric pointer bundles -*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instrument bundles: plain structs of Counter/Gauge/Histogram pointers
/// (plus an optional tracer) that instrumented subsystems hold by const
/// pointer. Every field may be null -- use the addTo/setGauge/observeIn/
/// recordEvent helpers, which are no-ops on null -- so partially wired
/// instrumentation never branches into undefined behaviour and the
/// uninstrumented configuration costs one pointer test per interval.
///
/// The make*Instruments factories register the canonical metric
/// catalogue (DESIGN.md §11) against a registry, labelling per-stream
/// series as `stream="N"`.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_OBS_INSTRUMENTS_H
#define REGMON_OBS_INSTRUMENTS_H

#include "obs/EventTracer.h"
#include "obs/Metrics.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace regmon::obs {

/// Adds \p N to \p C when wired.
inline void addTo(Counter *C, std::uint64_t N = 1) {
  if (C)
    C->add(N);
}

/// Stores \p V into \p G when wired.
inline void setGauge(Gauge *G, double V) {
  if (G)
    G->set(V);
}

/// Observes \p V in \p H when wired.
inline void observeIn(BucketHistogram *H, double V) {
  if (H)
    H->observe(V);
}

/// Records an event when \p T is wired.
inline void recordEvent(EventTracer *T, EventKind Kind, std::uint32_t Stream,
                        std::uint64_t Region, std::uint64_t Interval,
                        double Value = 0.0) {
  if (T)
    T->record(TraceEvent{Kind, Stream, Region, Interval, Value});
}

/// Instruments for one RegionMonitor (core layer). The monitor's own
/// interval index is the logical clock for every event it records.
struct MonitorInstruments {
  Counter *Intervals = nullptr;
  Counter *UndersampledIntervals = nullptr;
  Counter *SamplesTotal = nullptr;
  Counter *SamplesUcr = nullptr;
  Counter *SamplesOutOfRegion = nullptr;
  Counter *RegionsFormed = nullptr;
  Counter *RegionsRetired = nullptr;
  Counter *FormationTriggers = nullptr;
  Counter *PhaseChanges = nullptr;
  Counter *MissPhaseChanges = nullptr;
  Counter *SimilarityFallbacks = nullptr;
  /// Interval-end similarity evaluations actually computed: observations
  /// that compared against a stable set (not gated, not the first).
  Counter *SimilarityCompares = nullptr;
  Gauge *ActiveRegions = nullptr;
  Gauge *LastUcrFraction = nullptr;
  /// Hot-path kernel id, always 1: the four-lane kernel
  /// (support/HotpathKernels.h). The help text keeps naming the removed
  /// scalar id 0 so exports stay byte-stable.
  Gauge *HotpathKernel = nullptr;
  BucketHistogram *IntervalSamples = nullptr;
  BucketHistogram *PhaseR = nullptr;
  /// Adaptive sampling controller series (DESIGN.md §16): the
  /// controller-recommended period, its cumulative savings, and its
  /// transition counts. All four stay at their zero/base values when the
  /// controller is disabled.
  Gauge *SamplingPeriodCurrent = nullptr;
  Counter *SamplingSamplesSaved = nullptr;
  Counter *SamplingLengthens = nullptr;
  Counter *SamplingTightens = nullptr;
  EventTracer *Tracer = nullptr;
  std::uint32_t Stream = 0; ///< stream label stamped on events
};

/// Instruments for the sampling front-end (src/sampling). ConfigClamps
/// counts invalid configurations (zero period / zero buffer) forced to
/// their minimum legal values -- the release-build guard against a zero
/// period spinning advanceAndSample forever.
struct SamplerInstruments {
  Counter *ConfigClamps = nullptr;
  /// Dynamic period-scale requests clamped to the sampler's ceiling.
  Counter *ScaleClamps = nullptr;
  /// Dynamic period-scale changes applied.
  Counter *ScaleChanges = nullptr;
  /// Effective sampling period in cycles.
  Gauge *PeriodCurrent = nullptr;
  EventTracer *Tracer = nullptr;
  std::uint32_t Stream = 0;
};

/// Instruments for the centroid GPD baseline.
struct GpdInstruments {
  Counter *Intervals = nullptr;
  Counter *PhaseChanges = nullptr;
  Counter *StableIntervals = nullptr;
  EventTracer *Tracer = nullptr;
  std::uint32_t Stream = 0;
};

/// Instruments for the checkpoint/restore layer. Events use journal
/// sequence numbers (or running commit counts) as their logical clock.
struct PersistInstruments {
  Counter *SnapshotsCommitted = nullptr;
  Counter *CommitFailures = nullptr;
  Counter *CorruptSnapshots = nullptr;
  Counter *FallbacksUsed = nullptr;
  Counter *ColdStarts = nullptr;
  Counter *JournalRecordsReplayed = nullptr;
  Counter *JournalRecordsSkipped = nullptr;
  Counter *JournalTornTails = nullptr;
  Counter *JournalRepairs = nullptr;
  EventTracer *Tracer = nullptr;
  std::uint32_t Stream = 0;
};

/// Instruments for the fleet aggregation tree (src/fleet, DESIGN.md §14).
/// Counters accumulate transport/recovery totals; gauges publish the
/// root view's degradation contract -- exact coverage and staleness --
/// so a scrape can alarm on "the rollup is running partial" directly.
struct FleetInstruments {
  Counter *SummariesEmitted = nullptr;
  Counter *MessagesSent = nullptr;
  Counter *MessagesDelivered = nullptr;
  Counter *MessagesDropped = nullptr;
  Counter *MessagesDuplicated = nullptr;
  Counter *MessagesReordered = nullptr;
  Counter *MessagesStale = nullptr;
  Counter *DecodeFailures = nullptr;
  Counter *BytesSent = nullptr;
  Counter *ResyncAttempts = nullptr;
  Counter *ResyncSuccesses = nullptr;
  Counter *AggEpochsStalled = nullptr;
  Counter *LeafCrashes = nullptr;
  Counter *LeafRestores = nullptr;
  Counter *LeafColdRestores = nullptr;
  Counter *LeafBatchesDiscarded = nullptr;
  Gauge *Epoch = nullptr;
  Gauge *LeavesTotal = nullptr;
  Gauge *LeavesPresent = nullptr;
  Gauge *LeavesExpired = nullptr;
  Gauge *CoverageFraction = nullptr;
  Gauge *MaxStalenessEpochs = nullptr;
  /// Rollup distribution of per-region stable-time fractions fleet-wide.
  BucketHistogram *StableFraction = nullptr;
};

/// Instruments for the flight recorder (src/trace, DESIGN.md §15).
/// Counters only: the recorder is a pure observer of the service, and
/// these series are what an operator alarms on when an incident's trace
/// turns out unusable (append failures) or lossy (recorded drops).
struct TraceInstruments {
  /// Records appended to the trace (all kinds).
  Counter *RecordsTotal = nullptr;
  /// Drop records appended -- batches the DropOldest policy evicted
  /// while recording (each one replays as a skipped batch).
  Counter *RecordsDropped = nullptr;
  /// Bytes appended (headers included).
  Counter *BytesTotal = nullptr;
  /// Appends that failed (crash/torn write); the recorder latches dead.
  Counter *AppendFailures = nullptr;
};

/// Registers the flight-recorder metric catalogue.
TraceInstruments makeTraceInstruments(MetricsRegistry &Registry,
                                      std::string_view Label);

/// Registers the monitor metric catalogue for stream \p Stream under the
/// label \p Label (pass "" for an unlabelled single-monitor setup).
MonitorInstruments makeMonitorInstruments(MetricsRegistry &Registry,
                                          EventTracer *Tracer,
                                          std::uint32_t Stream,
                                          std::string_view Label);

/// Registers the sampling front-end metric catalogue.
SamplerInstruments makeSamplerInstruments(MetricsRegistry &Registry,
                                          EventTracer *Tracer,
                                          std::uint32_t Stream,
                                          std::string_view Label);

/// Registers the GPD metric catalogue.
GpdInstruments makeGpdInstruments(MetricsRegistry &Registry,
                                  EventTracer *Tracer, std::uint32_t Stream,
                                  std::string_view Label);

/// Registers the checkpoint/restore metric catalogue.
PersistInstruments makePersistInstruments(MetricsRegistry &Registry,
                                          EventTracer *Tracer,
                                          std::uint32_t Stream,
                                          std::string_view Label);

/// Registers the fleet metric catalogue. \p StableBounds gives the bucket
/// bounds of the stable-fraction histogram (the fleet layer's canonical
/// bounds, passed in so obs stays independent of it).
FleetInstruments makeFleetInstruments(MetricsRegistry &Registry,
                                      const std::vector<double> &StableBounds,
                                      std::string_view Label);

/// Formats the canonical per-stream label `stream="N"`.
std::string streamLabel(std::uint32_t Stream);

} // namespace regmon::obs

#endif // REGMON_OBS_INSTRUMENTS_H
