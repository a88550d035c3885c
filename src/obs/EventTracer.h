//===- obs/EventTracer.h - Bounded typed phase-lifecycle event ring -------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded ring of typed phase-lifecycle events: region formation and
/// retirement, LPD state entries annotated with the Pearson r that caused
/// them, GPD phase changes, checkpoint commits/fallbacks, stream
/// quarantine/recovery, and RTO trace deploy/undo decisions.
///
/// Time is the instrumented subsystem's own logical clock (interval index
/// or batch sequence) -- never a wall clock. The ring drops the *oldest*
/// event on overflow and counts drops so exporters can disclose
/// truncation. Recording takes a short mutex; events are rare (per
/// transition, not per sample), so this never sits on a hot path.
///
/// Concurrent writers interleave nondeterministically in arrival order,
/// so \ref EventTracer::sortedSnapshot orders by the deterministic key
/// (Interval, Stream, Region, Kind, Value); as long as the ring did not
/// wrap, that ordering is byte-stable across same-seed runs regardless of
/// thread scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_OBS_EVENTTRACER_H
#define REGMON_OBS_EVENTTRACER_H

#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

namespace regmon::obs {

/// Every event type the tracer understands. Values are stable export
/// identifiers -- append only, never reorder.
enum class EventKind : std::uint8_t {
  RegionFormed = 0,
  RegionRetired = 1,
  PhaseEnteredUnstable = 2,
  PhaseEnteredLessUnstable = 3,
  PhaseEnteredStable = 4,
  MissPhaseChange = 5,
  GlobalPhaseChange = 6,
  CheckpointCommitted = 7,
  CheckpointCommitFailed = 8,
  CheckpointFallback = 9,
  CheckpointColdStart = 10,
  JournalReplayed = 11,
  StreamQuarantined = 12,
  StreamRecovered = 13,
  // 14-16: reserved; nothing records them (the RTO harness carries no
  // instruments), and append-only forbids reusing the values.
  TraceDeployed = 14,
  TraceUndone = 15,
  TraceSelfUndo = 16,
  SimilarityFallback = 17,
  SamplingPeriodLengthened = 18,
  SamplingPeriodTightened = 19,
  SamplingConfigClamped = 20,
};

/// Stable lowercase-dashed name for \p K (export identifier).
std::string_view toString(EventKind K);

/// One recorded event. \c Interval is the emitting subsystem's logical
/// clock; \c Value carries the kind-specific payload (Pearson r for phase
/// entries, replayed-record count for journal replays, 0 otherwise).
struct TraceEvent {
  EventKind Kind = EventKind::RegionFormed;
  std::uint32_t Stream = 0;
  std::uint64_t Region = 0;
  std::uint64_t Interval = 0;
  double Value = 0.0;
};

/// Bounded drop-oldest event ring. Thread-safe; see file comment for the
/// determinism contract.
class EventTracer {
public:
  /// Creates a tracer holding at most \p Capacity events (min 1).
  explicit EventTracer(std::size_t Capacity = 4096);

  /// Appends \p E, overwriting the oldest event when full.
  void record(const TraceEvent &E);

  /// Returns the ring capacity.
  std::size_t capacity() const { return Cap; }

  /// Returns how many events were ever recorded.
  std::uint64_t recorded() const;

  /// Returns how many events were overwritten (recorded - retained).
  std::uint64_t dropped() const;

  /// Returns retained events oldest-first, in arrival order.
  std::vector<TraceEvent> snapshot() const;

  /// Returns retained events in deterministic
  /// (Interval, Stream, Region, Kind, Value) order.
  std::vector<TraceEvent> sortedSnapshot() const;

  /// Forgets every retained event and resets the drop accounting.
  void clear();

private:
  mutable std::mutex Mu;
  std::vector<TraceEvent> Ring;
  std::size_t Cap;
  std::size_t Head = 0;          ///< next write slot
  std::size_t Count = 0;         ///< retained events
  std::uint64_t TotalRecorded = 0;
};

} // namespace regmon::obs

#endif // REGMON_OBS_EVENTTRACER_H
