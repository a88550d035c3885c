//===- trace/Replay.h - Bit-identical incident replay ----------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replay driver: re-executes a scanned trace against a fresh
/// worker-less (Inline) \ref service::MonitorService so the replayed
/// run's monitors, counters and obs exports are byte-identical to the
/// recorded run's. The invariants this rests on:
///
///  * per-stream record order equals per-stream admission order (the
///    recorder runs under the service's serialization), so re-running
///    the health machine in file order reproduces every per-stream
///    decision -- and each re-derived decision is cross-checked against
///    the recorded fate, so a divergence is detected, never silently
///    absorbed;
///  * timing-dependent outcomes (DropOldest evictions, rejected pushes)
///    are applied from their records via a pre-pass, not re-raced;
///  * aggregate counters are order-independent sums, and event stamps
///    use per-stream logical clocks, so the single-threaded replay of a
///    multi-threaded recording exports the same bytes.
///
/// A trace starts from the state its service held when the recorder
/// attached (the Config record's start point). The replaying service must
/// hold that state too -- a copy of the recording's directory restored,
/// or a cold start for a recording that started cold -- or nothing is
/// applied.
///
/// A trace with a torn tail replays its valid prefix -- that is the
/// crash-tolerance contract, not an error.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_TRACE_REPLAY_H
#define REGMON_TRACE_REPLAY_H

#include "trace/Reader.h"

#include <cstdint>
#include <string>

namespace regmon::trace {

/// Replay tuning.
struct ReplayConfig {
  /// Re-run checkpoint attempts at their recorded points (requires the
  /// replaying service to have persistence attached). Off by default:
  /// most replays only want the in-memory state back.
  bool ApplyCheckpoints = false;
};

/// What \ref replayRecords did.
struct ReplayResult {
  /// The whole prefix applied with every cross-check passing.
  bool Ok = false;
  /// The Config record is absent or does not match the service.
  bool ConfigMismatch = false;
  /// The trace starts from a state the service does not hold: TraceStart
  /// and ServiceStart (the journal sequences and state CRCs) differ.
  /// Nothing was applied.
  bool StartMismatch = false;
  service::StartPoint TraceStart;
  service::StartPoint ServiceStart;
  /// A record contradicted the re-derived decision sequence (or carried
  /// a dangling drop/push-reject reference); replay stopped there.
  bool Diverged = false;
  /// Sequence number of the diverging record (0 when none).
  std::uint64_t DivergedSeq = 0;
  std::uint64_t BatchesApplied = 0;
  std::uint64_t DropsApplied = 0;
  std::uint64_t PushRejectsApplied = 0;
  std::uint64_t CheckpointsSeen = 0;
  std::uint64_t CheckpointsApplied = 0;
};

/// Replays \p Scan's records against \p Service, which must be
/// configured Inline with the recorded topology and not yet started (the
/// driver starts it, applies every record, then stops it, leaving the
/// monitors quiescent for inspection/export). Each batch is copied out of
/// \p Scan once, into the one batch the drive reuses.
ReplayResult replayRecords(const ScanResult &Scan,
                           service::MonitorService &Service,
                           const ReplayConfig &Cfg = {});

/// Scan + replay of \p Path in one call.
struct FileReplay {
  /// The scan's summary. Records stays empty: the replay keeps no
  /// decoded copy of the trace.
  ScanResult Scan;
  ReplayResult Replay;
};

/// Replays the trace at \p Path as \ref replayRecords would replay its
/// scan, with the same result. It reads the file once, and one scan
/// checks every record and indexes it (sequence, kind and a view of its
/// payload), checking each batch's samples without decoding them; the
/// drive then decodes one record at a time from those views into a
/// reused record, so each batch is decoded once and the heap holds the
/// file bytes, the index and one batch.
FileReplay replayTraceFile(const std::string &Path,
                           service::MonitorService &Service,
                           const ReplayConfig &Cfg = {});

} // namespace regmon::trace

#endif // REGMON_TRACE_REPLAY_H
