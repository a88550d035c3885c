//===- trace/Recorder.h - Crash-safe flight recorder -----------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The writing half of the flight recorder: a \ref service::BatchRecorder
/// that appends each recorded decision as one trace record through the
/// shared record-log writer (persist/RecordLog.h), in the kernel before
/// the append is acknowledged. \ref open repairs a torn tail left by a
/// previous kill (truncating to the scanner's valid prefix) and resumes
/// the sequence after the last valid record, so a recording can survive
/// any number of mid-write deaths with the surviving prefix always
/// replayable.
///
/// The recorder is an *observer*: an append failure (real I/O error, an
/// injected \ref persist::CrashPoint exhaustion, or a payload longer than
/// the u32 length field can frame) latches it dead and every later call
/// degrades to counting the failure -- the recorded service keeps
/// running, it just stops gaining black-box coverage. This is the opposite
/// of the write-ahead journal's contract (which refuses work it cannot
/// make durable): losing trace tail is acceptable, losing ingest is not.
///
/// Callers serialize all calls (MonitorService does); the class itself is
/// single-owner like everything else in the deterministic layers.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_TRACE_RECORDER_H
#define REGMON_TRACE_RECORDER_H

#include "obs/Instruments.h"
#include "persist/RecordLog.h"
#include "trace/Reader.h"

#include <cstdint>
#include <span>
#include <string>

namespace regmon::trace {

/// Appends trace records to a file, one write(2) call per record.
class TraceRecorder final : public service::BatchRecorder {
public:
  /// What \ref open found and did.
  struct OpenResult {
    bool Ok = false;       ///< The recorder accepts appends.
    bool Created = false;  ///< Fresh file; the header was written.
    bool Repaired = false; ///< A torn/damaged tail was truncated away.
    /// Valid prefix length after repair (the resume point).
    std::uint64_t ValidBytes = 0;
    /// First sequence number new appends will use.
    std::uint64_t NextSeq = 0;
  };

  TraceRecorder() = default;
  ~TraceRecorder() override = default;

  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  /// Opens \p Path for recording. A missing or empty file is created
  /// with a fresh header; an intact file is extended from LastSeq + 1; a
  /// repairable file (torn tail, malformed payload, torn header) is
  /// truncated to its valid prefix first. Refuses files whose header
  /// bytes are not ours (wrong magic or version) or that contain an
  /// unknown record kind: both mean a different writer's data, which a
  /// repair would destroy. \p Crash (nullable) gates every byte and
  /// metadata operation, CrashRecoveryTest-style.
  OpenResult open(const std::string &Path, persist::CrashPoint *Crash = nullptr);

  /// True while appends can succeed.
  bool ok() const { return Log.ok(); }

  /// Flushes and closes; false if any step failed. Safe when never
  /// opened. The recorder can be \ref open-ed again afterwards.
  bool close() { return Log.close(); }

  /// Wires the flight-recorder counters (nullable; see obs/Instruments.h).
  void attachObservability(const obs::TraceInstruments *Instruments) {
    Obs = Instruments;
  }

  // BatchRecorder tap (called by MonitorService under its serialization).
  void recordConfig(std::span<const std::uint8_t> Fingerprint) override;
  std::uint64_t recordBatch(const service::SampleBatch &Batch,
                            service::RecordedFate Fate) override;
  void recordDrop(std::uint64_t EvictedSeq, std::uint64_t Shard) override;
  void recordPushReject(std::uint64_t Seq) override;
  void recordCheckpoint(std::uint64_t JournalSeq, bool Committed) override;

  /// Records appended successfully since \ref open.
  std::uint64_t recordsWritten() const { return RecordsN; }
  /// Bytes appended successfully since \ref open (headers included).
  std::uint64_t bytesWritten() const { return BytesN; }
  /// Appends that failed (the first one latches the recorder dead).
  std::uint64_t appendFailures() const { return FailuresN; }
  /// The sequence number the next append will consume.
  std::uint64_t nextSequence() const { return NextSeq; }

private:
  /// Appends one record, consuming (and returning) the next sequence
  /// number whether or not the write succeeds -- stamped sequences stay
  /// unique even across a dead recorder.
  std::uint64_t append(RecordKind Kind, std::span<const std::uint8_t> Payload);

  persist::LogWriter Log;
  const obs::TraceInstruments *Obs = nullptr;
  std::uint64_t NextSeq = 1;
  std::uint64_t RecordsN = 0;
  std::uint64_t BytesN = 0;
  std::uint64_t FailuresN = 0;
};

} // namespace regmon::trace

#endif // REGMON_TRACE_RECORDER_H
