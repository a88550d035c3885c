//===- trace/Reader.h - Total trace scanner --------------------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trust boundary of the flight recorder: a scanner that turns an
/// arbitrary byte string into the longest valid prefix of decoded trace
/// records plus a precise diagnosis of why the scan stopped. The shared
/// record-log scan (persist/RecordLog.h) finds the framing and its
/// damage; this layer decodes each record's payload by kind and refuses
/// unknown kinds and malformed payloads. It is total -- every truncation,
/// bit flip, version skew, hostile length and unknown kind yields flags
/// on \ref ScanResult, never undefined behaviour. \ref
/// ScanResult::ValidBytes is the repair point a recorder truncates to
/// before appending again.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_TRACE_READER_H
#define REGMON_TRACE_READER_H

#include "trace/Format.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace regmon::trace {

/// One decoded record. Which fields are meaningful depends on Kind.
struct TraceRecord {
  std::uint64_t Seq = 0;
  RecordKind Kind = RecordKind::Config;
  /// Batch records: the fate and the batch (TraceSeq == Seq).
  service::RecordedFate Fate = service::RecordedFate::Admitted;
  service::SampleBatch Batch;
  /// Config records: the opaque fingerprint bytes.
  std::vector<std::uint8_t> Config;
  /// Drop: the evicted batch's seq. PushReject: the rejected batch's
  /// seq. Checkpoint: the journal seq of the attempt.
  std::uint64_t RefSeq = 0;
  /// Drop records: the shard whose queue evicted.
  std::uint64_t Shard = 0;
  /// Checkpoint records: whether the commit succeeded.
  bool Committed = false;
};

/// Outcome of scanning trace bytes: the decoded valid prefix plus why the
/// scan ended (the persist::LogScan flags, plus the ones below). Any
/// damage ends a scan, so at most one cause is reported.
struct ScanResult : persist::LogScan {
  std::vector<TraceRecord> Records;
  /// A CRC-valid record carried a kind this reader does not know (with
  /// Rejected). The bytes are from a newer writer, not corruption: a
  /// recorder refuses to repair (truncating would destroy someone else's
  /// valid data).
  bool UnknownKind = false;
  /// A CRC-valid record's payload failed structural decode (with
  /// Rejected): a writer bug or a forged CRC. Repairable like a torn
  /// tail.
  bool MalformedPayload = false;
  /// The file does not exist (scanTraceFile only).
  bool Missing = false;

  /// True when the input is a complete well-formed trace.
  bool intact() const {
    return !TornTail && !Rejected && !HeaderTorn && !HeaderCorrupt &&
           !VersionSkew && !Missing;
  }
  /// True when truncating to ValidBytes yields an intact trace (and a
  /// recorder may then append to it). A torn header repairs to an empty
  /// file; a wrong magic or version is never repaired.
  bool repairable() const {
    return !UnknownKind && !HeaderCorrupt && !VersionSkew && !Missing;
  }
};

/// Scans \p Bytes. Total over arbitrary input.
ScanResult scanTraceBytes(std::span<const std::uint8_t> Bytes);

/// Reads and scans \p Path; Missing is set when the file cannot be read.
ScanResult scanTraceFile(const std::string &Path);

} // namespace regmon::trace

#endif // REGMON_TRACE_READER_H
