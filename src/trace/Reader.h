//===- trace/Reader.h - Total trace scanner --------------------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trust boundary of the flight recorder: a scanner that turns an
/// arbitrary byte string into the longest valid prefix of trace records
/// plus a precise diagnosis of why the scan stopped. The shared
/// record-log scan (persist/RecordLog.h) finds the framing and its
/// damage; this layer decodes each record's payload by kind and refuses
/// unknown kinds and malformed payloads. It is total -- every truncation,
/// bit flip, version skew, hostile length and unknown kind yields flags
/// on \ref ScanSummary, never undefined behaviour. \ref
/// ScanSummary::ValidBytes is the repair point a recorder truncates to
/// before appending again.
///
/// Two forms share that scan. \ref verifyTraceBytes keeps no records: it
/// decodes each one into a single reused \ref TraceRecord, checking each
/// Batch record's sample block without materializing it. That is all a
/// recorder reopening its file or `trace-verify` needs, and replay
/// (trace/Replay.h) indexes the records as they go by, decoding each
/// batch once when it applies it. \ref scanTraceBytes decodes every
/// record whole and keeps it.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_TRACE_READER_H
#define REGMON_TRACE_READER_H

#include "trace/Format.h"

#include <cstdint>
#include <functional>
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
  /// Config records: the fingerprint bytes and the start point.
  std::vector<std::uint8_t> Config;
  service::StartPoint Start;
  /// Drop: the evicted batch's seq. PushReject: the rejected batch's
  /// seq. Checkpoint: the journal seq of the attempt.
  std::uint64_t RefSeq = 0;
  /// Drop records: the shard whose queue evicted.
  std::uint64_t Shard = 0;
  /// Checkpoint records: whether the commit succeeded.
  bool Committed = false;
};

/// Why a scan of trace bytes ended and how far its valid prefix goes,
/// without the records: the persist::LogScan flags, plus the ones below.
/// Any damage ends a scan, so at most one cause is reported.
struct ScanSummary : persist::LogScan {
  /// Records in the valid prefix.
  std::uint64_t RecordCount = 0;
  /// A CRC-valid record carried a kind this reader does not know (with
  /// Rejected). The bytes are from a newer writer, not corruption: a
  /// recorder refuses to repair (truncating would destroy someone else's
  /// valid data).
  bool UnknownKind = false;
  /// A CRC-valid record's payload failed structural decode (with
  /// Rejected): a writer bug or a forged CRC. Repairable like a torn
  /// tail.
  bool MalformedPayload = false;
  /// The file does not exist (file scans only).
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

/// A scan's summary plus its valid prefix, decoded (RecordCount ==
/// Records.size()).
struct ScanResult : ScanSummary {
  std::vector<TraceRecord> Records;
};

/// How one CRC-valid record's payload decoded.
enum class RecordDecode : std::uint8_t { Ok, UnknownKind, Malformed };

/// Decodes \p R into \p Out, reusing its buffers: fields the kind does not
/// use keep their previous values. \p Read says whether a Batch record's
/// samples are decoded or only checked. Total over arbitrary payloads.
RecordDecode decodeRecord(const persist::LogRecord &R, TraceRecord &Out,
                          SampleRead Read = SampleRead::Decode);

/// Called for each record of the valid prefix with its framing and its
/// decode. The payload view and the record, which the scan reuses for
/// the next one, are valid only during the call. From \ref
/// verifyTraceBytes a Batch record's samples are empty: the scan checked
/// them without decoding them.
using DecodedVisitor =
    std::function<void(const persist::LogRecord &, TraceRecord &)>;

/// Scans \p Bytes keeping no records, handing each one to \p Visit
/// (nullable). Total over arbitrary input.
ScanSummary verifyTraceBytes(std::span<const std::uint8_t> Bytes,
                             const DecodedVisitor &Visit = nullptr);

/// Reads and verifies \p Path; Missing is set when the file cannot be read.
ScanSummary verifyTraceFile(const std::string &Path);

/// Scans \p Bytes keeping every decoded record. Total over arbitrary input.
ScanResult scanTraceBytes(std::span<const std::uint8_t> Bytes);

/// Reads and scans \p Path; Missing is set when the file cannot be read.
ScanResult scanTraceFile(const std::string &Path);

} // namespace regmon::trace

#endif // REGMON_TRACE_READER_H
