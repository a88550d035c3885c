//===- trace/Format.h - Flight-recorder binary trace format ----*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The black-box flight recorder's on-disk format, capturing every
/// decision a MonitorService run took so an incident replays
/// bit-identically: a record log (persist/RecordLog.h, the framing the
/// write-ahead journal shares) in \ref TraceFormat, 'RGTF' version 1.
/// Sequence numbers are assigned consecutively from 1 across *all* record
/// kinds -- the file order is the recorded decision order. A crash
/// mid-append leaves a torn tail the reader detects and the recorder
/// repairs on reopen.
///
/// Record kinds and payloads (all little-endian, persist/Bytes.h):
///
///   Config (1)     opaque configuration fingerprint bytes
///                  (service::MonitorService::configFingerprint); replay
///                  byte-compares it against the replaying service.
///   Batch (2)      u8 fate | u32 stream | u64 count
///                  | count x (u64 pc | u64 time | u8 dcacheMiss)
///                  -- one submitted batch plus the admission decision
///                  (service::RecordedFate) taken for it. The count and
///                  samples are the journal's sample block
///                  (persist/SampleBlock.h), one codec for both logs.
///   Drop (3)       u64 evictedSeq | u64 shard -- a DropOldest eviction
///                  of the batch recorded at evictedSeq.
///   PushReject (4) u64 seq -- a push rejected after the door check.
///   Checkpoint (5) u64 journalSeq | u8 committed -- a checkpoint
///                  attempt at that journal sequence.
///
/// Decoding is *total*: every payload decoder bounds-checks lengths and
/// counts against the bytes present, rejects out-of-range enums and
/// non-0/1 booleans, and requires exact consumption -- hostile input can
/// only produce a clean error, never undefined behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_TRACE_FORMAT_H
#define REGMON_TRACE_FORMAT_H

#include "persist/Bytes.h"
#include "persist/RecordLog.h"
#include "service/MonitorService.h"

#include <cstdint>

namespace regmon::trace {

/// 'RGTF' in little-endian byte order, version 1.
inline constexpr persist::LogFormat TraceFormat{0x46544752U, 1};

/// What one trace record captures. Values are part of the wire format.
enum class RecordKind : std::uint8_t {
  Config = 1,     ///< Service configuration fingerprint (first record).
  Batch = 2,      ///< One submitted batch + its admission fate.
  Drop = 3,       ///< DropOldest eviction of an earlier admitted batch.
  PushReject = 4, ///< Push rejected after the door check.
  Checkpoint = 5, ///< Checkpoint attempt marker.
};

/// Returns a short identifier for reports.
const char *toString(RecordKind K);

/// Appends a Batch payload: the fate, the stream, then the sample block.
void encodeBatchRecordPayload(persist::ByteWriter &W,
                              const service::SampleBatch &Batch,
                              service::RecordedFate Fate);

/// Decodes a Batch payload. False on any structural violation (bad fate,
/// hostile count, short payload, trailing bytes); \p Batch may be
/// partially written then. TraceSeq is left for the caller to stamp.
bool decodeBatchRecordPayload(persist::ByteReader &R,
                              service::SampleBatch &Batch,
                              service::RecordedFate &Fate);

/// Appends a Drop payload.
void encodeDropPayload(persist::ByteWriter &W, std::uint64_t EvictedSeq,
                       std::uint64_t Shard);
/// Decodes a Drop payload; false on structural violation.
bool decodeDropPayload(persist::ByteReader &R, std::uint64_t &EvictedSeq,
                       std::uint64_t &Shard);

/// Appends a PushReject payload.
void encodePushRejectPayload(persist::ByteWriter &W, std::uint64_t Seq);
/// Decodes a PushReject payload; false on structural violation.
bool decodePushRejectPayload(persist::ByteReader &R, std::uint64_t &Seq);

/// Appends a Checkpoint payload.
void encodeCheckpointPayload(persist::ByteWriter &W, std::uint64_t JournalSeq,
                             bool Committed);
/// Decodes a Checkpoint payload; false on structural violation.
bool decodeCheckpointPayload(persist::ByteReader &R, std::uint64_t &JournalSeq,
                             bool &Committed);

} // namespace regmon::trace

#endif // REGMON_TRACE_FORMAT_H
