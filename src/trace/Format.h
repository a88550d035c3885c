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
/// write-ahead journal shares) in \ref TraceFormat, 'RGTF' version 2.
/// Version 2 brought the column sample block and the Config record's
/// start point; no reader of version 1 is kept.
/// Sequence numbers are assigned consecutively from 1 across *all* record
/// kinds -- the file order is the recorded decision order. A crash
/// mid-append leaves a torn tail the reader detects and the recorder
/// repairs on reopen.
///
/// Record kinds and payloads (all little-endian, persist/Bytes.h):
///
///   Config (1)     fingerprint bytes | u64 startSeq | u32 startCrc
///                  -- the configuration fingerprint
///                  (service::MonitorService::configFingerprint), then
///                  the state the recording starts from
///                  (service::StartPoint): the journal sequence the
///                  service had reached and the CRC-32 of its
///                  encodeState() there, 0 at sequence 0. Replay
///                  byte-compares the fingerprint and checks the start
///                  point against the replaying service before it
///                  applies anything.
///   Batch (2)      u8 fate | u32 stream | sample block
///                  -- one submitted batch plus the admission decision
///                  (service::RecordedFate) taken for it. The samples are
///                  the journal's sample block (persist/SampleBlock.h),
///                  one codec for both logs.
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
#include <span>
#include <vector>

namespace regmon::trace {

/// 'RGTF' in little-endian byte order, version 2.
inline constexpr persist::LogFormat TraceFormat{0x46544752U, 2};

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

/// Decodes a Config payload into the fingerprint and the start point.
/// False on a payload too short to end in a start point, or a nonzero
/// CRC at sequence 0 (a cold start has one encoding).
bool decodeConfigPayload(std::span<const std::uint8_t> Payload,
                         std::vector<std::uint8_t> &Fingerprint,
                         service::StartPoint &Start);

/// Appends a Batch payload: the fate, the stream, then the sample block.
void encodeBatchRecordPayload(persist::ByteWriter &W,
                              const service::SampleBatch &Batch,
                              service::RecordedFate Fate);

/// How a Batch payload's samples are read.
enum class SampleRead : std::uint8_t {
  Decode, ///< Into the batch.
  Check,  ///< Checked as Decode checks them; the batch's samples are
          ///< left empty. A scan that only validates uses this, so each
          ///< batch is decoded once, where it is applied.
};

/// Decodes a Batch payload. False on any structural violation (bad fate,
/// hostile count, non-canonical block, short payload, trailing bytes);
/// \p Batch may be partially written then. TraceSeq is left for the
/// caller to stamp.
bool decodeBatchRecordPayload(persist::ByteReader &R,
                              service::SampleBatch &Batch,
                              service::RecordedFate &Fate,
                              SampleRead Read = SampleRead::Decode);

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
