//===- trace/Format.h - Flight-recorder binary trace format ----*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The black-box flight recorder's on-disk format: a versioned
/// little-endian container capturing every decision a MonitorService run
/// took, so an incident replays bit-identically. Layout:
///
///     u32 magic 'RGTF'   u32 version
///     repeated records: [ u64 seq | u8 kind | u32 len | u32 crc | bytes ]
///
/// Sequence numbers are assigned consecutively from 1 across *all* record
/// kinds -- the file order is the recorded decision order. The record CRC
/// binds seq, kind and length together with the payload (the journal's
/// idiom, persist/Journal.h), so a bit flip anywhere in a record is
/// detected, never replayed with silently wrong framing. Each append is
/// flushed before it is acknowledged; a crash mid-append leaves a torn
/// tail the reader detects and the recorder repairs on reopen.
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
#include "service/MonitorService.h"

#include <array>
#include <cstdint>
#include <span>

namespace regmon::trace {

/// 'RGTF' in little-endian byte order.
inline constexpr std::uint32_t TraceMagic = 0x46544752U;
inline constexpr std::uint32_t TraceVersion = 1;

/// Byte length of the file header (magic + version).
inline constexpr std::uint64_t TraceHeaderBytes = 8;
/// Byte length of one record header (seq + kind + len + crc).
inline constexpr std::uint64_t TraceRecordHeaderBytes = 17;
/// Largest payload the u32 length field can frame; the recorder refuses
/// a longer one before writing (see persist::JournalMaxPayloadBytes).
inline constexpr std::uint64_t TraceMaxPayloadBytes = 0xFFFFFFFFU;

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

/// The CRC stored in a trace record: seq, kind and length chained with
/// the payload, so header corruption is as detectable as payload
/// corruption. Shared by the recorder and the scanner.
std::uint32_t traceRecordCrc(std::uint64_t Seq, std::uint8_t Kind,
                             std::span<const std::uint8_t> Payload);

/// The header framing \p Payload as record \p Seq of kind \p Kind
/// (length and CRC included); the record is this header followed by the
/// payload bytes.
std::array<std::uint8_t, TraceRecordHeaderBytes>
traceRecordHeader(std::uint64_t Seq, std::uint8_t Kind,
                  std::span<const std::uint8_t> Payload);

/// Appends the file header (magic + version) to \p W.
void encodeTraceHeader(persist::ByteWriter &W);

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
