//===- trace/Reader.cpp - Total trace scanner -----------------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Reader.h"

#include "persist/Io.h"

using namespace regmon;
using namespace regmon::trace;

namespace {

enum class BodyDecode : std::uint8_t { Ok, Unknown, Malformed };

/// Decodes one CRC-valid record body into \p Out. Total: hostile bytes
/// can only produce Unknown or Malformed.
BodyDecode decodeBody(std::uint64_t Seq, std::uint8_t RawKind,
                      std::span<const std::uint8_t> Payload,
                      TraceRecord &Out) {
  Out.Seq = Seq;
  persist::ByteReader R(Payload);
  switch (RawKind) {
  case static_cast<std::uint8_t>(RecordKind::Config):
    Out.Kind = RecordKind::Config;
    Out.Config.assign(Payload.begin(), Payload.end());
    return BodyDecode::Ok;
  case static_cast<std::uint8_t>(RecordKind::Batch):
    Out.Kind = RecordKind::Batch;
    if (!decodeBatchRecordPayload(R, Out.Batch, Out.Fate))
      return BodyDecode::Malformed;
    Out.Batch.TraceSeq = Seq;
    return BodyDecode::Ok;
  case static_cast<std::uint8_t>(RecordKind::Drop):
    Out.Kind = RecordKind::Drop;
    if (!decodeDropPayload(R, Out.RefSeq, Out.Shard) || Out.RefSeq >= Seq)
      return BodyDecode::Malformed;
    return BodyDecode::Ok;
  case static_cast<std::uint8_t>(RecordKind::PushReject):
    Out.Kind = RecordKind::PushReject;
    if (!decodePushRejectPayload(R, Out.RefSeq) || Out.RefSeq >= Seq)
      return BodyDecode::Malformed;
    return BodyDecode::Ok;
  case static_cast<std::uint8_t>(RecordKind::Checkpoint):
    Out.Kind = RecordKind::Checkpoint;
    if (!decodeCheckpointPayload(R, Out.RefSeq, Out.Committed))
      return BodyDecode::Malformed;
    return BodyDecode::Ok;
  default:
    return BodyDecode::Unknown;
  }
}

} // namespace

ScanResult regmon::trace::scanTraceBytes(
    std::span<const std::uint8_t> Bytes) {
  ScanResult Out;
  BodyDecode Stop = BodyDecode::Ok;
  static_cast<persist::LogScan &>(Out) = persist::scanLog(
      Bytes, TraceFormat, [&](const persist::LogRecord &R) {
        TraceRecord Rec;
        Stop = decodeBody(R.Seq, R.Kind, R.Payload, Rec);
        if (Stop != BodyDecode::Ok)
          return false;
        Out.Records.push_back(std::move(Rec));
        return true;
      });
  Out.UnknownKind = Stop == BodyDecode::Unknown;
  Out.MalformedPayload = Stop == BodyDecode::Malformed;
  return Out;
}

ScanResult regmon::trace::scanTraceFile(const std::string &Path) {
  const auto Bytes = persist::readFileBytes(Path);
  if (!Bytes) {
    ScanResult Out;
    Out.Missing = true;
    return Out;
  }
  return scanTraceBytes(*Bytes);
}
