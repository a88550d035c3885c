//===- trace/Reader.cpp - Total trace scanner -----------------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Reader.h"

#include "persist/Io.h"

#include <utility>

using namespace regmon;
using namespace regmon::trace;

RecordDecode regmon::trace::decodeRecord(const persist::LogRecord &R,
                                         TraceRecord &Out, SampleRead Read) {
  Out.Seq = R.Seq;
  persist::ByteReader In(R.Payload);
  switch (R.Kind) {
  case static_cast<std::uint8_t>(RecordKind::Config):
    Out.Kind = RecordKind::Config;
    return decodeConfigPayload(R.Payload, Out.Config, Out.Start)
               ? RecordDecode::Ok
               : RecordDecode::Malformed;
  case static_cast<std::uint8_t>(RecordKind::Batch):
    Out.Kind = RecordKind::Batch;
    if (!decodeBatchRecordPayload(In, Out.Batch, Out.Fate, Read))
      return RecordDecode::Malformed;
    Out.Batch.TraceSeq = R.Seq;
    return RecordDecode::Ok;
  case static_cast<std::uint8_t>(RecordKind::Drop):
    Out.Kind = RecordKind::Drop;
    if (!decodeDropPayload(In, Out.RefSeq, Out.Shard) || Out.RefSeq >= R.Seq)
      return RecordDecode::Malformed;
    return RecordDecode::Ok;
  case static_cast<std::uint8_t>(RecordKind::PushReject):
    Out.Kind = RecordKind::PushReject;
    if (!decodePushRejectPayload(In, Out.RefSeq) || Out.RefSeq >= R.Seq)
      return RecordDecode::Malformed;
    return RecordDecode::Ok;
  case static_cast<std::uint8_t>(RecordKind::Checkpoint):
    Out.Kind = RecordKind::Checkpoint;
    if (!decodeCheckpointPayload(In, Out.RefSeq, Out.Committed))
      return RecordDecode::Malformed;
    return RecordDecode::Ok;
  default:
    return RecordDecode::UnknownKind;
  }
}

namespace {

/// The scan under both forms: \p Read says how Batch samples are read.
ScanSummary scan(std::span<const std::uint8_t> Bytes, SampleRead Read,
                 const DecodedVisitor &Visit) {
  ScanSummary Out;
  RecordDecode Stop = RecordDecode::Ok;
  TraceRecord Rec;
  static_cast<persist::LogScan &>(Out) = persist::scanLog(
      Bytes, TraceFormat, [&](const persist::LogRecord &R) {
        Stop = decodeRecord(R, Rec, Read);
        if (Stop != RecordDecode::Ok)
          return false;
        ++Out.RecordCount;
        if (Visit)
          Visit(R, Rec);
        return true;
      });
  Out.UnknownKind = Stop == RecordDecode::UnknownKind;
  Out.MalformedPayload = Stop == RecordDecode::Malformed;
  return Out;
}

} // namespace

ScanSummary regmon::trace::verifyTraceBytes(std::span<const std::uint8_t> Bytes,
                                            const DecodedVisitor &Visit) {
  return scan(Bytes, SampleRead::Check, Visit);
}

ScanSummary regmon::trace::verifyTraceFile(const std::string &Path) {
  const auto Bytes = persist::readFileBytes(Path);
  if (!Bytes) {
    ScanSummary Out;
    Out.Missing = true;
    return Out;
  }
  return verifyTraceBytes(*Bytes);
}

ScanResult regmon::trace::scanTraceBytes(
    std::span<const std::uint8_t> Bytes) {
  ScanResult Out;
  static_cast<ScanSummary &>(Out) = scan(
      Bytes, SampleRead::Decode,
      [&Out](const persist::LogRecord &, TraceRecord &Rec) {
        Out.Records.push_back(std::exchange(Rec, TraceRecord{}));
      });
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
