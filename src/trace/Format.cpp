//===- trace/Format.cpp - Flight-recorder binary trace format -------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Format.h"

#include "persist/SampleBlock.h"

using namespace regmon;
using namespace regmon::trace;

const char *regmon::trace::toString(RecordKind K) {
  switch (K) {
  case RecordKind::Config:
    return "config";
  case RecordKind::Batch:
    return "batch";
  case RecordKind::Drop:
    return "drop";
  case RecordKind::PushReject:
    return "push-reject";
  case RecordKind::Checkpoint:
    return "checkpoint";
  }
  return "?";
}

bool regmon::trace::decodeConfigPayload(
    std::span<const std::uint8_t> Payload,
    std::vector<std::uint8_t> &Fingerprint, service::StartPoint &Start) {
  constexpr std::uint64_t StartBytes = 8 + 4;
  if (Payload.size() < StartBytes)
    return false;
  const std::uint64_t Split = Payload.size() - StartBytes;
  Fingerprint.assign(Payload.begin(), Payload.begin() + Split);
  persist::ByteReader R(Payload.subspan(Split));
  Start.Sequence = R.u64();
  Start.StateCrc = R.u32();
  return R.atEnd() && (Start.Sequence != 0 || Start.StateCrc == 0);
}

void regmon::trace::encodeBatchRecordPayload(persist::ByteWriter &W,
                                             const service::SampleBatch &Batch,
                                             service::RecordedFate Fate) {
  W.u8(static_cast<std::uint8_t>(Fate));
  W.u32(Batch.Stream);
  persist::encodeSampleBlock(W, Batch.Samples);
}

bool regmon::trace::decodeBatchRecordPayload(persist::ByteReader &R,
                                             service::SampleBatch &Batch,
                                             service::RecordedFate &Fate,
                                             SampleRead Read) {
  const std::uint8_t RawFate = R.u8();
  if (!R.ok() ||
      RawFate > static_cast<std::uint8_t>(service::RecordedFate::Admitted))
    return false;
  Fate = static_cast<service::RecordedFate>(RawFate);
  Batch.Stream = R.u32();
  if (Read == SampleRead::Check) {
    Batch.Samples.clear();
    return persist::checkSampleBlock(R) && R.atEnd();
  }
  return persist::decodeSampleBlock(R, Batch.Samples) && R.atEnd();
}

void regmon::trace::encodeDropPayload(persist::ByteWriter &W,
                                      std::uint64_t EvictedSeq,
                                      std::uint64_t Shard) {
  W.u64(EvictedSeq);
  W.u64(Shard);
}

bool regmon::trace::decodeDropPayload(persist::ByteReader &R,
                                      std::uint64_t &EvictedSeq,
                                      std::uint64_t &Shard) {
  EvictedSeq = R.u64();
  Shard = R.u64();
  return R.atEnd() && EvictedSeq != 0;
}

void regmon::trace::encodePushRejectPayload(persist::ByteWriter &W,
                                            std::uint64_t Seq) {
  W.u64(Seq);
}

bool regmon::trace::decodePushRejectPayload(persist::ByteReader &R,
                                            std::uint64_t &Seq) {
  Seq = R.u64();
  return R.atEnd() && Seq != 0;
}

void regmon::trace::encodeCheckpointPayload(persist::ByteWriter &W,
                                            std::uint64_t JournalSeq,
                                            bool Committed) {
  W.u64(JournalSeq);
  W.boolean(Committed);
}

bool regmon::trace::decodeCheckpointPayload(persist::ByteReader &R,
                                            std::uint64_t &JournalSeq,
                                            bool &Committed) {
  JournalSeq = R.u64();
  Committed = R.boolean();
  return R.atEnd();
}
