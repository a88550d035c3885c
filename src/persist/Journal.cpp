//===- persist/Journal.cpp - Write-ahead batch journal --------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/Journal.h"

#include "persist/Bytes.h"
#include "persist/Crc32.h"

using namespace regmon::persist;

std::uint32_t
regmon::persist::journalRecordCrc(std::uint64_t Seq,
                                  std::span<const std::uint8_t> Payload) {
  std::array<std::uint8_t, 12> Head{};
  storeLE(Head.data(), Seq);
  storeLE(Head.data() + 8, static_cast<std::uint32_t>(Payload.size()));
  return crc32(Payload, crc32(Head));
}

std::array<std::uint8_t, JournalRecordHeaderBytes>
regmon::persist::journalRecordHeader(std::uint64_t Seq,
                                     std::span<const std::uint8_t> Payload) {
  std::array<std::uint8_t, JournalRecordHeaderBytes> Head{};
  storeLE(Head.data(), Seq);
  storeLE(Head.data() + 8, static_cast<std::uint32_t>(Payload.size()));
  storeLE(Head.data() + 12, journalRecordCrc(Seq, Payload));
  return Head;
}

JournalWriter::~JournalWriter() { close(); }

bool JournalWriter::open(const std::string &Path, CrashPoint *Crash) {
  close();
  // Decide header-needed before opening in append mode (which creates the
  // file). A zero-length file also needs a header -- it appears when a
  // crash landed before the header bytes made it out.
  bool NeedHeader = true;
  if (auto Existing = readFileBytes(Path))
    NeedHeader = Existing->empty();
  Sink = std::make_unique<FileSink>(Path, /*Append=*/true, Crash);
  if (!Sink->ok())
    return false;
  if (NeedHeader) {
    ByteWriter W;
    W.u32(JournalMagic);
    W.u32(JournalVersion);
    if (!Sink->write(W.data()) || !Sink->flush())
      return false;
  }
  return true;
}

bool JournalWriter::ok() const { return Sink != nullptr && Sink->ok(); }

bool JournalWriter::append(std::uint64_t Seq,
                           std::span<const std::uint8_t> Payload) {
  if (!ok())
    return false;
  if (Payload.size() > JournalMaxPayloadBytes) {
    Sink->fail();
    return false;
  }
  // Header and payload go out back to back, then one flush: the record is
  // either acknowledged durable or the writer is dead with at most a torn
  // tail on disk.
  return Sink->write(journalRecordHeader(Seq, Payload)) &&
         Sink->write(Payload) && Sink->flush();
}

void JournalWriter::close() { Sink.reset(); }

JournalResult regmon::persist::replayJournal(
    const std::string &Path, std::uint64_t SkipThroughSeq,
    const std::function<bool(std::uint64_t, std::span<const std::uint8_t>)>
        &Replay) {
  JournalResult Res;
  const auto Data = readFileBytes(Path);
  if (!Data) {
    Res.Missing = true;
    return Res;
  }
  ByteReader R(*Data);
  if (Data->size() < 8 || R.u32() != JournalMagic ||
      R.u32() != JournalVersion) {
    Res.HeaderCorrupt = true;
    return Res;
  }
  Res.ValidBytes = 8;
  std::uint64_t PrevSeq = 0;
  while (R.remaining() > 0) {
    if (R.remaining() < JournalRecordHeaderBytes)
      break; // torn record header
    const std::uint64_t Seq = R.u64();
    const std::uint32_t Len = R.u32();
    const std::uint32_t Crc = R.u32();
    // Borrowed from the file buffer: replay copies only what it keeps.
    const std::span<const std::uint8_t> Payload = R.view(Len);
    if (!R.ok())
      break; // torn payload
    if (journalRecordCrc(Seq, Payload) != Crc)
      break; // bit corruption: nothing after this byte is trusted
    if (Seq <= PrevSeq)
      break; // sequence must strictly increase (writers start at 1)
    if (Seq > SkipThroughSeq) {
      if (!Replay(Seq, Payload)) {
        Res.PayloadRejected = true;
        Res.TornTail = true;
        return Res;
      }
      ++Res.RecordsReplayed;
    } else {
      ++Res.RecordsSkipped;
    }
    PrevSeq = Seq;
    Res.LastSeq = Seq;
    Res.ValidBytes = Data->size() - R.remaining();
  }
  // Compare against ValidBytes, not the reader position: a torn record
  // header may have been fully consumed before the scan broke.
  Res.TornTail = Data->size() > Res.ValidBytes;
  return Res;
}
