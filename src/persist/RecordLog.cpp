//===- persist/RecordLog.cpp - CRC-framed append-only record log ----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/RecordLog.h"

#include "persist/Bytes.h"
#include "persist/Crc32.h"

#include <filesystem>
#include <system_error>

using namespace regmon::persist;

namespace {

/// The record CRC chains the header bytes before it (seq, kind, length)
/// with the payload, so header corruption is as detectable as payload
/// corruption.
constexpr std::uint64_t CrcCoveredBytes = RecordHeaderBytes - 4;

} // namespace

std::array<std::uint8_t, LogHeaderBytes>
regmon::persist::logHeader(LogFormat Format) {
  std::array<std::uint8_t, LogHeaderBytes> Head{};
  storeLE(Head.data(), Format.Magic);
  storeLE(Head.data() + 4, Format.Version);
  return Head;
}

std::array<std::uint8_t, RecordHeaderBytes>
regmon::persist::recordHeader(std::uint64_t Seq, std::uint8_t Kind,
                              std::span<const std::uint8_t> Payload) {
  std::array<std::uint8_t, RecordHeaderBytes> Head{};
  storeLE(Head.data(), Seq);
  Head[8] = Kind;
  storeLE(Head.data() + 9, static_cast<std::uint32_t>(Payload.size()));
  const std::span<const std::uint8_t> Covered(Head.data(), CrcCoveredBytes);
  storeLE(Head.data() + CrcCoveredBytes, crc32(Payload, crc32(Covered)));
  return Head;
}

LogScan regmon::persist::scanLog(std::span<const std::uint8_t> Bytes,
                                 LogFormat Format,
                                 const RecordVisitor &Visit) {
  LogScan Out;
  Out.FileBytes = Bytes.size();
  if (Bytes.empty())
    return Out;
  if (Bytes.size() < LogHeaderBytes) {
    Out.HeaderTorn = true;
    return Out;
  }
  if (loadLE<std::uint32_t>(Bytes.data()) != Format.Magic) {
    Out.HeaderCorrupt = true;
    return Out;
  }
  if (loadLE<std::uint32_t>(Bytes.data() + 4) != Format.Version) {
    Out.VersionSkew = true;
    return Out;
  }
  Out.ValidBytes = LogHeaderBytes;
  while (Out.ValidBytes < Bytes.size()) {
    const std::span<const std::uint8_t> Rest = Bytes.subspan(Out.ValidBytes);
    if (Rest.size() < RecordHeaderBytes) {
      Out.TornTail = true; // the writer died inside a record header
      break;
    }
    LogRecord R;
    R.Seq = loadLE<std::uint64_t>(Rest.data());
    R.Kind = Rest[8];
    const std::uint32_t Len = loadLE<std::uint32_t>(Rest.data() + 9);
    const auto Crc = loadLE<std::uint32_t>(Rest.data() + CrcCoveredBytes);
    // A hostile length is bounded against the bytes present before any
    // use; a length past the end is indistinguishable from a torn payload.
    if (Len > Rest.size() - RecordHeaderBytes) {
      Out.TornTail = true;
      break;
    }
    R.Payload = Rest.subspan(RecordHeaderBytes, Len);
    // Bit corruption, or a sequence that does not strictly increase from
    // 1 (a stale tail): nothing from this byte on is trusted.
    if (crc32(R.Payload, crc32(Rest.first(CrcCoveredBytes))) != Crc ||
        R.Seq <= Out.LastSeq) {
      Out.TornTail = true;
      break;
    }
    if (Visit && !Visit(R)) {
      Out.Rejected = true;
      break;
    }
    Out.LastSeq = R.Seq;
    Out.ValidBytes += RecordHeaderBytes + Len;
  }
  return Out;
}

bool regmon::persist::repairLog(const std::string &Path,
                                std::uint64_t ValidBytes, CrashPoint *Crash) {
  if (Crash != nullptr && !Crash->grantOp())
    return false;
  std::error_code Ec;
  std::filesystem::resize_file(Path, ValidBytes, Ec);
  return !Ec;
}

LogWriter::~LogWriter() { close(); }

bool LogWriter::open(const std::string &Path, LogFormat Format,
                     std::uint64_t ValidBytes, std::uint64_t LastValidSeq,
                     CrashPoint *Crash) {
  close();
  std::error_code Ec;
  const std::uint64_t OnDisk = std::filesystem::file_size(Path, Ec);
  if ((Ec ? 0 : OnDisk) != ValidBytes)
    return false;
  LastSeq = LastValidSeq;
  Sink = std::make_unique<FileSink>(Path, /*Append=*/true, Crash);
  if (Sink->ok() && (ValidBytes != 0 ||
                     (Sink->write(logHeader(Format)) && Sink->acknowledge())))
    return true;
  Sink.reset();
  return false;
}

bool LogWriter::append(std::uint64_t Seq, std::uint8_t Kind,
                       std::span<const std::uint8_t> Payload) {
  if (!ok())
    return false;
  if (Payload.size() > MaxRecordPayloadBytes || Seq <= LastSeq) {
    Sink->fail();
    return false;
  }
  // Header and payload reach the kernel in one call, then the record is
  // acknowledged: it is either durable or the writer is dead with at most
  // a torn tail on disk.
  if (!Sink->write(recordHeader(Seq, Kind, Payload), Payload) ||
      !Sink->acknowledge())
    return false;
  LastSeq = Seq;
  return true;
}

bool LogWriter::close() {
  if (!Sink)
    return true;
  const bool Closed = Sink->close();
  Sink.reset();
  return Closed;
}
