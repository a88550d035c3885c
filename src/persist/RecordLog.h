//===- persist/RecordLog.h - CRC-framed append-only record log --*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one framing under both durable logs, the write-ahead journal
/// (persist/Journal.h) and the flight recorder (trace/Format.h). Layout
/// (little-endian):
///
///     u32 magic   u32 version
///     repeated records: [ u64 seq | u8 kind | u32 len | u32 crc | bytes ]
///
/// Each owner passes its magic and version (\ref LogFormat) and gives
/// kind and payload their meaning. The CRC chains seq, kind and length
/// with the payload, so a bit flip anywhere in a record is detected.
/// Sequence numbers strictly increase from 1. A record's header and
/// payload reach the kernel in one writev(2) before the append is
/// acknowledged; a death mid-append leaves a torn tail. The scan trusts
/// the longest valid prefix, and \ref repairLog cuts a file back to it;
/// which damage to repair, and when, is the owner's policy. Every byte
/// written and every acknowledgement or truncate draws from the optional
/// \ref CrashPoint, so crash sweeps reach every torn state.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERSIST_RECORDLOG_H
#define REGMON_PERSIST_RECORDLOG_H

#include "persist/Io.h"

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

namespace regmon::persist {

/// The identity an owner stamps into its log's file header.
struct LogFormat {
  std::uint32_t Magic = 0;
  std::uint32_t Version = 0;
};

/// Byte length of the file header (magic + version).
inline constexpr std::uint64_t LogHeaderBytes = 8;
/// Byte length of one record header (seq + kind + len + crc).
inline constexpr std::uint64_t RecordHeaderBytes = 17;
/// Largest payload the u32 length field can frame.
inline constexpr std::uint64_t MaxRecordPayloadBytes = 0xFFFFFFFFU;

/// The file header of a log in \p Format.
std::array<std::uint8_t, LogHeaderBytes> logHeader(LogFormat Format);

/// The header framing \p Payload as record \p Seq of kind \p Kind (length
/// and CRC included); the record is this header followed by the payload.
std::array<std::uint8_t, RecordHeaderBytes>
recordHeader(std::uint64_t Seq, std::uint8_t Kind,
             std::span<const std::uint8_t> Payload);

/// One CRC-valid record, as a scan delivers it. The payload is a view into
/// the scanned bytes, valid only for the duration of the visit.
struct LogRecord {
  std::uint64_t Seq = 0;
  std::uint8_t Kind = 0;
  std::span<const std::uint8_t> Payload;
};

/// Where the valid prefix of a log ends and why the scan stopped there. At
/// most one flag is set; none means the bytes are a complete log (an
/// empty input included: a log never opened).
struct LogScan {
  /// Byte length of the valid prefix (file header included once it is
  /// intact); the repair point and the resume point.
  std::uint64_t ValidBytes = 0;
  /// Highest sequence number in the valid prefix.
  std::uint64_t LastSeq = 0;
  /// Total input length.
  std::uint64_t FileBytes = 0;
  /// A short record header or payload, a length past the end, a CRC
  /// mismatch or a non-increasing sequence.
  bool TornTail = false;
  /// The visitor refused a CRC-valid record.
  bool Rejected = false;
  /// 1 to 7 bytes: a writer died inside the file header.
  bool HeaderTorn = false;
  /// The magic is not the owner's.
  bool HeaderCorrupt = false;
  /// The magic matches but the version is not the owner's.
  bool VersionSkew = false;
};

/// Called for each CRC-valid record in order; false refuses the record
/// (an unknown kind or a malformed payload) and ends the scan before it.
using RecordVisitor = std::function<bool(const LogRecord &)>;

/// Scans \p Bytes as a log in \p Format, handing every record of the
/// valid prefix to \p Visit. Total over arbitrary input.
LogScan scanLog(std::span<const std::uint8_t> Bytes, LogFormat Format,
                const RecordVisitor &Visit);

/// Truncates \p Path back to the \p ValidBytes a scan reported, so a
/// \ref LogWriter can extend it. Zero leaves an empty file, which the
/// next writer gives a fresh header. Costs one CrashPoint unit.
bool repairLog(const std::string &Path, std::uint64_t ValidBytes,
               CrashPoint *Crash);

/// Appends records to one log file, one writev(2) call each.
class LogWriter {
public:
  LogWriter() = default;
  ~LogWriter();

  LogWriter(const LogWriter &) = delete;
  LogWriter &operator=(const LogWriter &) = delete;

  /// Opens \p Path to append after the valid prefix a scan reported:
  /// \p ValidBytes long, ending at sequence \p LastValidSeq. Refuses
  /// (false) when the file holds more than that prefix -- damage its
  /// owner has not repaired, which would hide every later record from
  /// replay. A missing or empty log gets the \p Format file header first.
  /// \p Crash (nullable) gates every byte. A failed open leaves the
  /// writer closed.
  bool open(const std::string &Path, LogFormat Format,
            std::uint64_t ValidBytes, std::uint64_t LastValidSeq,
            CrashPoint *Crash);

  /// True while the writer can accept appends.
  bool ok() const { return Sink != nullptr && Sink->ok(); }

  /// Writes one record (header and payload in one call) and acknowledges
  /// it; the crash budget charges its bytes, then one unit for the
  /// acknowledgement. A false return means the record is not durable (it
  /// may be partially on disk, a torn tail) and the writer is dead. Input
  /// the scan would throw away, and repair then cut, is refused that way
  /// before a byte is written: a payload over \ref MaxRecordPayloadBytes
  /// or a \p Seq not above the log's last.
  bool append(std::uint64_t Seq, std::uint8_t Kind,
              std::span<const std::uint8_t> Payload);

  /// Acknowledges and closes; false if any step failed. Safe when never
  /// opened; the writer can be \ref open-ed again.
  bool close();

private:
  std::unique_ptr<FileSink> Sink;
  std::uint64_t LastSeq = 0;
};

} // namespace regmon::persist

#endif // REGMON_PERSIST_RECORDLOG_H
