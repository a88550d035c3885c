//===- persist/Io.h - Crash-injectable durable file I/O --------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thin file-system seam under checkpointing, built so a crash can be
/// *simulated deterministically*: every byte written and every metadata
/// operation (rename, truncate, acknowledgement) draws from a
/// \ref CrashPoint budget, and when the budget runs out the write is
/// truncated mid-stream and all later I/O fails -- exactly the torn state
/// a power cut at that point would leave on disk. CrashRecoveryTest
/// sweeps seeded budgets through snapshot commits and journal appends and
/// asserts recovery from each torn state; production callers simply pass
/// no CrashPoint.
///
/// Writes go straight to the file descriptor: \ref FileSink keeps no
/// user-space buffer, so each of its writes hands its bytes to the kernel
/// in one write(2) call -- a log record's header and payload together in
/// one writev(2) -- retried on EINTR. A short or failed call latches the
/// sink dead with what it wrote on disk, a torn tail like a crash's.
/// Whole-file reads (\ref readFileBytes) use <cstdio>. Every return value
/// is checked; the persist lint rule flags a dropped write, writev, fwrite
/// or fread result.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERSIST_IO_H
#define REGMON_PERSIST_IO_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace regmon::persist {

/// A deterministic I/O budget modelling a crash: each byte written costs
/// one unit, each metadata operation costs one unit. Once spent, the
/// process is considered dead and every subsequent operation fails.
class CrashPoint {
public:
  /// \p UnitBudget units until the simulated crash. Use \ref unlimited for
  /// a crash-free accounting run (it records units without ever dying).
  explicit CrashPoint(std::uint64_t UnitBudget)
      : Budget(UnitBudget), Limited(true) {}

  static CrashPoint unlimited() { return CrashPoint(); }

  /// True once the budget is exhausted.
  bool dead() const { return Limited && Used >= Budget; }

  /// Units consumed so far (an unlimited run reports the total cost of the
  /// operation sequence, which seeds the test sweep).
  std::uint64_t used() const { return Used; }

  /// Requests \p Want byte-units; returns how many may still be written
  /// (possibly 0). A short grant models a torn write.
  std::uint64_t grantBytes(std::uint64_t Want) {
    if (!Limited) {
      Used += Want;
      return Want;
    }
    const std::uint64_t Left = Used >= Budget ? 0 : Budget - Used;
    const std::uint64_t Grant = Want < Left ? Want : Left;
    Used += Want;
    return Grant;
  }

  /// Requests one metadata-operation unit; false means the crash landed
  /// before the operation.
  bool grantOp() {
    if (!Limited) {
      ++Used;
      return true;
    }
    const bool Ok = Used < Budget;
    ++Used;
    return Ok;
  }

private:
  CrashPoint() = default;

  std::uint64_t Budget = 0;
  std::uint64_t Used = 0;
  bool Limited = false;
};

/// A file being written (truncated or appended), optionally gated by a
/// CrashPoint. Nothing is buffered in user space: \ref write is one
/// writev(2) call. After any failure -- a short or failed call, or an
/// injected crash -- the sink stays failed and \ref ok returns false; the
/// bytes that made it out before the failure are on disk, a torn write.
class FileSink {
public:
  /// Opens (creating) \p Path to write from its start, truncating it, or
  /// to append.
  FileSink(const std::string &Path, bool Append, CrashPoint *Crash);
  ~FileSink();

  FileSink(const FileSink &) = delete;
  FileSink &operator=(const FileSink &) = delete;

  bool ok() const { return Fd >= 0 && !Failed; }

  /// Writes \p Head and then \p Tail in one call. A CrashPoint grant short
  /// of their total writes exactly the granted prefix of Head + Tail and
  /// fails the sink, as does a short or failed call. Returns \ref ok.
  bool write(std::span<const std::uint8_t> Head,
             std::span<const std::uint8_t> Tail = {});

  /// Acknowledges the bytes written so far. They are already in the
  /// kernel, so this issues no call; it costs the one metadata unit a
  /// flush of a buffer would, so a crash can land between a record's last
  /// byte and its acknowledgement.
  bool acknowledge();

  /// Latches the sink failed without writing a byte: a write refused up
  /// front leaves the file as it was and the sink dead, like any failure.
  void fail() { Failed = true; }

  /// Acknowledges and closes. Returns false if any step failed. Safe to
  /// call once; the destructor closes quietly if the caller did not.
  bool close();

private:
  std::int32_t Fd = -1;
  CrashPoint *Crash = nullptr;
  bool Failed = false;
};

/// Reads an entire file, in one read sized from the file and then on to
/// EOF should it have grown. std::nullopt when the file cannot be opened
/// or a read error occurs (a missing file is not corruption -- callers count
/// the two differently).
std::optional<std::vector<std::uint8_t>> readFileBytes(const std::string &Path);

/// True if \p Path exists (as any file type).
bool fileExists(const std::string &Path);

/// Renames \p From to \p To (atomic within a POSIX filesystem,
/// overwriting \p To). Costs one CrashPoint unit; an injected crash leaves
/// the rename undone.
bool renameFile(const std::string &From, const std::string &To,
                CrashPoint *Crash);

/// Creates \p Dir (and parents) if missing; true if it exists afterwards.
bool ensureDir(const std::string &Dir);

} // namespace regmon::persist

#endif // REGMON_PERSIST_IO_H
