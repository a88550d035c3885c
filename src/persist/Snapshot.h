//===- persist/Snapshot.h - Versioned checksummed snapshots ----*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot container: a versioned sequence of opaque sections, each
/// carrying its own CRC-32, the whole file sealed by a trailing CRC-32
/// over every preceding byte. Layout (all integers little-endian):
///
///     u32 magic 'RGMN'   u32 version   u32 sectionCount
///     sectionCount x [ u32 id | u64 payloadLen | u32 payloadCrc | bytes ]
///     u32 fileCrc  (over everything before it)
///
/// The file CRC guarantees that *every* single-bit flip and *every*
/// truncation is rejected deterministically; the per-section CRCs localize
/// the damage for diagnostics and defend the (version, count, length)
/// plumbing between them. Decoding never trusts a length field without
/// first checking it against the bytes actually present, so a hostile file
/// cannot cause out-of-bounds reads or unbounded allocation -- only a
/// clean \ref SnapshotError.
///
/// Versioning: the version field names the schema of the section payloads.
/// Only \ref SnapshotVersion is read; any other version is refused as
/// \ref SnapshotError::UnsupportedVersion, so an old snapshot is never
/// misread -- recovery falls to the next rung instead.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERSIST_SNAPSHOT_H
#define REGMON_PERSIST_SNAPSHOT_H

#include <cstdint>
#include <span>
#include <vector>

namespace regmon::persist {

/// 'RGMN' in little-endian byte order.
inline constexpr std::uint32_t SnapshotMagic = 0x4E4D4752U;
/// Current schema version of section payloads.
inline constexpr std::uint32_t SnapshotVersion = 3;
/// Upper bound on sections per snapshot; a corrupt count field must not
/// buy a long parse loop.
inline constexpr std::uint32_t SnapshotMaxSections = 1U << 20;

/// One opaque section: the container does not interpret payloads.
struct SnapshotSection {
  std::uint32_t Id = 0;
  std::vector<std::uint8_t> Payload;
};

/// Why a snapshot was rejected. Every value maps to "fall to the next
/// recovery rung", never to UB or a partial load.
enum class SnapshotError : std::uint8_t {
  None,
  TooShort,           ///< Shorter than the fixed header + footer.
  BadMagic,           ///< First four bytes are not 'RGMN'.
  UnsupportedVersion, ///< Any schema version other than SnapshotVersion.
  SectionLimit,       ///< Section count exceeds SnapshotMaxSections.
  SectionOverrun,     ///< A section header or payload ran past the file.
  SectionCrcMismatch, ///< A section's payload failed its CRC.
  TrailingGarbage,    ///< Bytes between the last section and the footer.
  FileCrcMismatch,    ///< The whole-file CRC failed.
  /// The container was intact but its owner's decode refused the payload
  /// (see CheckpointManager::noteDecodeFailure); never returned by
  /// \ref decodeSnapshot.
  StateRejected,
};

/// Returns a short identifier for reports and counters.
const char *toString(SnapshotError E);

/// Encodes \p Sections into the container format described above.
/// \p Version is exposed for format tests; production callers use the
/// default.
std::vector<std::uint8_t>
encodeSnapshot(std::span<const SnapshotSection> Sections,
               std::uint32_t Version = SnapshotVersion);

/// Decodes \p Data into \p Sections. On failure \p Sections is cleared
/// and the reason is returned; \ref SnapshotError::None means success.
SnapshotError decodeSnapshot(std::span<const std::uint8_t> Data,
                             std::vector<SnapshotSection> &Sections);

} // namespace regmon::persist

#endif // REGMON_PERSIST_SNAPSHOT_H
