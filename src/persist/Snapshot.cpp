//===- persist/Snapshot.cpp - Versioned checksummed snapshots -------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/Snapshot.h"

#include "persist/Bytes.h"
#include "persist/Crc32.h"

using namespace regmon::persist;

const char *regmon::persist::toString(SnapshotError E) {
  switch (E) {
  case SnapshotError::None:
    return "none";
  case SnapshotError::TooShort:
    return "too-short";
  case SnapshotError::BadMagic:
    return "bad-magic";
  case SnapshotError::UnsupportedVersion:
    return "unsupported-version";
  case SnapshotError::SectionLimit:
    return "section-limit";
  case SnapshotError::SectionOverrun:
    return "section-overrun";
  case SnapshotError::SectionCrcMismatch:
    return "section-crc-mismatch";
  case SnapshotError::TrailingGarbage:
    return "trailing-garbage";
  case SnapshotError::FileCrcMismatch:
    return "file-crc-mismatch";
  case SnapshotError::StateRejected:
    return "state-rejected";
  }
  return "?";
}

std::vector<std::uint8_t>
regmon::persist::encodeSnapshot(std::span<const SnapshotSection> Sections,
                                std::uint32_t Version) {
  ByteWriter W;
  W.u32(SnapshotMagic);
  W.u32(Version);
  W.u32(static_cast<std::uint32_t>(Sections.size()));
  for (const SnapshotSection &S : Sections) {
    W.u32(S.Id);
    W.u64(S.Payload.size());
    W.u32(crc32(S.Payload));
    W.bytes(S.Payload);
  }
  W.u32(crc32(W.data()));
  return W.take();
}

SnapshotError
regmon::persist::decodeSnapshot(std::span<const std::uint8_t> Data,
                                std::vector<SnapshotSection> &Sections) {
  Sections.clear();
  // Fixed header (magic + version + count) plus footer CRC.
  if (Data.size() < 16)
    return SnapshotError::TooShort;

  ByteReader R(Data);
  if (R.u32() != SnapshotMagic)
    return SnapshotError::BadMagic;
  const std::uint32_t Version = R.u32();
  const std::uint32_t Count = R.u32();
  if (Count > SnapshotMaxSections)
    return SnapshotError::SectionLimit;

  std::vector<SnapshotSection> Parsed;
  Parsed.reserve(Count);
  for (std::uint32_t I = 0; I < Count; ++I) {
    // Each section needs its 16-byte header plus the 4-byte file footer to
    // still fit.
    if (R.remaining() < 20)
      return SnapshotError::SectionOverrun;
    SnapshotSection S;
    S.Id = R.u32();
    const std::uint64_t Len = R.u64();
    const std::uint32_t Crc = R.u32();
    if (Len > R.remaining() - 4)
      return SnapshotError::SectionOverrun;
    S.Payload.resize(Len);
    if (!R.bytes(S.Payload))
      return SnapshotError::SectionOverrun;
    if (crc32(S.Payload) != Crc)
      return SnapshotError::SectionCrcMismatch;
    Parsed.push_back(std::move(S));
  }
  if (R.remaining() != 4)
    return SnapshotError::TrailingGarbage;
  const std::uint32_t FileCrc = R.u32();
  if (!R.ok() || crc32(Data.subspan(0, Data.size() - 4)) != FileCrc)
    return SnapshotError::FileCrcMismatch;

  // Only now -- with every byte vouched for -- interpret the version.
  if (Version != SnapshotVersion)
    return SnapshotError::UnsupportedVersion;

  Sections = std::move(Parsed);
  return SnapshotError::None;
}
