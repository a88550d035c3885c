//===- persist/Crc32.h - CRC-32 checksums for durable state ----*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte spans.
/// Every snapshot section and journal record carries one, and the snapshot
/// file ends in a whole-file CRC, so any single bit flip or truncation is
/// detected deterministically before a byte of state is trusted.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERSIST_CRC32_H
#define REGMON_PERSIST_CRC32_H

#include <cstdint>
#include <span>

namespace regmon::persist {

/// Returns the CRC-32 of \p Data. Pass a previous result as \p Seed to
/// checksum a logically contiguous stream in chunks:
/// crc32(B, crc32(A)) == crc32(AB).
///
/// On an x86-64 host that executes PCLMULQDQ (asked once per process),
/// the 16-byte-multiple bulk of an input of 64 bytes or more is folded
/// with carry-less multiplies and the slicing-by-8 table loop finishes
/// the tail; shorter inputs, and every input on other hosts, take the
/// table loop alone. The result equals \ref crc32Table bit for bit.
std::uint32_t crc32(std::span<const std::uint8_t> Data, std::uint32_t Seed = 0);

/// The portable slicing-by-8 path of \ref crc32, on every host and every
/// length. Tests and the microbenchmark call it directly to check and
/// time the two paths against each other; it is not a switch, and nothing
/// makes \ref crc32 take it on a host that qualifies for the fold.
std::uint32_t crc32Table(std::span<const std::uint8_t> Data,
                         std::uint32_t Seed = 0);

} // namespace regmon::persist

#endif // REGMON_PERSIST_CRC32_H
