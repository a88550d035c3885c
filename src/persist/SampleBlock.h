//===- persist/SampleBlock.h - Bulk sample-block codec ---------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one wire encoding of a run of samples, shared by the write-ahead
/// journal's batch records (service::MonitorService) and the flight
/// recorder's Batch records (trace/Format.h). Layout (little-endian):
///
///     u64 count
///     count x [ u64 pc | u64 time | u8 dcacheMiss ]
///
/// The encoder sizes the block once and stores each field as one
/// fixed-width word (persist/Bytes.h), so a 2032-sample batch costs one
/// buffer growth instead of 35K byte pushes. The decoder keeps the
/// reader's trust-boundary contract: the count is validated against the
/// bytes actually present before anything is allocated, every miss byte
/// must be 0 or 1, and any violation latches the reader's sticky failure.
/// Trailing bytes are the caller's to reject (both payloads end with the
/// block and check ByteReader::atEnd).
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERSIST_SAMPLEBLOCK_H
#define REGMON_PERSIST_SAMPLEBLOCK_H

#include "persist/Bytes.h"
#include "support/Types.h"

#include <cstdint>
#include <span>
#include <vector>

namespace regmon::persist {

/// Wire size of one sample record: u64 pc + u64 time + u8 miss flag.
inline constexpr std::uint64_t SampleWireBytes = 17;

/// Wire size of a block holding \p Count samples (count prefix included).
constexpr std::uint64_t sampleBlockBytes(std::uint64_t Count) {
  return 8 + Count * SampleWireBytes;
}

/// Appends the block for \p Samples to \p W.
void encodeSampleBlock(ByteWriter &W, std::span<const Sample> Samples);

/// Decodes one block into \p Out, replacing its contents. False (and \p R
/// failed) on a count the remaining bytes cannot hold or a miss byte
/// other than 0/1; \p Out may then be partially written.
bool decodeSampleBlock(ByteReader &R, std::vector<Sample> &Out);

} // namespace regmon::persist

#endif // REGMON_PERSIST_SAMPLEBLOCK_H
