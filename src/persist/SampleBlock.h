//===- persist/SampleBlock.h - Bulk sample-block codec ---------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one wire encoding of a run of samples, shared by the write-ahead
/// journal's batch records (service::MonitorService) and the flight
/// recorder's Batch records (trace/Format.h). A batch is one sampler
/// buffer: its timestamps advance by one sampling period and its PCs stay
/// inside a few hot loops. So the block stores columns of differences,
/// each at the least byte width that holds every value in it. Layout
/// (little-endian):
///
///     u64 count
///     -- the rest only when count > 0:
///     u64 pc[0] | u64 time[0] | u64 stride     stride = time[1] - time[0]
///                                              (0 for a single sample)
///     u8 pcWidth | u8 timeWidth                bytes per value, 0..8
///     ceil(count / 8) bytes                    miss bitmap: sample i is
///                                              bit i % 8 of byte i / 8
///     (count - 1) x pcWidth bytes              zigzag(pc[i] - pc[i-1]),
///                                              i = 1 .. count-1
///     (count - 2) x timeWidth bytes            zigzag(time[i] - time[i-1]
///                                              - stride), i = 2 .. count-1
///
/// time[1] is time[0] + stride by definition, so its difference from the
/// stride (always 0) is not stored. All arithmetic is mod 2^64, so every
/// u64 pc and time round-trips, including the unaligned PCs and backward
/// times of a poisoned batch (which the journal records before admission
/// refuses it).
///
/// The decoder is a trust boundary and accepts exactly one encoding per
/// sample sequence, the encoder's, so re-framing a record (journal
/// compaction) and re-recording a replay reproduce its bytes:
///
///  * each width is the least that holds its column: the byte length of
///    the column's largest value (0 for an empty or all-zero column),
///    except that a non-empty pc column is at least 1 byte wide;
///  * the bitmap's padding bits are zero;
///  * a single sample has stride 0 and both widths 0;
///  * no bytes follow the block. The decoder leaves this one to its
///    callers: both payloads end with the block and check
///    ByteReader::atEnd.
///
/// Allocation bound: every sample after the first takes at least one pc
/// byte and one bitmap bit, so a block of B bytes holds fewer than
/// B - 33 samples, and the count is checked (by division) against the
/// bytes present at the declared widths before anything is sized from it.
/// Decoding allocates at most sizeof(Sample) = 24 bytes of heap per input
/// byte. Width-0 pc columns would let 8 samples ride on each bitmap byte,
/// 192 bytes of heap per input byte; the minimum pc width rules them out.
///
/// Any violation latches the reader's sticky failure.
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

/// Bytes of a non-empty block ahead of its bitmap: the count, the first
/// pc and time, the stride and the two widths.
inline constexpr std::uint64_t SampleBlockHeaderBytes = 4 * 8 + 2;

/// Appends the block for \p Samples to \p W: one pass finds the widths,
/// a second stores the columns into the block's bytes, sized once.
void encodeSampleBlock(ByteWriter &W, std::span<const Sample> Samples);

/// Decodes one block into \p Out, replacing its contents. False (and \p R
/// failed) on a count the bytes cannot hold or on any encoding but the
/// canonical one; \p Out may then be partially written.
bool decodeSampleBlock(ByteReader &R, std::vector<Sample> &Out);

/// Consumes one block and checks it exactly as \ref decodeSampleBlock
/// would, without materializing a sample: a scan that only validates
/// (trace/Reader.h) calls this, and the one decode happens later.
bool checkSampleBlock(ByteReader &R);

} // namespace regmon::persist

#endif // REGMON_PERSIST_SAMPLEBLOCK_H
