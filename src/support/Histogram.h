//===- support/Histogram.h - Per-instruction sample histograms -*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense histogram of sample counts over the instructions of one code
/// region. This is the "set of samples" the local phase detector compares:
/// prev_hist (the stable set) and curr_hist (the current interval's set) in
/// the paper's Fig. 12 are both InstrHistograms.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_SUPPORT_HISTOGRAM_H
#define REGMON_SUPPORT_HISTOGRAM_H

#include "support/Contracts.h"
#include "support/Types.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace regmon {

/// Sample counts per instruction slot of a fixed-size code region.
class InstrHistogram {
public:
  InstrHistogram() = default;

  /// Creates a histogram covering [\p Start, \p End), one bin per
  /// instruction (4 bytes). \p Start and \p End must be aligned and ordered.
  InstrHistogram(Addr Start, Addr End)
      : StartAddr(Start),
        Bins((End - Start) / InstrBytes, 0) {
    assert(Start < End && "region must be non-empty");
    assert(Start % InstrBytes == 0 && End % InstrBytes == 0 &&
           "region bounds must be instruction-aligned");
  }

  /// Records one sample at \p Pc if it lies inside the region; returns
  /// false -- touching nothing -- otherwise. The range check runs in every
  /// build mode: corrupted PCs (fault injection, hostile checkpoint
  /// restores) must not underflow the bin index or write out of bounds
  /// just because NDEBUG stripped an assert. Callers that can see
  /// rejections count them in the SamplesOutOfRegion metric.
  REGMON_HOT bool tryAddSample(Addr Pc) {
    if (Pc < StartAddr)
      return false;
    const std::size_t Bin =
        static_cast<std::size_t>((Pc - StartAddr) / InstrBytes);
    if (Bin >= Bins.size())
      return false;
    ++Bins[Bin];
    ++TotalCount;
    return true;
  }

  /// Records one sample at \p Pc, which must lie inside the region.
  /// Debug builds still assert on violation; release builds ignore the
  /// sample instead of corrupting memory.
  void addSample(Addr Pc) {
    const bool Ok = tryAddSample(Pc);
    assert(Ok && "sample outside the region");
    (void)Ok;
  }

  /// Zeroes all bins (begin a new interval). An already-empty histogram
  /// returns immediately: per-interval resets of idle or miss-free
  /// regions must not pay an O(bins) clear for nothing.
  void reset() {
    if (TotalCount == 0)
      return;
    std::fill(Bins.begin(), Bins.end(), 0u);
    TotalCount = 0;
  }

  /// Copies \p Other's bins into this histogram. Regions must match.
  void assignFrom(const InstrHistogram &Other) {
    assert(Other.Bins.size() == Bins.size() &&
           Other.StartAddr == StartAddr && "histogram regions differ");
    Bins = Other.Bins;
    TotalCount = Other.TotalCount;
  }

  /// Returns the base address of the covered region.
  Addr start() const { return StartAddr; }
  /// Returns the number of instruction bins.
  std::size_t size() const { return Bins.size(); }
  /// Returns the total number of samples recorded since the last reset.
  std::uint64_t total() const { return TotalCount; }
  /// Returns true if no samples were recorded since the last reset.
  bool empty() const { return TotalCount == 0; }
  /// Returns the raw bin counts.
  std::span<const std::uint32_t> bins() const { return Bins; }

private:
  Addr StartAddr = 0;
  std::vector<std::uint32_t> Bins;
  std::uint64_t TotalCount = 0;
};

} // namespace regmon

#endif // REGMON_SUPPORT_HISTOGRAM_H
