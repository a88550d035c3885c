//===- support/Segments.h - Elementary address segments ---------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The distinct bounds of a set of half-open address ranges, with 0 in
/// front, cut the address space into elementary segments that every range
/// either covers whole or misses. Segment S is [Bounds[S], Bounds[S + 1]),
/// and the last one runs to the top of the address space. One row per
/// segment then answers every PC inside it: the monitor's count slab and
/// the formation table (core/CodeMap.h) are both laid out this way.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_SUPPORT_SEGMENTS_H
#define REGMON_SUPPORT_SEGMENTS_H

#include "support/Contracts.h"
#include "support/Types.h"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace regmon {

/// Turns \p Bounds, the start and end of every range in any order, into
/// segment bounds: 0 in front, then every distinct bound ascending.
inline void cutSegments(std::vector<Addr> &Bounds) {
  Bounds.push_back(0);
  std::sort(Bounds.begin(), Bounds.end());
  Bounds.erase(std::unique(Bounds.begin(), Bounds.end()), Bounds.end());
}

/// Returns the segment that starts at \p Bound, one of \p Bounds.
inline std::size_t segmentStartingAt(const std::vector<Addr> &Bounds,
                                     Addr Bound) {
  return static_cast<std::size_t>(
      std::lower_bound(Bounds.begin(), Bounds.end(), Bound) -
      Bounds.begin());
}

/// Returns the segment containing \p Pc: the last of the \p N segment
/// bounds at \p Bounds that is <= Pc. Bounds[0] is 0, so one always
/// exists. Each step keeps it inside [Base, Base + N) and compiles to a
/// conditional move: consecutive samples rarely share a segment, so a
/// data-dependent branch here would mispredict about half the time. The
/// loop branch depends only on \p N.
REGMON_HOT inline std::size_t segmentOf(const Addr *Bounds, std::size_t N,
                                        Addr Pc) {
  const Addr *Base = Bounds;
  while (N > 1) {
    const std::size_t Half = N / 2;
    Base = Base[Half] <= Pc ? Base + Half : Base;
    N -= Half;
  }
  return static_cast<std::size_t>(Base - Bounds);
}

} // namespace regmon

#endif // REGMON_SUPPORT_SEGMENTS_H
