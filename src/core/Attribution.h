//===- core/Attribution.h - Sample-to-region attribution --------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Distributing performance-counter samples across monitored regions is the
/// dominant cost of region monitoring (paper section 3.2.3). Three
/// structures with one insert / remove / size shape are provided:
///
///  * ListAttributor         -- walk the region list: O(n) per sample, the
///                              scheme the prototype started with, kept as
///                              Fig. 16's baseline;
///  * IntervalTreeAttributor -- stab an augmented interval tree:
///                              O(log n + k) per sample, the improvement the
///                              paper proposes, kept as Fig. 16's second
///                              column;
///  * SegmentAttributor      -- binary-search a flat table of elementary
///                              segments: O(log n) per sample with no
///                              pointer chase and no output buffer, kept
///                              as Fig. 16's third column. The
///                              RegionMonitor's count slab is laid out
///                              over the same segments.
///
/// All three report *every* region containing the PC: regions overlap
/// (nested loops), which is why Fig. 2's stacked sample counts exceed the
/// buffer size.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_CORE_ATTRIBUTION_H
#define REGMON_CORE_ATTRIBUTION_H

#include "core/Region.h"
#include "support/Contracts.h"
#include "support/IntervalTree.h"
#include "support/Segments.h"
#include "support/Types.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace regmon::core {

/// O(n)-per-sample linear scan over the region list.
class ListAttributor {
public:
  /// Registers region \p Id covering [\p Start, \p End).
  void insert(RegionId Id, Addr Start, Addr End);

  /// Unregisters a region previously inserted with identical bounds.
  void remove(RegionId Id, Addr Start, Addr End);

  /// Appends to \p Out the id of every region containing \p Pc. \p Out is
  /// not cleared (callers reuse one buffer across a whole interval).
  void lookup(Addr Pc, std::vector<RegionId> &Out) const;

  /// Returns the number of registered regions.
  std::size_t size() const { return Entries.size(); }

private:
  struct Entry {
    Addr Start;
    Addr End;
    RegionId Id;
  };
  std::vector<Entry> Entries;
};

/// O(log n + k)-per-sample stabbing query over an augmented interval tree.
/// Same contract as ListAttributor.
class IntervalTreeAttributor {
public:
  void insert(RegionId Id, Addr Start, Addr End);
  void remove(RegionId Id, Addr Start, Addr End);
  void lookup(Addr Pc, std::vector<RegionId> &Out) const;
  std::size_t size() const { return Tree.size(); }

private:
  IntervalTree Tree;
};

/// The region set cut into elementary segments: the sorted, unique region
/// bounds split the address space into runs that every region either
/// covers whole or misses, so one table row per run answers every PC in
/// it. The region set changes only at formation and retirement, while
/// every sample is looked up, so insert and remove rebuild the table
/// eagerly (O(n log n + ids)) and lookup is one branch-free binary search.
/// A table that was never filled holds no storage.
class SegmentAttributor {
public:
  /// Registers region \p Id covering [\p Start, \p End) and rebuilds.
  void insert(RegionId Id, Addr Start, Addr End);

  /// Unregisters a region previously inserted with identical bounds and
  /// rebuilds.
  void remove(RegionId Id, Addr Start, Addr End);

  /// Returns the id of every region containing \p Pc, in insertion order.
  /// The span points into the table and stays valid until the next insert
  /// or remove.
  REGMON_HOT std::span<const RegionId> lookup(Addr Pc) const {
    if (Bounds.empty())
      return {};
    const std::size_t Segment = segmentOf(Bounds.data(), Bounds.size(), Pc);
    return {Ids.data() + Offsets[Segment], Ids.data() + Offsets[Segment + 1]};
  }

  /// Returns the number of registered regions.
  std::size_t size() const { return Entries.size(); }

private:
  /// Recomputes Bounds, Offsets and Ids from Entries.
  void rebuild();

  struct Entry {
    Addr Start;
    Addr End;
    RegionId Id;
  };
  /// The registered regions, in insertion order.
  std::vector<Entry> Entries;
  /// The regions' segment bounds (support/Segments.h), or empty.
  std::vector<Addr> Bounds;
  /// Segment S's region ids are Ids[Offsets[S], Offsets[S + 1]).
  std::vector<std::uint32_t> Offsets;
  std::vector<RegionId> Ids;
};

} // namespace regmon::core

#endif // REGMON_CORE_ATTRIBUTION_H
