//===- core/Attribution.h - Sample-to-region attribution --------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Distributing performance-counter samples across monitored regions is the
/// dominant cost of region monitoring (paper section 3.2.3). Two structures
/// with one shape (insert / remove / lookup / size) are provided:
///
///  * ListAttributor         -- walk the region list: O(n) per sample, the
///                              scheme the prototype started with, kept as
///                              Fig. 16's baseline;
///  * IntervalTreeAttributor -- stab an augmented interval tree:
///                              O(log n + k) per sample, the improvement the
///                              paper proposes and the RegionMonitor's index.
///
/// Both report *every* region containing the PC: regions overlap (nested
/// loops), which is why Fig. 2's stacked sample counts exceed the buffer
/// size.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_CORE_ATTRIBUTION_H
#define REGMON_CORE_ATTRIBUTION_H

#include "core/Region.h"
#include "support/IntervalTree.h"
#include "support/Types.h"

#include <cstdint>
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

} // namespace regmon::core

#endif // REGMON_CORE_ATTRIBUTION_H
