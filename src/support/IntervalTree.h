//===- support/IntervalTree.h - Augmented AVL interval tree ----*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dynamic interval tree: an AVL tree keyed on interval start, with each
/// node augmented by the maximum interval end in its subtree (CLRS chapter
/// 14, the structure the paper cites as [18]). Supports insertion, erasure
/// and point-stabbing queries in O(log n + k).
///
/// The paper's region monitor uses this to attribute a program-counter
/// sample to every monitored region containing it, replacing the O(n)
/// region-list walk (Fig. 16 measures the difference). Regions may nest and
/// overlap, so a stab must report *all* containing intervals.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_SUPPORT_INTERVALTREE_H
#define REGMON_SUPPORT_INTERVALTREE_H

#include "support/Types.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace regmon {

/// An interval tree mapping half-open address intervals [Start, End) to
/// 32-bit payloads (region identifiers).
class IntervalTree {
public:
  /// Opaque tree node; public only so implementation helpers can name it.
  struct Node;

  /// One stored interval.
  struct Entry {
    Addr Start = 0; ///< Inclusive lower bound.
    Addr End = 0;   ///< Exclusive upper bound.
    std::uint32_t Value = 0;
  };

  IntervalTree();
  ~IntervalTree();
  IntervalTree(IntervalTree &&) noexcept;
  IntervalTree &operator=(IntervalTree &&) noexcept;
  IntervalTree(const IntervalTree &) = delete;
  IntervalTree &operator=(const IntervalTree &) = delete;

  /// Inserts [\p Start, \p End) with payload \p Value. \p Start < \p End is
  /// required. Duplicate intervals (even with equal payloads) are stored
  /// independently.
  void insert(Addr Start, Addr End, std::uint32_t Value);

  /// Removes one interval exactly matching (\p Start, \p End, \p Value).
  /// Returns true if an entry was removed.
  bool erase(Addr Start, Addr End, std::uint32_t Value);

  /// Appends the payloads of every stored interval containing \p Point to
  /// \p Out. Allocation-free when \p Out has reserved capacity; this is the
  /// hot-path interface used during sample attribution.
  void stab(Addr Point, std::vector<std::uint32_t> &Out) const;

  /// Returns every stored entry in start order (for tests and debugging).
  std::vector<Entry> entries() const;

  /// Returns the number of stored intervals.
  std::size_t size() const { return Count; }
  /// Returns true when no intervals are stored.
  bool empty() const { return Count == 0; }
  /// Removes all intervals.
  void clear();

  /// Verifies the AVL and max-end augmentation invariants; for tests.
  /// Returns true when the structure is internally consistent.
  bool checkInvariants() const;

private:
  std::unique_ptr<Node> Root;
  std::size_t Count = 0;
};

} // namespace regmon

#endif // REGMON_SUPPORT_INTERVALTREE_H
