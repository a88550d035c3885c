//===- core/Attribution.cpp - Sample-to-region attribution ----------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Attribution.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace regmon;
using namespace regmon::core;

namespace {

/// Erases the entry registered as region \p Id over [\p Start, \p End).
template <class EntryT>
void eraseEntry(std::vector<EntryT> &Entries, RegionId Id, Addr Start,
                Addr End) {
  const auto It = std::find_if(
      Entries.begin(), Entries.end(), [&](const EntryT &E) {
        return E.Id == Id && E.Start == Start && E.End == End;
      });
  assert(It != Entries.end() && "removing a region that was never inserted");
  Entries.erase(It);
}

} // namespace

void ListAttributor::insert(RegionId Id, Addr Start, Addr End) {
  assert(Start < End && "region must be non-empty");
  Entries.push_back(Entry{Start, End, Id});
}

void ListAttributor::remove(RegionId Id, Addr Start, Addr End) {
  eraseEntry(Entries, Id, Start, End);
}

void ListAttributor::lookup(Addr Pc, std::vector<RegionId> &Out) const {
  for (const Entry &E : Entries)
    if (Pc >= E.Start && Pc < E.End)
      Out.push_back(E.Id);
}

void IntervalTreeAttributor::insert(RegionId Id, Addr Start, Addr End) {
  Tree.insert(Start, End, Id);
}

void IntervalTreeAttributor::remove(RegionId Id, Addr Start, Addr End) {
  [[maybe_unused]] const bool Erased = Tree.erase(Start, End, Id);
  assert(Erased && "removing a region that was never inserted");
}

void IntervalTreeAttributor::lookup(Addr Pc,
                                    std::vector<RegionId> &Out) const {
  Tree.stab(Pc, Out);
}

void SegmentAttributor::insert(RegionId Id, Addr Start, Addr End) {
  assert(Start < End && "region must be non-empty");
  Entries.push_back(Entry{Start, End, Id});
  rebuild();
}

void SegmentAttributor::remove(RegionId Id, Addr Start, Addr End) {
  eraseEntry(Entries, Id, Start, End);
  rebuild();
}

void SegmentAttributor::rebuild() {
  Bounds.clear();
  Offsets.clear();
  Ids.clear();
  if (Entries.empty())
    return;
  for (const Entry &E : Entries) {
    Bounds.push_back(E.Start);
    Bounds.push_back(E.End);
  }
  cutSegments(Bounds);

  // A region covers the segments from the one starting at its Start up to
  // the one starting at its End. Count each segment's ids, turn the counts
  // into end offsets, then place the ids back to front: a counting sort,
  // which leaves every offset at its segment's first id.
  Offsets.assign(Bounds.size() + 1, 0);
  for (const Entry &E : Entries)
    for (std::size_t S = segmentStartingAt(Bounds, E.Start),
                     Last = segmentStartingAt(Bounds, E.End);
         S < Last; ++S)
      ++Offsets[S];
  std::partial_sum(Offsets.begin(), Offsets.end(), Offsets.begin());
  Ids.resize(Offsets.back());
  for (auto It = Entries.rbegin(); It != Entries.rend(); ++It)
    for (std::size_t S = segmentStartingAt(Bounds, It->Start),
                     Last = segmentStartingAt(Bounds, It->End);
         S < Last; ++S)
      Ids[--Offsets[S]] = It->Id;
}
