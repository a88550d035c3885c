//===- core/Attribution.cpp - Sample-to-region attribution ----------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Attribution.h"

#include <algorithm>
#include <cassert>

using namespace regmon;
using namespace regmon::core;

void ListAttributor::insert(RegionId Id, Addr Start, Addr End) {
  assert(Start < End && "region must be non-empty");
  Entries.push_back(Entry{Start, End, Id});
}

void ListAttributor::remove(RegionId Id, Addr Start, Addr End) {
  const auto It = std::find_if(
      Entries.begin(), Entries.end(), [&](const Entry &E) {
        return E.Id == Id && E.Start == Start && E.End == End;
      });
  assert(It != Entries.end() && "removing a region that was never inserted");
  Entries.erase(It);
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
