//===- sim/ProgramCodeMap.cpp - CodeMap over a synthetic program ----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/ProgramCodeMap.h"

#include <vector>

using namespace regmon;
using namespace regmon::sim;

namespace {

std::vector<core::CodeRegionInfo> regionableLoops(const Program &P) {
  std::vector<core::CodeRegionInfo> Out;
  for (const Loop &L : P.loops())
    if (L.Regionable)
      Out.push_back(core::CodeRegionInfo{L.Start, L.End, L.Name});
  return Out;
}

} // namespace

ProgramCodeMap::ProgramCodeMap(const Program &P)
    : core::CodeMap(regionableLoops(P)) {}
