//===- core/CodeMap.cpp - Region-formation code table ---------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CodeMap.h"

#include <algorithm>
#include <tuple>

using namespace regmon;
using namespace regmon::core;

namespace {

bool boundsLess(const CodeRegionInfo &A, const CodeRegionInfo &B) {
  return std::tie(A.Start, A.End) < std::tie(B.Start, B.End);
}

bool sameBounds(const CodeRegionInfo &A, const CodeRegionInfo &B) {
  return A.Start == B.Start && A.End == B.End;
}

} // namespace

CodeMap::CodeMap(std::vector<CodeRegionInfo> Regions) {
  std::erase_if(Regions, [](const CodeRegionInfo &R) {
    return R.Start >= R.End || R.Start % InstrBytes != 0 ||
           R.End % InstrBytes != 0;
  });

  // A stable sort keeps the first listed of identical bounds in front,
  // and unique keeps the front of each run.
  Candidates = Regions;
  std::stable_sort(Candidates.begin(), Candidates.end(), boundsLess);
  Candidates.erase(
      std::unique(Candidates.begin(), Candidates.end(), sameBounds),
      Candidates.end());

  Bounds.clear();
  for (const CodeRegionInfo &R : Regions) {
    Bounds.push_back(R.Start);
    Bounds.push_back(R.End);
  }
  cutSegments(Bounds);

  // Each region, in list order, claims the segments it covers from every
  // larger region: the smallest wins, and a later region of equal size
  // does not displace an earlier one.
  const auto None = static_cast<CandidateId>(Candidates.size());
  SegmentCandidate.assign(Bounds.size(), None);
  for (const CodeRegionInfo &R : Regions) {
    const auto C = static_cast<CandidateId>(
        std::lower_bound(Candidates.begin(), Candidates.end(), R,
                         boundsLess) -
        Candidates.begin());
    for (std::size_t S = segmentStartingAt(Bounds, R.Start),
                     Last = segmentStartingAt(Bounds, R.End);
         S < Last; ++S) {
      CandidateId &Best = SegmentCandidate[S];
      if (Best == None || R.End - R.Start < Candidates[Best].End -
                                                 Candidates[Best].Start)
        Best = C;
    }
  }
}
