//===- core/CodeMap.h - Region-formation code table -------------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The table region formation uses to turn a hot program counter into a
/// candidate region. In the real system this is the region-building
/// machinery of [13]: given a hot instruction, find the enclosing loop
/// within the same procedure and emit its bounds. Some hot code defeats it
/// -- e.g. a procedure called from a loop, where the cyclic path crosses
/// procedure boundaries -- and those samples can never be claimed by any
/// region (the paper's Figs. 6/7 unmonitored-code-region pathology).
///
/// A trace selector knows a binary's loop bounds before the program runs,
/// so the map is data built once: the list of formable regions, cut into
/// elementary segments that each hold the innermost region containing
/// them. Formation resolves a PC with one branch-free search, and the
/// monitoring core stays independent of the execution substrate: a real
/// deployment would build the list from binary analysis of the running
/// process.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_CORE_CODEMAP_H
#define REGMON_CORE_CODEMAP_H

#include "support/Contracts.h"
#include "support/Segments.h"
#include "support/Types.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace regmon::core {

/// A formable region: the bounds and name of a loop the region builder
/// can form a region around.
struct CodeRegionInfo {
  Addr Start = 0; ///< Inclusive, instruction-aligned.
  Addr End = 0;   ///< Exclusive, instruction-aligned.
  std::string Name;
};

/// Indexes the distinct formable regions of a CodeMap.
using CandidateId = std::uint32_t;

/// The table of formable regions, resolving a PC to the innermost one
/// containing it.
class CodeMap {
public:
  /// A map with no formable regions: every PC stays unmonitored.
  CodeMap() = default;

  /// Builds the table from \p Regions. A PC resolves to the smallest
  /// listed region containing it, the first listed among equal sizes.
  /// Regions listed with identical bounds are one candidate, named by the
  /// first of them. A region that does not cover whole instructions
  /// (empty, reversed or unaligned bounds) is not formable and is left
  /// out.
  explicit CodeMap(std::vector<CodeRegionInfo> Regions);

  /// Returns the number of distinct formable regions. It is also the id
  /// \ref candidateFor returns for a PC no region can be built around.
  std::size_t candidateCount() const { return Candidates.size(); }

  /// Returns candidate \p C. Candidates are ordered by (Start, End).
  const CodeRegionInfo &candidate(CandidateId C) const {
    assert(C < Candidates.size() && "unknown candidate");
    return Candidates[C];
  }

  /// Returns the candidate of the innermost formable region containing
  /// \p Pc, or \ref candidateCount when there is none (straight-line code,
  /// or a cycle spanning procedure boundaries). One branch-free search:
  /// formation resolves every unmonitored sample of a triggering interval.
  REGMON_HOT CandidateId candidateFor(Addr Pc) const {
    return SegmentCandidate[segmentOf(Bounds.data(), Bounds.size(), Pc)];
  }

  /// Returns the innermost formable region containing \p Pc, or nullptr.
  const CodeRegionInfo *regionFor(Addr Pc) const {
    const CandidateId C = candidateFor(Pc);
    return C < Candidates.size() ? &Candidates[C] : nullptr;
  }

private:
  /// The distinct formable regions, ordered by (Start, End).
  std::vector<CodeRegionInfo> Candidates;
  /// The regions' segment bounds (support/Segments.h); no region reaches
  /// into the last segment.
  std::vector<Addr> Bounds{0};
  /// Segment S's innermost candidate, or candidateCount().
  std::vector<CandidateId> SegmentCandidate{0};
};

} // namespace regmon::core

#endif // REGMON_CORE_CODEMAP_H
