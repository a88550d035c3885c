//===- sim/ProgramCodeMap.h - CodeMap over a synthetic program -*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the region-formation CodeMap of a synthetic Program. This plays
/// the role of the region-building machinery of [13]: a hot PC resolves to
/// the innermost *regionable* loop containing it; PCs in non-regionable
/// code (cycles spanning procedure boundaries) resolve to nothing and stay
/// unmonitored forever. A regionable loop still claims the PCs of a
/// non-regionable loop nested inside it.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_SIM_PROGRAMCODEMAP_H
#define REGMON_SIM_PROGRAMCODEMAP_H

#include "core/CodeMap.h"
#include "sim/Program.h"

namespace regmon::sim {

/// The CodeMap of a synthetic program's regionable loops.
class ProgramCodeMap final : public core::CodeMap {
public:
  /// Builds the table from \p P's regionable loops, in loop-id order (the
  /// first of equally small loops wins). \p P may be destroyed afterwards.
  explicit ProgramCodeMap(const Program &P);
};

} // namespace regmon::sim

#endif // REGMON_SIM_PROGRAMCODEMAP_H
