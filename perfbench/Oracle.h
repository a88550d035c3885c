//===- perfbench/Oracle.h - Correctness oracle for every pass ---*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a pass must have computed, derived independently of the service:
/// one standalone RegionMonitor per stream fed the same batches in the
/// same per-stream order. Every pass's snapshot() is checked against it
/// (intervals, phase changes, formation triggers, regions formed, UCR
/// samples), and recovered service states are checked byte for byte
/// against the state of the uninterrupted run. The standalone feed is
/// also timed, which gives the bare cost of the core layer.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERFBENCH_ORACLE_H
#define REGMON_PERFBENCH_ORACLE_H

#include "Inputs.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct StreamExpect {
  std::uint64_t Intervals = 0;
  std::uint64_t PhaseChanges = 0;
  std::uint64_t FormationTriggers = 0;
  std::uint64_t RegionsFormed = 0;
  std::uint64_t TotalSamples = 0;
  std::uint64_t UcrSamples = 0;
};

struct Reference {
  std::vector<StreamExpect> Streams;
  /// Wall seconds the standalone monitors spent in observeInterval.
  double ObserveSeconds = 0;
  std::uint64_t Samples = 0;
  std::uint64_t Batches = 0;
};

/// Feeds \p In through standalone monitors (default configuration, as
/// the service uses).
Reference computeReference(const Inputs &In);

/// Lists every disagreement between \p Snap and \p Ref, plus any batch
/// that was not processed; empty when the pass is correct.
std::vector<std::string>
checkSnapshot(const regmon::service::ServiceSnapshot &Snap,
              const Reference &Ref);

/// Lists the differences between two encodeState() containers. With
/// \p IgnoreJournalCursor the meta section's leading 8-byte journal
/// sequence is exempt: a replay into a service without persistence
/// leaves it at 0 while every learned byte must still match.
std::vector<std::string> compareStates(const std::vector<std::uint8_t> &Got,
                                       const std::vector<std::uint8_t> &Want,
                                       bool IgnoreJournalCursor);

} // namespace perfbench

#endif // REGMON_PERFBENCH_ORACLE_H
