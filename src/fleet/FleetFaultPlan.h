//===- fleet/FleetFaultPlan.h - Seeded fleet failure schedule --*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet layer's failure model, extending the src/faults discipline
/// from samples and batches up to whole nodes and links: every random
/// decision is drawn from a seeded generator derived per (plan seed,
/// node/link id) by seed mixing, and every decision is *always drawn*
/// whether or not it fires, so the consumed random stream -- and with it
/// every later decision -- is independent of which faults actually occur.
/// The same plan over the same workload therefore produces bit-identical
/// fault schedules, crashes included, which is what lets FleetChaosTest
/// assert that a faulted fleet run replays bit-identically.
///
/// Three fault classes:
///  * leaf crash -- the leaf process dies at an epoch boundary, loses its
///    in-flight epoch, and restarts \ref FleetFaultConfig::LeafRestartEpochs
///    epochs later through the persist checkpoint ladder (or cold, when
///    the leaf has no persistence configured);
///  * aggregator stall -- an interior node skips its merge/emit round for
///    one epoch (GC pause, CPU steal); its parent sees a missing child;
///  * summary transport faults -- per-link drop/duplicate/reorder/stale,
///    delegated to \ref faults::LinkFaultInjector.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_FLEET_FLEETFAULTPLAN_H
#define REGMON_FLEET_FLEETFAULTPLAN_H

#include "faults/FaultPlan.h"
#include "support/Contracts.h"
#include "support/Rng.h"

#include <cstdint>

namespace regmon::fleet {

/// Fleet-level fault rates and recovery shape. A default-constructed
/// config injects nothing and never expires entries.
struct FleetFaultConfig {
  /// Per-epoch probability of a live leaf crashing at the epoch boundary.
  double LeafCrashRate = 0;
  /// Epochs a crashed leaf stays down before restarting (downtime is
  /// deterministic; the *schedule* of crashes is what is random).
  std::uint64_t LeafRestartEpochs = 2;
  /// Per-epoch probability of an interior aggregator stalling (skipping
  /// its merge/emit round for that epoch).
  double AggStallRate = 0;
  /// Summary-transport fault rates applied to every tree link.
  faults::TransportFaultConfig Transport;
  /// A per-leaf entry older than this many epochs drops out of coverage
  /// at view time (bounded staleness). 0 disables expiry.
  std::uint64_t MaxStalenessEpochs = 8;
};

/// Counters of everything a node injector decided.
struct NodeFaultStats {
  std::uint64_t EpochsSeen = 0;
  std::uint64_t Fired = 0;
};

/// Decides one node's per-epoch fault (crash for leaves, stall for
/// aggregators). The K-th call judges epoch K; the decision draw is
/// always consumed, so the schedule is independent of downstream effects
/// (a crashed leaf's injector keeps drawing through its downtime).
class NodeFaultInjector {
public:
  /// Prefer \ref FleetFaultPlan::forLeaf / forAggregator.
  NodeFaultInjector(std::uint64_t Seed, double Rate);

  /// Decides whether the fault fires this epoch. Always draws.
  bool nextFires();

  const NodeFaultStats &stats() const { return Stats; }

private:
  double Rate;
  Rng EpochRng;
  NodeFaultStats Stats;
};

/// A seeded, fully replayable failure schedule over a whole fleet tree.
/// Immutable; all injectors derive deterministically from (seed, id), so
/// node K's fate is independent of how many other nodes exist and of the
/// order injectors are created in.
class FleetFaultPlan {
public:
  explicit FleetFaultPlan(std::uint64_t PlanSeed, FleetFaultConfig Cfg = {})
      : Seed(PlanSeed), Config(Cfg) {}

  /// Returns leaf \p Id's crash injector.
  NodeFaultInjector forLeaf(std::uint32_t Id) const;

  /// Returns aggregator \p NodeId's stall injector, decorrelated from
  /// leaf injectors with the same numeric id.
  NodeFaultInjector forAggregator(std::uint32_t NodeId) const;

  /// Returns link \p LinkId's transport injector (child -> parent edge).
  faults::LinkFaultInjector forLink(std::uint32_t LinkId) const;

  std::uint64_t seed() const { return Seed; }
  const FleetFaultConfig &config() const { return Config; }

private:
  std::uint64_t Seed;
  FleetFaultConfig Config;
};

} // namespace regmon::fleet

#endif // REGMON_FLEET_FLEETFAULTPLAN_H
