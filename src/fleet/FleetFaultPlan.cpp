//===- fleet/FleetFaultPlan.cpp - Seeded fleet failure schedule -----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetFaultPlan.h"

using namespace regmon;
using namespace regmon::fleet;

NodeFaultInjector::NodeFaultInjector(std::uint64_t Seed, double FireRate)
    : Rate(FireRate), EpochRng(mix64(Seed ^ 0x3c3c3c3c'3c3c3c3cULL)) {}

REGMON_PURE bool NodeFaultInjector::nextFires() {
  ++Stats.EpochsSeen;
  // Always drawn, even at rate 0, so enabling a fault class later never
  // shifts any other injector's sequence (they share nothing) and a
  // crashed node's downtime epochs keep the stream aligned.
  const bool Fires = EpochRng.nextDouble() < Rate;
  if (Fires)
    ++Stats.Fired;
  return Fires;
}

REGMON_PURE NodeFaultInjector FleetFaultPlan::forLeaf(std::uint32_t Id) const {
  return NodeFaultInjector(mix64(Seed ^ 0xa5a5a5a5'a5a5a5a5ULL) ^ mix64(Id),
                           Config.LeafCrashRate);
}

REGMON_PURE NodeFaultInjector
FleetFaultPlan::forAggregator(std::uint32_t NodeId) const {
  return NodeFaultInjector(mix64(Seed ^ 0x5c5c5c5c'5c5c5c5cULL) ^
                               mix64(NodeId),
                           Config.AggStallRate);
}

REGMON_PURE faults::LinkFaultInjector
FleetFaultPlan::forLink(std::uint32_t LinkId) const {
  // Delegate to the faults layer's derivation so fleet links and any
  // other links sharing the plan seed stay decorrelated the same way.
  return faults::FaultPlan(Seed).forLink(LinkId, Config.Transport);
}
