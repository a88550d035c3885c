//===- fleet/FleetTree.h - Fault-tolerant aggregation tree -----*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hierarchical fleet rollup (DESIGN.md §14): N MonitorService leaves
/// under a tree of \ref Aggregator nodes, merging \ref FleetSummary state
/// upward once per *epoch* (one ingest round). The design goal is that
/// every degraded state is **explicit and exact**, never silently wrong:
///
///  * merges are the join-semilattice of fleet/Summary.h, so transport
///    drop/duplicate/reorder/stale faults can lose freshness but can
///    never corrupt or double-count;
///  * every \ref FleetView carries an exact coverage fraction (leaves
///    present / leaves total) and per-subtree staleness in whole epochs
///    -- integers derived from the epoch counters, not estimates;
///  * entries older than the bounded-staleness horizon drop *out of
///    coverage* at view time rather than lingering as stale truth;
///  * a parent that misses a child re-syncs with exponential backoff by
///    pulling the child's state directly (the recovery path a real
///    deployment routes over a reliable RPC rather than the lossy
///    summary feed).
///
/// Leaves run the real \ref service::MonitorService in Inline mode over
/// pre-seeded simulated workloads, so the whole fleet -- ingest, faults,
/// crashes, recovery through the persist checkpoint ladder, aggregation
/// -- is a deterministic single-threaded function of (config, fault-plan
/// seed), and FleetChaosTest can assert bit-identical replays.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_FLEET_FLEETTREE_H
#define REGMON_FLEET_FLEETTREE_H

#include "fleet/Codec.h"
#include "fleet/FleetFaultPlan.h"
#include "fleet/Summary.h"
#include "service/MonitorService.h"
#include "trace/Attach.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace regmon::sampling {
class Sampler;
}
namespace regmon::sim {
class Engine;
class ProgramCodeMap;
}
namespace regmon::workloads {
struct Workload;
}

namespace regmon::fleet {

/// Sentinel for "no parent" (the root).
inline constexpr std::uint32_t NoNode = 0xffff'ffff;

/// The static shape of the fleet: \ref Leaves leaf services under a tree
/// of aggregators with at most \ref Fanout children each, built bottom-up
/// level by level until a single root remains. Node and link numbering is
/// purely a function of (Leaves, Fanout), so two processes building the
/// same topology agree on every id.
class FleetTopology {
public:
  struct AggNode {
    std::uint32_t Id = 0;    ///< Aggregator index (dense, level order).
    std::uint32_t Level = 1; ///< 1 = directly above the leaves.
    std::uint32_t Parent = NoNode;
    std::vector<LeafId> ChildLeaves;       ///< Level 1 only.
    std::vector<std::uint32_t> ChildAggs;  ///< Levels >= 2.
    std::vector<LeafId> LeavesUnder;       ///< All leaves in this subtree.
  };

  /// Builds the tree over \p Leaves leaves with the given \p Fanout
  /// (clamped to >= 2). A single leaf still gets one root aggregator, so
  /// every fleet has a root to view from.
  static FleetTopology build(std::uint32_t Leaves, std::uint32_t Fanout);

  std::uint32_t leaves() const { return NumLeaves; }
  std::uint32_t fanout() const { return Fanout; }
  const std::vector<AggNode> &aggs() const { return Aggs; }
  std::uint32_t root() const { return Root; }
  std::uint32_t levels() const { return NumLevels; }

  /// The aggregator directly above \p Leaf.
  std::uint32_t parentOfLeaf(LeafId Leaf) const { return LeafParent[Leaf]; }

  /// Link ids are dense and deterministic: leaf \p Leaf's uplink is link
  /// \p Leaf; aggregator \p Agg's uplink is link leaves() + \p Agg.
  std::uint32_t leafLink(LeafId Leaf) const { return Leaf; }
  std::uint32_t aggLink(std::uint32_t Agg) const { return NumLeaves + Agg; }

private:
  std::uint32_t NumLeaves = 0;
  std::uint32_t Fanout = 2;
  std::uint32_t Root = 0;
  std::uint32_t NumLevels = 1;
  std::vector<AggNode> Aggs;
  std::vector<std::uint32_t> LeafParent;
};

/// Builds leaf \p Leaf's summary at \p Epoch from the per-stream state of
/// \p Svc, covering service streams [\p FirstStream, \p FirstStream +
/// \p NumStreams). \p FirstGlobalStream maps the range onto fleet-global
/// stream ids (top-K keys must be unique fleet-wide). \p Crashes is the
/// leaf's lifetime crash count (the service does not know it died).
///
/// Shared between the live \ref LeafAgent and the flat single-service
/// reference in FleetTest, so the differential "tree == flat" comparison
/// exercises the tree, not two summary builders. Requires a quiescent or
/// Inline service (reads monitors).
LeafSummary buildLeafSummary(const service::MonitorService &Svc, LeafId Leaf,
                             std::uint64_t Epoch,
                             service::StreamId FirstStream,
                             std::uint32_t NumStreams,
                             std::uint32_t FirstGlobalStream,
                             const std::vector<double> &HistBounds,
                             std::uint32_t TopKCap, std::uint64_t Crashes);

/// Canonical top-K sketch capacity, shared fleet-wide. Repro choice.
inline constexpr std::uint32_t TopKCapacity = 16;

/// Everything a fleet run is parameterized by. The pair (config, fault
/// plan) fully determines every byte of every summary -- there is no
/// other input.
struct FleetSimConfig {
  std::uint32_t Leaves = 8;
  std::uint32_t Fanout = 4;
  std::uint32_t StreamsPerLeaf = 1;
  /// Workload every stream runs (each stream gets a private copy and a
  /// distinct engine seed, like independent cores).
  std::string Workload = "synthetic.periodic";
  /// Sampling period in cycles/interrupt.
  Cycles PeriodCycles = 45'000;
  /// Sample batches ingested per stream per epoch.
  std::uint32_t BatchesPerEpoch = 2;
  /// Leaves commit a checkpoint every this many epochs (0 = never).
  /// Only meaningful with \ref PersistDir.
  std::uint64_t CheckpointEveryEpochs = 4;
  /// When non-empty, leaf K persists under "<PersistDir>/leaf<K>" and a
  /// crashed leaf recovers through the checkpoint ladder; when empty a
  /// crashed leaf restarts cold (history lost -- visible in the rollup).
  std::string PersistDir;
  /// Base seed for the per-stream engines (stream G uses Seed + G).
  std::uint64_t Seed = 1;
};

/// Per-leaf lifetime counters the sim tracks outside the service (the
/// service itself forgets it died).
struct LeafAgentStats {
  std::uint64_t Crashes = 0;
  std::uint64_t Restores = 0;
  std::uint64_t ColdRestores = 0; ///< Restores that came back cold.
  std::uint64_t EpochsDown = 0;
  std::uint64_t BatchesDiscarded = 0; ///< Sampled while down, never seen.
  std::uint64_t SummariesEmitted = 0;
};

/// One leaf: an Inline MonitorService over StreamsPerLeaf simulated
/// streams, plus the crash/restart machinery. Owns its workloads, code
/// maps, engines and samplers so batch generation survives service
/// rebuilds (the front-end outlives the monitor process it feeds).
class LeafAgent {
public:
  LeafAgent(LeafId Id, const FleetSimConfig &Config);
  ~LeafAgent();

  LeafAgent(const LeafAgent &) = delete;
  LeafAgent &operator=(const LeafAgent &) = delete;

  /// Pulls one epoch's batches from every stream and ingests them --
  /// or discards them while down (the sampler keeps sampling; a dead
  /// monitor loses data, it does not pause the program).
  void ingestEpoch();

  /// True while crashed and not yet restarted.
  bool down() const { return Down; }

  /// Kills the service at an epoch boundary. In-memory state is gone;
  /// whatever the journal/checkpoint hold survives.
  void crash();

  /// Rebuilds the service and recovers through the checkpoint ladder
  /// (cold when no persistence is configured).
  void restart();

  /// Builds this leaf's summary at \p Epoch. Requires !down().
  LeafSummary emitSummary(std::uint64_t Epoch,
                          const std::vector<double> &HistBounds,
                          std::uint32_t TopKCap);

  LeafId id() const { return Id; }
  const LeafAgentStats &stats() const { return Stats; }
  /// The live service (null while down) -- exposed for tests.
  const service::MonitorService *service() const { return Svc.get(); }

private:
  void buildService();

  struct StreamSim; // workload + map + engine + sampler

  LeafId Id;
  const FleetSimConfig &Config;
  std::vector<std::unique_ptr<StreamSim>> Sims;
  /// The leaf's durability store (with a PersistDir), opened per
  /// process like the service it is attached to.
  trace::Attachment Logs;
  std::unique_ptr<service::MonitorService> Svc;
  LeafAgentStats Stats;
  bool Down = false;
  std::uint64_t DownSince = 0;
};

/// Per-aggregator counters.
struct AggregatorStats {
  std::uint64_t MessagesIngested = 0;
  std::uint64_t DecodeFailures = 0;
  std::uint64_t EpochsStalled = 0;
  std::uint64_t ResyncAttempts = 0;
  std::uint64_t ResyncSuccesses = 0;
};

/// Per-link counters beyond what the injector records.
struct LinkStats {
  std::uint64_t Sent = 0;
  std::uint64_t Delivered = 0;
  faults::LinkFaultStats Faults;
};

/// One child's view from its parent: freshness bookkeeping plus the
/// exponential-backoff re-sync schedule.
struct ChildSync {
  std::uint64_t LastHeardEpoch = 0; ///< 0 = never.
  std::uint64_t ConsecutiveMisses = 0;
  std::uint64_t NextResyncEpoch = 0;
};

/// The per-subtree row of a \ref FleetView: how much of each child's
/// subtree the merged state actually covers, and how stale it runs.
struct SubtreeView {
  std::uint32_t Child = 0; ///< Leaf id or aggregator id.
  bool ChildIsLeaf = false;
  std::uint64_t LeavesExpected = 0;
  std::uint64_t LeavesPresent = 0;  ///< Within the staleness horizon.
  std::uint64_t MaxStaleness = 0;   ///< Epochs, over present entries.
};

/// A rollup with its honesty attached: exact coverage, staleness, and
/// the per-subtree breakdown. The graceful-degradation contract is that
/// consumers get (data, coverage) pairs -- a view over 13 of 16 leaves
/// says so, arithmetically.
struct FleetView {
  std::uint64_t Epoch = 0;
  std::uint64_t LeavesTotal = 0;
  /// Leaves with an entry within the staleness horizon.
  std::uint64_t LeavesPresent = 0;
  /// Leaves whose entry exists but aged past the horizon.
  std::uint64_t LeavesExpired = 0;
  /// Max staleness in epochs over the *present* entries.
  std::uint64_t MaxStaleness = 0;
  std::vector<SubtreeView> Subtrees; ///< The root's children.
  FleetRollup Rollup; ///< Over present (non-expired) entries only.

  /// Exact coverage fraction.
  double coverage() const {
    return LeavesTotal == 0 ? 0.0
                            : static_cast<double>(LeavesPresent) /
                                  static_cast<double>(LeavesTotal);
  }

  /// Renders the view as a human-readable report (regmon-cli fleet).
  std::string render() const;
};

/// The whole deterministic fleet: leaves, links, aggregators, and the
/// epoch loop that drives them under a \ref FleetFaultPlan. Single
/// threaded by design -- determinism is the point; the thing being
/// studied is the failure semantics, not the scheduler.
class FleetSim {
public:
  FleetSim(FleetSimConfig Config, FleetFaultPlan Plan);
  ~FleetSim();

  FleetSim(const FleetSim &) = delete;
  FleetSim &operator=(const FleetSim &) = delete;

  /// Advances one epoch: crash/restart decisions, ingest, summary
  /// emission through the (faulty) links, bottom-up aggregator merges,
  /// and re-sync of missing children.
  void runEpoch();

  /// Runs \p N epochs.
  void run(std::uint64_t N);

  /// Epochs completed so far.
  std::uint64_t epoch() const { return Epoch; }

  /// The root's current view under the bounded-staleness horizon.
  FleetView view() const;

  const FleetTopology &topology() const { return Topo; }
  const FleetSimConfig &config() const { return Config; }
  const FleetFaultPlan &plan() const { return Plan; }

  /// Root aggregator's merged state (for differential tests).
  const FleetSummary &rootState() const;

  const LeafAgentStats &leafStats(LeafId Leaf) const;
  const AggregatorStats &aggStats(std::uint32_t Agg) const;
  const LinkStats &linkStats(std::uint32_t Link) const;
  /// Sum of \ref LinkStats::Sent message bytes over all links -- the
  /// transport cost the bench gates on.
  std::uint64_t bytesSent() const { return BytesSent; }

private:
  struct Link;       // injector + delay queue + stale cache
  struct Aggregator; // merged state + inbox + per-child sync

  /// Runs \p Bytes from child slot \p Slot through \p L's fault
  /// injector; delivered messages land in \p To's inbox in delivery
  /// order, tagged with the sender slot.
  void transmit(Link &L, std::uint32_t Slot, std::vector<std::uint8_t> Bytes,
                Aggregator &To);

  /// Pull-path recovery of one missing child; true on success.
  bool resyncChild(Aggregator &Agg, std::uint32_t Slot);

  FleetSimConfig Config;
  FleetFaultPlan Plan;
  FleetTopology Topo;
  std::vector<std::unique_ptr<LeafAgent>> LeafAgents;
  std::vector<NodeFaultInjector> CrashInjectors; ///< One per leaf.
  /// Epoch at which a down leaf restarts (meaningful only while down).
  std::vector<std::uint64_t> DownUntil;
  std::vector<std::unique_ptr<Aggregator>> Aggs;
  std::vector<std::unique_ptr<Link>> Links;
  std::uint64_t Epoch = 0;
  std::uint64_t BytesSent = 0;
};

/// Publishes \p Sim's lifetime counters and the current root view into
/// \p I (see \ref obs::makeFleetInstruments). Counters are added once --
/// call this at the end of a run (or diff scrapes yourself); gauges and
/// the stable-fraction histogram reflect the view at call time. Every
/// published number derives from deterministic sim state, so the
/// resulting Prometheus/JSON exports are byte-stable across replays.
void publishFleetMetrics(const FleetSim &Sim, const obs::FleetInstruments &I);

} // namespace regmon::fleet

#endif // REGMON_FLEET_FLEETTREE_H
