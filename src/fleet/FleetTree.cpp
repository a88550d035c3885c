//===- fleet/FleetTree.cpp - Fault-tolerant aggregation tree --------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetTree.h"

#include "sampling/Sampler.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "support/TextTable.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cassert>

using namespace regmon;
using namespace regmon::fleet;

namespace {

/// Cap on the re-sync backoff exponent: a parent retries a missing child
/// after 1, 2, 4, ... up to 2^cap epochs. Repro choice.
constexpr std::uint64_t ResyncBackoffCapLog2 = 4;

} // namespace

//===----------------------------------------------------------------------===//
// FleetTopology
//===----------------------------------------------------------------------===//

FleetTopology FleetTopology::build(std::uint32_t Leaves,
                                   std::uint32_t FanoutIn) {
  FleetTopology T;
  T.NumLeaves = std::max<std::uint32_t>(Leaves, 1);
  T.Fanout = std::max<std::uint32_t>(FanoutIn, 2);
  T.LeafParent.assign(T.NumLeaves, NoNode);

  // Level 1: group leaves under aggregators.
  std::vector<std::uint32_t> Level; // agg ids of the level being built
  for (std::uint32_t First = 0; First < T.NumLeaves; First += T.Fanout) {
    AggNode N;
    N.Id = static_cast<std::uint32_t>(T.Aggs.size());
    N.Level = 1;
    const std::uint32_t Last = std::min(First + T.Fanout, T.NumLeaves);
    for (std::uint32_t L = First; L < Last; ++L) {
      N.ChildLeaves.push_back(L);
      N.LeavesUnder.push_back(L);
      T.LeafParent[L] = N.Id;
    }
    Level.push_back(N.Id);
    T.Aggs.push_back(std::move(N));
  }
  T.NumLevels = 1;

  // Upper levels: group aggregators until one root remains. Ids ascend
  // with level, so iterating aggregators in id order is bottom-up.
  while (Level.size() > 1) {
    ++T.NumLevels;
    std::vector<std::uint32_t> Next;
    for (std::size_t First = 0; First < Level.size(); First += T.Fanout) {
      AggNode N;
      N.Id = static_cast<std::uint32_t>(T.Aggs.size());
      N.Level = T.NumLevels;
      const std::size_t Last = std::min(First + T.Fanout, Level.size());
      for (std::size_t I = First; I < Last; ++I) {
        const std::uint32_t Child = Level[I];
        N.ChildAggs.push_back(Child);
        T.Aggs[Child].Parent = N.Id;
        N.LeavesUnder.insert(N.LeavesUnder.end(),
                             T.Aggs[Child].LeavesUnder.begin(),
                             T.Aggs[Child].LeavesUnder.end());
      }
      Next.push_back(N.Id);
      T.Aggs.push_back(std::move(N));
    }
    Level = std::move(Next);
  }
  T.Root = Level.front();
  return T;
}

//===----------------------------------------------------------------------===//
// Leaf summaries
//===----------------------------------------------------------------------===//

LeafSummary fleet::buildLeafSummary(const service::MonitorService &Svc,
                                    LeafId Leaf, std::uint64_t Epoch,
                                    service::StreamId FirstStream,
                                    std::uint32_t NumStreams,
                                    std::uint32_t FirstGlobalStream,
                                    const std::vector<double> &HistBounds,
                                    std::uint32_t TopKCap,
                                    std::uint64_t Crashes) {
  LeafSummary S;
  S.Leaf = Leaf;
  S.Epoch = Epoch;
  S.StableHist = MergeableHistogram(HistBounds);
  S.TopK = TopKSketch(TopKCap);
  S.Stats.Streams = NumStreams;
  S.Stats.Crashes = Crashes;

  const service::ServiceSnapshot Snap = Svc.snapshot();
  for (std::uint32_t I = 0; I < NumStreams; ++I) {
    const service::StreamId Id = FirstStream + I;
    const service::StreamSnapshot &St = Snap.Streams[Id];
    S.Stats.BatchesProcessed += St.BatchesProcessed;
    S.Stats.Intervals += St.IntervalsProcessed;
    S.Stats.PhaseChanges += St.PhaseChanges;
    S.Stats.FormationTriggers += St.FormationTriggers;
    S.Stats.TotalSamples += St.TotalSamples;
    S.Stats.UcrSamples += St.UcrSamples;
    if (St.Health != service::StreamHealth::Healthy)
      ++S.Stats.QuarantinedStreams;

    // Per-region detail straight from the monitor (quiescent or Inline
    // services only -- see the header contract).
    const core::RegionMonitor &Mon = Svc.monitor(Id);
    for (core::RegionId R : Mon.activeRegionIds()) {
      const core::RegionStats &RS = Mon.stats(R);
      ++S.Stats.ActiveRegions;
      const double Stable = RS.stableFraction();
      if (Stable >= 0.5)
        ++S.Stats.StableRegions;
      S.StableHist.add(Stable);
      S.TopK.add({FirstGlobalStream + I, R, RS.PhaseChanges});
    }
  }
  return S;
}

//===----------------------------------------------------------------------===//
// LeafAgent
//===----------------------------------------------------------------------===//

/// One stream's deterministic sample source. Owns the workload copy so
/// the engine's references stay valid across service rebuilds -- the
/// front-end outlives the monitor process it feeds.
struct LeafAgent::StreamSim {
  StreamSim(const std::string &Name, Cycles Period, std::uint64_t EngineSeed)
      : W(workloads::make(Name)), Map(W.Prog),
        Eng(W.Prog, W.Script, EngineSeed), Smp(Eng, {Period, 2032}) {}

  workloads::Workload W;
  sim::ProgramCodeMap Map;
  sim::Engine Eng;
  sampling::Sampler Smp;
  bool Ended = false;
};

LeafAgent::LeafAgent(LeafId IdIn, const FleetSimConfig &Cfg)
    : Id(IdIn), Config(Cfg) {
  Sims.reserve(Config.StreamsPerLeaf);
  for (std::uint32_t S = 0; S < Config.StreamsPerLeaf; ++S) {
    const std::uint64_t Global =
        static_cast<std::uint64_t>(Id) * Config.StreamsPerLeaf + S;
    Sims.push_back(std::make_unique<StreamSim>(
        Config.Workload, Config.PeriodCycles, Config.Seed + Global));
  }
  buildService();
}

LeafAgent::~LeafAgent() = default;

void LeafAgent::buildService() {
  service::ServiceConfig SC;
  SC.Workers = 1;
  SC.QueueCapacity = 8; // unused in Inline mode
  SC.Inline = true;
  Svc = std::make_unique<service::MonitorService>(SC);
  for (const auto &Sim : Sims)
    Svc->addStream(Sim->Map);
  trace::AttachSpec Spec;
  if (!Config.PersistDir.empty())
    Spec.Dir = Config.PersistDir + "/leaf" + std::to_string(Id);
  Logs = trace::attach(*Svc, Spec);
  if (Logs.Store) {
    if (Stats.Crashes > 0) {
      ++Stats.Restores;
      if (Logs.Restored == service::RestoreOutcome::ColdStart)
        ++Stats.ColdRestores;
    }
  } else if (Stats.Crashes > 0) {
    // No durability configured: the restart is a restore in name only.
    ++Stats.Restores;
    ++Stats.ColdRestores;
  }
  Svc->start();
}

void LeafAgent::ingestEpoch() {
  std::vector<Sample> Buffer;
  for (std::uint32_t S = 0; S < Sims.size(); ++S) {
    StreamSim &Sim = *Sims[S];
    for (std::uint32_t B = 0; B < Config.BatchesPerEpoch; ++B) {
      if (Sim.Ended)
        break;
      if (!Sim.Smp.fillBuffer(Buffer)) {
        Sim.Ended = true;
        break;
      }
      // The sampler ran either way; a dead monitor just never sees the
      // buffer (counted, so tests can reconcile totals arithmetically).
      if (Down)
        ++Stats.BatchesDiscarded;
      else
        Svc->submit({S, Buffer});
    }
  }
  if (Down)
    ++Stats.EpochsDown;
}

void LeafAgent::crash() {
  assert(!Down && "already down");
  ++Stats.Crashes;
  Down = true;
  // The process is gone: in-memory monitors, counters, open files,
  // everything. The journal and snapshots (if any) are on disk and
  // survive.
  Svc.reset();
  Logs = {};
}

void LeafAgent::restart() {
  assert(Down && "not down");
  Down = false;
  buildService();
}

LeafSummary LeafAgent::emitSummary(std::uint64_t Epoch,
                                   const std::vector<double> &HistBounds,
                                   std::uint32_t TopKCap) {
  assert(!Down && "a dead leaf emits nothing");
  ++Stats.SummariesEmitted;
  if (Logs.Store && Config.CheckpointEveryEpochs > 0 &&
      Epoch % Config.CheckpointEveryEpochs == 0)
    Svc->checkpoint();
  return buildLeafSummary(
      *Svc, Id, Epoch, /*FirstStream=*/0,
      static_cast<std::uint32_t>(Sims.size()),
      static_cast<std::uint32_t>(Id * Config.StreamsPerLeaf), HistBounds,
      TopKCap, Stats.Crashes);
}

//===----------------------------------------------------------------------===//
// FleetSim internals
//===----------------------------------------------------------------------===//

/// One child -> parent edge with its fault injector and the two pieces of
/// state the fault semantics need: a delay queue (Reorder holds a message
/// one epoch and delivers it after its successor) and the last delivered
/// payload (Stale re-delivers it in place of the current message, like a
/// retry queue replaying an acknowledged send).
struct FleetSim::Link {
  explicit Link(faults::LinkFaultInjector Inj) : Injector(std::move(Inj)) {}

  faults::LinkFaultInjector Injector;
  std::vector<std::vector<std::uint8_t>> Delayed;
  std::vector<std::uint8_t> LastDelivered;
  LinkStats Stats;
};

/// One interior node: the merged semilattice state, the inbox its
/// children's links deliver into (tagged with the sender slot, as a real
/// receiver would know its sockets), and the freshness ledger driving
/// re-sync.
struct FleetSim::Aggregator {
  struct InMsg {
    std::uint32_t Slot;
    std::vector<std::uint8_t> Bytes;
  };

  std::uint32_t Id = 0;
  FleetSummary Merged;
  NodeFaultInjector Stall;
  std::vector<InMsg> Inbox;
  std::vector<ChildSync> Children; ///< Indexed like the topology node's.
  AggregatorStats Stats;
  bool StalledThisEpoch = false;

  Aggregator(std::uint32_t IdIn, NodeFaultInjector StallIn,
             std::size_t NumChildren)
      : Id(IdIn), Stall(std::move(StallIn)), Children(NumChildren) {}
};

FleetSim::FleetSim(FleetSimConfig Cfg, FleetFaultPlan PlanIn)
    : Config(std::move(Cfg)), Plan(std::move(PlanIn)),
      Topo(FleetTopology::build(Config.Leaves, Config.Fanout)) {
  LeafAgents.reserve(Topo.leaves());
  CrashInjectors.reserve(Topo.leaves());
  DownUntil.assign(Topo.leaves(), 0);
  for (std::uint32_t L = 0; L < Topo.leaves(); ++L) {
    LeafAgents.push_back(std::make_unique<LeafAgent>(L, Config));
    CrashInjectors.push_back(Plan.forLeaf(L));
  }
  Aggs.reserve(Topo.aggs().size());
  for (const FleetTopology::AggNode &N : Topo.aggs()) {
    const std::size_t Children =
        N.Level == 1 ? N.ChildLeaves.size() : N.ChildAggs.size();
    Aggs.push_back(std::make_unique<Aggregator>(N.Id, Plan.forAggregator(N.Id),
                                                Children));
  }
  // One link per non-root node's uplink: leaves first, then aggregators.
  // The root's slot exists but is never used, keeping link ids dense and
  // equal to FleetTopology's numbering.
  const std::uint32_t NumLinks =
      Topo.leaves() + static_cast<std::uint32_t>(Topo.aggs().size());
  Links.reserve(NumLinks);
  for (std::uint32_t I = 0; I < NumLinks; ++I)
    Links.push_back(std::make_unique<Link>(Plan.forLink(I)));
}

FleetSim::~FleetSim() = default;

void FleetSim::transmit(Link &L, std::uint32_t Slot,
                        std::vector<std::uint8_t> Bytes, Aggregator &To) {
  ++L.Stats.Sent;
  BytesSent += Bytes.size();
  const faults::TransportFault Fate = L.Injector.nextFault();
  // Anything the link held back last epoch goes out *after* this epoch's
  // message ("delayed one round, delivered after its successor").
  std::vector<std::vector<std::uint8_t>> Flush = std::move(L.Delayed);
  L.Delayed.clear();

  switch (Fate) {
  case faults::TransportFault::None:
    L.LastDelivered = Bytes;
    ++L.Stats.Delivered;
    To.Inbox.push_back({Slot, std::move(Bytes)});
    break;
  case faults::TransportFault::Drop:
    break;
  case faults::TransportFault::Duplicate:
    L.LastDelivered = Bytes;
    L.Stats.Delivered += 2;
    To.Inbox.push_back({Slot, Bytes});
    To.Inbox.push_back({Slot, std::move(Bytes)});
    break;
  case faults::TransportFault::Reorder:
    L.Delayed.push_back(std::move(Bytes));
    break;
  case faults::TransportFault::Stale:
    // The retry queue replays the previous payload; the fresh one is
    // lost. Nothing to replay on a virgin link.
    if (!L.LastDelivered.empty()) {
      ++L.Stats.Delivered;
      To.Inbox.push_back({Slot, L.LastDelivered});
    }
    break;
  }
  for (auto &Old : Flush) {
    L.LastDelivered = Old;
    ++L.Stats.Delivered;
    To.Inbox.push_back({Slot, std::move(Old)});
  }
  L.Stats.Faults = L.Injector.stats();
}

bool FleetSim::resyncChild(Aggregator &Agg, std::uint32_t Slot) {
  const FleetTopology::AggNode &Node = Topo.aggs()[Agg.Id];
  ++Agg.Stats.ResyncAttempts;
  if (Node.Level == 1) {
    LeafAgent &Leaf = *LeafAgents[Node.ChildLeaves[Slot]];
    if (Leaf.down())
      return false;
    // Pull path: a direct state fetch over the reliable control channel,
    // bypassing the lossy summary feed. The summary is rebuilt at the
    // current epoch, so a successful re-sync fully restores freshness.
    Agg.Merged.absorb(
        Leaf.emitSummary(Epoch, stableFractionBounds(), TopKCapacity));
    return true;
  }
  const Aggregator &Child = *Aggs[Node.ChildAggs[Slot]];
  if (Child.StalledThisEpoch)
    return false; // A stalled process serves no pulls either.
  Agg.Merged.merge(Child.Merged);
  return true;
}

void FleetSim::runEpoch() {
  ++Epoch;

  // 1. Crash/restart at the epoch boundary. The crash draw is always
  //    consumed -- even for leaves already down -- so the schedule never
  //    depends on downstream effects.
  for (std::uint32_t L = 0; L < Topo.leaves(); ++L) {
    LeafAgent &Leaf = *LeafAgents[L];
    const bool Fires = CrashInjectors[L].nextFires();
    if (Leaf.down()) {
      if (Epoch >= DownUntil[L])
        Leaf.restart();
    } else if (Fires) {
      Leaf.crash();
      DownUntil[L] = Epoch + Plan.config().LeafRestartEpochs;
    }
  }

  // 2. Ingest: every leaf pulls its epoch's batches (discarded while
  //    down -- the front-end keeps sampling regardless).
  for (auto &Leaf : LeafAgents)
    Leaf->ingestEpoch();

  // 3. Live leaves emit summaries onto their uplinks.
  for (std::uint32_t L = 0; L < Topo.leaves(); ++L) {
    LeafAgent &Leaf = *LeafAgents[L];
    if (Leaf.down())
      continue;
    const FleetTopology::AggNode &Parent = Topo.aggs()[Topo.parentOfLeaf(L)];
    const auto SlotIt =
        std::find(Parent.ChildLeaves.begin(), Parent.ChildLeaves.end(), L);
    transmit(*Links[Topo.leafLink(L)],
             static_cast<std::uint32_t>(SlotIt - Parent.ChildLeaves.begin()),
             Codec::encodeMessage(Leaf.emitSummary(
                 Epoch, stableFractionBounds(), TopKCapacity)),
             *Aggs[Parent.Id]);
  }

  // 4. Aggregators, bottom-up (ids ascend with level): drain the inbox,
  //    merge, re-sync missing children, forward upward.
  for (auto &AggPtr : Aggs) {
    Aggregator &Agg = *AggPtr;
    const FleetTopology::AggNode &Node = Topo.aggs()[Agg.Id];
    Agg.StalledThisEpoch = Agg.Stall.nextFires();
    if (Agg.StalledThisEpoch) {
      // A stalled node neither merges nor emits this epoch; queued
      // messages stay in the inbox for the next round.
      ++Agg.Stats.EpochsStalled;
      continue;
    }

    std::vector<bool> Heard(Agg.Children.size(), false);
    for (Aggregator::InMsg &Msg : Agg.Inbox) {
      ++Agg.Stats.MessagesIngested;
      bool Decoded = false;
      if (Node.Level == 1) {
        if (auto S = Codec::decodeMessage(Msg.Bytes)) {
          Agg.Merged.absorb(*S);
          Decoded = true;
        }
      } else {
        if (auto S = Codec::decodeState(Msg.Bytes)) {
          Agg.Merged.merge(*S);
          Decoded = true;
        }
      }
      if (Decoded)
        Heard[Msg.Slot] = true;
      else
        ++Agg.Stats.DecodeFailures;
    }
    Agg.Inbox.clear();

    // Freshness ledger + exponential-backoff re-sync. "Heard" means a
    // decodable message arrived this epoch, whatever its freshness --
    // missing children are a transport/liveness problem and get the pull
    // path; stale-but-delivered children are the semilattice's problem.
    for (std::uint32_t C = 0; C < Agg.Children.size(); ++C) {
      ChildSync &Sync = Agg.Children[C];
      if (Heard[C]) {
        Sync.LastHeardEpoch = Epoch;
        Sync.ConsecutiveMisses = 0;
        Sync.NextResyncEpoch = 0;
        continue;
      }
      ++Sync.ConsecutiveMisses;
      if (Sync.NextResyncEpoch == 0 || Epoch >= Sync.NextResyncEpoch) {
        if (resyncChild(Agg, C)) {
          ++Agg.Stats.ResyncSuccesses;
          Sync.LastHeardEpoch = Epoch;
          Sync.ConsecutiveMisses = 0;
          Sync.NextResyncEpoch = 0;
        } else {
          const std::uint64_t Shift =
              std::min(Sync.ConsecutiveMisses, ResyncBackoffCapLog2);
          Sync.NextResyncEpoch = Epoch + (1ULL << Shift);
        }
      }
    }

    if (Node.Parent != NoNode) {
      const FleetTopology::AggNode &Parent = Topo.aggs()[Node.Parent];
      const auto SlotIt = std::find(Parent.ChildAggs.begin(),
                                    Parent.ChildAggs.end(), Node.Id);
      transmit(*Links[Topo.aggLink(Agg.Id)],
               static_cast<std::uint32_t>(SlotIt - Parent.ChildAggs.begin()),
               Codec::encodeState(Agg.Merged), *Aggs[Node.Parent]);
    }
  }
}

void FleetSim::run(std::uint64_t N) {
  for (std::uint64_t I = 0; I < N; ++I)
    runEpoch();
}

const FleetSummary &FleetSim::rootState() const {
  return Aggs[Topo.root()]->Merged;
}

const LeafAgentStats &FleetSim::leafStats(LeafId Leaf) const {
  return LeafAgents[Leaf]->stats();
}

const AggregatorStats &FleetSim::aggStats(std::uint32_t Agg) const {
  return Aggs[Agg]->Stats;
}

const LinkStats &FleetSim::linkStats(std::uint32_t LinkId) const {
  return Links[LinkId]->Stats;
}

FleetView FleetSim::view() const {
  const FleetSummary &Root = Aggs[Topo.root()]->Merged;
  const std::uint64_t Horizon = Plan.config().MaxStalenessEpochs;
  // The bounded-staleness floor: entries below it leave coverage. The
  // expiry filter lives here, at view time -- never inside merge, which
  // must stay a pure semilattice join.
  const std::uint64_t MinEpoch =
      (Horizon == 0 || Epoch <= Horizon) ? 0 : Epoch - Horizon;

  FleetView V;
  V.Epoch = Epoch;
  V.LeavesTotal = Topo.leaves();
  for (const LeafSummary &S : Root.entries()) {
    if (MinEpoch > 0 && S.Epoch < MinEpoch) {
      ++V.LeavesExpired;
      continue;
    }
    ++V.LeavesPresent;
    V.MaxStaleness = std::max(V.MaxStaleness, Epoch - S.Epoch);
  }
  V.Rollup = rollup(Root, MinEpoch, stableFractionBounds(), TopKCapacity);

  const FleetTopology::AggNode &RootNode = Topo.aggs()[Topo.root()];
  auto subtreeRow = [&](std::uint32_t Child, bool IsLeaf,
                        const std::vector<LeafId> &Leaves) {
    SubtreeView Row;
    Row.Child = Child;
    Row.ChildIsLeaf = IsLeaf;
    Row.LeavesExpected = Leaves.size();
    for (LeafId L : Leaves) {
      const LeafSummary *S = Root.find(L);
      if (!S || (MinEpoch > 0 && S->Epoch < MinEpoch))
        continue;
      ++Row.LeavesPresent;
      Row.MaxStaleness = std::max(Row.MaxStaleness, Epoch - S->Epoch);
    }
    V.Subtrees.push_back(Row);
  };
  if (RootNode.Level == 1) {
    for (LeafId L : RootNode.ChildLeaves)
      subtreeRow(L, /*IsLeaf=*/true, {L});
  } else {
    for (std::uint32_t A : RootNode.ChildAggs)
      subtreeRow(A, /*IsLeaf=*/false, Topo.aggs()[A].LeavesUnder);
  }
  return V;
}

void fleet::publishFleetMetrics(const FleetSim &Sim,
                                const obs::FleetInstruments &I) {
  const FleetTopology &Topo = Sim.topology();
  for (std::uint32_t L = 0; L < Topo.leaves(); ++L) {
    const LeafAgentStats &S = Sim.leafStats(L);
    obs::addTo(I.SummariesEmitted, S.SummariesEmitted);
    obs::addTo(I.LeafCrashes, S.Crashes);
    obs::addTo(I.LeafRestores, S.Restores);
    obs::addTo(I.LeafColdRestores, S.ColdRestores);
    obs::addTo(I.LeafBatchesDiscarded, S.BatchesDiscarded);
  }
  for (const FleetTopology::AggNode &N : Topo.aggs()) {
    const AggregatorStats &S = Sim.aggStats(N.Id);
    obs::addTo(I.DecodeFailures, S.DecodeFailures);
    obs::addTo(I.ResyncAttempts, S.ResyncAttempts);
    obs::addTo(I.ResyncSuccesses, S.ResyncSuccesses);
    obs::addTo(I.AggEpochsStalled, S.EpochsStalled);
  }
  const std::uint32_t NumLinks =
      Topo.leaves() + static_cast<std::uint32_t>(Topo.aggs().size());
  for (std::uint32_t LinkId = 0; LinkId < NumLinks; ++LinkId) {
    const LinkStats &S = Sim.linkStats(LinkId);
    obs::addTo(I.MessagesSent, S.Sent);
    obs::addTo(I.MessagesDelivered, S.Delivered);
    obs::addTo(I.MessagesDropped, S.Faults.Dropped);
    obs::addTo(I.MessagesDuplicated, S.Faults.Duplicated);
    obs::addTo(I.MessagesReordered, S.Faults.Reordered);
    obs::addTo(I.MessagesStale, S.Faults.Stale);
  }
  obs::addTo(I.BytesSent, Sim.bytesSent());

  const FleetView V = Sim.view();
  obs::setGauge(I.Epoch, static_cast<double>(V.Epoch));
  obs::setGauge(I.LeavesTotal, static_cast<double>(V.LeavesTotal));
  obs::setGauge(I.LeavesPresent, static_cast<double>(V.LeavesPresent));
  obs::setGauge(I.LeavesExpired, static_cast<double>(V.LeavesExpired));
  obs::setGauge(I.CoverageFraction, V.coverage());
  obs::setGauge(I.MaxStalenessEpochs, static_cast<double>(V.MaxStaleness));
  // Re-observe the merged distribution bucket by bucket: with identical
  // bounds each representative value lands back in its own bucket, so
  // the exported counts equal the rollup's exactly.
  if (I.StableFraction) {
    const MergeableHistogram &H = V.Rollup.StableHist;
    for (std::size_t B = 0; B < H.counts().size(); ++B) {
      const double Rep =
          B < H.bounds().size() ? H.bounds()[B] : H.bounds().back() + 1.0;
      for (std::uint64_t N = 0; N < H.counts()[B]; ++N)
        I.StableFraction->observe(Rep);
    }
  }
}

std::string FleetView::render() const {
  std::string Out;
  Out += "epoch " + std::to_string(Epoch) + ": " +
         std::to_string(LeavesPresent) + "/" + std::to_string(LeavesTotal) +
         " leaves in view (" + TextTable::percent(coverage()) +
         " coverage, " + std::to_string(LeavesExpired) +
         " expired), max staleness " + std::to_string(MaxStaleness) +
         " epoch(s)\n";
  Out += "  rollup: " + std::to_string(Rollup.Totals.Intervals) +
         " intervals, " + std::to_string(Rollup.Totals.PhaseChanges) +
         " phase changes, " + std::to_string(Rollup.Totals.ActiveRegions) +
         " regions (" + std::to_string(Rollup.Totals.StableRegions) +
         " stable), " + std::to_string(Rollup.Totals.Crashes) +
         " leaf crash(es)\n";

  TextTable Table;
  Table.header({"subtree", "leaves", "present", "staleness"});
  for (const SubtreeView &S : Subtrees)
    Table.row({(S.ChildIsLeaf ? "leaf " : "agg ") + std::to_string(S.Child),
               TextTable::count(S.LeavesExpected),
               TextTable::count(S.LeavesPresent),
               TextTable::count(S.MaxStaleness)});
  Out += Table.render();

  if (!Rollup.TopK.entries().empty()) {
    TextTable Top;
    Top.header({"stream", "region", "local changes"});
    std::size_t Shown = 0;
    for (const TopKEntry &E : Rollup.TopK.entries()) {
      if (++Shown > 8)
        break;
      Top.row({TextTable::count(E.Stream), TextTable::count(E.Region),
               TextTable::count(E.PhaseChanges)});
    }
    Out += "  most unstable regions:\n" + Top.render();
  }
  return Out;
}
