//===- tests/ChaosTest.cpp - Deterministic fault injection ----------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Chaos suite for the sampling -> service -> RTO stack: every fault the
// FaultPlan can inject is replayable bit-for-bit, the service's health
// machine quarantines and heals streams deterministically, a stalled
// worker cannot hold stop() hostage, and a failed trace deployment rolls
// back completely. Run under TSan/ASan via tools/run_sanitized_tests.sh.
//
//===----------------------------------------------------------------------===//

#include "faults/FaultPlan.h"

#include "core/RegionMonitor.h"
#include "rto/Harness.h"
#include "rto/TraceDeployments.h"
#include "sampling/Sampler.h"
#include "service/MonitorService.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace regmon;
using namespace regmon::faults;
using namespace regmon::service;

namespace {

/// One pre-recorded clean stream (same shape as ServiceConcurrencyTest).
struct RecordedStream {
  std::string WorkloadName;
  std::unique_ptr<workloads::Workload> W;
  std::unique_ptr<sim::ProgramCodeMap> Map;
  std::vector<std::vector<Sample>> Intervals;
};

RecordedStream record(const std::string &Name, std::uint64_t Seed,
                      Cycles Period = 45'000) {
  RecordedStream S;
  S.WorkloadName = Name;
  S.W = std::make_unique<workloads::Workload>(workloads::make(Name));
  S.Map = std::make_unique<sim::ProgramCodeMap>(S.W->Prog);
  sim::Engine Engine(S.W->Prog, S.W->Script, Seed);
  sampling::Sampler Sampler(Engine, {Period, 2032});
  S.Intervals = Sampler.collectIntervals();
  return S;
}

std::vector<RecordedStream> recordFleet() {
  const std::pair<const char *, std::uint64_t> Defs[] = {
      {"synthetic.steady", 21},
      {"synthetic.periodic", 22},
      {"synthetic.bottleneck", 23},
      {"synthetic.pollution", 24},
  };
  std::vector<RecordedStream> Fleet;
  Fleet.reserve(std::size(Defs));
  for (const auto &[Name, Seed] : Defs)
    Fleet.push_back(record(Name, Seed));
  return Fleet;
}

bool sameSamples(const std::vector<Sample> &A, const std::vector<Sample> &B) {
  if (A.size() != B.size())
    return false;
  for (std::size_t I = 0; I < A.size(); ++I)
    if (A[I].Pc != B[I].Pc || A[I].Time != B[I].Time ||
        A[I].DCacheMiss != B[I].DCacheMiss)
      return false;
  return true;
}

/// A config exercising every sample-level fault class at once.
FaultConfig heavyConfig() {
  FaultConfig Cfg;
  Cfg.DropRate = 0.25;
  Cfg.DuplicateRate = 0.15;
  Cfg.CorruptRate = 0.20;
  Cfg.PeriodJitterFrac = 0.5;
  Cfg.TruncateRate = 0.3;
  Cfg.PoisonRate = 0.1;
  Cfg.StallRate = 0.05;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Injector determinism and invariants
//===----------------------------------------------------------------------===//

TEST(FaultInjector, ReplayIsBitIdentical) {
  const RecordedStream S = record("synthetic.periodic", 31);
  const FaultPlan Plan(/*PlanSeed=*/42, heavyConfig());
  StreamFaultInjector A = Plan.forStream(0);
  StreamFaultInjector B = Plan.forStream(0);
  for (const std::vector<Sample> &Interval : S.Intervals) {
    EXPECT_TRUE(sameSamples(A.apply(Interval), B.apply(Interval)));
    EXPECT_EQ(A.nextBatchFault(), B.nextBatchFault());
  }
  EXPECT_EQ(A.stats().SamplesDropped, B.stats().SamplesDropped);
  EXPECT_EQ(A.stats().SamplesCorrupted, B.stats().SamplesCorrupted);
  EXPECT_EQ(A.stats().BatchesPoisoned, B.stats().BatchesPoisoned);
  EXPECT_GT(A.stats().SamplesDropped, 0u) << "heavy config must bite";
  EXPECT_GT(A.stats().SamplesCorrupted, 0u);
}

TEST(FaultInjector, ForStreamIsOrderIndependent) {
  const RecordedStream S = record("synthetic.steady", 32);
  const FaultPlan Plan(7, heavyConfig());
  // Derive stream 3's injector directly...
  StreamFaultInjector Direct = Plan.forStream(3);
  // ...and after touching other streams first, in a different order.
  const FaultPlan Same(7, heavyConfig());
  (void)Same.forStream(9);
  (void)Same.forStream(0);
  StreamFaultInjector Later = Same.forStream(3);
  EXPECT_TRUE(
      sameSamples(Direct.apply(S.Intervals[0]), Later.apply(S.Intervals[0])));
  EXPECT_EQ(Direct.nextBatchFault(), Later.nextBatchFault());
}

TEST(FaultInjector, DistinctStreamsGetDistinctFaults) {
  const RecordedStream S = record("synthetic.steady", 33);
  const FaultPlan Plan(11, heavyConfig());
  StreamFaultInjector A = Plan.forStream(0);
  StreamFaultInjector B = Plan.forStream(1);
  EXPECT_FALSE(
      sameSamples(A.apply(S.Intervals[0]), B.apply(S.Intervals[0])));
}

TEST(FaultInjector, SampleFaultsPreserveStructuralValidity) {
  // Sample-level faults are noise, not damage: whatever the injector does
  // (short of explicit poisoning), the batch must still pass the
  // service's structural validation.
  const RecordedStream S = record("synthetic.pollution", 34);
  StreamFaultInjector Inj(99, heavyConfig());
  for (const std::vector<Sample> &Interval : S.Intervals) {
    const std::vector<Sample> Faulted = Inj.apply(Interval);
    EXPECT_TRUE(structurallyValid(Faulted));
    for (const Sample &Sm : Faulted)
      EXPECT_EQ(Sm.Pc % InstrBytes, 0u);
  }
  EXPECT_GT(Inj.stats().BatchesTruncated, 0u);
}

TEST(FaultInjector, CertainDropLosesEverything) {
  FaultConfig Cfg;
  Cfg.DropRate = 1.0;
  StreamFaultInjector Inj(1, Cfg);
  const std::vector<Sample> Clean = {{0x1000, 10, false}, {0x1004, 20, true}};
  EXPECT_TRUE(Inj.apply(Clean).empty());
  EXPECT_EQ(Inj.stats().SamplesDropped, 2u);
}

TEST(FaultInjector, CertainDuplicationDoublesTheBatch) {
  FaultConfig Cfg;
  Cfg.DuplicateRate = 1.0;
  StreamFaultInjector Inj(2, Cfg);
  const std::vector<Sample> Clean = {{0x1000, 10, false}, {0x1004, 20, true}};
  EXPECT_EQ(Inj.apply(Clean).size(), 4u);
  EXPECT_EQ(Inj.stats().SamplesDuplicated, 2u);
}

TEST(FaultInjector, CorruptedPcsLandInTheConfiguredWindow) {
  FaultConfig Cfg;
  Cfg.CorruptRate = 1.0;
  StreamFaultInjector Inj(3, Cfg);
  const std::vector<Sample> Clean = {{0x1000, 10, false}, {0x1004, 20, true}};
  for (const Sample &S : Inj.apply(Clean)) {
    EXPECT_GE(S.Pc, CorruptBase);
    EXPECT_LT(S.Pc, CorruptBase + CorruptSpan * InstrBytes);
  }
  EXPECT_EQ(Inj.stats().SamplesCorrupted, 2u);
}

TEST(FaultInjector, BatchFaultStreamIndependentOfSampleFaults) {
  // Poison/stall decisions come from their own generator: interleaving
  // apply() calls must not shift which batches get poisoned.
  const RecordedStream S = record("synthetic.steady", 35);
  const FaultPlan Plan(5, heavyConfig());
  StreamFaultInjector WithApply = Plan.forStream(0);
  StreamFaultInjector Bare = Plan.forStream(0);
  for (std::size_t I = 0; I < 32; ++I) {
    (void)WithApply.apply(S.Intervals[I % S.Intervals.size()]);
    EXPECT_EQ(WithApply.nextBatchFault(), Bare.nextBatchFault());
  }
}

TEST(FaultInjector, PoisonBatchFailsStructuralValidation) {
  const RecordedStream S = record("synthetic.steady", 36);
  std::vector<Sample> Batch = S.Intervals[0];
  ASSERT_TRUE(structurallyValid(Batch));
  poisonBatch(Batch);
  EXPECT_FALSE(structurallyValid(Batch));

  std::vector<Sample> Empty;
  poisonBatch(Empty);
  EXPECT_FALSE(structurallyValid(Empty));

  std::vector<Sample> One = {{0x1000, 10, false}};
  poisonBatch(One);
  EXPECT_FALSE(structurallyValid(One));
}

//===----------------------------------------------------------------------===//
// Summary-transport faults (fleet-tree links, see fleet/FleetTree.h)
//===----------------------------------------------------------------------===//

TEST(TransportFaults, ReplayIsBitIdentical) {
  const TransportFaultConfig Cfg = {0.2, 0.2, 0.2, 0.2};
  FaultPlan Plan(77);
  LinkFaultInjector A = Plan.forLink(5, Cfg);
  LinkFaultInjector B = Plan.forLink(5, Cfg);
  for (int I = 0; I < 500; ++I)
    ASSERT_EQ(A.nextFault(), B.nextFault()) << "message " << I;
  EXPECT_EQ(A.stats().MessagesSeen, 500u);
  EXPECT_EQ(A.stats().Dropped, B.stats().Dropped);
  EXPECT_EQ(A.stats().Duplicated, B.stats().Duplicated);
  EXPECT_EQ(A.stats().Reordered, B.stats().Reordered);
  EXPECT_EQ(A.stats().Stale, B.stats().Stale);
}

TEST(TransportFaults, DistinctLinksGetDistinctFaults) {
  const TransportFaultConfig Cfg = {0.3, 0.3, 0.3, 0.3};
  FaultPlan Plan(77);
  LinkFaultInjector A = Plan.forLink(1, Cfg);
  LinkFaultInjector B = Plan.forLink(2, Cfg);
  bool Differ = false;
  for (int I = 0; I < 200 && !Differ; ++I)
    Differ = A.nextFault() != B.nextFault();
  EXPECT_TRUE(Differ);
}

TEST(TransportFaults, DecisionStreamIndependentOfFiring) {
  // The always-drawn contract: one draw per fault class per message, at a
  // fixed position in the stream, consumed whether or not another class
  // fires. Observably, each class's per-message decision pattern is
  // invariant under every other class's rate -- maxing the later classes
  // cannot shift the drop pattern, and vice versa.
  FaultPlan Plan(123);

  LinkFaultInjector DropOnly = Plan.forLink(9, {0.5, 0.0, 0.0, 0.0});
  LinkFaultInjector DropNoisy = Plan.forLink(9, {0.5, 1.0, 1.0, 1.0});
  for (int I = 0; I < 400; ++I) {
    const bool Dropped = DropOnly.nextFault() == TransportFault::Drop;
    const bool NoisyDropped = DropNoisy.nextFault() == TransportFault::Drop;
    ASSERT_EQ(Dropped, NoisyDropped) << "message " << I;
  }
  EXPECT_EQ(DropOnly.stats().Dropped, DropNoisy.stats().Dropped);
  EXPECT_GT(DropOnly.stats().Dropped, 0u);

  // Symmetric: the reorder pattern is unmoved by the stale rate behind it.
  LinkFaultInjector ReorderOnly = Plan.forLink(9, {0.0, 0.0, 0.5, 0.0});
  LinkFaultInjector ReorderNoisy = Plan.forLink(9, {0.0, 0.0, 0.5, 1.0});
  for (int I = 0; I < 400; ++I) {
    const bool Held = ReorderOnly.nextFault() == TransportFault::Reorder;
    const bool NoisyHeld = ReorderNoisy.nextFault() == TransportFault::Reorder;
    ASSERT_EQ(Held, NoisyHeld) << "message " << I;
  }
  EXPECT_GT(ReorderOnly.stats().Reordered, 0u);
}

TEST(TransportFaults, PrecedenceIsDropDuplicateReorderStale) {
  // Every class at certainty: drop wins the returned fate (and the stats
  // record the winning fate only); zeroing the winner promotes the next.
  LinkFaultInjector All(7, {1.0, 1.0, 1.0, 1.0});
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(All.nextFault(), TransportFault::Drop);
  EXPECT_EQ(All.stats().Dropped, 50u);
  EXPECT_EQ(All.stats().Duplicated + All.stats().Reordered +
                All.stats().Stale,
            0u);

  LinkFaultInjector NoDrop(7, {0.0, 1.0, 1.0, 1.0});
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(NoDrop.nextFault(), TransportFault::Duplicate);

  LinkFaultInjector NoDup(7, {0.0, 0.0, 1.0, 1.0});
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(NoDup.nextFault(), TransportFault::Reorder);

  LinkFaultInjector StaleOnly(7, {0.0, 0.0, 0.0, 1.0});
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(StaleOnly.nextFault(), TransportFault::Stale);
}

TEST(TransportFaults, DefaultConfigInjectsNothing) {
  FaultPlan Plan(9);
  LinkFaultInjector Clean = Plan.forLink(0, {});
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Clean.nextFault(), TransportFault::None);
  EXPECT_EQ(Clean.stats().MessagesSeen, 100u);
  EXPECT_EQ(Clean.stats().Dropped + Clean.stats().Duplicated +
                Clean.stats().Reordered + Clean.stats().Stale,
            0u);
}

//===----------------------------------------------------------------------===//
// Service health machine (single-threaded: admission happens at submit)
//===----------------------------------------------------------------------===//

SampleBatch validBatch(StreamId Id) {
  return {Id, {{0x1000, 10, false}, {0x1004, 20, false}}};
}

SampleBatch poisonedBatch(StreamId Id) {
  SampleBatch B = validBatch(Id);
  poisonBatch(B.Samples);
  return B;
}

StreamSnapshot streamSnap(const MonitorService &Service, StreamId Id) {
  return Service.snapshot().Streams.at(Id);
}

TEST(StreamHealthMachine, PoisonEscalatesThroughQuarantineToRecovery) {
  const RecordedStream S = record("synthetic.steady", 41);
  MonitorService Service({/*Workers=*/1, /*QueueCapacity=*/256,
                          OverflowPolicy::Block, /*ValidateBatches=*/true,
                          {}});
  const StreamId Id = Service.addStream(*S.Map);

  EXPECT_TRUE(Service.submit(validBatch(Id)));
  EXPECT_EQ(streamSnap(Service, Id).Health, StreamHealth::Healthy);

  // First poisoned batch degrades; two more (threshold 3) quarantine.
  EXPECT_FALSE(Service.submit(poisonedBatch(Id)));
  EXPECT_EQ(streamSnap(Service, Id).Health, StreamHealth::Degraded);
  EXPECT_FALSE(Service.submit(poisonedBatch(Id)));
  EXPECT_EQ(streamSnap(Service, Id).Health, StreamHealth::Degraded);
  EXPECT_FALSE(Service.submit(poisonedBatch(Id)));
  EXPECT_EQ(streamSnap(Service, Id).Health, StreamHealth::Quarantined);
  EXPECT_EQ(streamSnap(Service, Id).TimesQuarantined, 1u);
  EXPECT_EQ(streamSnap(Service, Id).PoisonedBatches, 3u);

  // The first quarantine rejects QuarantineBaseBatches (8) batches --
  // even structurally valid ones -- then admits a probe.
  for (int I = 0; I < 8; ++I)
    EXPECT_FALSE(Service.submit(validBatch(Id))) << "backoff batch " << I;
  EXPECT_EQ(streamSnap(Service, Id).QuarantinedBatches, 8u);
  EXPECT_TRUE(Service.submit(validBatch(Id))) << "probe batch";
  EXPECT_EQ(streamSnap(Service, Id).Health, StreamHealth::Recovering);
  EXPECT_EQ(streamSnap(Service, Id).Readmissions, 1u);

  // Three more clean batches complete the 4-batch streak back to Healthy.
  EXPECT_TRUE(Service.submit(validBatch(Id)));
  EXPECT_TRUE(Service.submit(validBatch(Id)));
  EXPECT_EQ(streamSnap(Service, Id).Health, StreamHealth::Recovering);
  EXPECT_TRUE(Service.submit(validBatch(Id)));
  EXPECT_EQ(streamSnap(Service, Id).Health, StreamHealth::Healthy);

  // Health rejections never count as submitted: the invariant
  // processed + dropped == submitted must stay provable after drain.
  const ServiceSnapshot Snap = Service.snapshot();
  EXPECT_EQ(Snap.BatchesSubmitted, 5u);
  EXPECT_EQ(Snap.BatchesPoisoned, 3u);
  EXPECT_EQ(Snap.BatchesQuarantined, 8u);
  Service.start();
  Service.stop();
  const ServiceSnapshot Final = Service.snapshot();
  EXPECT_EQ(Final.BatchesProcessed + Final.BatchesDropped,
            Final.BatchesSubmitted);
}

/// Submits valid batches until one is admitted; returns how many were
/// rejected first (the observed backoff length).
std::uint64_t rejectionsUntilAdmitted(MonitorService &Service, StreamId Id) {
  std::uint64_t Rejected = 0;
  while (!Service.submit(validBatch(Id)))
    ++Rejected;
  return Rejected;
}

TEST(StreamHealthMachine, BackoffDoublesPerEpisodeCapsAndResets) {
  const RecordedStream S = record("synthetic.steady", 42);
  ServiceConfig Cfg{/*Workers=*/1, /*QueueCapacity=*/1024,
                    OverflowPolicy::Block, /*ValidateBatches=*/true, {}};
  Cfg.Health.PoisonQuarantineThreshold = 1;
  Cfg.Health.QuarantineBaseBatches = 2;
  Cfg.Health.QuarantineMaxBatches = 8;
  Cfg.Health.RecoveryCleanBatches = 2;
  MonitorService Service(Cfg);
  const StreamId Id = Service.addStream(*S.Map);

  // Episode 1: a single poisoned batch quarantines (threshold 1) with the
  // base backoff of 2.
  EXPECT_FALSE(Service.submit(poisonedBatch(Id)));
  EXPECT_EQ(streamSnap(Service, Id).Health, StreamHealth::Quarantined);
  EXPECT_EQ(rejectionsUntilAdmitted(Service, Id), 2u);
  EXPECT_EQ(streamSnap(Service, Id).Health, StreamHealth::Recovering);

  // Relapse before the streak completes: episode 2 doubles to 4.
  EXPECT_FALSE(Service.submit(poisonedBatch(Id)));
  EXPECT_EQ(rejectionsUntilAdmitted(Service, Id), 4u);

  // Episodes 3 and 4: 8, then capped at 8.
  EXPECT_FALSE(Service.submit(poisonedBatch(Id)));
  EXPECT_EQ(rejectionsUntilAdmitted(Service, Id), 8u);
  EXPECT_FALSE(Service.submit(poisonedBatch(Id)));
  EXPECT_EQ(rejectionsUntilAdmitted(Service, Id), 8u);
  EXPECT_EQ(streamSnap(Service, Id).TimesQuarantined, 4u);

  // Full recovery (probe + 1 = streak of 2) forgives the history...
  EXPECT_TRUE(Service.submit(validBatch(Id)));
  EXPECT_EQ(streamSnap(Service, Id).Health, StreamHealth::Healthy);

  // ...so the next quarantine starts from the base backoff again.
  EXPECT_FALSE(Service.submit(poisonedBatch(Id)));
  EXPECT_EQ(rejectionsUntilAdmitted(Service, Id), 2u);
  EXPECT_EQ(streamSnap(Service, Id).TimesQuarantined, 5u);
}

// Regression: the per-episode doubling used to be a bare `Backoff *= 2`
// loop, which wraps to zero when the base is a high power of two and the
// ceiling sits near UINT64_MAX -- exactly the configuration where the
// operator wanted "quarantine practically forever", the wrap turned it
// into "no quarantine at all". The helper must saturate instead.
TEST(StreamHealthMachine, BackoffSaturatesInsteadOfWrappingToZero) {
  HealthConfig H;
  H.QuarantineBaseBatches = std::uint64_t{1} << 63;
  H.QuarantineMaxBatches = UINT64_MAX;
  EXPECT_EQ(quarantineBackoffBatches(H, 1), std::uint64_t{1} << 63);
  // Episode 2 doubles 2^63 -- the wrap would yield 0 here.
  EXPECT_EQ(quarantineBackoffBatches(H, 2), UINT64_MAX);
  // Far-future episodes stay pinned (and the loop stays bounded).
  EXPECT_EQ(quarantineBackoffBatches(H, 1'000'000), UINT64_MAX);

  // The everyday path is unchanged: double per episode, cap at the
  // ceiling (the service-level test drives the same schedule end to end).
  HealthConfig Normal;
  Normal.QuarantineBaseBatches = 8;
  Normal.QuarantineMaxBatches = 1024;
  EXPECT_EQ(quarantineBackoffBatches(Normal, 1), 8U);
  EXPECT_EQ(quarantineBackoffBatches(Normal, 2), 16U);
  EXPECT_EQ(quarantineBackoffBatches(Normal, 5), 128U);
  EXPECT_EQ(quarantineBackoffBatches(Normal, 8), 1024U);
  EXPECT_EQ(quarantineBackoffBatches(Normal, 50), 1024U);
  // A ceiling below the base still wins.
  Normal.QuarantineMaxBatches = 4;
  EXPECT_EQ(quarantineBackoffBatches(Normal, 1), 4U);
  EXPECT_EQ(quarantineBackoffBatches(Normal, 3), 4U);
}

TEST(StreamHealthMachine, ValidationDisabledAdmitsEverything) {
  const RecordedStream S = record("synthetic.steady", 43);
  MonitorService Service({/*Workers=*/1, /*QueueCapacity=*/64,
                          OverflowPolicy::Block, /*ValidateBatches=*/false,
                          {}});
  const StreamId Id = Service.addStream(*S.Map);
  for (int I = 0; I < 8; ++I)
    EXPECT_TRUE(Service.submit(poisonedBatch(Id)));
  const StreamSnapshot Snap = streamSnap(Service, Id);
  EXPECT_EQ(Snap.Health, StreamHealth::Healthy);
  EXPECT_EQ(Snap.PoisonedBatches, 0u);
  EXPECT_EQ(Service.snapshot().BatchesSubmitted, 8u);
}

TEST(StreamHealthMachine, HealthIsPerStream) {
  const RecordedStream S = record("synthetic.steady", 44);
  MonitorService Service({/*Workers=*/2, /*QueueCapacity=*/64,
                          OverflowPolicy::Block, /*ValidateBatches=*/true,
                          {}});
  const StreamId Sick = Service.addStream(*S.Map);
  const StreamId Fine = Service.addStream(*S.Map);
  for (int I = 0; I < 3; ++I)
    EXPECT_FALSE(Service.submit(poisonedBatch(Sick)));
  EXPECT_EQ(streamSnap(Service, Sick).Health, StreamHealth::Quarantined);
  EXPECT_TRUE(Service.submit(validBatch(Fine)));
  EXPECT_EQ(streamSnap(Service, Fine).Health, StreamHealth::Healthy);
  EXPECT_EQ(streamSnap(Service, Fine).PoisonedBatches, 0u);
}

//===----------------------------------------------------------------------===//
// End-to-end chaos: threaded service under a full fault plan
//===----------------------------------------------------------------------===//

/// Runs the recorded fleet through a threaded service with the given
/// fault plan and returns every per-stream observable: monitor totals,
/// region bounds, and health counters. Two invocations must agree
/// bit-for-bit whatever the scheduler does.
std::vector<std::uint64_t> runChaos(const std::vector<RecordedStream> &Fleet,
                                    const FaultPlan &Plan,
                                    std::size_t Workers) {
  MonitorService Service({Workers, /*QueueCapacity=*/4,
                          OverflowPolicy::Block, /*ValidateBatches=*/true,
                          {}});
  for (const RecordedStream &S : Fleet)
    Service.addStream(*S.Map);
  Service.start();

  std::vector<std::thread> Producers;
  Producers.reserve(Fleet.size());
  for (StreamId Id = 0; Id < Fleet.size(); ++Id)
    Producers.emplace_back([&, Id] {
      StreamFaultInjector Inj = Plan.forStream(Id);
      for (const std::vector<Sample> &Interval : Fleet[Id].Intervals) {
        SampleBatch Batch{Id, Inj.apply(Interval)};
        if (Inj.nextBatchFault() == BatchFault::Poison)
          poisonBatch(Batch.Samples);
        (void)Service.submit(std::move(Batch)); // rejections are the point
      }
    });
  for (std::thread &T : Producers)
    T.join();
  Service.stop();

  std::vector<std::uint64_t> Result;
  const ServiceSnapshot Snap = Service.snapshot();
  for (StreamId Id = 0; Id < Fleet.size(); ++Id) {
    const core::RegionMonitor &Monitor = Service.monitor(Id);
    Result.push_back(Monitor.intervals());
    Result.push_back(Monitor.totalPhaseChanges());
    Result.push_back(Monitor.formationTriggers());
    Result.push_back(Monitor.totalSamples());
    Result.push_back(Monitor.regions().size());
    for (const core::Region &R : Monitor.regions()) {
      Result.push_back(R.Start);
      Result.push_back(R.End);
    }
    const StreamSnapshot &St = Snap.Streams[Id];
    Result.push_back(static_cast<std::uint64_t>(St.Health));
    Result.push_back(St.PoisonedBatches);
    Result.push_back(St.QuarantinedBatches);
    Result.push_back(St.TimesQuarantined);
    Result.push_back(St.Readmissions);
    Result.push_back(St.BatchesProcessed);
  }
  return Result;
}

TEST(ChaosReplay, ThreadedFaultedRunsAreBitIdentical) {
  const std::vector<RecordedStream> Fleet = recordFleet();
  const FaultPlan Plan(0xfeedULL, heavyConfig());
  const std::vector<std::uint64_t> A = runChaos(Fleet, Plan, 3);
  const std::vector<std::uint64_t> B = runChaos(Fleet, Plan, 3);
  EXPECT_EQ(A, B);
}

TEST(ChaosReplay, ResultsIndependentOfWorkerCount) {
  // Shard routing changes with the worker count, but per-stream results
  // must not: admission is decided at submit time and each stream's
  // batches stay ordered on whichever shard they land.
  const std::vector<RecordedStream> Fleet = recordFleet();
  const FaultPlan Plan(0xbeefULL, heavyConfig());
  EXPECT_EQ(runChaos(Fleet, Plan, 1), runChaos(Fleet, Plan, 4));
}

TEST(ChaosReplay, PoisonedStreamsHealAfterTheStorm) {
  // A stream whose collector is poisoned for a while and then heals must
  // end Healthy and process every post-storm batch.
  const RecordedStream S =
      record("synthetic.periodic", 45, /*Period=*/9'000);
  ASSERT_GE(S.Intervals.size(), 24u);
  MonitorService Service({/*Workers=*/2, /*QueueCapacity=*/8,
                          OverflowPolicy::Block, /*ValidateBatches=*/true,
                          {}});
  const StreamId Id = Service.addStream(*S.Map);
  Service.start();

  std::uint64_t Admitted = 0;
  for (std::size_t I = 0; I < S.Intervals.size(); ++I) {
    SampleBatch Batch{Id, S.Intervals[I]};
    if (I < 3) // the storm: three consecutive poisoned deliveries
      poisonBatch(Batch.Samples);
    if (Service.submit(std::move(Batch)))
      ++Admitted;
  }
  Service.stop();

  const StreamSnapshot Snap = streamSnap(Service, Id);
  EXPECT_EQ(Snap.Health, StreamHealth::Healthy);
  EXPECT_EQ(Snap.TimesQuarantined, 1u);
  EXPECT_EQ(Snap.PoisonedBatches, 3u);
  EXPECT_EQ(Snap.QuarantinedBatches, 8u);
  EXPECT_EQ(Snap.BatchesProcessed, Admitted);
  // Everything after the backoff window flowed through.
  EXPECT_EQ(Admitted, S.Intervals.size() - 3 - 8);
  EXPECT_EQ(Service.monitor(Id).intervals(), Admitted);
}

TEST(ChaosReplay, StalledWorkerDoesNotHoldStopHostage) {
  // A worker hook that stalls forever -- but polls stopRequested() as the
  // contract demands -- must not block stop() beyond its polling period.
  const RecordedStream S = record("synthetic.steady", 46);
  MonitorService Service({/*Workers=*/1, /*QueueCapacity=*/8,
                          OverflowPolicy::Block, /*ValidateBatches=*/true,
                          {}});
  const StreamId Id = Service.addStream(*S.Map);
  std::atomic<bool> Stalled{false};
  Service.setWorkerHook([&](std::size_t, const SampleBatch &) {
    Stalled.store(true, std::memory_order_release);
    while (!Service.stopRequested())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  ASSERT_TRUE(Service.submit({Id, S.Intervals[0]}));
  Service.start();
  while (!Stalled.load(std::memory_order_acquire))
    std::this_thread::yield();

  const auto T0 = std::chrono::steady_clock::now();
  Service.stop();
  const auto Elapsed = std::chrono::steady_clock::now() - T0;
  EXPECT_LT(Elapsed, std::chrono::seconds(10))
      << "stop() must be bounded by the hook's polling period";
  EXPECT_EQ(Service.snapshot().BatchesProcessed, 1u)
      << "the stalled batch still drains";
}

TEST(ChaosReplay, DropOldestOverflowStormConservesAccounting) {
  // Producers race tiny drop-oldest queues while workers drain: no
  // deadlock, and every submitted batch is processed, dropped or still
  // queued -- never lost.
  const RecordedStream S = record("synthetic.steady", 47);
  MonitorService Service({/*Workers=*/2, /*QueueCapacity=*/2,
                          OverflowPolicy::DropOldest,
                          /*ValidateBatches=*/true, {}});
  constexpr std::size_t StreamCount = 4;
  std::vector<StreamId> Ids;
  for (std::size_t I = 0; I < StreamCount; ++I)
    Ids.push_back(Service.addStream(*S.Map));
  Service.start();

  constexpr std::size_t PerStream = 200;
  std::vector<std::thread> Producers;
  for (const StreamId Id : Ids)
    Producers.emplace_back([&, Id] {
      for (std::size_t I = 0; I < PerStream; ++I)
        ASSERT_TRUE(Service.submit(validBatch(Id)))
            << "drop-oldest submissions never block or fail while running";
    });
  for (std::thread &T : Producers)
    T.join();
  Service.stop();

  const ServiceSnapshot Snap = Service.snapshot();
  EXPECT_EQ(Snap.BatchesSubmitted, StreamCount * PerStream);
  EXPECT_EQ(Snap.BatchesProcessed + Snap.BatchesDropped,
            Snap.BatchesSubmitted);
  EXPECT_EQ(Snap.QueueDepth, 0u);
}

//===----------------------------------------------------------------------===//
// Degraded-mode monitoring: under-sampling is missing evidence
//===----------------------------------------------------------------------===//

TEST(DegradedMode, DetectorGateSkipsUndersampledHistograms) {
  const auto Metric = core::makeSimilarity(core::SimilarityKind::Pearson);
  core::LocalDetectorConfig Cfg;
  Cfg.MinObserveSamples = 100;
  core::LocalPhaseDetector Det(/*InstrCount=*/8, *Metric, Cfg);

  // A well-sampled histogram advances the machine...
  std::vector<std::uint32_t> Full(8, 50); // 400 samples
  Det.observe(Full);
  EXPECT_EQ(Det.observedIntervals(), 1u);
  EXPECT_EQ(Det.skippedUndersampled(), 0u);

  // ...a sparse one is discounted entirely: no state change, no phase
  // change, not even an observation.
  std::vector<std::uint32_t> Sparse(8, 0);
  Sparse[0] = 3;
  const core::LocalPhaseState Before = Det.state();
  Det.observe(Sparse);
  EXPECT_EQ(Det.state(), Before);
  EXPECT_EQ(Det.observedIntervals(), 1u);
  EXPECT_EQ(Det.skippedUndersampled(), 1u);
  EXPECT_FALSE(Det.lastObservationChangedPhase());

  // The gate disabled (the paper's configuration) observes everything.
  core::LocalPhaseDetector Ungated(8, *Metric, {});
  Ungated.observe(Sparse);
  EXPECT_EQ(Ungated.observedIntervals(), 1u);
  EXPECT_EQ(Ungated.skippedUndersampled(), 0u);
}

TEST(DegradedMode, MonitorDiscountsUndersampledIntervals) {
  const RecordedStream S = record("synthetic.periodic", 48);
  core::RegionMonitorConfig Cfg;
  Cfg.MinIntervalSamples = 64;
  core::RegionMonitor Monitor(*S.Map, Cfg);

  // Feed the clean stream, but truncate every third interval to a stub
  // far below the gate.
  std::uint64_t Truncated = 0;
  for (std::size_t I = 0; I < S.Intervals.size(); ++I) {
    if (I % 3 == 2) {
      const std::vector<Sample> Stub(S.Intervals[I].begin(),
                                     S.Intervals[I].begin() + 10);
      Monitor.observeInterval(Stub);
      ++Truncated;
    } else {
      Monitor.observeInterval(S.Intervals[I]);
    }
  }
  EXPECT_EQ(Monitor.intervals(), S.Intervals.size());
  EXPECT_EQ(Monitor.undersampledIntervals(), Truncated);

  // An undersampled interval must never have triggered formation: with
  // only 10 samples the UCR fraction is high, but it is evidence of
  // nothing. Compare against an ungated monitor over the same input.
  core::RegionMonitor Ungated(*S.Map, {});
  for (std::size_t I = 0; I < S.Intervals.size(); ++I) {
    if (I % 3 == 2) {
      const std::vector<Sample> Stub(S.Intervals[I].begin(),
                                     S.Intervals[I].begin() + 10);
      Ungated.observeInterval(Stub);
    } else {
      Ungated.observeInterval(S.Intervals[I]);
    }
  }
  EXPECT_EQ(Ungated.undersampledIntervals(), 0u);
  EXPECT_LE(Monitor.formationTriggers(), Ungated.formationTriggers());
}

TEST(DegradedMode, GateIsInertOnCleanWellSampledStreams) {
  // On a clean stream every interval clears a small gate, so the gated
  // monitor must agree with the paper's configuration exactly.
  const RecordedStream S = record("synthetic.bottleneck", 49);
  core::RegionMonitorConfig Gated;
  Gated.MinIntervalSamples = 1;
  Gated.Lpd.MinObserveSamples = 1;
  core::RegionMonitor A(*S.Map, Gated);
  core::RegionMonitor B(*S.Map, {});
  for (const std::vector<Sample> &Interval : S.Intervals) {
    A.observeInterval(Interval);
    B.observeInterval(Interval);
  }
  EXPECT_EQ(A.totalPhaseChanges(), B.totalPhaseChanges());
  EXPECT_EQ(A.formationTriggers(), B.formationTriggers());
  EXPECT_EQ(A.regions().size(), B.regions().size());
  EXPECT_EQ(A.undersampledIntervals(), 0u);
}

//===----------------------------------------------------------------------===//
// RTO: failed deployments roll back completely
//===----------------------------------------------------------------------===//

TEST(DeployFaults, HookRollsBackTheWholeDeployment) {
  const workloads::Workload W = workloads::make("synthetic.bottleneck");
  const rto::OptimizationModel Model{W.Opportunities};
  sim::Engine Eng(W.Prog, W.Script, 1);
  rto::TraceDeployments T(Eng, Model, /*PatchOverheadCycles=*/1000);
  T.setDeployFaultHook([](sim::LoopId) { return true; });

  EXPECT_FALSE(T.deploy(0));
  EXPECT_FALSE(T.deployed(0)) << "a failed patch leaves no trace behind";
  EXPECT_EQ(T.patches(), 0u);
  EXPECT_EQ(T.failedPatches(), 1u);
  EXPECT_DOUBLE_EQ(Eng.speedup(0), 1.0) << "rate factors restored";
  // The attempt and the rollback both hit the critical path.
  EXPECT_EQ(Eng.cycles(), 2000u);
}

TEST(DeployFaults, CertainFailureDisablesOptimizationEntirely) {
  const workloads::Workload W = workloads::make("synthetic.steady");
  const rto::OptimizationModel Model = W.model();
  rto::RtoConfig Cfg;
  Cfg.DeployFailureRate = 1.0;
  const rto::RtoResult Faulted =
      runLocal(W.Prog, W.Script, Model, 3, Cfg);
  EXPECT_EQ(Faulted.Patches, 0u);
  EXPECT_GT(Faulted.FailedPatches, 0u);

  const rto::RtoResult Clean = runLocal(W.Prog, W.Script, Model, 3, {});
  EXPECT_EQ(Clean.FailedPatches, 0u);
  EXPECT_GT(Clean.Patches, 0u);
  // Failed patches are pure overhead: the faulted run can only be slower.
  EXPECT_GT(Faulted.TotalCycles, Clean.TotalCycles);
  EXPECT_DOUBLE_EQ(Faulted.TotalWork, Clean.TotalWork)
      << "rollback must not lose scripted work";
}

TEST(DeployFaults, FailurePatternReplaysAcrossRunsAndStrategies) {
  const workloads::Workload W = workloads::make("synthetic.periodic");
  const rto::OptimizationModel Model = W.model();
  rto::RtoConfig Cfg;
  Cfg.DeployFailureRate = 0.5;
  Cfg.DeployFailureSeed = 77;
  const rto::RtoResult A = runLocal(W.Prog, W.Script, Model, 3, Cfg);
  const rto::RtoResult B = runLocal(W.Prog, W.Script, Model, 3, Cfg);
  EXPECT_EQ(A.TotalCycles, B.TotalCycles);
  EXPECT_EQ(A.Patches, B.Patches);
  EXPECT_EQ(A.FailedPatches, B.FailedPatches);
  EXPECT_GT(A.FailedPatches, 0u);

  // The baseline strategy is subject to the same injected failures.
  const rto::RtoResult Orig = runOriginal(W.Prog, W.Script, Model, 3, Cfg);
  EXPECT_GT(Orig.FailedPatches, 0u);
}

} // namespace
