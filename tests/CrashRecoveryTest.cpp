//===- tests/CrashRecoveryTest.cpp - Kill-point recovery tests ------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Service-level crash-safety tests: a MonitorService with persistence
// attached is "killed" at seeded points -- mid-journal-append and
// mid-snapshot-commit, via the persist layer's deterministic CrashPoint
// budgets -- and a fresh service recovering from the directory must be
// *bit-identical* (encodeState bytes) to a reference service that
// processed exactly the acknowledged work without interruption. A fuzz
// pass truncates and bit-flips every byte of a committed snapshot and
// asserts recovery degrades to journal replay with the corruption counted,
// never a crash. Run under ASan/UBSan and TSan via
// tools/run_sanitized_tests.sh.
//
//===----------------------------------------------------------------------===//

#include "service/MonitorService.h"

#include "faults/FaultPlan.h"
#include "obs/EventTracer.h"
#include "obs/Export.h"
#include "obs/Instruments.h"
#include "obs/Metrics.h"
#include "persist/Checkpoint.h"
#include "persist/Io.h"
#include "persist/Snapshot.h"
#include "persist/StateCodec.h"
#include "sampling/Sampler.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace regmon;
using namespace regmon::service;
using regmon::persist::CheckpointManager;
using regmon::persist::CrashPoint;

namespace {

/// A fresh scratch directory under the gtest temp root. Wiped first: temp
/// directories survive across test-binary runs, and an append-mode
/// journal must not inherit a previous run's records.
std::string scratchDir(const std::string &Tag) {
  static int Counter = 0;
  // The PID keeps concurrent test processes (e.g. parallel sanitizer
  // sweeps of the same binary) from wiping each other's scratch trees.
  const std::string Dir = ::testing::TempDir() + "regmon_crash_" +
                          std::to_string(::getpid()) + "_" + Tag + "_" +
                          std::to_string(Counter++);
  std::filesystem::remove_all(Dir);
  EXPECT_TRUE(persist::ensureDir(Dir));
  return Dir;
}

/// One pre-recorded stream (the service tests' pattern).
struct RecordedStream {
  std::unique_ptr<workloads::Workload> W;
  std::unique_ptr<sim::ProgramCodeMap> Map;
  std::vector<std::vector<Sample>> Intervals;
};

RecordedStream record(const std::string &Name, std::uint64_t Seed) {
  RecordedStream S;
  S.W = std::make_unique<workloads::Workload>(workloads::make(Name));
  S.Map = std::make_unique<sim::ProgramCodeMap>(S.W->Prog);
  sim::Engine Engine(S.W->Prog, S.W->Script, Seed);
  sampling::Sampler Sampler(Engine, {45'000, 2032});
  S.Intervals = Sampler.collectIntervals();
  return S;
}

std::vector<RecordedStream> smallFleet() {
  std::vector<RecordedStream> Fleet;
  Fleet.push_back(record("synthetic.steady", 1));
  Fleet.push_back(record("synthetic.periodic", 2));
  return Fleet;
}

/// Flattens a fleet into one global round-robin submission sequence. All
/// bit-identity tests submit from a single thread in this order, so the
/// journal sequence (a real submission order) is reproducible.
std::vector<SampleBatch> roundRobin(const std::vector<RecordedStream> &Fleet) {
  std::vector<SampleBatch> Batches;
  std::size_t MaxIntervals = 0;
  for (const RecordedStream &S : Fleet)
    MaxIntervals = std::max(MaxIntervals, S.Intervals.size());
  for (std::size_t I = 0; I < MaxIntervals; ++I)
    for (StreamId Id = 0; Id < Fleet.size(); ++Id)
      if (I < Fleet[Id].Intervals.size())
        Batches.push_back({Id, Fleet[Id].Intervals[I]});
  return Batches;
}

ServiceConfig testConfig() {
  return {/*Workers=*/2, /*QueueCapacity=*/8, OverflowPolicy::Block,
          /*ValidateBatches=*/true, {}};
}

std::unique_ptr<MonitorService>
makeService(const std::vector<RecordedStream> &Fleet,
            const ServiceConfig &Cfg = testConfig()) {
  auto Service = std::make_unique<MonitorService>(Cfg);
  for (const RecordedStream &S : Fleet)
    Service->addStream(*S.Map);
  return Service;
}

/// Reference: runs the first \p Count batches through an uninterrupted
/// persisted service on its own scratch directory and returns its state
/// bytes. The reference journals too, so its Meta section's sequence
/// number matches a recovered service's.
std::vector<std::uint8_t>
referenceBytes(const std::vector<RecordedStream> &Fleet,
               const std::vector<SampleBatch> &Batches, std::size_t Count) {
  CheckpointManager Store(scratchDir("ref"));
  auto Service = makeService(Fleet);
  Service->attachPersistence(Store);
  EXPECT_EQ(Service->restore(), RestoreOutcome::ColdStart);
  Service->start();
  for (std::size_t I = 0; I < Count; ++I)
    (void)Service->submit(Batches[I]); // health rejections are legitimate
  Service->stop();
  return Service->encodeState();
}

/// Decodes the committed snapshot in \p Dir, hands its sections to
/// \p Edit, and writes them back sealed as \p Version, so every CRC
/// holds and only decode can object.
void rewriteSnapshot(
    const std::string &Dir,
    const std::function<void(std::vector<persist::SnapshotSection> &)> &Edit,
    std::uint32_t Version = persist::SnapshotVersion) {
  const std::string Path = Dir + "/snapshot.bin";
  const auto Data = persist::readFileBytes(Path);
  ASSERT_TRUE(Data.has_value());
  std::vector<persist::SnapshotSection> Sections;
  ASSERT_EQ(persist::decodeSnapshot(*Data, Sections),
            persist::SnapshotError::None);
  Edit(Sections);
  persist::FileSink Sink(Path, /*Append=*/false, nullptr);
  ASSERT_TRUE(Sink.write(persist::encodeSnapshot(Sections, Version)));
  ASSERT_TRUE(Sink.close());
}

/// The health fields of a stream section, which follow its id, shard and
/// three processing counters.
struct HealthFields {
  std::uint8_t Health = 0;
  std::uint64_t Poisoned = 0, Quarantined = 0, TimesQuarantined = 0,
                Readmissions = 0, AdmissionClock = 0, Episodes = 0;
  std::uint32_t ConsecutivePoisoned = 0, CleanStreak = 0;
  std::uint64_t Backoff = 0, Served = 0;
};

/// Rewrites \p Section's health fields through \p Edit and keeps every
/// other byte.
void forgeHealth(persist::SnapshotSection &Section,
                 const std::function<void(HealthFields &)> &Edit) {
  persist::ByteReader R(Section.Payload);
  persist::ByteWriter W;
  W.u32(R.u32());
  for (int I = 0; I < 4; ++I)
    W.u64(R.u64()); // shard, batches, samples, UCR samples
  HealthFields H;
  H.Health = R.u8();
  for (std::uint64_t *F : {&H.Poisoned, &H.Quarantined, &H.TimesQuarantined,
                           &H.Readmissions, &H.AdmissionClock, &H.Episodes})
    *F = R.u64();
  H.ConsecutivePoisoned = R.u32();
  H.CleanStreak = R.u32();
  H.Backoff = R.u64();
  H.Served = R.u64();
  std::vector<std::uint8_t> Rest(R.remaining()); // controller and monitor
  ASSERT_TRUE(R.bytes(Rest));
  Edit(H);
  W.u8(H.Health);
  for (std::uint64_t F : {H.Poisoned, H.Quarantined, H.TimesQuarantined,
                          H.Readmissions, H.AdmissionClock, H.Episodes})
    W.u64(F);
  W.u32(H.ConsecutivePoisoned);
  W.u32(H.CleanStreak);
  W.u64(H.Backoff);
  W.u64(H.Served);
  W.bytes(Rest);
  Section.Payload = W.take();
}

/// The stream health events (quarantine, recovery) of \p Tracer's text
/// export, one line each.
std::string healthEvents(const obs::EventTracer &Tracer) {
  std::istringstream In(obs::exportTraceText(Tracer));
  std::string Line, Out;
  while (std::getline(In, Line))
    if (Line.find("kind=stream-") != std::string::npos)
      Out += Line + "\n";
  return Out;
}

TEST(CrashRecoveryNames, RestoreOutcomesAreDistinct) {
  std::set<std::string> Names;
  for (RestoreOutcome O :
       {RestoreOutcome::ColdStart, RestoreOutcome::JournalOnly,
        RestoreOutcome::SnapshotOnly, RestoreOutcome::SnapshotPlusJournal})
    Names.insert(toString(O));
  EXPECT_EQ(Names.size(), 4U);
}

// The recovery ladder's four outcomes, climbed in order on one directory.
TEST(CrashRecovery, RestoreOutcomeLadder) {
  const std::vector<RecordedStream> Fleet = smallFleet();
  const std::vector<SampleBatch> Batches = roundRobin(Fleet);
  ASSERT_GE(Batches.size(), 8U);
  const std::string Dir = scratchDir("ladder");

  // Empty directory: cold start.
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    EXPECT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    Service->start();
    for (std::size_t I = 0; I < 3; ++I)
      ASSERT_TRUE(Service->submit(Batches[I]));
    Service->stop();
    // No checkpoint: only the journal survives.
  }
  // Journal but no snapshot: journal-only recovery.
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    EXPECT_EQ(Service->restore(), RestoreOutcome::JournalOnly);
    EXPECT_EQ(Service->persistedSequence(), 3U);
    ASSERT_TRUE(Service->checkpoint());
  }
  // Snapshot covering the whole journal: snapshot-only.
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    EXPECT_EQ(Service->restore(), RestoreOutcome::SnapshotOnly);
    Service->start();
    for (std::size_t I = 3; I < 6; ++I)
      ASSERT_TRUE(Service->submit(Batches[I]));
    Service->stop();
  }
  // Snapshot plus newer journal records: both rungs used.
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    EXPECT_EQ(Service->restore(), RestoreOutcome::SnapshotPlusJournal);
    EXPECT_EQ(Service->persistedSequence(), 6U);
  }
}

// A clean stop + checkpoint + warm restart must be indistinguishable --
// byte for byte -- from never having restarted.
TEST(CrashRecovery, WarmRestartBitIdenticalToUninterruptedRun) {
  const std::vector<RecordedStream> Fleet = smallFleet();
  const std::vector<SampleBatch> Batches = roundRobin(Fleet);
  const std::size_t Half = Batches.size() / 2;
  const std::vector<std::uint8_t> RefHalf =
      referenceBytes(Fleet, Batches, Half);
  const std::vector<std::uint8_t> RefFull =
      referenceBytes(Fleet, Batches, Batches.size());

  const std::string Dir = scratchDir("warm");
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    Service->start();
    for (std::size_t I = 0; I < Half; ++I)
      ASSERT_TRUE(Service->submit(Batches[I]));
    Service->stop();
    EXPECT_EQ(Service->encodeState(), RefHalf);
    ASSERT_TRUE(Service->checkpoint());
  }
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::SnapshotOnly);
    EXPECT_EQ(Service->encodeState(), RefHalf) << "restored state diverged";
    Service->start();
    for (std::size_t I = Half; I < Batches.size(); ++I)
      ASSERT_TRUE(Service->submit(Batches[I]));
    Service->stop();
    EXPECT_EQ(Service->encodeState(), RefFull)
        << "continuation after warm restart diverged";
    EXPECT_EQ(Service->persistedSequence(), Batches.size());
  }
}

// Kill the process mid-journal-append at seeded byte budgets and assert
// the recovered service equals a reference that processed exactly the
// acknowledged batches. Budgets are derived from an accounting run, so
// the sweep hits just-before, exactly-at, and just-after record
// boundaries at the start, middle, and end of the run.
TEST(CrashRecovery, JournalAppendCrashSweepRecoversAcknowledgedPrefix) {
  const std::vector<RecordedStream> Fleet = smallFleet();
  std::vector<SampleBatch> Batches = roundRobin(Fleet);
  Batches.resize(std::min<std::size_t>(Batches.size(), 12));
  const std::size_t N = Batches.size();
  ASSERT_GE(N, 6U);

  // Accounting run: cumulative crash units after each acknowledged append.
  std::vector<std::uint64_t> Cum;
  {
    CheckpointManager Store(scratchDir("jsweep_acct"));
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    CrashPoint Acct = CrashPoint::unlimited();
    Store.armCrash(&Acct);
    Service->start();
    for (const SampleBatch &B : Batches) {
      ASSERT_TRUE(Service->submit(B));
      Cum.push_back(Acct.used());
    }
    Service->stop();
  }
  ASSERT_EQ(Cum.size(), N);

  std::set<std::uint64_t> Budgets = {0, 1};
  for (const std::size_t K : {std::size_t{0}, N / 2, N - 1}) {
    if (Cum[K] > 0)
      Budgets.insert(Cum[K] - 1); // torn one byte short of the record
    Budgets.insert(Cum[K]);       // exactly at the record boundary
    Budgets.insert(Cum[K] + 3);   // torn shortly into the next record
  }
  Budgets.insert(Cum.back() + 1'000'000); // never dies: all acknowledged

  for (const std::uint64_t Budget : Budgets) {
    SCOPED_TRACE("crash budget " + std::to_string(Budget));
    const std::string Dir = scratchDir("jsweep");
    std::size_t Acked = 0;
    {
      CheckpointManager Store(Dir);
      auto Service = makeService(Fleet);
      Service->attachPersistence(Store);
      ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
      CrashPoint Crash(Budget);
      Store.armCrash(&Crash);
      Service->start();
      for (const SampleBatch &B : Batches) {
        if (!Service->submit(B))
          break; // journal dead: the service refuses un-durable work
        ++Acked;
      }
      Service->stop();
      // The crashed process is abandoned with whatever torn tail it left.
    }
    if (Budget > Cum.back()) {
      EXPECT_EQ(Acked, N);
    }

    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    const RestoreOutcome Outcome = Service->restore();
    // Recovery owns every acknowledged batch, plus at most the one record
    // that was fully written when the crash denied its acknowledgement
    // (durable-but-unacked: the write landed, the flush "failed"). Never
    // fewer than acked, never more than one extra.
    const std::uint64_t Replayed = Service->persistedSequence();
    EXPECT_GE(Replayed, Acked);
    EXPECT_LE(Replayed, std::min<std::uint64_t>(Acked + 1, N));
    EXPECT_EQ(Outcome, Replayed == 0 ? RestoreOutcome::ColdStart
                                     : RestoreOutcome::JournalOnly);
    EXPECT_EQ(Service->encodeState(),
              referenceBytes(Fleet, Batches, Replayed))
        << "recovered state is not a valid submission prefix (acked="
        << Acked << " replayed=" << Replayed << ")";
  }
}

// A service attached to a journal that holds batches but started without
// restore() restarts its sequence at 1. Acknowledging its batches would
// lose them: replay ends at the first sequence that does not increase and
// repair cuts the rest. The journal refuses the append, so the service
// refuses the batch (JournalRejected) and recovery still owns every
// batch it acknowledged.
TEST(CrashRecovery, SkippedRestoreRefusesBatchesInsteadOfLosingThem) {
  const std::vector<RecordedStream> Fleet = smallFleet();
  const std::vector<SampleBatch> Batches = roundRobin(Fleet);
  ASSERT_GE(Batches.size(), 4U);
  const std::string Dir = scratchDir("norestore");
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    Service->start();
    for (std::size_t I = 0; I < 3; ++I)
      ASSERT_TRUE(Service->submit(Batches[I]));
    Service->stop();
  }
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store); // restore() skipped
    Service->start();
    EXPECT_FALSE(Service->submit(Batches[3]));
    Service->stop();
    EXPECT_EQ(Service->snapshot().BatchesRejected, 1U);
    EXPECT_EQ(Service->snapshot().BatchesProcessed, 0U);
  }
  CheckpointManager Store(Dir);
  auto Service = makeService(Fleet);
  Service->attachPersistence(Store);
  EXPECT_EQ(Service->restore(), RestoreOutcome::JournalOnly);
  EXPECT_EQ(Service->persistedSequence(), 3U);
  EXPECT_EQ(Store.counters().JournalTornTails, 0U);
  EXPECT_EQ(Service->encodeState(), referenceBytes(Fleet, Batches, 3));
}

// Kill the process inside a snapshot commit -- during the tmp write, the
// two renames, and journal compaction -- and assert recovery lands on
// either the old or the new snapshot with the journal bridging the rest:
// no kill point may lose acknowledged work or poison state.
TEST(CrashRecovery, SnapshotCommitCrashSweepNeverLosesState) {
  const std::vector<RecordedStream> Fleet = smallFleet();
  const std::vector<SampleBatch> Batches = roundRobin(Fleet);
  const std::size_t N = Batches.size();
  const std::size_t N1 = N / 3, N2 = 2 * N / 3;
  ASSERT_GT(N1, 0U);

  const std::string Base = scratchDir("csweep_base");
  // Phase A: first third, checkpoint #1.
  {
    CheckpointManager Store(Base);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    Service->start();
    for (std::size_t I = 0; I < N1; ++I)
      ASSERT_TRUE(Service->submit(Batches[I]));
    Service->stop();
    ASSERT_TRUE(Service->checkpoint());
  }
  // Phase B: second third on top, stopping just before checkpoint #2.
  std::vector<std::uint8_t> RefMid;
  std::uint64_t TotalUnits = 0;
  std::uint64_t SnapLen = 0;
  const std::string Pristine = scratchDir("csweep_pristine");
  {
    CheckpointManager Store(Base);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::SnapshotOnly);
    Service->start();
    for (std::size_t I = N1; I < N2; ++I)
      ASSERT_TRUE(Service->submit(Batches[I]));
    Service->stop();
    RefMid = Service->encodeState();
    SnapLen = RefMid.size();
    // Preserve the pre-commit directory, then run the accounting commit.
    std::filesystem::copy(Base, Pristine,
                          std::filesystem::copy_options::recursive);
    CrashPoint Acct = CrashPoint::unlimited();
    Store.armCrash(&Acct);
    ASSERT_TRUE(Service->checkpoint());
    TotalUnits = Acct.used();
  }
  ASSERT_GT(TotalUnits, SnapLen);
  const std::vector<std::uint8_t> RefFull = referenceBytes(Fleet, Batches, N);

  // Budgets: the tmp-write span, the rename window right after it, and
  // the compaction span at the end.
  std::set<std::uint64_t> Budgets = {0, 1, 2, SnapLen / 2};
  for (std::uint64_t D = 0; D <= 6; ++D)
    Budgets.insert(SnapLen + D); // around the two renames
  for (std::uint64_t D = 0; D <= 6 && D <= TotalUnits; ++D)
    Budgets.insert(TotalUnits - D); // inside compaction
  Budgets.insert(TotalUnits + 10); // clean commit

  bool SawFallback = false, SawNewSnapshot = false;
  for (const std::uint64_t Budget : Budgets) {
    SCOPED_TRACE("crash budget " + std::to_string(Budget));
    const std::string Dir = scratchDir("csweep");
    std::filesystem::remove_all(Dir);
    std::filesystem::copy(Pristine, Dir,
                          std::filesystem::copy_options::recursive);
    // Rebuild the pre-commit service from the copied directory, then
    // crash inside its checkpoint.
    {
      CheckpointManager Store(Dir);
      auto Service = makeService(Fleet);
      Service->attachPersistence(Store);
      const RestoreOutcome Outcome = Service->restore();
      EXPECT_TRUE(Outcome == RestoreOutcome::SnapshotPlusJournal)
          << toString(Outcome);
      ASSERT_EQ(Service->encodeState(), RefMid);
      CrashPoint Crash(Budget);
      Store.armCrash(&Crash);
      (void)Service->checkpoint(); // may die at any step
    }
    // Restart: recovery must reconstruct the same mid-run state...
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    const RestoreOutcome Outcome = Service->restore();
    EXPECT_NE(Outcome, RestoreOutcome::ColdStart);
    EXPECT_NE(Outcome, RestoreOutcome::JournalOnly);
    EXPECT_EQ(Service->encodeState(), RefMid)
        << "kill point corrupted or lost state (" << toString(Outcome)
        << ")";
    EXPECT_EQ(Service->persistedSequence(), N2);
    SawFallback |= Store.counters().FallbacksUsed > 0;
    SawNewSnapshot |= Outcome == RestoreOutcome::SnapshotOnly;
    EXPECT_EQ(Store.counters().ColdStarts, 0U);
    // ...and the continuation must stay bit-identical to never crashing.
    Service->start();
    for (std::size_t I = N2; I < N; ++I)
      ASSERT_TRUE(Service->submit(Batches[I]));
    Service->stop();
    EXPECT_EQ(Service->encodeState(), RefFull);
  }
  // The sweep must have exercised both sides of the commit point.
  EXPECT_TRUE(SawFallback) << "no budget landed before the commit point";
  EXPECT_TRUE(SawNewSnapshot) << "no budget completed the rename pair";
}

// Satellite: truncate and bit-flip a committed snapshot at *every* byte
// offset. Restore must reject the file cleanly (counted, no crash, no
// UB under ASan/UBSan) and fall back to journal replay, which still
// reconstructs the full acknowledged state because compaction only drops
// records the *fallback* rung covers -- and there is none here.
TEST(CrashRecovery, SnapshotFuzzEveryOffsetDegradesToJournalReplay) {
  std::vector<RecordedStream> Fleet;
  Fleet.push_back(record("synthetic.steady", 3));
  std::vector<SampleBatch> Batches = roundRobin(Fleet);
  Batches.resize(std::min<std::size_t>(Batches.size(), 3));
  const std::size_t N = Batches.size();
  ASSERT_GE(N, 2U);

  const std::string Dir = scratchDir("fuzz");
  std::vector<std::uint8_t> RefBytes;
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    Service->start();
    for (const SampleBatch &B : Batches)
      ASSERT_TRUE(Service->submit(B));
    Service->stop();
    RefBytes = Service->encodeState();
    ASSERT_TRUE(Service->checkpoint());
  }
  const std::string SnapPath = Dir + "/snapshot.bin";
  const auto Snap = persist::readFileBytes(SnapPath);
  ASSERT_TRUE(Snap.has_value());
  ASSERT_FALSE(Snap->empty());

  const auto writeSnapshot = [&](std::span<const std::uint8_t> Data) {
    persist::FileSink Sink(SnapPath, /*Append=*/false, nullptr);
    ASSERT_TRUE(Sink.write(Data));
    ASSERT_TRUE(Sink.close());
  };
  const auto expectJournalRecovery = [&](const std::string &What) {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    const RestoreOutcome Outcome = Service->restore();
    EXPECT_EQ(Outcome, RestoreOutcome::JournalOnly) << What;
    EXPECT_EQ(Store.counters().CorruptSnapshots, 1U) << What;
    EXPECT_EQ(Store.counters().ColdStarts, 1U) << What;
    EXPECT_EQ(Service->encodeState(), RefBytes) << What;
  };

  // Sanity: the intact snapshot restores without touching the journal.
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    EXPECT_EQ(Service->restore(), RestoreOutcome::SnapshotOnly);
    EXPECT_EQ(Store.counters().CorruptSnapshots, 0U);
    EXPECT_EQ(Service->encodeState(), RefBytes);
  }

  for (std::size_t Len = 0; Len < Snap->size(); ++Len) {
    writeSnapshot(std::span<const std::uint8_t>(Snap->data(), Len));
    expectJournalRecovery("truncated to " + std::to_string(Len));
  }
  for (std::size_t Off = 0; Off < Snap->size(); ++Off) {
    std::vector<std::uint8_t> Mutated = *Snap;
    Mutated[Off] ^= static_cast<std::uint8_t>(1U << (Off % 8));
    writeSnapshot(Mutated);
    expectJournalRecovery("bit flip at offset " + std::to_string(Off));
  }
}

// Chaos variant: the same warm-restart bit-identity with a fault plan
// poisoning a third of the batches. Health-machine rejections happen at
// the door *after* journaling, so replay re-runs the same refusals and
// the recovered quarantine state matches the reference exactly.
TEST(CrashRecovery, WarmRestartBitIdenticalUnderFaultInjection) {
  const std::vector<RecordedStream> Fleet = smallFleet();
  faults::FaultConfig FaultCfg;
  FaultCfg.PoisonRate = 0.34;
  const faults::FaultPlan Plan(/*PlanSeed=*/11, FaultCfg);

  // Pre-build the faulted submission sequence once; both the reference
  // and the split run submit these exact batches in this exact order.
  std::vector<SampleBatch> Batches;
  {
    std::vector<faults::StreamFaultInjector> Injectors;
    for (StreamId Id = 0; Id < Fleet.size(); ++Id)
      Injectors.push_back(Plan.forStream(Id));
    for (const SampleBatch &Clean : roundRobin(Fleet)) {
      SampleBatch B{Clean.Stream, Injectors[Clean.Stream].apply(Clean.Samples)};
      if (Injectors[Clean.Stream].nextBatchFault() ==
          faults::BatchFault::Poison)
        faults::poisonBatch(B.Samples);
      Batches.push_back(std::move(B));
    }
  }
  const std::size_t Half = Batches.size() / 2;
  const std::vector<std::uint8_t> RefFull =
      referenceBytes(Fleet, Batches, Batches.size());

  const std::string Dir = scratchDir("chaos");
  std::uint64_t PoisonedFirstHalf = 0;
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    Service->start();
    for (std::size_t I = 0; I < Half; ++I)
      (void)Service->submit(Batches[I]); // poisoned batches bounce, by design
    Service->stop();
    PoisonedFirstHalf = Service->snapshot().BatchesPoisoned;
    ASSERT_TRUE(Service->checkpoint());
  }
  EXPECT_GT(PoisonedFirstHalf, 0U) << "fault plan poisoned nothing";

  CheckpointManager Store(Dir);
  auto Service = makeService(Fleet);
  Service->attachPersistence(Store);
  const RestoreOutcome Outcome = Service->restore();
  EXPECT_EQ(Outcome, RestoreOutcome::SnapshotOnly);
  EXPECT_EQ(Service->snapshot().BatchesPoisoned, PoisonedFirstHalf)
      << "quarantine bookkeeping not restored";
  Service->start();
  for (std::size_t I = Half; I < Batches.size(); ++I)
    (void)Service->submit(Batches[I]);
  Service->stop();
  EXPECT_EQ(Service->encodeState(), RefFull);
}

// Exports count the work this process did, journal replay included;
// snapshot() counts the stream's lifetime. A service restored from a
// snapshot plus a journal tail of admitted batches therefore exports
// exactly the tail, in the service and in the monitor series alike.
TEST(CrashRecovery, ReplayedJournalTailIsCountedInTheExports) {
  const std::vector<RecordedStream> Fleet = smallFleet();
  const std::vector<SampleBatch> Batches = roundRobin(Fleet);
  constexpr std::size_t Checkpointed = 20, Tail = 10;
  ASSERT_GE(Batches.size(), Checkpointed + Tail);
  ServiceConfig Cfg = testConfig();
  Cfg.Inline = true;
  const std::string Dir = scratchDir("replay_obs");
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet, Cfg);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    Service->start();
    for (std::size_t I = 0; I < Checkpointed + Tail; ++I) {
      ASSERT_FALSE(Batches[I].Samples.empty());
      ASSERT_TRUE(Service->submit(Batches[I]));
      if (I + 1 == Checkpointed) {
        ASSERT_TRUE(Service->checkpoint());
      }
    }
    Service->stop();
  }
  CheckpointManager Store(Dir);
  obs::MetricsRegistry Registry;
  auto Service = makeService(Fleet, Cfg);
  Service->attachObservability(Registry);
  Service->attachPersistence(Store);
  ASSERT_EQ(Service->restore(), RestoreOutcome::SnapshotPlusJournal);
  const ServiceSnapshot Snap = Service->snapshot();
  EXPECT_EQ(Snap.BatchesSubmitted, Checkpointed + Tail);
  EXPECT_EQ(Snap.IntervalsProcessed, Checkpointed + Tail);
  EXPECT_EQ(Registry.counter("service_batches_submitted_total").value(), Tail);
  std::uint64_t Intervals = 0;
  for (StreamId Id = 0; Id < Fleet.size(); ++Id)
    Intervals += Registry
                     .counter("monitor_intervals_total", "",
                              obs::streamLabel(Id))
                     .value();
  EXPECT_EQ(Intervals, Tail);
}

// The admission clock stamps health events, so it is persisted with the
// rest of the health machine: a restored stream stamps the same logical
// times as one that never restarted.
TEST(CrashRecovery, RestoredHealthEventsMatchTheUninterruptedRun) {
  std::vector<RecordedStream> Fleet;
  Fleet.push_back(record("synthetic.steady", 5));
  ServiceConfig Cfg = testConfig();
  Cfg.Health.PoisonQuarantineThreshold = 1;
  Cfg.Health.QuarantineBaseBatches = 2;
  Cfg.Health.RecoveryCleanBatches = 2;
  // Eleven clean batches, one poisoned (quarantine at admission 12), then
  // clean ones that serve the backoff, probe, and recover.
  std::vector<SampleBatch> Batches = roundRobin(Fleet);
  ASSERT_GE(Batches.size(), 18U);
  Batches.resize(18);
  faults::poisonBatch(Batches[11].Samples);
  constexpr std::size_t Checkpointed = 10;

  obs::EventTracer Whole;
  std::vector<std::uint8_t> WholeState;
  {
    CheckpointManager Store(scratchDir("clock_whole"));
    obs::MetricsRegistry Registry;
    auto Service = makeService(Fleet, Cfg);
    Service->attachObservability(Registry, &Whole);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    Service->start();
    for (const SampleBatch &B : Batches)
      (void)Service->submit(B); // the poisoned batch and the backoff bounce
    Service->stop();
    WholeState = Service->encodeState();
  }
  const std::string Want = healthEvents(Whole);
  EXPECT_NE(Want.find("interval=12 stream=0 region=0 kind=stream-quarantined"),
            std::string::npos)
      << Want;
  EXPECT_NE(Want.find("kind=stream-recovered"), std::string::npos) << Want;

  const std::string Dir = scratchDir("clock_split");
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet, Cfg);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    Service->start();
    for (std::size_t I = 0; I < Checkpointed; ++I)
      ASSERT_TRUE(Service->submit(Batches[I]));
    Service->stop();
    ASSERT_TRUE(Service->checkpoint());
  }
  CheckpointManager Store(Dir);
  obs::MetricsRegistry Registry;
  obs::EventTracer Split;
  auto Service = makeService(Fleet, Cfg);
  Service->attachObservability(Registry, &Split);
  Service->attachPersistence(Store);
  ASSERT_EQ(Service->restore(), RestoreOutcome::SnapshotOnly);
  Service->start();
  for (std::size_t I = Checkpointed; I < Batches.size(); ++I)
    (void)Service->submit(Batches[I]);
  Service->stop();
  EXPECT_EQ(healthEvents(Split), Want);
  EXPECT_EQ(Service->encodeState(), WholeState);
}

// A snapshot's health state must be one the machine can reach. A forged,
// CRC-valid snapshot that claims otherwise -- e.g. a quarantine whose
// backoff no episode count produces -- is rejected like a corrupt rung,
// and recovery falls back to the journal instead of refusing the stream
// for as long as the forged state says.
TEST(CrashRecovery, UnreachableHealthStateRejectsTheRung) {
  std::vector<RecordedStream> Fleet;
  Fleet.push_back(record("synthetic.steady", 3));
  const std::vector<SampleBatch> Batches = roundRobin(Fleet);
  constexpr std::size_t N = 3;
  const HealthConfig HC = testConfig().Health;
  const std::uint64_t FirstBackoff = quarantineBackoffBatches(HC, 1);
  ASSERT_GE(Batches.size(), N + FirstBackoff + 1);
  const std::string Pristine = scratchDir("forge_pristine");
  {
    CheckpointManager Store(Pristine);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    Service->start();
    for (std::size_t I = 0; I < N; ++I)
      ASSERT_TRUE(Service->submit(Batches[I]));
    Service->stop();
    ASSERT_TRUE(Service->checkpoint());
  }
  const std::vector<std::uint8_t> RefBytes = referenceBytes(Fleet, Batches, N);

  const auto forged = [&](const std::function<void(HealthFields &)> &Edit) {
    const std::string Dir = scratchDir("forge");
    std::filesystem::copy(Pristine, Dir,
                          std::filesystem::copy_options::recursive |
                              std::filesystem::copy_options::overwrite_existing);
    rewriteSnapshot(Dir, [&](std::vector<persist::SnapshotSection> &S) {
      ASSERT_EQ(S.size(), 2U);
      forgeHealth(S[1], Edit);
    });
    return Dir;
  };
  const auto H = [](StreamHealth State) {
    return static_cast<std::uint8_t>(State);
  };
  const std::pair<const char *, std::function<void(HealthFields &)>>
      Unreachable[] = {
          {"backoff no episode count produces",
           [&](HealthFields &F) {
             F.Health = H(StreamHealth::Quarantined);
             F.TimesQuarantined = F.Episodes = 1;
             F.Backoff = UINT64_MAX;
           }},
          {"more episodes than quarantines",
           [&](HealthFields &F) { F.Episodes = 1; }},
          {"quarantined without an episode",
           [&](HealthFields &F) {
             F.Health = H(StreamHealth::Quarantined);
             F.TimesQuarantined = 1;
             F.Backoff = quarantineBackoffBatches(HC, 0);
           }},
          {"served more than the backoff",
           [&](HealthFields &F) {
             F.Health = H(StreamHealth::Quarantined);
             F.TimesQuarantined = F.Episodes = 1;
             F.Backoff = FirstBackoff;
             F.Served = FirstBackoff + 1;
           }},
          {"poison run that should have quarantined",
           [&](HealthFields &F) {
             F.Health = H(StreamHealth::Degraded);
             F.Poisoned = F.ConsecutivePoisoned = HC.PoisonQuarantineThreshold;
           }},
          {"clean streak that should have recovered",
           [&](HealthFields &F) {
             F.Health = H(StreamHealth::Recovering);
             F.CleanStreak = HC.RecoveryCleanBatches;
           }},
      };
  for (const auto &[What, Edit] : Unreachable) {
    SCOPED_TRACE(What);
    const std::string Dir = forged(Edit);
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    EXPECT_EQ(Service->restore(), RestoreOutcome::JournalOnly);
    EXPECT_EQ(Store.counters().CorruptSnapshots, 1U);
    EXPECT_EQ(Store.counters().ColdStarts, 1U);
    EXPECT_EQ(Service->encodeState(), RefBytes);
    Service->start();
    EXPECT_TRUE(Service->submit(Batches[N]));
    Service->stop();
  }

  // Control: the same forgery with a backoff the machine does produce
  // loads, and the stream serves exactly that backoff before its probe.
  const std::string Dir = forged([&](HealthFields &F) {
    F.Health = H(StreamHealth::Quarantined);
    F.TimesQuarantined = F.Episodes = 1;
    F.Backoff = FirstBackoff;
  });
  CheckpointManager Store(Dir);
  auto Service = makeService(Fleet);
  Service->attachPersistence(Store);
  ASSERT_EQ(Service->restore(), RestoreOutcome::SnapshotOnly);
  EXPECT_EQ(Store.counters().CorruptSnapshots, 0U);
  Service->start();
  for (std::size_t I = 0; I < FirstBackoff; ++I)
    EXPECT_FALSE(Service->submit(Batches[N + I]));
  EXPECT_TRUE(Service->submit(Batches[N + FirstBackoff])); // the probe
  Service->stop();
  EXPECT_EQ(Service->snapshot().Streams[0].Health, StreamHealth::Recovering);
}

// A version-1 snapshot cannot be read faithfully (it never stored the
// admission clock), so it is refused as unsupported, like any version
// but the current one, and recovery falls to the next rung: here the
// previous snapshot plus the journal.
TEST(CrashRecovery, OldSnapshotVersionFallsThroughTheLadder) {
  const std::vector<RecordedStream> Fleet = smallFleet();
  std::vector<SampleBatch> Batches = roundRobin(Fleet);
  ASSERT_GE(Batches.size(), 6U);
  Batches.resize(6);
  ServiceConfig Cfg = testConfig();
  Cfg.Inline = true;
  const std::string Dir = scratchDir("v1");
  std::vector<std::uint8_t> RefBytes;
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet, Cfg);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    Service->start();
    for (std::size_t I = 0; I < Batches.size(); ++I) {
      ASSERT_TRUE(Service->submit(Batches[I]));
      if (I == 1 || I == 3) {
        ASSERT_TRUE(Service->checkpoint());
      }
    }
    Service->stop();
    RefBytes = Service->encodeState();
  }
  rewriteSnapshot(
      Dir, [](std::vector<persist::SnapshotSection> &) {}, /*Version=*/1);
  const auto V1 = persist::readFileBytes(Dir + "/snapshot.bin");
  ASSERT_TRUE(V1.has_value());
  std::vector<persist::SnapshotSection> Sections;
  EXPECT_EQ(persist::decodeSnapshot(*V1, Sections),
            persist::SnapshotError::UnsupportedVersion);

  CheckpointManager Store(Dir);
  auto Service = makeService(Fleet, Cfg);
  Service->attachPersistence(Store);
  EXPECT_EQ(Service->restore(), RestoreOutcome::SnapshotPlusJournal);
  EXPECT_EQ(Store.counters().CorruptSnapshots, 1U);
  EXPECT_EQ(Store.counters().FallbacksUsed, 1U);
  EXPECT_EQ(Store.counters().LastError,
            persist::SnapshotError::UnsupportedVersion);
  EXPECT_EQ(Service->encodeState(), RefBytes);
}

// An intact snapshot of a differently configured service is refused by
// the service's decode, not by the container: the counters name that
// reason, and the journal rebuilds the state.
TEST(CrashRecovery, ConfigMismatchIsNamedStateRejected) {
  const std::vector<RecordedStream> Fleet = smallFleet();
  std::vector<SampleBatch> Batches = roundRobin(Fleet);
  ASSERT_GE(Batches.size(), 4U);
  Batches.resize(4);
  const std::string Dir = scratchDir("mismatch");
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    ASSERT_EQ(Service->restore(), RestoreOutcome::ColdStart);
    Service->start();
    for (const SampleBatch &B : Batches)
      ASSERT_TRUE(Service->submit(B));
    Service->stop();
    ASSERT_TRUE(Service->checkpoint());
  }
  ServiceConfig Other = testConfig();
  ++Other.Health.RecoveryCleanBatches;
  CheckpointManager Store(Dir);
  auto Service = makeService(Fleet, Other);
  Service->attachPersistence(Store);
  EXPECT_EQ(Service->restore(), RestoreOutcome::JournalOnly);
  EXPECT_EQ(Store.counters().CorruptSnapshots, 1U);
  EXPECT_EQ(Store.counters().LastError,
            persist::SnapshotError::StateRejected);
}

// A directory written under four streams, restored under three: once
// both snapshot rungs are refused, journal replay from cold stops at the
// first record for stream 3. That record is whole and acknowledged, so the
// stop is a topology mismatch, not a torn tail: the journal keeps every
// byte, the mismatched service refuses to add to it, and the right
// topology still recovers everything.
// One committed 48-batch run under four streams, restored under three:
// the snapshot is refused and journal replay from cold stops at the first
// record for stream 3. That is a topology mismatch, not damage.
TEST(CrashRecovery, TopologyMismatchLeavesTheJournalWhole) {
  std::vector<RecordedStream> Fleet;
  for (std::uint64_t Id = 0; Id < 4; ++Id)
    Fleet.push_back(record("synthetic.periodic", 7 + Id));
  std::vector<SampleBatch> Batches = roundRobin(Fleet);
  ASSERT_GE(Batches.size(), 48U);
  Batches.resize(48);
  const std::string Dir = scratchDir("topology");
  {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    Service->restore();
    Service->start();
    for (const SampleBatch &B : Batches)
      ASSERT_TRUE(Service->submit(B));
    Service->stop();
    ASSERT_TRUE(Service->checkpoint());
  }
  const std::string Journal = Dir + "/journal.wal";
  const std::string Snapshot = Dir + "/snapshot.bin";
  const auto Before = persist::readFileBytes(Journal);
  const auto SnapshotBefore = persist::readFileBytes(Snapshot);
  ASSERT_TRUE(Before.has_value());
  ASSERT_TRUE(SnapshotBefore.has_value());

  {
    CheckpointManager Store(Dir);
    MonitorService Service(testConfig());
    for (std::size_t Id = 0; Id < 3; ++Id)
      Service.addStream(*Fleet[Id].Map);
    Service.attachPersistence(Store);
    EXPECT_EQ(Service.restore(), RestoreOutcome::JournalOnly);
    EXPECT_EQ(Store.counters().LastError,
              persist::SnapshotError::StateRejected);
    EXPECT_EQ(Store.counters().JournalMismatches, 1U);
    EXPECT_EQ(Store.counters().JournalGaps, 0U);
    EXPECT_EQ(Store.counters().JournalTornTails, 0U);
    EXPECT_EQ(Store.counters().JournalRepairs, 0U);
    EXPECT_EQ(persist::readFileBytes(Journal), Before)
        << "a topology mismatch cut the journal";
    // Nothing is appended behind records the service never applied, and
    // no snapshot of this state rotates the directory's own away.
    const std::uint64_t Reached = Service.persistedSequence();
    Service.start();
    EXPECT_FALSE(Service.submit({0, Fleet[0].Intervals[12]}));
    Service.stop();
    EXPECT_EQ(Service.snapshot().BatchesRejected, 1U);
    EXPECT_EQ(Service.persistedSequence(), Reached);
    EXPECT_FALSE(Service.checkpoint());
    EXPECT_EQ(persist::readFileBytes(Snapshot), SnapshotBefore);
    EXPECT_FALSE(std::filesystem::exists(Dir + "/snapshot.prev.bin"));
    EXPECT_EQ(persist::readFileBytes(Journal), Before);
  }

  CheckpointManager Store(Dir);
  auto Service = makeService(Fleet);
  Service->attachPersistence(Store);
  EXPECT_EQ(Service->restore(), RestoreOutcome::SnapshotOnly);
  EXPECT_EQ(Service->persistedSequence(), 48U);
  EXPECT_EQ(Store.counters().JournalMismatches, 0U);
  EXPECT_EQ(Service->encodeState(), referenceBytes(Fleet, Batches, 48));
}

// Two committed runs, then both snapshot rungs damaged. The second commit
// compacted the journal through the fallback's sequence 24, so records
// 25-48 continue a state that no longer loads. A cold start must not
// replay them: it is a gap, counted and reported, with the journal kept
// whole and durability refused, as after a topology mismatch.
TEST(CrashRecovery, CompactedJournalIsNotReplayedOntoAColdState) {
  std::vector<RecordedStream> Fleet;
  for (std::uint64_t Id = 0; Id < 4; ++Id)
    Fleet.push_back(record("synthetic.periodic", 7 + Id));
  std::vector<SampleBatch> Batches = roundRobin(Fleet);
  ASSERT_GE(Batches.size(), 49U);
  const std::string Dir = scratchDir("gap");
  for (std::size_t Run = 0; Run < 2; ++Run) {
    CheckpointManager Store(Dir);
    auto Service = makeService(Fleet);
    Service->attachPersistence(Store);
    Service->restore();
    Service->start();
    for (std::size_t I = 24 * Run; I < 24 * (Run + 1); ++I)
      ASSERT_TRUE(Service->submit(Batches[I]));
    Service->stop();
    ASSERT_TRUE(Service->checkpoint());
  }
  for (const char *Rung : {"/snapshot.bin", "/snapshot.prev.bin"}) {
    auto Bytes = persist::readFileBytes(Dir + Rung);
    ASSERT_TRUE(Bytes.has_value() && !Bytes->empty());
    Bytes->back() ^= 1;
    persist::FileSink Sink(Dir + Rung, /*Append=*/false, nullptr);
    ASSERT_TRUE(Sink.write(*Bytes) && Sink.close());
  }
  const std::string Journal = Dir + "/journal.wal";
  const auto Before = persist::readFileBytes(Journal);
  const auto SnapshotBefore = persist::readFileBytes(Dir + "/snapshot.bin");
  ASSERT_TRUE(Before.has_value());

  CheckpointManager Store(Dir);
  auto Service = makeService(Fleet);
  Service->attachPersistence(Store);
  EXPECT_EQ(Service->restore(), RestoreOutcome::ColdStart);
  const persist::RecoveryCounters &C = Store.counters();
  EXPECT_EQ(C.CorruptSnapshots, 2U);
  EXPECT_EQ(C.JournalRecordsReplayed, 0U);
  EXPECT_EQ(C.JournalGaps, 1U);
  EXPECT_EQ(C.GapStateSeq, 0U);
  EXPECT_EQ(C.GapJournalSeq, 25U);
  EXPECT_EQ(C.JournalMismatches, 0U);
  EXPECT_EQ(C.JournalTornTails, 0U);
  EXPECT_EQ(C.JournalRepairs, 0U);
  EXPECT_EQ(Service->persistedSequence(), 0U);
  EXPECT_EQ(persist::readFileBytes(Journal), Before)
      << "a gap cut the journal";

  Service->start();
  EXPECT_FALSE(Service->submit(Batches[48]));
  Service->stop();
  EXPECT_EQ(Service->snapshot().BatchesRejected, 1U);
  EXPECT_EQ(Service->persistedSequence(), 0U);
  EXPECT_FALSE(Service->checkpoint());
  EXPECT_EQ(persist::readFileBytes(Dir + "/snapshot.bin"), SnapshotBefore);
  EXPECT_EQ(persist::readFileBytes(Journal), Before);
}

#ifndef NDEBUG
// The journal records no evictions, so a DropOldest service cannot be
// made durable: recovery would process the batches its queue dropped.
TEST(CrashRecoveryDeathTest, DropOldestServiceRefusesPersistence) {
  ServiceConfig Cfg = testConfig();
  Cfg.Policy = OverflowPolicy::DropOldest;
  MonitorService Service(Cfg);
  CheckpointManager Store(scratchDir("drop_oldest"));
  EXPECT_DEATH_IF_SUPPORTED(Service.attachPersistence(Store), "Block policy");
}
#endif

// The payoff the ISSUE demands: a warm restart reaches its first stable
// phase in at most half the intervals a cold start needs. Measured on
// the monitor state actually carried through the snapshot codec.
TEST(CrashRecovery, WarmRestartStabilizesInHalfTheColdStartIntervals) {
  const RecordedStream S = record("synthetic.steady", 1);
  ASSERT_GT(S.Intervals.size(), 8U);

  const auto anyStable = [](const core::RegionMonitor &M) {
    for (const core::Region &R : M.regions())
      if (M.detector(R.Id).state() == core::LocalPhaseState::Stable)
        return true;
    return false;
  };
  const auto intervalsToStable = [&](core::RegionMonitor &M) {
    std::uint64_t Count = 0;
    for (const std::vector<Sample> &Interval : S.Intervals) {
      if (anyStable(M))
        return Count;
      M.observeInterval(Interval);
      ++Count;
    }
    return Count;
  };

  core::RegionMonitor Cold(*S.Map);
  const std::uint64_t ColdIntervals = intervalsToStable(Cold);
  ASSERT_GE(ColdIntervals, 2U) << "workload stabilizes too fast to measure";
  ASSERT_TRUE(anyStable(Cold)) << "workload never stabilized";

  // Checkpoint the trained monitor, restore into a fresh one, and replay
  // the stream from the top -- the warm-restart scenario.
  persist::ByteWriter W;
  persist::StateCodec::encode(W, Cold);
  core::RegionMonitor Warm(*S.Map);
  persist::ByteReader R(W.data());
  ASSERT_TRUE(persist::StateCodec::decode(R, Warm));
  const std::uint64_t WarmIntervals = intervalsToStable(Warm);
  EXPECT_LE(WarmIntervals * 2, ColdIntervals)
      << "warm=" << WarmIntervals << " cold=" << ColdIntervals;
}

} // namespace
