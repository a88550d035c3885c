//===- tests/TraceScenarios.h - Flight-recorder scenario corpus -*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The shared incident-scenario harness behind the flight-recorder tests
// and the committed trace corpus (tests/trace_corpus/). Each scenario is
// a fully deterministic recorded run -- all submissions happen on one
// thread, so the trace's global record order (and therefore its bytes)
// is reproducible run to run even when the recorded service is threaded
// -- chosen to exercise one distinct decision path:
//
//   fault-storm                 seeded sample/batch faults across three
//                               streams: poison refusals, corrupt and
//                               truncated batches, health churn
//   quarantine-recovery         a scripted poison burst drives stream 0
//                               through quarantine -> backoff -> probe ->
//                               full recovery while stream 1 stays clean
//   drop-oldest-overload        a stalled worker + DropOldest queue turns
//                               a burst into deterministic evictions, all
//                               captured as drop records
//   checkpoint-restore-mid-trace an Inline persisted run committing a
//                               snapshot mid-trace, so replay can re-apply
//                               the checkpoint and a later restore proves
//                               the continuation
//
// recordScenario() and replayScenario() produce the same export bundle,
// so tests assert byte-identity between the recorded incident and its
// replay directly.
//
//===----------------------------------------------------------------------===//

#ifndef REGMON_TESTS_TRACESCENARIOS_H
#define REGMON_TESTS_TRACESCENARIOS_H

#include "faults/FaultPlan.h"
#include "obs/Export.h"
#include "sampling/Sampler.h"
#include "service/MonitorService.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "trace/Attach.h"
#include "trace/Replay.h"
#include "workloads/Workloads.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace regmon::tracetest {

/// One scenario's full shape: topology, faults, and which of the three
/// special submission choreographies (if any) it uses.
struct ScenarioSpec {
  struct StreamDef {
    std::string Workload;
    std::uint64_t Seed = 0;
  };
  std::vector<StreamDef> Streams;
  service::ServiceConfig Cfg;
  faults::FaultConfig Faults;
  std::uint64_t FaultSeed = 0;
  /// Per-stream interval cap (the submission round count).
  std::size_t Intervals = 0;
  /// Stream 0's first three batches are poisoned by script (not by a
  /// seeded plan), walking the health machine through one full
  /// quarantine -> recovery cycle at the default tuning.
  bool ScriptedQuarantine = false;
  /// The single worker stalls on its first batch until stop, so every
  /// later submission lands in a full DropOldest queue and the eviction
  /// sequence is a pure function of the (single-threaded) submit order.
  bool DropChoreography = false;
  /// Commit a snapshot halfway through the run (requires an Inline
  /// config and attached persistence) so the trace carries a mid-run
  /// checkpoint marker.
  bool MidRunCheckpoint = false;
};

inline std::vector<std::string> scenarioNames() {
  return {"fault-storm", "quarantine-recovery", "drop-oldest-overload",
          "checkpoint-restore-mid-trace"};
}

inline ScenarioSpec specFor(const std::string &Name) {
  ScenarioSpec Spec;
  if (Name == "fault-storm") {
    Spec.Streams = {{"synthetic.periodic", 11},
                    {"synthetic.periodic", 12},
                    {"synthetic.steady", 13}};
    Spec.Cfg.Workers = 2;
    Spec.Cfg.QueueCapacity = 8;
    Spec.Faults.DropRate = 0.05;
    Spec.Faults.CorruptRate = 0.10;
    Spec.Faults.TruncateRate = 0.15;
    Spec.Faults.PoisonRate = 0.12;
    Spec.FaultSeed = 77;
    Spec.Intervals = 20;
  } else if (Name == "quarantine-recovery") {
    Spec.Streams = {{"synthetic.steady", 21}, {"synthetic.steady", 22}};
    Spec.Cfg.Workers = 1;
    Spec.Cfg.QueueCapacity = 8;
    Spec.Intervals = 20; // 3 poisoned + 8 backoff + probe + 4 clean fit
    Spec.ScriptedQuarantine = true;
  } else if (Name == "drop-oldest-overload") {
    Spec.Streams = {{"synthetic.steady", 31},
                    {"synthetic.steady", 32},
                    {"synthetic.steady", 33},
                    {"synthetic.steady", 34}};
    Spec.Cfg.Workers = 1;
    Spec.Cfg.QueueCapacity = 4;
    Spec.Cfg.Policy = service::OverflowPolicy::DropOldest;
    Spec.Intervals = 7;
    Spec.DropChoreography = true;
  } else if (Name == "checkpoint-restore-mid-trace") {
    Spec.Streams = {{"synthetic.periodic", 41}, {"synthetic.steady", 42}};
    Spec.Cfg.Workers = 2;
    Spec.Cfg.QueueCapacity = 8;
    Spec.Cfg.Inline = true;
    Spec.Faults.PoisonRate = 0.20;
    Spec.FaultSeed = 99;
    Spec.Intervals = 12;
    Spec.MidRunCheckpoint = true;
  }
  return Spec;
}

/// One pre-sampled stream (the service tests' pattern): the workload owns
/// the program, the map resolves its PCs, the intervals are the batches.
struct PreparedStream {
  std::unique_ptr<workloads::Workload> W;
  std::unique_ptr<sim::ProgramCodeMap> Map;
  std::vector<std::vector<Sample>> Intervals;
};

inline std::vector<PreparedStream> prepare(const ScenarioSpec &Spec) {
  std::vector<PreparedStream> Streams;
  for (const ScenarioSpec::StreamDef &D : Spec.Streams) {
    PreparedStream S;
    S.W = std::make_unique<workloads::Workload>(workloads::make(D.Workload));
    S.Map = std::make_unique<sim::ProgramCodeMap>(S.W->Prog);
    sim::Engine Engine(S.W->Prog, S.W->Script, D.Seed);
    // 256-sample intervals (not the paper's 2032): the corpus commits
    // these traces, and the decision paths exercised do not depend on
    // interval density.
    sampling::Sampler Sampler(Engine, {45'000, 256});
    S.Intervals = Sampler.collectIntervals(Spec.Intervals);
    Streams.push_back(std::move(S));
  }
  return Streams;
}

/// Drives every submission for \p Spec from the calling thread, in the
/// global round-robin order the corpus pins. Health refusals and queue
/// evictions are the scenario's point, so submit results are ignored.
inline void submitAll(const ScenarioSpec &Spec,
                      const std::vector<PreparedStream> &Streams,
                      service::MonitorService &Service) {
  const auto batchAt = [&](service::StreamId Id, std::size_t I) {
    return service::SampleBatch{Id, Streams[Id].Intervals[I]};
  };
  if (Spec.DropChoreography) {
    // Feed the stalling worker its one batch, wait until it has left the
    // queue (the hook now holds it until stop), then burst the rest into
    // the full queue single-threaded: each push past capacity evicts the
    // oldest queued batch deterministically.
    (void)Service.submit(batchAt(0, 0));
    while (Service.snapshot().QueueDepth != 0)
      std::this_thread::yield();
    for (std::size_t I = 0; I < Spec.Intervals; ++I)
      for (service::StreamId Id = 0; Id < Streams.size(); ++Id)
        if (!(I == 0 && Id == 0) && I < Streams[Id].Intervals.size())
          (void)Service.submit(batchAt(Id, I));
    return;
  }
  const faults::FaultPlan Plan(Spec.FaultSeed, Spec.Faults);
  std::vector<faults::StreamFaultInjector> Injectors;
  for (service::StreamId Id = 0; Id < Streams.size(); ++Id)
    Injectors.push_back(Plan.forStream(Id));
  for (std::size_t I = 0; I < Spec.Intervals; ++I) {
    if (Spec.MidRunCheckpoint && I == Spec.Intervals / 2)
      (void)Service.checkpoint(); // legal mid-run: the config is Inline
    for (service::StreamId Id = 0; Id < Streams.size(); ++Id) {
      if (I >= Streams[Id].Intervals.size())
        continue;
      service::SampleBatch B = batchAt(Id, I);
      if (Spec.ScriptedQuarantine) {
        if (Id == 0 && I < 3)
          faults::poisonBatch(B.Samples);
      } else {
        B.Samples = Injectors[Id].apply(B.Samples);
        if (Injectors[Id].nextBatchFault() == faults::BatchFault::Poison)
          faults::poisonBatch(B.Samples);
      }
      (void)Service.submit(std::move(B));
    }
  }
}

/// Everything a test compares between a recording and its replay. Snap is
/// taken before the exports so the point-in-time gauges are refreshed.
struct RecordOutcome {
  trace::TraceRecorder::OpenResult Open;
  service::ServiceSnapshot Snap;
  std::string Prom;
  std::string Json;
  /// encodeState() bytes, captured for MidRunCheckpoint scenarios (the
  /// restore-continuation reference).
  std::vector<std::uint8_t> FinalState;
};

/// Records \p Name into \p TracePath. \p PersistDir (optional) attaches
/// durability; \p Crash (optional) gates the *recorder's* I/O so tests
/// can kill it mid-write while the service finishes the run.
inline RecordOutcome recordScenario(const std::string &Name,
                                    const std::string &TracePath,
                                    const std::string &PersistDir = {},
                                    persist::CrashPoint *Crash = nullptr) {
  const ScenarioSpec Spec = specFor(Name);
  const std::vector<PreparedStream> Streams = prepare(Spec);
  service::MonitorService Service(Spec.Cfg);
  for (const PreparedStream &S : Streams)
    Service.addStream(*S.Map);
  obs::MetricsRegistry Registry;
  obs::EventTracer Tracer;
  const trace::Attachment Logs =
      trace::attach(Service, {.Registry = &Registry,
                              .Tracer = &Tracer,
                              .Dir = PersistDir,
                              .TracePath = TracePath,
                              .Crash = Crash});
  RecordOutcome Out;
  Out.Open = Logs.Open;
  if (!Out.Open.Ok)
    return Out; // crash budget died inside the header; caller asserts
  std::atomic<bool> StalledOnce{false};
  if (Spec.DropChoreography)
    Service.setWorkerHook(
        [&Service, &StalledOnce](std::size_t, const service::SampleBatch &) {
          if (StalledOnce.exchange(true))
            return;
          while (!Service.stopRequested())
            std::this_thread::yield();
        });
  Service.start();
  submitAll(Spec, Streams, Service);
  Service.stop();
  Out.Snap = Service.snapshot();
  Out.Prom = obs::exportPrometheus(Registry);
  Out.Json = obs::exportJson(Registry, &Tracer);
  if (Spec.MidRunCheckpoint)
    Out.FinalState = Service.encodeState();
  Logs.Recorder->close();
  return Out;
}

struct ReplayOutcome {
  trace::FileReplay File;
  service::ServiceSnapshot Snap;
  std::string Prom;
  std::string Json;
  std::vector<std::uint8_t> FinalState;
};

/// Replays \p TracePath through a fresh worker-less service with \p
/// Name's topology. A non-empty \p PersistDir attaches persistence and
/// re-applies recorded checkpoints into it, so a later service can
/// restore the incident's durable state from that directory.
inline ReplayOutcome replayScenario(const std::string &Name,
                                    const std::string &TracePath,
                                    const std::string &PersistDir = {}) {
  ScenarioSpec Spec = specFor(Name);
  Spec.Cfg.Inline = true; // replay is always worker-less
  const std::vector<PreparedStream> Streams = prepare(Spec);
  service::MonitorService Service(Spec.Cfg);
  for (const PreparedStream &S : Streams)
    Service.addStream(*S.Map);
  obs::MetricsRegistry Registry;
  obs::EventTracer Tracer;
  const trace::Attachment Logs =
      trace::attach(Service, {.Registry = &Registry,
                              .Tracer = &Tracer,
                              .Dir = PersistDir});
  trace::ReplayConfig RC;
  RC.ApplyCheckpoints = Logs.Store != nullptr;
  ReplayOutcome Out;
  Out.File = trace::replayTraceFile(TracePath, Service, RC);
  Out.Snap = Service.snapshot();
  Out.Prom = obs::exportPrometheus(Registry);
  Out.Json = obs::exportJson(Registry, &Tracer);
  if (Spec.MidRunCheckpoint)
    Out.FinalState = Service.encodeState();
  return Out;
}

} // namespace regmon::tracetest

#endif // REGMON_TESTS_TRACESCENARIOS_H
