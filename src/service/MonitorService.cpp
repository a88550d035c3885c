//===- service/MonitorService.cpp - Sharded multi-stream monitor ----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/MonitorService.h"

#include "persist/Bytes.h"
#include "persist/Checkpoint.h"
#include "persist/SampleBlock.h"
#include "persist/StateCodec.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace regmon;
using namespace regmon::service;

namespace {

/// Snapshot section ids (persist/Snapshot.h container).
constexpr std::uint32_t MetaSectionId = 1;
constexpr std::uint32_t StreamSectionId = 2;

/// Journal-record payload for one batch: the full submission, so replay
/// can re-run admission + processing over the original byte stream.
/// Layout: u32 stream, then the shared sample block.
void encodeBatchPayload(persist::ByteWriter &W, const SampleBatch &Batch) {
  W.u32(Batch.Stream);
  persist::encodeSampleBlock(W, Batch.Samples);
}

} // namespace

const char *regmon::service::toString(RecordedFate F) {
  switch (F) {
  case RecordedFate::DoorRejected:
    return "door-rejected";
  case RecordedFate::JournalRejected:
    return "journal-rejected";
  case RecordedFate::Refused:
    return "refused";
  case RecordedFate::Admitted:
    return "admitted";
  }
  return "?";
}

const char *regmon::service::toString(RestoreOutcome O) {
  switch (O) {
  case RestoreOutcome::ColdStart:
    return "cold-start";
  case RestoreOutcome::JournalOnly:
    return "journal-only";
  case RestoreOutcome::SnapshotOnly:
    return "snapshot-only";
  case RestoreOutcome::SnapshotPlusJournal:
    return "snapshot+journal";
  }
  return "?";
}

MonitorService::MonitorService(ServiceConfig Cfg) : Config(Cfg) {
  assert(Config.Workers > 0 && "service needs at least one worker");
  assert(Config.QueueCapacity > 0 && "shard queues need capacity");
  assert(Config.Health.QuarantineBaseBatches > 0 &&
         "quarantine backoff must start positive");
  assert(Config.Health.QuarantineMaxBatches >=
             Config.Health.QuarantineBaseBatches &&
         "backoff ceiling below its base");
  Shards.reserve(Config.Workers);
  for (std::size_t I = 0; I < Config.Workers; ++I)
    Shards.push_back(
        std::make_unique<Shard>(I, Config.QueueCapacity, Config.Policy));
}

MonitorService::~MonitorService() { stop(); }

StreamId MonitorService::addStream(const core::CodeMap &Map,
                                   core::RegionMonitorConfig MonitorConfig) {
  assert(!Started && "streams must be registered before start()");
  const auto Id = static_cast<StreamId>(Streams.size());
  auto State = std::make_unique<StreamState>();
  State->Map = &Map;
  State->Id = Id;
  // Mixed, so id patterns (all-even cores, strided assignment) cannot
  // pile every stream onto one shard.
  State->Shard = static_cast<std::size_t>(mix64(Id) % Shards.size());
  State->Monitor = std::make_unique<core::RegionMonitor>(Map, MonitorConfig);
  State->Controller = sampling::AdaptiveController(Config.Adaptive);
  Streams.push_back(std::move(State));
  return Id;
}

std::size_t MonitorService::shardOf(StreamId Stream) const {
  assert(Stream < Streams.size() && "unknown stream");
  return Streams[Stream]->Shard;
}

void MonitorService::attachObservability(obs::MetricsRegistry &Registry,
                                         obs::EventTracer *Tracer) {
  assert(!Started && "observability must be attached before start()");
  ObsTracer = Tracer;
  ObsSubmitted = &Registry.counter("service_batches_submitted_total",
                                   "Batches accepted into a shard queue.");
  ObsRejected = &Registry.counter(
      "service_batches_rejected_total",
      "Batches refused at the door (closed queue, dead journal, full "
      "shard under the reject policy).");
  ObsPoisoned = &Registry.counter("service_batches_poisoned_total",
                                  "Structurally malformed batches.");
  ObsQuarantines =
      &Registry.counter("service_stream_quarantines_total",
                        "Times any stream entered quarantine.");
  ObsRecoveries =
      &Registry.counter("service_stream_recoveries_total",
                        "Times any stream recovered to healthy.");
  ObsQueueDepth = &Registry.gauge(
      "service_queue_depth",
      "Queued batches across all shards at the last snapshot.");
  ObsStreamsQuarantined = &Registry.gauge(
      "service_streams_quarantined",
      "Streams in the quarantined state at the last snapshot.");
  for (auto &StPtr : Streams) {
    StreamState &St = *StPtr;
    St.Instruments = obs::makeMonitorInstruments(Registry, Tracer, St.Id,
                                                 obs::streamLabel(St.Id));
    St.Monitor->attachObservability(&St.Instruments);
  }
}

void MonitorService::setWorkerHook(
    std::function<void(std::size_t, const SampleBatch &)> Hook) {
  assert(!Started && "worker hooks must be installed before start()");
  WorkerHook = std::move(Hook);
}

void MonitorService::start() {
  assert(!Started && "MonitorService supports one start/stop cycle");
  Started = true;
  Running.store(true, std::memory_order_release);
  if (Config.Inline)
    return; // submit() processes synchronously; no workers to spawn.
  for (auto &S : Shards)
    S->Worker = std::thread([this, Raw = S.get()] { workerLoop(*Raw); });
}

void MonitorService::stop() {
  if (Stopped) {
    // Idempotence contract: a second stop() (including the destructor
    // running after an explicit stop) must find the workers already
    // joined -- the first call never returns with threads live.
    assert(!Running.load(std::memory_order_acquire) &&
           "stop() re-entered while workers still running");
    return;
  }
  Stopped = true;
  // Raise the stop flag before closing the queues so a worker stalled in
  // a hook (which must poll stopRequested()) resumes and drains; stop()
  // is then bounded by the hook's polling period, not the stall length.
  StopRequested.store(true, std::memory_order_release);
  for (auto &S : Shards)
    S->Queue.close();
  if (Started)
    for (auto &S : Shards)
      if (S->Worker.joinable())
        S->Worker.join();
  Running.store(false, std::memory_order_release);
}

bool MonitorService::submit(SampleBatch Batch) {
  assert(Batch.Stream < Streams.size() && "unknown stream");
  StreamState &St = *Streams[Batch.Stream];
  Shard &S = *Shards[St.Shard];
  // A batch arriving after stop() is refused at the door without
  // advancing the stream's health: a closed queue says nothing about the
  // collector's behaviour.
  if (S.Queue.closed()) {
    countRejected();
    recordFate(Batch, RecordedFate::DoorRejected);
    return false;
  }
  if (!journal(Batch)) {
    // A batch that cannot be made durable is refused, not processed:
    // accepting it would let a crash silently lose acknowledged work.
    countRejected();
    recordFate(Batch, RecordedFate::JournalRejected);
    return false;
  }
  if (!admit(St, Batch)) {
    recordFate(Batch, RecordedFate::Refused);
    return false;
  }
  // Record the admission before the batch can move (push or process), so
  // the stamped sequence is available to later drop/push-reject records.
  // Per-stream record order equals per-stream admission order (the
  // external per-stream submit serialization covers both), which is the
  // order applyRecorded re-runs the health machine in.
  recordFate(Batch, RecordedFate::Admitted);
  if (Config.Inline) {
    // Worker-less mode: the submitting thread is the worker.
    processInline(Batch, /*RunHook=*/true);
    return true;
  }
  // Count before pushing: once the push lands, a worker may process the
  // batch immediately, and a snapshot must never observe more processed
  // than submitted. A rejected push is uncounted again, and the export
  // counts only pushes that landed.
  Submitted.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t TraceSeq = Batch.TraceSeq;
  SampleBatch Evicted;
  if (!S.Queue.push(std::move(Batch), Recorder ? &Evicted : nullptr)) {
    Submitted.fetch_sub(1, std::memory_order_relaxed);
    countRejected();
    if (Recorder) {
      std::lock_guard<std::mutex> Lock(RecorderMutex);
      Recorder->recordPushReject(TraceSeq);
    }
    return false;
  }
  if (Recorder && Evicted.TraceSeq != 0) {
    // The push evicted the oldest queued batch (DropOldest). Its record
    // is already in the trace (it was recorded before its own push), so
    // a drop record referencing it is all replay needs to skip its
    // processing while keeping the eviction accounting.
    std::lock_guard<std::mutex> Lock(RecorderMutex);
    Recorder->recordDrop(Evicted.TraceSeq, St.Shard);
  }
  obs::addTo(ObsSubmitted);
  return true;
}

bool MonitorService::journal(const SampleBatch &Batch) {
  if (!Persist)
    return true;
  // Write-ahead: journal before admission, so recovery re-runs the same
  // admission logic over the same per-stream sequence and lands on the
  // same health decisions. The mutex makes the journal's global record
  // order a real submission order across streams.
  std::lock_guard<std::mutex> Lock(JournalMutex);
  if (!JournalDead) {
    persist::ByteWriter W;
    encodeBatchPayload(W, Batch);
    JournalDead = !Persist->appendJournal(JournalSeq + 1, W.data());
  }
  if (JournalDead)
    return false;
  ++JournalSeq;
  return true;
}

bool MonitorService::admit(StreamState &St, SampleBatch &Batch) {
  if (Config.ValidateBatches &&
      !advanceHealth(St, structurallyValid(Batch.Samples)))
    return false;
  // Stamp the post-admission health into the batch for the worker-side
  // adaptive controller. Read here -- under the per-stream submit
  // serialization -- it is a pure function of the stream's admitted
  // sequence; read on the worker it would race later submissions.
  Batch.AdmitHealth = St.Health.load(std::memory_order_relaxed);
  return true;
}

void MonitorService::processInline(const SampleBatch &Batch, bool RunHook) {
  countSubmitted();
  if (RunHook && WorkerHook)
    WorkerHook(Streams[Batch.Stream]->Shard, Batch);
  process(Batch);
}

void MonitorService::countSubmitted() {
  Submitted.fetch_add(1, std::memory_order_relaxed);
  obs::addTo(ObsSubmitted);
}

void MonitorService::countRejected() {
  Rejected.fetch_add(1, std::memory_order_relaxed);
  obs::addTo(ObsRejected);
}

void MonitorService::recordFate(SampleBatch &Batch, RecordedFate Fate) {
  if (!Recorder)
    return;
  std::lock_guard<std::mutex> Lock(RecorderMutex);
  Batch.TraceSeq = Recorder->recordBatch(Batch, Fate);
}

bool MonitorService::advanceHealth(StreamState &St, bool Valid) {
  // Serialized per stream (see submit()). The atomics only keep
  // concurrent snapshot readers tear-free, so relaxed loads and stores
  // are enough. The admission count is the logical clock stamped on
  // health events: replay re-runs the same decisions, so it reproduces
  // the same stamps.
  const std::uint64_t Clock = ++St.AdmissionClock;
  const auto CleanTo = [&](StreamHealth Next) {
    const std::uint32_t Streak = St.CleanStreak + 1;
    if (Streak >= Config.Health.RecoveryCleanBatches) {
      St.CleanStreak = 0;
      St.ConsecutivePoisoned = 0;
      // A full recovery also forgives the past: the next quarantine
      // starts from the base backoff again.
      St.QuarantineEpisodes = 0;
      St.Health.store(StreamHealth::Healthy, std::memory_order_relaxed);
      obs::addTo(ObsRecoveries);
      obs::recordEvent(ObsTracer, obs::EventKind::StreamRecovered, St.Id, 0,
                       Clock, static_cast<double>(Streak));
    } else {
      St.CleanStreak = Streak;
      St.Health.store(Next, std::memory_order_relaxed);
    }
  };
  const auto CountPoisoned = [&] {
    St.PoisonedBatches.fetch_add(1, std::memory_order_relaxed);
    obs::addTo(ObsPoisoned);
  };

  switch (St.Health.load(std::memory_order_relaxed)) {
  case StreamHealth::Healthy:
    if (Valid)
      return true;
    CountPoisoned();
    St.ConsecutivePoisoned = 1;
    St.CleanStreak = 0;
    if (1 >= Config.Health.PoisonQuarantineThreshold)
      quarantine(St);
    else
      St.Health.store(StreamHealth::Degraded, std::memory_order_relaxed);
    return false;

  case StreamHealth::Degraded:
    if (Valid) {
      CleanTo(StreamHealth::Degraded);
      return true;
    }
    CountPoisoned();
    St.CleanStreak = 0;
    if (++St.ConsecutivePoisoned >= Config.Health.PoisonQuarantineThreshold)
      quarantine(St);
    return false;

  case StreamHealth::Quarantined:
    if (St.QuarantineRejections < St.Backoff) {
      ++St.QuarantineRejections;
      St.QuarantinedBatches.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Backoff served: this batch is the probe.
    St.Readmissions.fetch_add(1, std::memory_order_relaxed);
    if (Valid) {
      St.ConsecutivePoisoned = 0;
      St.CleanStreak = 1;
      St.Health.store(StreamHealth::Recovering, std::memory_order_relaxed);
      return true;
    }
    CountPoisoned();
    quarantine(St);
    return false;

  case StreamHealth::Recovering:
    if (Valid) {
      CleanTo(StreamHealth::Recovering);
      return true;
    }
    CountPoisoned();
    quarantine(St);
    return false;
  }
  return false;
}

void MonitorService::quarantine(StreamState &St) {
  St.TimesQuarantined.fetch_add(1, std::memory_order_relaxed);
  St.Backoff = quarantineBackoffBatches(Config.Health, ++St.QuarantineEpisodes);
  St.QuarantineRejections = 0;
  St.CleanStreak = 0;
  St.ConsecutivePoisoned = 0;
  St.Health.store(StreamHealth::Quarantined, std::memory_order_relaxed);
  obs::addTo(ObsQuarantines);
  obs::recordEvent(ObsTracer, obs::EventKind::StreamQuarantined, St.Id, 0,
                   St.AdmissionClock, static_cast<double>(St.Backoff));
}

void MonitorService::workerLoop(Shard &S) {
  SampleBatch Batch;
  while (S.Queue.pop(Batch)) {
    if (WorkerHook)
      WorkerHook(S.Index, Batch);
    process(Batch);
  }
}

void MonitorService::process(const SampleBatch &Batch) {
  StreamState &St = *Streams[Batch.Stream];
  assert(St.Shard == shardOf(Batch.Stream) && "batch routed to wrong shard");
  if (!Batch.Samples.empty()) {
    core::RegionMonitor &Monitor = *St.Monitor;
    const std::uint64_t PhaseChangesBefore = Monitor.totalPhaseChanges();
    const std::uint64_t Ucr = Monitor.observeInterval(Batch.Samples);
    St.TotalSamples.fetch_add(Batch.Samples.size(),
                              std::memory_order_relaxed);
    St.UcrSamples.fetch_add(Ucr, std::memory_order_relaxed);
    // Adaptive controller: one decision per interval, fed nothing but
    // stream-local logical state -- the monitor's post-interval view plus
    // the health stamped at admission -- so a replay of the same admitted
    // sequence reproduces the same period schedule bit-for-bit.
    sampling::AdaptiveController &Ctl = St.Controller;
    const std::uint64_t SavedBefore = Ctl.samplesSaved();
    Ctl.noteSamples(Batch.Samples.size());
    sampling::StreamFeedback F;
    F.PhaseChanged = Monitor.totalPhaseChanges() != PhaseChangesBefore;
    const std::size_t Active = Monitor.activeRegionCount();
    F.AllRegionsStable = Active > 0 && Monitor.stableRegionCount() == Active;
    F.UcrFraction = Monitor.lastUcrFraction();
    F.Healthy = Batch.AdmitHealth == StreamHealth::Healthy;
    const sampling::AdaptiveDecision Decision = Ctl.observe(F);
    publish(St);
    obs::addTo(St.Instruments.SamplingSamplesSaved,
               Ctl.samplesSaved() - SavedBefore);
    obs::setGauge(St.Instruments.SamplingPeriodCurrent,
                  static_cast<double>(Ctl.currentPeriodCycles()));
    if (Decision == sampling::AdaptiveDecision::Lengthen) {
      obs::addTo(St.Instruments.SamplingLengthens);
      obs::recordEvent(St.Instruments.Tracer,
                       obs::EventKind::SamplingPeriodLengthened, St.Id, 0,
                       Monitor.intervals(),
                       static_cast<double>(Ctl.currentPeriodCycles()));
    } else if (Decision == sampling::AdaptiveDecision::Tighten) {
      obs::addTo(St.Instruments.SamplingTightens);
      obs::recordEvent(St.Instruments.Tracer,
                       obs::EventKind::SamplingPeriodTightened, St.Id, 0,
                       Monitor.intervals(),
                       static_cast<double>(Ctl.currentPeriodCycles()));
    }
  }
  // Release-publish the batch count last so a snapshot that observes it
  // also observes this batch's other counters.
  St.BatchesProcessed.fetch_add(1, std::memory_order_release);
}

void MonitorService::publish(StreamState &St) {
  const core::RegionMonitor &Monitor = *St.Monitor;
  St.IntervalsProcessed.store(Monitor.intervals(), std::memory_order_relaxed);
  St.PhaseChanges.store(Monitor.totalPhaseChanges(),
                        std::memory_order_relaxed);
  St.FormationTriggers.store(Monitor.formationTriggers(),
                             std::memory_order_relaxed);
  St.RegionsFormed.store(Monitor.regions().size(), std::memory_order_relaxed);
  St.ActiveRegions.store(Monitor.activeRegionCount(),
                         std::memory_order_relaxed);
  const sampling::AdaptiveController &Ctl = St.Controller;
  St.PeriodScaleLog2.store(Ctl.scaleLog2(), std::memory_order_relaxed);
  St.SamplesSaved.store(Ctl.samplesSaved(), std::memory_order_relaxed);
  St.CtlLengthens.store(Ctl.lengthens(), std::memory_order_relaxed);
  St.CtlTightens.store(Ctl.tightens(), std::memory_order_relaxed);
}

ServiceSnapshot MonitorService::snapshot() const {
  ServiceSnapshot Snap;
  Snap.Shards.reserve(Shards.size());
  for (const auto &S : Shards) {
    ShardSnapshot Sh;
    Sh.QueueDepth = S->Queue.size();
    Sh.BatchesDropped = S->Queue.dropped();
    Snap.QueueDepth += Sh.QueueDepth;
    Snap.BatchesDropped += Sh.BatchesDropped;
    Snap.Shards.push_back(Sh);
  }
  Snap.Streams.reserve(Streams.size());
  for (StreamId Id = 0; Id < Streams.size(); ++Id) {
    const StreamState &St = *Streams[Id];
    StreamSnapshot Out;
    Out.Stream = Id;
    Out.Shard = St.Shard;
    Out.BatchesProcessed = St.BatchesProcessed.load(std::memory_order_acquire);
    Out.IntervalsProcessed =
        St.IntervalsProcessed.load(std::memory_order_relaxed);
    Out.PhaseChanges = St.PhaseChanges.load(std::memory_order_relaxed);
    Out.FormationTriggers =
        St.FormationTriggers.load(std::memory_order_relaxed);
    Out.RegionsFormed = St.RegionsFormed.load(std::memory_order_relaxed);
    Out.ActiveRegions = St.ActiveRegions.load(std::memory_order_relaxed);
    Out.TotalSamples = St.TotalSamples.load(std::memory_order_relaxed);
    Out.UcrSamples = St.UcrSamples.load(std::memory_order_relaxed);
    Out.Health = St.Health.load(std::memory_order_relaxed);
    Out.PoisonedBatches =
        St.PoisonedBatches.load(std::memory_order_relaxed);
    Out.QuarantinedBatches =
        St.QuarantinedBatches.load(std::memory_order_relaxed);
    Out.TimesQuarantined =
        St.TimesQuarantined.load(std::memory_order_relaxed);
    Out.Readmissions = St.Readmissions.load(std::memory_order_relaxed);
    Out.PeriodScaleLog2 = St.PeriodScaleLog2.load(std::memory_order_relaxed);
    Out.SamplesSaved = St.SamplesSaved.load(std::memory_order_relaxed);
    Out.ControllerLengthens =
        St.CtlLengthens.load(std::memory_order_relaxed);
    Out.ControllerTightens = St.CtlTightens.load(std::memory_order_relaxed);
    Snap.BatchesProcessed += Out.BatchesProcessed;
    Snap.IntervalsProcessed += Out.IntervalsProcessed;
    Snap.PhaseChanges += Out.PhaseChanges;
    Snap.TotalSamples += Out.TotalSamples;
    Snap.UcrSamples += Out.UcrSamples;
    Snap.SamplesSaved += Out.SamplesSaved;
    Snap.BatchesPoisoned += Out.PoisonedBatches;
    Snap.BatchesQuarantined += Out.QuarantinedBatches;
    Snap.Streams.push_back(Out);
  }
  // Submitted is read last: every batch counted processed or dropped
  // above was pre-counted in Submitted before its push (and the acquire
  // loads above order this load after them), so a snapshot always
  // satisfies processed + dropped <= submitted.
  Snap.BatchesSubmitted = Submitted.load(std::memory_order_relaxed);
  Snap.BatchesRejected = Rejected.load(std::memory_order_relaxed);
  // Point-in-time gauges piggyback on the snapshot walk; counters were
  // maintained at their source sites.
  obs::setGauge(ObsQueueDepth, static_cast<double>(Snap.QueueDepth));
  std::uint64_t InQuarantine = 0;
  for (const StreamSnapshot &Out : Snap.Streams)
    if (Out.Health == StreamHealth::Quarantined)
      ++InQuarantine;
  obs::setGauge(ObsStreamsQuarantined, static_cast<double>(InQuarantine));
  return Snap;
}

const core::RegionMonitor &MonitorService::monitor(StreamId Stream) const {
  assert(Stream < Streams.size() && "unknown stream");
  assert((!running() || Config.Inline) &&
         "monitors are only inspectable while stopped (or inline)");
  return *Streams[Stream]->Monitor;
}

const sampling::AdaptiveController &
MonitorService::controller(StreamId Stream) const {
  assert(Stream < Streams.size() && "unknown stream");
  assert((!running() || Config.Inline) &&
         "controllers are only inspectable while stopped (or inline)");
  return Streams[Stream]->Controller;
}

Cycles MonitorService::recommendedPeriodCycles(StreamId Stream) const {
  assert(Stream < Streams.size() && "unknown stream");
  return sampling::scaledPeriod(
      Config.Adaptive.BasePeriodCycles,
      Streams[Stream]->PeriodScaleLog2.load(std::memory_order_relaxed));
}

//===----------------------------------------------------------------------===//
// Crash-safe persistence
//===----------------------------------------------------------------------===//

void MonitorService::attachPersistence(persist::CheckpointManager &Store) {
  assert(!Started && "persistence must be attached before start()");
  // The journal holds every admitted batch but no eviction, so journal
  // replay would process what a DropOldest queue dropped.
  assert(Config.Policy == OverflowPolicy::Block &&
         "durability needs the Block policy");
  Persist = &Store;
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

void MonitorService::attachRecorder(BatchRecorder &R) {
  assert(!Started && "recorder must be attached before start()");
  Recorder = &R;
  persist::ByteWriter W;
  W.bytes(configFingerprint());
  const StartPoint At = startPoint();
  W.u64(At.Sequence);
  W.u32(At.StateCrc);
  Recorder->recordConfig(W.data());
}

StartPoint MonitorService::startPoint() const {
  StartPoint At;
  At.Sequence = JournalSeq;
  if (At.Sequence != 0) {
    // The snapshot container ends in a CRC-32 of every byte before it:
    // the state's CRC. (One taken over the container, seal included,
    // would be the same constant for every state.)
    const std::vector<std::uint8_t> State = encodeState();
    At.StateCrc = persist::loadLE<std::uint32_t>(State.data() + State.size() -
                                                 sizeof(std::uint32_t));
  }
  return At;
}

std::vector<std::uint8_t> MonitorService::configFingerprint() const {
  persist::ByteWriter W;
  W.u64(Config.Workers);
  W.u64(Config.QueueCapacity);
  W.u8(static_cast<std::uint8_t>(Config.Policy));
  W.boolean(Config.ValidateBatches);
  W.u32(Config.Health.PoisonQuarantineThreshold);
  W.u64(Config.Health.QuarantineBaseBatches);
  W.u64(Config.Health.QuarantineMaxBatches);
  W.u32(Config.Health.RecoveryCleanBatches);
  W.u32(static_cast<std::uint32_t>(Streams.size()));
  // The adaptive config is deliberately absent: controller output is an
  // advisory period recommendation that never feeds back into admission,
  // routing, or processing of the recorded batches, so it cannot
  // desynchronize a replay. Controller *state* is still carried -- and
  // config-checked -- by snapshot stream sections (see encodeState).
  return W.take();
}

bool MonitorService::applyRecorded(SampleBatch &Batch, RecordedFate Fate,
                                   bool Dropped, bool PushFailed) {
  assert(Config.Inline && "replay drives a worker-less service");
  assert(running() && "start() the replay service before applying records");
  if (Batch.Stream >= Streams.size())
    return false;
  StreamState &St = *Streams[Batch.Stream];
  switch (Fate) {
  case RecordedFate::DoorRejected:
  case RecordedFate::JournalRejected:
    // Environmental refusals (closed queue, dead journal): reproduce the
    // accounting without re-running the environment that caused them.
    // Neither advanced the health machine or the journal originally.
    countRejected();
    return true;
  case RecordedFate::Refused:
  case RecordedFate::Admitted:
    break;
  }
  // Mirror submit()'s write-ahead: the original journaled this batch
  // before admission, so a replay that is itself persisted lands on the
  // same journal sequence (encodeState compares bit-identical).
  if (!journal(Batch))
    return false;
  const bool Admitted = admit(St, Batch);
  if (Admitted != (Fate == RecordedFate::Admitted))
    return false; // divergence: the health machine decided differently
  if (!Admitted)
    return true;
  if (PushFailed) {
    // Original: push rejected after the door check (queue closed under
    // it). Submitted was pre-counted then uncounted; only the rejection
    // sticks.
    countRejected();
    return true;
  }
  if (Dropped) {
    // Evicted by DropOldest before any worker saw it: submitted and
    // dropped, never processed.
    countSubmitted();
    Shards[St.Shard]->Queue.countDrop();
    return true;
  }
  processInline(Batch, /*RunHook=*/true);
  return true;
}

std::vector<std::uint8_t> MonitorService::encodeState() const {
  assert((!running() || Config.Inline) &&
         "state can only be encoded while quiescent");
  std::vector<persist::SnapshotSection> Sections;
  {
    persist::ByteWriter W;
    W.u64(JournalSeq);
    // Config fingerprint: the fields replay determinism depends on. A
    // snapshot taken under a different configuration is rejected rather
    // than misinterpreted (different admission decisions, shard routing,
    // or stream registry would desynchronize replay).
    W.u64(Config.Workers);
    W.u8(static_cast<std::uint8_t>(Config.Policy));
    W.boolean(Config.ValidateBatches);
    W.u32(Config.Health.PoisonQuarantineThreshold);
    W.u64(Config.Health.QuarantineBaseBatches);
    W.u64(Config.Health.QuarantineMaxBatches);
    W.u32(Config.Health.RecoveryCleanBatches);
    // Rejected is deliberately absent: door rejections (post-stop
    // submissions, failed appends) describe the previous process's
    // lifetime, not learned state, and are not replay-reproducible.
    W.u64(Submitted.load(std::memory_order_relaxed));
    W.u32(static_cast<std::uint32_t>(Streams.size()));
    Sections.push_back({MetaSectionId, W.take()});
  }
  // Each stream persists only the numbers it owns; the monitor and the
  // controller carry their own counts, which publish() re-derives.
  for (StreamId Id = 0; Id < Streams.size(); ++Id) {
    const StreamState &St = *Streams[Id];
    persist::ByteWriter W;
    W.u32(Id);
    W.u64(St.Shard);
    W.u64(St.BatchesProcessed.load(std::memory_order_relaxed));
    W.u64(St.TotalSamples.load(std::memory_order_relaxed));
    W.u64(St.UcrSamples.load(std::memory_order_relaxed));
    W.u8(static_cast<std::uint8_t>(St.Health.load(std::memory_order_relaxed)));
    W.u64(St.PoisonedBatches.load(std::memory_order_relaxed));
    W.u64(St.QuarantinedBatches.load(std::memory_order_relaxed));
    W.u64(St.TimesQuarantined.load(std::memory_order_relaxed));
    W.u64(St.Readmissions.load(std::memory_order_relaxed));
    W.u64(St.AdmissionClock);
    W.u64(St.QuarantineEpisodes);
    W.u32(St.ConsecutivePoisoned);
    W.u32(St.CleanStreak);
    W.u64(St.Backoff);
    W.u64(St.QuarantineRejections);
    persist::StateCodec::encode(W, St.Controller);
    persist::StateCodec::encode(W, *St.Monitor);
    Sections.push_back({StreamSectionId, W.take()});
  }
  return persist::encodeSnapshot(Sections);
}

bool MonitorService::decodeState(
    const std::vector<persist::SnapshotSection> &Sections) {
  if (Sections.size() != Streams.size() + 1 ||
      Sections.front().Id != MetaSectionId)
    return false;
  {
    persist::ByteReader R(Sections.front().Payload);
    const std::uint64_t Seq = R.u64();
    const std::uint64_t Workers = R.u64();
    const std::uint8_t Policy = R.u8();
    const bool Validate = R.boolean();
    const std::uint32_t PoisonThresh = R.u32();
    const std::uint64_t BackoffBase = R.u64();
    const std::uint64_t BackoffMax = R.u64();
    const std::uint32_t CleanBatches = R.u32();
    const std::uint64_t Sub = R.u64();
    const std::uint32_t StreamCount = R.u32();
    if (!R.atEnd() || Workers != Config.Workers ||
        Policy != static_cast<std::uint8_t>(Config.Policy) ||
        Validate != Config.ValidateBatches ||
        PoisonThresh != Config.Health.PoisonQuarantineThreshold ||
        BackoffBase != Config.Health.QuarantineBaseBatches ||
        BackoffMax != Config.Health.QuarantineMaxBatches ||
        CleanBatches != Config.Health.RecoveryCleanBatches ||
        StreamCount != Streams.size())
      return false;
    Submitted.store(Sub, std::memory_order_relaxed);
    JournalSeq = Seq;
    SnapshotSeq = Seq;
  }
  const HealthConfig &HC = Config.Health;
  std::vector<bool> Seen(Streams.size(), false);
  for (std::size_t I = 1; I < Sections.size(); ++I) {
    if (Sections[I].Id != StreamSectionId)
      return false;
    persist::ByteReader R(Sections[I].Payload);
    const std::uint32_t Id = R.u32();
    if (!R.ok() || Id >= Streams.size() || Seen[Id])
      return false;
    Seen[Id] = true;
    StreamState &St = *Streams[Id];
    if (R.u64() != St.Shard)
      return false;
    const auto LoadU64 = [&R](std::atomic<std::uint64_t> &A) {
      A.store(R.u64(), std::memory_order_relaxed);
    };
    LoadU64(St.BatchesProcessed);
    LoadU64(St.TotalSamples);
    LoadU64(St.UcrSamples);
    const std::uint8_t Health = R.u8();
    if (!R.ok() ||
        Health > static_cast<std::uint8_t>(StreamHealth::Recovering))
      return false;
    const auto H = static_cast<StreamHealth>(Health);
    St.Health.store(H, std::memory_order_relaxed);
    LoadU64(St.PoisonedBatches);
    LoadU64(St.QuarantinedBatches);
    LoadU64(St.TimesQuarantined);
    LoadU64(St.Readmissions);
    St.AdmissionClock = R.u64();
    St.QuarantineEpisodes = R.u64();
    St.ConsecutivePoisoned = R.u32();
    St.CleanStreak = R.u32();
    St.Backoff = R.u64();
    St.QuarantineRejections = R.u64();
    // Refuse health state the machine cannot reach: a forged or desynced
    // backoff would otherwise refuse batches for as long as it says.
    const bool Quarantined = H == StreamHealth::Quarantined;
    if (!R.ok() ||
        St.QuarantineEpisodes >
            St.TimesQuarantined.load(std::memory_order_relaxed) ||
        (Quarantined &&
         (St.QuarantineEpisodes == 0 ||
          St.Backoff !=
              quarantineBackoffBatches(HC, St.QuarantineEpisodes) ||
          St.QuarantineRejections > St.Backoff)) ||
        St.ConsecutivePoisoned >=
            std::max<std::uint32_t>(HC.PoisonQuarantineThreshold, 1) ||
        St.CleanStreak >=
            std::max<std::uint32_t>(HC.RecoveryCleanBatches, 2))
      return false;
    // The controller payload carries its own config fingerprint; a
    // snapshot taken under different adaptive tuning (or with desynced
    // dynamic state) fails here and the rung is rejected.
    if (!persist::StateCodec::decode(R, St.Controller) ||
        !persist::StateCodec::decode(R, *St.Monitor) || !R.atEnd())
      return false;
    publish(St);
  }
  return true;
}

void MonitorService::resetPersistedState() {
  for (auto &StPtr : Streams) {
    StreamState &St = *StPtr;
    St.Monitor->reset();
    St.Controller.reset();
    publish(St);
    St.BatchesProcessed.store(0, std::memory_order_relaxed);
    St.TotalSamples.store(0, std::memory_order_relaxed);
    St.UcrSamples.store(0, std::memory_order_relaxed);
    St.Health.store(StreamHealth::Healthy, std::memory_order_relaxed);
    St.PoisonedBatches.store(0, std::memory_order_relaxed);
    St.QuarantinedBatches.store(0, std::memory_order_relaxed);
    St.TimesQuarantined.store(0, std::memory_order_relaxed);
    St.Readmissions.store(0, std::memory_order_relaxed);
    St.AdmissionClock = 0;
    St.QuarantineEpisodes = 0;
    St.ConsecutivePoisoned = 0;
    St.CleanStreak = 0;
    St.Backoff = 0;
    St.QuarantineRejections = 0;
  }
  Submitted.store(0, std::memory_order_relaxed);
  JournalSeq = 0;
  SnapshotSeq = 0;
}

persist::ReplayVerdict
MonitorService::replayRecord(std::span<const std::uint8_t> Payload,
                             SampleBatch &Batch) {
  persist::ByteReader R(Payload);
  Batch.Stream = R.u32();
  if (!persist::decodeSampleBlock(R, Batch.Samples) || !R.atEnd())
    return persist::ReplayVerdict::Malformed;
  // A whole record for a stream this service lacks is no damage: the
  // directory was written under another topology.
  if (Batch.Stream >= Streams.size())
    return persist::ReplayVerdict::Foreign;
  // The record is well-formed; from here on take submit()'s accepted
  // path (health machine, then inline processing standing in for the
  // shard worker, whose hook does not fire: no worker dequeued it). A
  // batch the health machine refuses was refused in the original run
  // too -- the refusal *is* the replayed behaviour.
  if (admit(*Streams[Batch.Stream], Batch))
    processInline(Batch, /*RunHook=*/false);
  return persist::ReplayVerdict::Applied;
}

RestoreOutcome MonitorService::restore() {
  assert(Persist && "attachPersistence() first");
  assert(!Started && "restore() must precede start()");
  using Rung = persist::CheckpointManager::Rung;
  bool Loaded = false;
  for (const Rung R : {Rung::Current, Rung::Previous}) {
    const auto Sections = Persist->loadRung(R);
    if (!Sections)
      continue;
    resetPersistedState();
    if (decodeState(*Sections)) {
      if (R == Rung::Previous)
        Persist->noteFallbackUsed();
      Loaded = true;
      break;
    }
    Persist->noteDecodeFailure();
  }
  if (!Loaded) {
    resetPersistedState();
    Persist->noteColdStart();
  }
  SampleBatch Batch;
  const persist::JournalResult JR = Persist->replayAndRepair(
      SnapshotSeq,
      [this, &Batch](std::uint64_t Seq, std::span<const std::uint8_t> Payload) {
        const persist::ReplayVerdict Verdict = replayRecord(Payload, Batch);
        if (Verdict == persist::ReplayVerdict::Applied)
          JournalSeq = Seq;
        return Verdict;
      });
  if (JR.Mismatch || JR.Gap)
    JournalDead = ForeignJournal = true;
  if (Loaded)
    return JR.RecordsReplayed > 0 ? RestoreOutcome::SnapshotPlusJournal
                                  : RestoreOutcome::SnapshotOnly;
  return JR.RecordsReplayed > 0 ? RestoreOutcome::JournalOnly
                                : RestoreOutcome::ColdStart;
}

bool MonitorService::checkpoint() {
  assert(Persist && "attachPersistence() first");
  assert((!running() || Config.Inline) &&
         "checkpoint() requires a quiescent service");
  // After a restore that stopped at another topology's records, this
  // state is not the directory's: committing it would rotate the
  // directory's own snapshots away.
  const bool Committed =
      !ForeignJournal && Persist->commitSnapshot(encodeState(), SnapshotSeq);
  if (Committed)
    SnapshotSeq = JournalSeq;
  if (Recorder) {
    std::lock_guard<std::mutex> Lock(RecorderMutex);
    Recorder->recordCheckpoint(JournalSeq, Committed);
  }
  return Committed;
}
