//===- service/MonitorService.h - Sharded multi-stream monitor -*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's region monitor serves one hardware sample stream inside one
/// optimizer. Production deployments -- hierarchical per-core monitoring,
/// fleet-wide regression hunting -- face N independent streams at once.
/// MonitorService scales the single-stream monitor out without touching
/// its algorithms:
///
///  * every registered stream owns a private RegionMonitor (streams never
///    share detector state, so per-stream results are bit-identical to a
///    sequential run over the same batches);
///  * streams are hash-routed to a fixed pool of shards, each shard being
///    one worker thread plus one bounded MPSC ring buffer (\ref
///    RingBuffer), so a stream's batches are always processed by the same
///    thread in submission order -- the monitors need no locks;
///  * ingestion applies a backpressure policy per shard: Block (lossless,
///    producers absorb overload) or DropOldest (bounded producer latency,
///    the stream goes gappy like a real HPM buffer on overflow);
///  * per-stream and aggregate statistics are published through a
///    lock-free snapshot API: workers publish into atomics, readers never
///    touch the data-path locks.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_SERVICE_MONITORSERVICE_H
#define REGMON_SERVICE_MONITORSERVICE_H

#include "core/CodeMap.h"
#include "core/RegionMonitor.h"
#include "obs/Instruments.h"
#include "sampling/AdaptiveController.h"
#include "service/RingBuffer.h"
#include "service/StreamHealth.h"
#include "support/Types.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace regmon::persist {
class CheckpointManager;
struct SnapshotSection;
enum class ReplayVerdict : std::uint8_t;
} // namespace regmon::persist

namespace regmon::service {

/// Identifies one registered sample stream (e.g. one core or one
/// monitored process). Assigned densely by \ref MonitorService::addStream.
using StreamId = std::uint32_t;

/// One interval's worth of samples from one stream -- the unit of
/// ingestion. Mirrors the sampling front-end's buffer-overflow delivery.
struct SampleBatch {
  StreamId Stream = 0;
  std::vector<Sample> Samples;
  /// Flight-recorder sequence number stamped by \ref MonitorService::submit
  /// when a \ref BatchRecorder is attached (0 otherwise). Identifies this
  /// batch in later drop/push-reject records, so an overloaded run's
  /// evictions replay against the right batches.
  std::uint64_t TraceSeq = 0;
  /// Stream health as the admission decision left it, stamped by \ref
  /// MonitorService::submit on admitted batches. Not part of any wire
  /// format: journal replay and trace replay re-derive it by re-running
  /// the same admission sequence. Carrying it with the batch hands the
  /// worker-side adaptive controller a health signal that is a pure
  /// function of the stream's admitted sequence, independent of when the
  /// submit side has already raced ahead.
  StreamHealth AdmitHealth = StreamHealth::Healthy;
};

/// The decision \ref MonitorService::submit took for one batch, as
/// captured by an attached \ref BatchRecorder. Deterministic fates
/// (Refused/Admitted) are re-derived and cross-checked at replay;
/// environmental fates (DoorRejected/JournalRejected) and the separately
/// recorded drop/push-reject outcomes are applied from the record, since
/// they depend on timing the replayed process does not reproduce.
enum class RecordedFate : std::uint8_t {
  DoorRejected = 0,    ///< Closed shard queue (post-stop submission).
  JournalRejected = 1, ///< Write-ahead journal append failed (dead latch).
  Refused = 2,         ///< Health machine refused (poisoned/quarantined).
  Admitted = 3,        ///< Admitted for processing (may still drop later).
};

/// Returns a short identifier for reports.
const char *toString(RecordedFate F);

/// Recording tap for the flight recorder (implemented by
/// trace::TraceRecorder; declared here so src/service never depends on
/// src/trace). \ref MonitorService calls every method under its own
/// recorder serialization, so implementations need no internal locking;
/// the captured record order is a real submission order across streams.
/// A recorder that fails internally must keep accepting calls as no-ops:
/// recording is an observer, it never turns into backpressure.
class BatchRecorder {
public:
  virtual ~BatchRecorder() = default;
  /// Captures where the recording starts, called once at attach: the
  /// configuration fingerprint (\ref MonitorService::configFingerprint)
  /// followed by the start point (\ref MonitorService::startPoint) as a
  /// u64 sequence and a u32 state CRC -- the flight recorder's Config
  /// payload (trace/Format.h).
  virtual void recordConfig(std::span<const std::uint8_t> Config) = 0;
  /// Captures one submitted batch and its fate; returns the trace
  /// sequence number assigned to the batch (stamped into
  /// \ref SampleBatch::TraceSeq by the caller).
  virtual std::uint64_t recordBatch(const SampleBatch &Batch,
                                    RecordedFate Fate) = 0;
  /// Captures a DropOldest eviction of the batch stamped \p EvictedSeq
  /// from shard \p Shard's queue.
  virtual void recordDrop(std::uint64_t EvictedSeq, std::uint64_t Shard) = 0;
  /// Captures a failed push (queue closed between door check and push)
  /// of the batch stamped \p Seq.
  virtual void recordPushReject(std::uint64_t Seq) = 0;
  /// Captures a checkpoint attempt at journal sequence \p JournalSeq.
  virtual void recordCheckpoint(std::uint64_t JournalSeq, bool Committed) = 0;
};

/// Service-wide tunables.
struct ServiceConfig {
  /// Shard count == worker thread count. Streams are hash-partitioned
  /// across shards.
  std::size_t Workers = 4;
  /// Per-shard ring-buffer capacity, in batches.
  std::size_t QueueCapacity = 64;
  /// What a full shard queue does to an incoming batch.
  OverflowPolicy Policy = OverflowPolicy::Block;
  /// Structural batch validation plus the per-stream health state machine
  /// (see service/StreamHealth.h), applied at submit time. When disabled
  /// every batch is admitted and every stream stays Healthy.
  bool ValidateBatches = true;
  /// Health state machine tuning. Ignored unless ValidateBatches.
  HealthConfig Health;
  /// Per-stream adaptive sampling controller tuning (DESIGN.md §16).
  /// Disabled by default: every stream then holds the base period and
  /// the service's behaviour -- admissions, processing, encoded state --
  /// is bit-identical to a service that never had controllers.
  sampling::AdaptiveConfig Adaptive{};
  /// Worker-less execution: \ref MonitorService::submit journals, admits
  /// and processes each batch synchronously on the calling thread --
  /// start() spawns nothing and the shard queues sit unused. Admission,
  /// health, persistence and per-stream results are identical to the
  /// threaded mode (per-stream processing is single-owner either way);
  /// what changes is that the embedding owns the schedule, which is what
  /// a deterministic simulation (the fleet tree, ISSUE 8) needs. In this
  /// mode monitors stay inspectable and state encodable between submits
  /// even while the service is "running", since the submitting thread is
  /// the only mutator.
  bool Inline = false;
};

/// Point-in-time statistics of one stream. All counters are published by
/// the stream's worker after each batch; a snapshot is internally
/// consistent per stream up to the last fully processed batch.
struct StreamSnapshot {
  StreamId Stream = 0;
  std::size_t Shard = 0;
  std::uint64_t BatchesProcessed = 0;
  /// Batches that carried samples (empty batches are counted processed
  /// but observe no interval).
  std::uint64_t IntervalsProcessed = 0;
  std::uint64_t PhaseChanges = 0;
  std::uint64_t FormationTriggers = 0;
  std::uint64_t RegionsFormed = 0;
  std::uint64_t ActiveRegions = 0;
  std::uint64_t TotalSamples = 0;
  std::uint64_t UcrSamples = 0;
  /// Health machine state, as the submit side last left it.
  StreamHealth Health = StreamHealth::Healthy;
  /// Structurally malformed batches rejected at submit.
  std::uint64_t PoisonedBatches = 0;
  /// Batches rejected while the stream sat out a quarantine backoff.
  std::uint64_t QuarantinedBatches = 0;
  /// Times the stream entered quarantine.
  std::uint64_t TimesQuarantined = 0;
  /// Probe batches admitted after a quarantine backoff expired.
  std::uint64_t Readmissions = 0;
  /// Adaptive controller outputs (zero / base values while disabled).
  std::uint32_t PeriodScaleLog2 = 0;
  std::uint64_t SamplesSaved = 0;
  std::uint64_t ControllerLengthens = 0;
  std::uint64_t ControllerTightens = 0;

  /// Lifetime fraction of the stream's samples left unattributed.
  double ucrFraction() const {
    return TotalSamples == 0 ? 0.0
                             : static_cast<double>(UcrSamples) /
                                   static_cast<double>(TotalSamples);
  }
};

/// Point-in-time statistics of one shard (queue + worker).
struct ShardSnapshot {
  std::size_t QueueDepth = 0;
  /// Batches evicted by the DropOldest policy before processing.
  std::uint64_t BatchesDropped = 0;
};

/// Aggregate + per-stream + per-shard statistics.
struct ServiceSnapshot {
  std::uint64_t BatchesSubmitted = 0;
  std::uint64_t BatchesProcessed = 0;
  std::uint64_t BatchesDropped = 0;
  /// Batches refused at the door -- submitted after \ref
  /// MonitorService::stop (or against a closed shard queue). Rejected
  /// batches are not counted in BatchesSubmitted, so processed + dropped
  /// == submitted still holds after stop.
  std::uint64_t BatchesRejected = 0;
  /// Sum of per-stream PoisonedBatches.
  std::uint64_t BatchesPoisoned = 0;
  /// Sum of per-stream QuarantinedBatches.
  std::uint64_t BatchesQuarantined = 0;
  std::uint64_t IntervalsProcessed = 0;
  std::uint64_t PhaseChanges = 0;
  std::uint64_t TotalSamples = 0;
  std::uint64_t UcrSamples = 0;
  /// Sum of per-stream SamplesSaved (adaptive controllers).
  std::uint64_t SamplesSaved = 0;
  std::size_t QueueDepth = 0; ///< Sum over shards.
  std::vector<ShardSnapshot> Shards;
  std::vector<StreamSnapshot> Streams;

  /// Aggregate UCR fraction, sample-weighted across streams.
  double ucrFraction() const {
    return TotalSamples == 0 ? 0.0
                             : static_cast<double>(UcrSamples) /
                                   static_cast<double>(TotalSamples);
  }
};

/// The state a service holds where a recording starts, or a replay
/// begins: the journal sequence it has reached and the CRC-32 of its
/// encodeState() there (the snapshot container's trailing file CRC, over
/// every byte before it). At sequence 0 the state is the cold one the
/// configuration fingerprint already pins, so the CRC is 0 and no encode
/// is paid.
struct StartPoint {
  std::uint64_t Sequence = 0;
  std::uint32_t StateCrc = 0;
  bool operator==(const StartPoint &) const = default;
};

/// How \ref MonitorService::restore rebuilt the service state.
enum class RestoreOutcome : std::uint8_t {
  ColdStart,           ///< No usable snapshot and no journal records.
  JournalOnly,         ///< No usable snapshot; the journal replayed from cold.
  SnapshotOnly,        ///< Snapshot loaded; no journal records beyond it.
  SnapshotPlusJournal, ///< Snapshot loaded, then journal records replayed.
};

/// Returns a short identifier for reports.
const char *toString(RestoreOutcome O);

/// Owns a pool of sharded RegionMonitors and the worker threads that feed
/// them. Lifecycle: register streams (\ref addStream), \ref start, submit
/// batches from any number of threads, \ref stop (drains every queued
/// batch), then inspect per-stream monitors. One start/stop cycle per
/// instance.
class MonitorService {
public:
  explicit MonitorService(ServiceConfig Config = {});
  ~MonitorService();

  MonitorService(const MonitorService &) = delete;
  MonitorService &operator=(const MonitorService &) = delete;

  /// Registers a stream resolving region candidates through \p Map (which
  /// must outlive the service) and monitoring with \p MonitorConfig.
  /// Returns the stream's id. Must not be called after \ref start.
  StreamId addStream(const core::CodeMap &Map,
                     core::RegionMonitorConfig MonitorConfig = {});

  /// Returns the shard (worker) that processes \p Stream's batches.
  std::size_t shardOf(StreamId Stream) const;

  /// Spawns the worker pool. Batches submitted before start are buffered
  /// (up to each shard's queue capacity) and processed once workers run.
  void start();

  /// Closes every shard queue, drains all queued batches, and joins the
  /// workers. Idempotent. After stop, per-stream monitors are quiescent
  /// and may be inspected through \ref monitor.
  void stop();

  /// Returns true between \ref start and \ref stop.
  bool running() const { return Running.load(std::memory_order_acquire); }

  /// Routes \p Batch to its stream's shard under the configured
  /// backpressure policy. Returns false once the service has been stopped
  /// (the batch is discarded and counted in \ref
  /// ServiceSnapshot::BatchesRejected), or when the health machine
  /// refuses the batch (structurally malformed, or the stream is
  /// quarantined). Empty batches are legal and count as processed without
  /// observing an interval.
  ///
  /// Thread-safe across streams. Batches of *one* stream must be
  /// submitted by one thread at a time -- the same external serialization
  /// in-order delivery already requires -- which makes each stream's
  /// admission decisions a deterministic function of its submission
  /// sequence.
  bool submit(SampleBatch Batch);

  /// Installs \p Hook, invoked by the owning worker with (shard index,
  /// batch) immediately after dequeuing each batch, before processing.
  /// Intended for fault-injection harnesses (e.g. stalling a worker).
  /// Hooks that block must poll \ref stopRequested and return once it is
  /// set, so \ref stop stays bounded by the polling period rather than
  /// the stall length. Must be installed before \ref start.
  void setWorkerHook(std::function<void(std::size_t, const SampleBatch &)> Hook);

  /// True once \ref stop has been entered. The flag is raised before the
  /// queues close, so a stalled worker hook observes it no later than its
  /// next poll.
  bool stopRequested() const {
    return StopRequested.load(std::memory_order_acquire);
  }

  /// Publishes current statistics. Never blocks on the data path: all
  /// fields are read from atomics (each internally consistent; the
  /// cross-field view is a point-in-time sample, e.g. BatchesSubmitted
  /// may lead BatchesProcessed + BatchesDropped + QueueDepth by in-flight
  /// batches).
  ServiceSnapshot snapshot() const;

  /// Returns \p Stream's monitor for inspection. Only safe while the
  /// service is not running (before \ref start or after \ref stop), or at
  /// any quiescent point of an Inline service (no submit in flight).
  const core::RegionMonitor &monitor(StreamId Stream) const;

  /// Returns \p Stream's adaptive controller for inspection. Same
  /// quiescence contract as \ref monitor.
  const sampling::AdaptiveController &controller(StreamId Stream) const;

  /// Returns the sampling period \p Stream's controller currently
  /// recommends, in cycles. Lock-free and safe at any time (reads the
  /// worker-published scale); the sampling front-end polls this between
  /// intervals to apply the recommendation.
  Cycles recommendedPeriodCycles(StreamId Stream) const;

  /// Returns the service configuration.
  const ServiceConfig &config() const { return Config; }

  //===------------------------------------------------------------------===//
  // Observability (obs layer, DESIGN.md section 11).
  //===------------------------------------------------------------------===//

  /// Registers the service metric catalogue against \p Registry, creates
  /// per-stream monitor instruments (labelled `stream="N"`), and attaches
  /// them to every registered stream's RegionMonitor. Health transitions
  /// (quarantine / recovery) are recorded against \p Tracer (may be null)
  /// using the stream's admission count as the logical clock. Must be
  /// called after every \ref addStream and before \ref start; \p Registry
  /// and \p Tracer must outlive the service.
  void attachObservability(obs::MetricsRegistry &Registry,
                           obs::EventTracer *Tracer = nullptr);

  //===------------------------------------------------------------------===//
  // Crash-safe persistence (persist/Checkpoint.h, DESIGN.md section 10).
  //===------------------------------------------------------------------===//

  /// Attaches \p Store as the durability backend: every subsequently
  /// submitted batch is journaled write-ahead (before admission, so
  /// recovery re-runs the same admission decisions over the same
  /// sequence), and \ref restore / \ref checkpoint become available.
  /// Must be called before \ref start; \p Store must outlive the service.
  /// \ref restore must run after it and before \ref start: it repairs
  /// the journal and resumes its sequence. Without it the journal refuses
  /// every append that replay would lose (behind a torn tail, or at a
  /// sequence that does not increase), and \ref submit refuses each
  /// batch as JournalRejected. The service's policy must be Block: the
  /// journal records no evictions, so recovery would process the batches
  /// a DropOldest queue dropped.
  void attachPersistence(persist::CheckpointManager &Store);

  /// Recovers state from the attached store: climbs the snapshot ladder
  /// (current -> previous -> cold start), then replays journal records
  /// beyond the loaded snapshot through the normal admission + processing
  /// path. Must run after every stream is registered and before \ref
  /// start. Safe on an empty or damaged directory -- corruption degrades
  /// to a colder rung with the reason counted, it never crashes. A journal
  /// record naming a stream this service lacks (a directory of another
  /// topology), or one that does not continue the restored state (a gap:
  /// compaction dropped the records before it), ends replay without
  /// repairing anything; the journal then refuses every submit
  /// (JournalRejected) and \ref checkpoint refuses to commit, so nothing
  /// is written over records the service never applied.
  /// Replayed batches count in the attached exports, which count this
  /// process's work; \ref snapshot counts the streams' lifetime.
  RestoreOutcome restore();

  /// Commits a snapshot of the full service state and compacts the
  /// journal (see the commit protocol in persist/Checkpoint.h). Requires
  /// a quiescent service (before \ref start or after \ref stop). False
  /// means the commit did not complete, or was refused after a restore
  /// that found another topology's journal; the previous snapshot,
  /// fallback rung, and journal stay usable.
  bool checkpoint();

  /// Serializes the full service state (meta section + one section per
  /// stream) into a snapshot container. Requires quiescence. Exposed so
  /// tests can assert recovered state is bit-identical to a reference.
  std::vector<std::uint8_t> encodeState() const;

  /// Returns the sequence number of the last batch journaled by \ref
  /// submit or re-applied by \ref restore; 0 before either. Only stable
  /// while the service is quiescent.
  std::uint64_t persistedSequence() const { return JournalSeq; }

  /// Where the service's state stands now (see \ref StartPoint). Same
  /// quiescence contract as \ref encodeState when the sequence is not 0.
  StartPoint startPoint() const;

  //===------------------------------------------------------------------===//
  // Flight recorder (src/trace, DESIGN.md section 15).
  //===------------------------------------------------------------------===//

  /// Attaches \p Recorder as the flight-recorder tap: every subsequent
  /// submit records the batch bytes plus the fate decided for it, every
  /// DropOldest eviction and failed push records the evicted batch's
  /// trace sequence, and every \ref checkpoint records a marker -- the
  /// full decision sequence \ref applyRecorded needs to re-execute the
  /// run. Immediately records the configuration fingerprint and the
  /// start point, so a replay can refuse a state it cannot start from.
  /// Must be
  /// called after every \ref addStream (and after \ref restore when
  /// persistence is attached, so the trace starts at the recovered
  /// state), before \ref start; \p Recorder must outlive the service.
  void attachRecorder(BatchRecorder &Recorder);

  /// Serializes the configuration fields replay determinism depends on
  /// (worker/shard count for routing, queue capacity, policy, health
  /// tuning, stream count). Inline is deliberately absent: a threaded
  /// recording replays on a worker-less service.
  std::vector<std::uint8_t> configFingerprint() const;

  /// Re-executes one recorded submission against this service, which
  /// must be Inline and running. Deterministic decisions re-run and are
  /// cross-checked against \p Fate; timing-dependent outcomes are
  /// applied from the record: \p Dropped skips processing and counts a
  /// queue eviction, \p PushFailed reproduces the rejected-push
  /// accounting. \p Batch is used in place, not copied (admission stamps
  /// its AdmitHealth). Returns false on divergence (the health machine
  /// chose differently than the recording, an unknown stream, or a
  /// journal append failure in the replay environment) -- the caller
  /// stops replay there.
  bool applyRecorded(SampleBatch &Batch, RecordedFate Fate, bool Dropped,
                     bool PushFailed);

private:
  /// Per-stream state. Each number has one owner. The worker (or the
  /// submitting thread in Inline mode) owns the monitor, the controller
  /// and the processing counters; the submit side owns the health
  /// machine, serialized per stream (see \ref submit). Fields snapshot()
  /// reads are atomic so it never tears; the rest are plain.
  struct StreamState {
    const core::CodeMap *Map = nullptr;
    StreamId Id = 0;
    std::size_t Shard = 0;
    std::unique_ptr<core::RegionMonitor> Monitor;
    /// Adaptive sampling controller, advanced once per processed interval.
    sampling::AdaptiveController Controller;
    /// Per-stream monitor instruments (wired by attachObservability; all
    /// null pointers otherwise). Lives here so its address stays stable
    /// for the monitor's lifetime.
    obs::MonitorInstruments Instruments;
    std::atomic<std::uint64_t> BatchesProcessed{0};
    std::atomic<std::uint64_t> TotalSamples{0};
    std::atomic<std::uint64_t> UcrSamples{0};
    // Health machine: the fields snapshot() reads.
    std::atomic<StreamHealth> Health{StreamHealth::Healthy};
    std::atomic<std::uint64_t> PoisonedBatches{0};
    std::atomic<std::uint64_t> QuarantinedBatches{0};
    std::atomic<std::uint64_t> TimesQuarantined{0};
    std::atomic<std::uint64_t> Readmissions{0};
    // Health machine: submit-side only.
    /// Admission decisions taken for this stream -- the logical clock
    /// stamped on quarantine/recovery events (deterministic under the
    /// per-stream submission serialization, unlike any wall clock).
    std::uint64_t AdmissionClock = 0;
    /// Quarantine episodes since the last full recovery; drives the
    /// exponential backoff, unlike the lifetime TimesQuarantined.
    std::uint64_t QuarantineEpisodes = 0;
    std::uint32_t ConsecutivePoisoned = 0;
    std::uint32_t CleanStreak = 0;
    std::uint64_t Backoff = 0;
    std::uint64_t QuarantineRejections = 0;
    // Copies of monitor- and controller-owned numbers, written only by
    // publish() so snapshot() and recommendedPeriodCycles() never touch
    // the worker-owned objects.
    std::atomic<std::uint64_t> IntervalsProcessed{0};
    std::atomic<std::uint64_t> PhaseChanges{0};
    std::atomic<std::uint64_t> FormationTriggers{0};
    std::atomic<std::uint64_t> RegionsFormed{0};
    std::atomic<std::uint64_t> ActiveRegions{0};
    std::atomic<std::uint32_t> PeriodScaleLog2{0};
    std::atomic<std::uint64_t> SamplesSaved{0};
    std::atomic<std::uint64_t> CtlLengthens{0};
    std::atomic<std::uint64_t> CtlTightens{0};
  };

  /// One shard: a bounded queue drained by one worker thread.
  struct Shard {
    Shard(std::size_t Idx, std::size_t Capacity, OverflowPolicy Policy)
        : Index(Idx), Queue(Capacity, Policy) {}
    const std::size_t Index;
    RingBuffer<SampleBatch> Queue;
    std::thread Worker;
  };

  void workerLoop(Shard &S);
  void process(const SampleBatch &Batch);
  /// Copies the numbers \p St's monitor and controller own into the
  /// atomics snapshot() reads.
  static void publish(StreamState &St);

  // The accepted-batch path, shared by submit, applyRecorded and
  // journal replay.

  /// Write-ahead: journals \p Batch at the next sequence number. True
  /// when no store is attached or the append is durable; a failed append
  /// latches the journal dead, refusing every later batch too.
  bool journal(const SampleBatch &Batch);
  /// Runs \p Batch through \p St's health machine (when validating) and
  /// stamps the post-admission health into it; true when admitted.
  bool admit(StreamState &St, SampleBatch &Batch);
  /// Advances \p St's health machine for one batch whose structural
  /// validity is \p Valid; returns true when the batch is admitted.
  bool advanceHealth(StreamState &St, bool Valid);
  /// Puts \p St into quarantine, doubling the backoff per episode.
  void quarantine(StreamState &St);
  /// Counts \p Batch submitted and processes it on the calling thread,
  /// standing in for its shard worker. \p RunHook fires the worker hook
  /// first, as a dequeue would.
  void processInline(const SampleBatch &Batch, bool RunHook);
  /// Counts one batch submitted, in the snapshot and the export.
  void countSubmitted();
  /// Counts one batch refused at the door, in the snapshot and the export.
  void countRejected();

  /// Records \p Batch with \p Fate against the attached recorder (no-op
  /// when none), stamping the assigned sequence into Batch.TraceSeq.
  void recordFate(SampleBatch &Batch, RecordedFate Fate);

  /// Re-applies one journaled batch through admission + processing,
  /// decoding it into \p Batch, which restore() reuses for every record.
  /// Malformed and Foreign (a stream this service lacks) end journal
  /// replay there.
  persist::ReplayVerdict replayRecord(std::span<const std::uint8_t> Payload,
                                      SampleBatch &Batch);
  /// Decodes a loaded snapshot's sections into this service. False may
  /// leave the service partially written; the caller resets and retries
  /// the next rung.
  bool decodeState(const std::vector<persist::SnapshotSection> &Sections);
  /// Returns every monitor, counter, and sequence number to cold-start
  /// state (the stream registry and configuration are kept).
  void resetPersistedState();

  ServiceConfig Config;
  std::vector<std::unique_ptr<StreamState>> Streams;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::function<void(std::size_t, const SampleBatch &)> WorkerHook;
  std::atomic<std::uint64_t> Submitted{0};
  std::atomic<std::uint64_t> Rejected{0};

  // Service-wide observability (null until attachObservability).
  obs::Counter *ObsSubmitted = nullptr;
  obs::Counter *ObsRejected = nullptr;
  obs::Counter *ObsPoisoned = nullptr;
  obs::Counter *ObsQuarantines = nullptr;
  obs::Counter *ObsRecoveries = nullptr;
  obs::Gauge *ObsQueueDepth = nullptr;
  obs::Gauge *ObsStreamsQuarantined = nullptr;
  obs::EventTracer *ObsTracer = nullptr;
  std::atomic<bool> Running{false};
  std::atomic<bool> StopRequested{false};
  bool Started = false;
  bool Stopped = false;

  // Persistence, all inert until attachPersistence(). The mutex lives
  // here rather than in persist (which is single-owner by contract): it
  // serializes sequence assignment + append across submitting threads, so
  // the journal's global record order is a real submission order.
  persist::CheckpointManager *Persist = nullptr;
  std::mutex JournalMutex;
  /// Last journal sequence assigned (submit) or re-applied (restore).
  /// Written under JournalMutex while running, plainly while quiescent.
  std::uint64_t JournalSeq = 0;
  /// Sequence covered by the on-disk snapshot.bin -- the replay skip
  /// threshold and the next checkpoint's journal-compaction bound.
  std::uint64_t SnapshotSeq = 0;
  /// Latched on append failure: a batch that cannot be made durable is
  /// refused rather than processed, so the journal never under-reports
  /// acknowledged work.
  bool JournalDead = false;
  /// Set by a restore whose journal replay stopped at a record for a
  /// stream this service lacks, or at a gap: a record that does not
  /// continue the restored state. With it the journal is dead too, and
  /// checkpoint() refuses to commit.
  bool ForeignJournal = false;

  // Flight recorder, inert until attachRecorder(). The mutex lives here
  // for the same reason JournalMutex does (src/trace joins the lint
  // Deterministic layer, which owns no concurrency primitives): it
  // serializes sequence assignment + append across submitting threads,
  // so the trace's global record order is a real submission order.
  BatchRecorder *Recorder = nullptr;
  std::mutex RecorderMutex;
};

} // namespace regmon::service

#endif // REGMON_SERVICE_MONITORSERVICE_H
