//===- perfbench/Passes.cpp - One timed pass through the service ----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include "obs/Export.h"
#include "persist/Checkpoint.h"
#include "trace/Recorder.h"
#include "trace/Replay.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <malloc.h>
#include <memory>
#include <optional>
#include <time.h>

#include "Stats.h"

using namespace regmon;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

double micros(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

double cpuSeconds(clockid_t Id) {
  timespec Ts{};
  clock_gettime(Id, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) * 1e-9;
}

/// Heap bytes in use (all arenas plus mmapped chunks), in MiB.
double heapMb() {
  const struct mallinfo2 M = mallinfo2();
  return static_cast<double>(M.uordblks + M.hblkhd) / (1024.0 * 1024.0);
}

std::uint64_t fileBytes(const std::string &Path) {
  std::error_code Ec;
  const auto N = fs::file_size(Path, Ec);
  return Ec ? 0 : N;
}

void freshDir(const std::string &Dir) {
  fs::remove_all(Dir);
  fs::create_directories(Dir);
}

std::size_t countSeries(const std::string &Prometheus) {
  std::size_t N = 0;
  std::size_t Pos = 0;
  while (Pos < Prometheus.size()) {
    std::size_t End = Prometheus.find('\n', Pos);
    if (End == std::string::npos)
      End = Prometheus.size();
    if (End > Pos && Prometheus[Pos] != '#')
      ++N;
    Pos = End + 1;
  }
  return N;
}

/// Forwards every call to the real flight recorder and times
/// recordBatch -- the recorder's share of submit().
class TimedRecorder final : public service::BatchRecorder {
public:
  TimedRecorder(trace::TraceRecorder &Inner, std::vector<double> &Us)
      : Inner(Inner), Us(Us) {}
  void recordConfig(std::span<const std::uint8_t> Fingerprint) override {
    Inner.recordConfig(Fingerprint);
  }
  std::uint64_t recordBatch(const service::SampleBatch &Batch,
                            service::RecordedFate Fate) override {
    const auto T0 = Clock::now();
    const std::uint64_t Seq = Inner.recordBatch(Batch, Fate);
    Us.push_back(micros(T0, Clock::now()));
    return Seq;
  }
  void recordDrop(std::uint64_t EvictedSeq, std::uint64_t Shard) override {
    Inner.recordDrop(EvictedSeq, Shard);
  }
  void recordPushReject(std::uint64_t Seq) override {
    Inner.recordPushReject(Seq);
  }
  void recordCheckpoint(std::uint64_t JournalSeq, bool Committed) override {
    Inner.recordCheckpoint(JournalSeq, Committed);
  }

private:
  trace::TraceRecorder &Inner;
  std::vector<double> &Us;
};

/// One worker-hook firing: which stream's batch, and when.
struct HookHit {
  service::StreamId Stream = 0;
  Clock::time_point At;
};

/// Derives admit/process/queue-wait spans from submit entry/exit times
/// (indexed by batch) and hook firings (per shard, in dequeue order).
/// Hook firings match submissions by per-stream FIFO order.
void deriveSpans(const Inputs &In, bool Inline,
                 const std::vector<Clock::time_point> &Entry,
                 const std::vector<Clock::time_point> &Exit,
                 const std::vector<std::vector<HookHit>> &Hooks,
                 PassStats &P) {
  std::vector<std::vector<std::size_t>> ByStream(In.Streams.size());
  for (std::size_t I = 0; I < In.Batches.size(); ++I)
    ByStream[In.Batches[I].Stream].push_back(I);
  std::vector<std::size_t> Next(In.Streams.size(), 0);
  for (const std::vector<HookHit> &Shard : Hooks) {
    std::vector<std::size_t> Matched;
    for (const HookHit &H : Shard)
      Matched.push_back(ByStream[H.Stream][Next[H.Stream]++]);
    for (std::size_t J = 0; J < Shard.size(); ++J) {
      const std::size_t B = Matched[J];
      if (Inline) {
        P.AdmitUs.push_back(micros(Entry[B], Shard[J].At));
        P.ProcessUs.push_back(micros(Shard[J].At, Exit[B]));
        continue;
      }
      P.QueueWaitUs.push_back(std::max(0.0, micros(Exit[B], Shard[J].At)));
      // The gap to the shard's next dequeue is this batch's processing
      // time only when the next batch was already queued.
      if (J + 1 < Shard.size() && Exit[Matched[J + 1]] <= Shard[J].At)
        P.ProcessUs.push_back(micros(Shard[J].At, Shard[J + 1].At));
    }
  }
}

} // namespace

std::size_t threadCount() {
  std::error_code Ec;
  std::size_t N = 0;
  for (fs::directory_iterator It("/proc/self/task", Ec), End; !Ec && It != End;
       It.increment(Ec))
    ++N;
  return N;
}

Attach configured(const Shape &S) {
  return {S.Journal, S.Recorder, S.Obs, S.ScrapeEvery};
}

namespace {

/// A service with one pass's attachments, built in setup order (members
/// are declared so the service is destroyed first). \p RecordUs, when
/// set, times the recorder tap; \p Hooks, when set, receives every
/// worker-hook firing.
struct Deployment {
  std::optional<obs::MetricsRegistry> Registry;
  std::optional<obs::EventTracer> Tracer;
  obs::PersistInstruments PersistObs;
  obs::TraceInstruments TraceObs;
  std::unique_ptr<persist::CheckpointManager> Store;
  trace::TraceRecorder Recorder;
  std::unique_ptr<TimedRecorder> Timed;
  std::unique_ptr<service::MonitorService> Svc;
  bool RecorderOpen = true;

  Deployment(const Shape &S, const Inputs &In, const Attach &A,
             const std::string &Dir, std::vector<double> *RecordUs,
             std::vector<std::vector<HookHit>> *Hooks) {
    Svc = std::make_unique<service::MonitorService>(serviceConfig(S, false));
    for (const StreamModel &M : In.Streams)
      Svc->addStream(*M.Map);
    if (A.Obs) {
      Registry.emplace();
      Tracer.emplace();
      Svc->attachObservability(*Registry, &*Tracer);
    }
    if (A.Journal) {
      Store = std::make_unique<persist::CheckpointManager>(Dir);
      if (A.Obs) {
        PersistObs = obs::makePersistInstruments(*Registry, &*Tracer, 0, "");
        Store->attachObservability(&PersistObs);
      }
      Svc->attachPersistence(*Store);
      Svc->restore();
    }
    if (A.Recorder) {
      RecorderOpen = Recorder.open(Dir + "/trace.bin").Ok;
      if (A.Obs) {
        TraceObs = obs::makeTraceInstruments(*Registry, "");
        Recorder.attachObservability(&TraceObs);
      }
      if (RecordUs) {
        Timed = std::make_unique<TimedRecorder>(Recorder, *RecordUs);
        Svc->attachRecorder(*Timed);
      } else {
        Svc->attachRecorder(Recorder);
      }
    }
    if (Hooks)
      Svc->setWorkerHook(
          [Hooks](std::size_t Shard, const service::SampleBatch &B) {
            (*Hooks)[Shard].push_back({B.Stream, Clock::now()});
          });
    Svc->start();
  }
  Deployment(const Deployment &) = delete;
  Deployment &operator=(const Deployment &) = delete;
};

/// Times \p Build (which constructs and returns an object) SetupCycles
/// times, destroying each result untimed after \p Reset; returns the
/// median. Back-to-back repetitions keep one cold setup from deciding
/// the figure.
template <typename ResetFn, typename BuildFn>
double medianSetup(ResetFn &&Reset, BuildFn &&Build) {
  constexpr int SetupCycles = 8;
  std::vector<double> Times;
  for (int I = 0; I < SetupCycles; ++I) {
    Reset();
    const auto T0 = Clock::now();
    const auto Built = Build();
    Times.push_back(seconds(T0, Clock::now()));
  }
  return median(Times);
}

} // namespace

PassStats runIngestPass(const Shape &S, const Inputs &In, const Reference &Ref,
                        const Attach &A, bool Spans, const std::string &Dir) {
  PassStats P;
  const std::size_t N = In.Batches.size();
  const bool Inline = S.Workers == 0;
  P.SetupS = medianSetup([&] { freshDir(Dir); }, [&] {
    return std::make_unique<Deployment>(S, In, A, Dir, nullptr, nullptr);
  });
  freshDir(Dir);
  const double Heap0 = heapMb();
  std::vector<std::vector<HookHit>> Hooks(std::max<std::size_t>(S.Workers, 1));
  for (auto &H : Hooks)
    H.reserve(Spans ? N : 0);
  P.RecordUs.reserve(N);
  Deployment D(S, In, A, Dir, Spans ? &P.RecordUs : nullptr,
               Spans ? &Hooks : nullptr);
  service::MonitorService *Svc = D.Svc.get();
  if (!D.RecorderOpen)
    P.Mismatches.push_back("cannot open the flight recorder");
  P.Threads = threadCount();

  std::vector<Clock::time_point> Entry, Exit;
  if (Spans) {
    Entry.resize(N);
    Exit.resize(N);
  }
  P.SubmitUs.reserve(N);
  double CopyCpu = 0;
  const double Cpu0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  for (std::size_t I = 0; I < N; ++I) {
    const double C0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    service::SampleBatch B = In.Batches[I];
    CopyCpu += cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - C0;
    const auto T0 = Clock::now();
    Svc->submit(std::move(B));
    const auto T1 = Clock::now();
    P.SubmitUs.push_back(micros(T0, T1));
    P.SpanS += seconds(T0, T1);
    if (Spans) {
      Entry[I] = T0;
      Exit[I] = T1;
    }
    if (A.Obs && A.ScrapeEvery && (I + 1) % A.ScrapeEvery == 0) {
      const auto S0 = Clock::now();
      const service::ServiceSnapshot Snap = Svc->snapshot();
      const std::string Text = obs::exportPrometheus(*D.Registry);
      const auto S1 = Clock::now();
      P.ScrapeUs.push_back(micros(S0, S1));
      P.SpanS += seconds(S0, S1);
      P.MaxQueueDepth = std::max(P.MaxQueueDepth, Snap.QueueDepth);
    } else if (Spans && !Inline && (I + 1) % 64 == 0) {
      P.MaxQueueDepth = std::max(P.MaxQueueDepth, Svc->snapshot().QueueDepth);
    }
  }
  const auto D0 = Clock::now();
  Svc->stop();
  P.SpanS += seconds(D0, Clock::now());
  P.CpuS = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - Cpu0 - CopyCpu;

  P.HeapMb = heapMb() - Heap0;
  P.Batches = N;
  P.Samples = In.Samples;
  P.Snap = Svc->snapshot();
  P.Failed = N - std::min<std::uint64_t>(N, P.Snap.BatchesProcessed);
  for (std::string &M : checkSnapshot(P.Snap, Ref))
    P.Mismatches.push_back(std::move(M));
  P.State = Svc->encodeState();
  if (A.Obs)
    P.ObsSeries = countSeries(obs::exportPrometheus(*D.Registry));
  if (D.Store)
    P.JournalBytes = fileBytes(D.Store->journalPath());
  if (A.Recorder) {
    P.TraceBytes = D.Recorder.bytesWritten();
    if (D.Recorder.appendFailures() != 0 || !D.Recorder.close())
      P.Mismatches.push_back("flight recorder append failed");
  }
  if (Spans)
    deriveSpans(In, Inline, Entry, Exit, Hooks, P);
  return P;
}

namespace {

/// Submits batches [Begin, End) of \p In through a threaded service
/// journaling to \p Store, after restoring from it; checkpoints at the
/// end when \p Commit. Returns false when any step fails.
bool submitRange(const Shape &S, const Inputs &In, const std::string &Dir,
                 std::size_t Begin, std::size_t End, bool Commit) {
  persist::CheckpointManager Store(Dir);
  service::MonitorService Svc(serviceConfig(S, false));
  for (const StreamModel &M : In.Streams)
    Svc.addStream(*M.Map);
  Svc.attachPersistence(Store);
  Svc.restore();
  Svc.start();
  bool Ok = Store.valid();
  for (std::size_t I = Begin; I < End; ++I)
    Ok = Svc.submit(In.Batches[I]) && Ok;
  Svc.stop();
  return Commit ? Svc.checkpoint() && Ok : Ok;
}

/// The two services of a recovery pass: one restoring from the store,
/// one Inline service for the trace replay.
struct RecoverDeployment {
  persist::CheckpointManager Store;
  service::MonitorService Restored;
  service::MonitorService Replayer;

  RecoverDeployment(const Shape &S, const Inputs &In, const LogSet &L,
                    std::vector<Clock::time_point> *Applied)
      : Store(L.StoreDir), Restored(serviceConfig(S, false)),
        Replayer(serviceConfig(S, true)) {
    for (const StreamModel &M : In.Streams) {
      Restored.addStream(*M.Map);
      Replayer.addStream(*M.Map);
    }
    Restored.attachPersistence(Store);
    if (Applied)
      Replayer.setWorkerHook(
          [Applied](std::size_t, const service::SampleBatch &) {
            Applied->push_back(Clock::now());
          });
  }
};

} // namespace

LogSet prepareRecover(const Shape &S, const Inputs &In, const Reference &Ref,
                      const std::string &Root, bool Spans,
                      PassStats &WriteSide) {
  LogSet L;
  const std::string RecordDir = Root + "/record";
  WriteSide = runIngestPass(S, In, Ref, configured(S), Spans, RecordDir);
  L.TracePath = RecordDir + "/trace.bin";
  L.State = WriteSide.State;
  L.Batches = In.Batches.size();
  L.ReplaySamples = In.Samples;

  L.StoreDir = Root + "/store";
  freshDir(L.StoreDir);
  const std::size_t Half = In.Batches.size() / 2;
  if (!submitRange(S, In, L.StoreDir, 0, Half, /*Commit=*/true) ||
      !submitRange(S, In, L.StoreDir, Half, In.Batches.size(), false))
    WriteSide.Mismatches.push_back("recover preparation failed");
  L.RestoreBatches = In.Batches.size() - Half;
  for (std::size_t I = Half; I < In.Batches.size(); ++I)
    L.RestoreSamples += In.Batches[I].Samples.size();
  return L;
}

RecoverStats runRecoverPass(const Shape &S, const Inputs &In, const LogSet &L,
                            bool Spans) {
  RecoverStats R;
  const double Heap0 = heapMb();
  std::vector<Clock::time_point> Applied;
  Applied.reserve(L.Batches);

  R.SetupS = medianSetup([] {}, [&] {
    return std::make_unique<RecoverDeployment>(S, In, L, nullptr);
  });
  RecoverDeployment D(S, In, L, &Applied);
  service::MonitorService &Restored = D.Restored;
  service::MonitorService &Replayer = D.Replayer;

  const double Cpu0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  const auto T0 = Clock::now();
  const service::RestoreOutcome Outcome = Restored.restore();
  const auto T1 = Clock::now();
  trace::FileReplay Replay;
  if (Spans) {
    Replay.Scan = trace::scanTraceFile(L.TracePath);
    R.ScanS = seconds(T1, Clock::now());
    Replay.Replay = trace::replayRecords(Replay.Scan, Replayer);
  } else {
    Replay = trace::replayTraceFile(L.TracePath, Replayer);
  }
  const auto T2 = Clock::now();
  R.CpuS = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - Cpu0;
  R.RestoreS = seconds(T0, T1);
  R.ReplayS = seconds(T1, T2);
  R.HeapMb = heapMb() - Heap0;

  // The first firing also carries the scan; the last has no successor.
  for (std::size_t I = 1; I < Applied.size(); ++I)
    R.ApplyUs.push_back(micros(Applied[I - 1], Applied[I]));
  R.BatchesApplied = Replay.Replay.BatchesApplied;
  R.RecordsReplayed = D.Store.counters().JournalRecordsReplayed;
  R.TraceBytes = Replay.Scan.ValidBytes;

  if (Outcome == service::RestoreOutcome::ColdStart)
    R.Mismatches.push_back("restore found nothing to recover");
  if (Restored.persistedSequence() != L.Batches)
    R.Mismatches.push_back("restore stopped at journal sequence " +
                           std::to_string(Restored.persistedSequence()));
  for (const std::string &M :
       compareStates(Restored.encodeState(), L.State, false))
    R.Mismatches.push_back("restored " + M);
  if (!Replay.Replay.Ok || R.BatchesApplied != L.Batches)
    R.Mismatches.push_back("replay applied " +
                           std::to_string(R.BatchesApplied) + " of " +
                           std::to_string(L.Batches) + " batches");
  for (const std::string &M :
       compareStates(Replayer.encodeState(), L.State, true))
    R.Mismatches.push_back("replayed " + M);
  return R;
}

} // namespace perfbench
