//===- perfbench/Passes.h - One timed pass through the service --*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pass builds a fresh MonitorService for one workload shape, submits
/// the whole generated batch sequence from one thread (closed loop), and
/// drains it. The timed span is the producer's critical path: every
/// submit() call, every obs scrape, and the final drain in stop(); the
/// generator's per-batch copy of its input stays outside. A traced pass
/// additionally records spans at the layer boundaries the public API
/// exposes (submit entry/exit, the worker hook, the recorder tap).
///
/// A recovery pass restores a service from a snapshot + journal tail and
/// replays a flight-recorder trace into a fresh Inline service, timing
/// both, and checks each recovered state against the uninterrupted run.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERFBENCH_PASSES_H
#define REGMON_PERFBENCH_PASSES_H

#include "Inputs.h"
#include "Oracle.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Which optional layers a pass attaches to the service.
struct Attach {
  bool Journal = false;
  bool Recorder = false;
  bool Obs = false;
  /// Batches between snapshot() + exportPrometheus scrapes (0 = none).
  std::size_t ScrapeEvery = 0;
};

/// The attachments \p S runs with.
Attach configured(const Shape &S);

struct PassStats {
  /// Median of repeated constructions of the pass's deployment:
  /// service + addStream per stream + attachments + start().
  double SetupS = 0;
  /// Sum of submit() and scrape durations plus the drain in stop().
  double SpanS = 0;
  /// Process CPU seconds over the span, minus the generator's copies.
  double CpuS = 0;
  std::uint64_t Batches = 0;
  std::uint64_t Samples = 0;
  /// Batches attempted but not processed.
  std::uint64_t Failed = 0;
  /// Heap bytes the live service holds at the end of the pass, in MiB.
  double HeapMb = 0;
  /// Threads of the process while the service runs.
  std::size_t Threads = 0;
  std::vector<double> SubmitUs;
  std::vector<double> ScrapeUs;
  // Spans, filled by traced passes only.
  std::vector<double> AdmitUs;     ///< Inline: submit entry -> worker hook.
  std::vector<double> ProcessUs;   ///< Worker hook -> processing done.
  std::vector<double> QueueWaitUs; ///< Threaded: submit return -> hook.
  std::vector<double> RecordUs;    ///< BatchRecorder::recordBatch.
  std::size_t MaxQueueDepth = 0;
  regmon::service::ServiceSnapshot Snap;
  std::size_t ObsSeries = 0;
  std::uint64_t JournalBytes = 0;
  std::uint64_t TraceBytes = 0;
  /// encodeState() after the drain.
  std::vector<std::uint8_t> State;
  /// Oracle disagreements; empty when the pass is correct.
  std::vector<std::string> Mismatches;
};

/// Runs one pass of \p In under \p A. \p Dir is emptied first and holds
/// the journal (Dir) and trace (Dir/trace.bin) afterwards.
PassStats runIngestPass(const Shape &S, const Inputs &In, const Reference &Ref,
                        const Attach &A, bool Spans, const std::string &Dir);

/// The durable logs a recovery pass reads, and what they must recover.
struct LogSet {
  std::string StoreDir;
  std::string TracePath;
  /// encodeState() of the uninterrupted run the logs describe.
  std::vector<std::uint8_t> State;
  std::uint64_t Batches = 0;
  /// Journal records and samples restore() re-applies.
  std::uint64_t RestoreBatches = 0;
  std::uint64_t RestoreSamples = 0;
  std::uint64_t ReplaySamples = 0;
};

/// Untimed preparation of the recover workload under \p Root: an
/// uninterrupted recorded run of \p In (its trace and final state), and
/// a second store holding a snapshot of the first half plus a journal
/// tail for the second half. \p WriteSide receives the recorded run's
/// pass statistics (traced when \p Spans).
LogSet prepareRecover(const Shape &S, const Inputs &In, const Reference &Ref,
                      const std::string &Root, bool Spans,
                      PassStats &WriteSide);

struct RecoverStats {
  /// Median of repeated constructions of both services and the store.
  double SetupS = 0;
  double RestoreS = 0;
  /// Trace scan alone (traced passes; inside ReplayS).
  double ScanS = 0;
  /// Whole replayTraceFile (scan included).
  double ReplayS = 0;
  double CpuS = 0;
  double HeapMb = 0;
  /// Wall time between consecutive batches re-applied by the replay.
  std::vector<double> ApplyUs;
  std::uint64_t BatchesApplied = 0;
  std::uint64_t RecordsReplayed = 0;
  std::uint64_t TraceBytes = 0;
  std::vector<std::string> Mismatches;
};

/// Times restore() from \p L's store and the replay of its trace.
RecoverStats runRecoverPass(const Shape &S, const Inputs &In, const LogSet &L,
                            bool Spans);

/// Threads of this process right now.
std::size_t threadCount();

} // namespace perfbench

#endif // REGMON_PERFBENCH_PASSES_H
