//===- perfbench/main.cpp - The repository benchmark ----------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload of the monitoring service through its public API and
// prints every metric by name and unit, ending with one JSON line:
//
//   regmon_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --tmp DIR
//
// --trace 0 measures the end-to-end metrics with nothing but submit()
// timing attached. --trace 1 is the per-layer ledger: it adds spans at
// the layer boundaries, runs attachment ablations (bare / journal /
// recorder / obs) on the same inputs and topology, times the read side
// of the logs, and reconciles the stage means with the mean submit()
// time. Every pass is checked against the correctness oracle; a
// mismatch prints the difference and exits 1. All files live in a
// private directory created under --tmp and removed at exit.
//
// The per-layer -> end-to-end map and the reasoning behind each workload
// are in perfbench/METRICS.md.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Oracle.h"
#include "Passes.h"
#include "Stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <malloc.h>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;
namespace fs = std::filesystem;
namespace service = regmon::service;

namespace {

/// One sampling period at 3 GHz: the paper's inter-sample budget.
constexpr double InterSampleNs = 15'000.0;

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TmpParent;
};

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I];
    const std::string Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
    } else if (Flag == "--trace") {
      O.Trace = Value == "1";
      if (Value != "0" && Value != "1")
        return false;
    } else if (Flag == "--tmp") {
      O.TmpParent = Value;
    } else {
      return false;
    }
    if (End && *End != '\0')
      return false;
  }
  return Argc % 2 == 1 && findShape(O.Workload) && O.Seconds > 0 &&
         !O.TmpParent.empty();
}

/// A private scratch directory, removed with everything in it on exit.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Parent) {
    std::error_code Ec;
    fs::create_directories(Parent, Ec);
    std::string Pattern = Parent + "/perfbench-XXXXXX";
    if (::mkdtemp(Pattern.data()))
      Path = Pattern;
  }
  ~ScratchDir() {
    std::error_code Ec;
    if (!Path.empty())
      fs::remove_all(Path, Ec);
  }
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Collects what the run reports and prints it at the end.
struct Report {
  std::vector<Metric> Metrics;
  std::vector<std::string> Mismatches;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, std::isfinite(Value) ? Value : 0.0, Unit});
  }
  void fail(const std::vector<std::string> &M) {
    Mismatches.insert(Mismatches.end(), M.begin(), M.end());
  }

  int print() const {
    for (const Metric &M : Metrics)
      std::printf("  %-36s %18.9g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
    const std::size_t Shown = std::min<std::size_t>(Mismatches.size(), 20);
    for (std::size_t I = 0; I < Shown; ++I)
      std::printf("ORACLE MISMATCH: %s\n", Mismatches[I].c_str());
    std::string Json = "{\"correct\": ";
    Json += Mismatches.empty() ? "true" : "false";
    Json += ", \"attempted\": " + std::to_string(Attempted);
    Json += ", \"failed\": " + std::to_string(Failed);
    Json += ", \"metrics\": {";
    for (std::size_t I = 0; I < Metrics.size(); ++I) {
      char Num[64];
      std::snprintf(Num, sizeof Num, "%.17g", Metrics[I].Value);
      Json += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " +
              Num + ", \"unit\": \"" + Metrics[I].Unit + "\"}";
    }
    Json += "}}";
    std::printf("%s\n", Json.c_str());
    return Mismatches.empty() ? 0 : 1;
  }
};

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

void append(std::vector<double> &To, const std::vector<double> &From) {
  To.insert(To.end(), From.begin(), From.end());
}

/// Runs passes until \p Budget seconds have passed (at least \p MinPasses).
template <typename Fn>
void repeatFor(double Budget, std::size_t MinPasses, Fn &&Pass) {
  const auto T0 = Clock::now();
  for (std::size_t I = 0; I < MinPasses || since(T0) < Budget; ++I)
    Pass(I);
}

void printHeader(const Shape &S, const Options &O, const Inputs &In,
                 double GenS) {
  const std::size_t Threads = 1 + S.Workers;
  std::printf("workload %s: %zu streams, %zu batches (%llu samples) per "
              "pass, %s, seed %llu\n",
              S.Name.c_str(), S.Streams, In.Batches.size(),
              static_cast<unsigned long long>(In.Samples),
              S.Workers ? (std::to_string(S.Workers) + " worker shards").c_str()
                        : "Inline",
              static_cast<unsigned long long>(O.Seed));
  std::printf("threads: %zu started by this benchmark (nproc %u)\n", Threads,
              std::thread::hardware_concurrency());
  std::printf("gen_s (informational): %.3f\n", GenS);
}

//===----------------------------------------------------------------------===//
// End-to-end run (--trace 0)
//===----------------------------------------------------------------------===//

/// Times a fixed integer kernel (an LCG indexing a 256 KiB table). Its
/// duration tracks how fast this machine runs at the moment: a shared
/// host drifts by about +-10% over seconds to minutes, which no amount of
/// repetition inside one run averages out.
double probeSeconds() {
  static std::vector<std::uint32_t> Table(1 << 16);
  std::uint64_t X = 1;
  const auto T0 = Clock::now();
  for (int I = 0; I < 1'500'000; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    ++Table[(X >> 40) & 0xFFFF];
  }
  return since(T0);
}

/// The probe time that defines the reference machine speed. End-to-end
/// timings are reported at that speed: each pass's times are scaled by
/// ProbeReferenceS / (mean probe time just before and after the pass).
constexpr double ProbeReferenceS = 0.0025;

/// The raw measurements of one end-to-end pass.
struct PassSample {
  double Samples = 0;
  double SpanS = 0;
  double CpuS = 0;
  double SetupS = 0;
  double HeapMb = 0;
  std::vector<double> LatencyUs;
  /// ProbeReferenceS / probe time around the pass.
  double Scale = 1;
};

int runEndToEnd(const Shape &S, const Options &O, const std::string &Tmp) {
  const auto G0 = Clock::now();
  const Inputs In = generate(S, O.Seed);
  const double GenS = since(G0);
  printHeader(S, O, In, GenS);
  const Reference Ref = computeReference(In);

  Report R;
  std::vector<PassSample> Passes;
  std::vector<double> Restore;
  std::size_t Threads = 0;
  const auto Measure = [&](auto &&RunPass) {
    repeatFor(O.Seconds, 3, [&](std::size_t) {
      const double Before = probeSeconds();
      PassSample P = RunPass();
      P.Scale = 2 * ProbeReferenceS / (Before + probeSeconds());
      Passes.push_back(std::move(P));
    });
  };
  if (S.K == Kind::Recover) {
    PassStats WriteSide;
    const LogSet L = prepareRecover(S, In, Ref, Tmp, false, WriteSide);
    R.fail(WriteSide.Mismatches);
    Threads = WriteSide.Threads;
    Measure([&] {
      const RecoverStats P = runRecoverPass(S, In, L, false);
      Restore.push_back(P.RestoreS);
      const std::uint64_t Attempted = L.RestoreBatches + L.Batches;
      R.Attempted += Attempted;
      R.Failed += Attempted - std::min(Attempted, P.RecordsReplayed +
                                                      P.BatchesApplied);
      R.fail(P.Mismatches);
      return PassSample{
          static_cast<double>(L.RestoreSamples + L.ReplaySamples),
          P.RestoreS + P.ReplayS,
          P.CpuS,
          P.SetupS,
          P.HeapMb,
          P.ApplyUs};
    });
  } else {
    Measure([&] {
      PassStats P = runIngestPass(S, In, Ref, configured(S), false,
                                  Tmp + "/pass");
      Threads = std::max(Threads, P.Threads);
      R.Attempted += P.Batches;
      R.Failed += P.Failed;
      R.fail(P.Mismatches);
      return PassSample{static_cast<double>(P.Samples), P.SpanS, P.CpuS,
                        P.SetupS, P.HeapMb, std::move(P.SubmitUs)};
    });
  }

  // Per-pass values at the reference speed (Scale) or as measured (1);
  // each metric reports the pass quartile on its better side -- the
  // least disturbed quarter of the passes. Slow phases of a shared host
  // last seconds and hit a varying share of each run's passes; the fast
  // quartile does not move with that share.
  const auto Metrics = [&](bool Normalize) {
    std::vector<double> Rate, CpuNs, P50, P99, Setup;
    for (const PassSample &P : Passes) {
      const double Scale = Normalize ? P.Scale : 1.0;
      Rate.push_back(P.Samples / (P.SpanS * Scale));
      CpuNs.push_back(P.CpuS * Scale * 1e9 / P.Samples);
      P50.push_back(quantile(P.LatencyUs, 0.50) * Scale);
      P99.push_back(quantile(P.LatencyUs, 0.99) * Scale);
      Setup.push_back(P.SetupS * Scale);
    }
    return std::vector<double>{quantile(Rate, 0.75), quantile(CpuNs, 0.25),
                               quantile(P50, 0.25), quantile(P99, 0.25),
                               quantile(Setup, 0.25)};
  };
  const std::vector<double> Raw = Metrics(false), Norm = Metrics(true);
  std::vector<double> Scales, Mem;
  std::size_t Latencies = Passes.front().LatencyUs.size();
  for (const PassSample &P : Passes) {
    Scales.push_back(P.Scale);
    Mem.push_back(P.HeapMb);
    Latencies = std::min(Latencies, P.LatencyUs.size());
  }

  std::printf("passes: %zu; machine speed vs reference: median %.4f "
              "(q1 %.4f, q3 %.4f)\n",
              Passes.size(), median(Scales), quantile(Scales, 0.25),
              quantile(Scales, 0.75));
  std::printf("as measured: samples_per_s %.6g, cpu_ns_per_sample %.4f, "
              "batch_p50_us %.4f, batch_p99_us %.4f, setup_s %.4g\n",
              Raw[0], Raw[1], Raw[2], Raw[3], Raw[4]);
  std::printf("batch latency over at least %zu batches per pass (highest "
              "supported tail: p%g)\n",
              Latencies, tailPercentile(Latencies));
  std::printf("threads observed: %zu\n", Threads);
  if (Latencies < 1000)
    R.Mismatches.push_back("fewer than 1000 batch latencies in a pass: p99 "
                           "has fewer than 10 samples beyond it");
  std::printf("cpu share of the inter-sample budget: %.4f%% "
              "(cpu_ns_per_sample / %.0f ns)\n",
              Norm[1] / InterSampleNs * 100.0, InterSampleNs);
  std::printf("failed_fraction: %.6f (%llu of %llu batches)\n",
              R.Attempted ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 0.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  if (!Restore.empty())
    std::printf("restore_s (median restore() of the snapshot + journal "
                "tail, as measured): %.6f\n",
                median(Restore));
  R.add("samples_per_s", Norm[0], "1/s");
  R.add("cpu_ns_per_sample", Norm[1], "ns");
  R.add("batch_p50_us", Norm[2], "us");
  R.add("batch_p99_us", Norm[3], "us");
  R.add("setup_s", Norm[4], "s");
  R.add("mem_mb", median(Mem), "MiB");
  return R.print();
}

//===----------------------------------------------------------------------===//
// Per-layer ledger (--trace 1)
//===----------------------------------------------------------------------===//

/// Pooled statistics of one pass configuration.
struct Pool {
  std::vector<double> SubmitUs, ScrapeUs, AdmitUs, ProcessUs, QueueWaitUs,
      RecordUs, SpanS, CpuNsPerSample;
  std::size_t MaxQueueDepth = 0, Threads = 0;
  PassStats Last;

  void add(const PassStats &P) {
    append(SubmitUs, P.SubmitUs);
    append(ScrapeUs, P.ScrapeUs);
    append(AdmitUs, P.AdmitUs);
    append(ProcessUs, P.ProcessUs);
    append(QueueWaitUs, P.QueueWaitUs);
    append(RecordUs, P.RecordUs);
    SpanS.push_back(P.SpanS);
    CpuNsPerSample.push_back(P.CpuS * 1e9 / static_cast<double>(P.Samples));
    MaxQueueDepth = std::max(MaxQueueDepth, P.MaxQueueDepth);
    Threads = std::max(Threads, P.Threads);
    Last = P;
  }
};

int runLedger(const Shape &S, const Options &O, const std::string &Tmp) {
  const auto G0 = Clock::now();
  const Inputs In = generate(S, O.Seed);
  const double GenS = since(G0);
  printHeader(S, O, In, GenS);
  const Reference Ref = computeReference(In);
  const double Samples = static_cast<double>(In.Samples);
  Report R;

  // 1. The workload as configured, untraced and traced passes in turn.
  Pool Plain, Traced;
  std::vector<RecoverStats> RecoverPlain, RecoverTraced;
  LogSet Logs;
  if (S.K == Kind::Recover) {
    PassStats WriteSide;
    Logs = prepareRecover(S, In, Ref, Tmp, true, WriteSide);
    R.fail(WriteSide.Mismatches);
    Traced.add(WriteSide);
    repeatFor(O.Seconds * 0.4, 2, [&](std::size_t I) {
      RecoverStats P = runRecoverPass(S, In, Logs, I % 2 == 1);
      R.fail(P.Mismatches);
      (I % 2 ? RecoverTraced : RecoverPlain).push_back(std::move(P));
    });
  } else {
    repeatFor(O.Seconds * 0.4, 2, [&](std::size_t I) {
      const bool Spans = I % 2 == 1;
      const PassStats P =
          runIngestPass(S, In, Ref, configured(S), Spans, Tmp + "/pass");
      R.fail(P.Mismatches);
      (Spans ? Traced : Plain).add(P);
    });
  }

  // 2. Attachment ablations on the same inputs and topology, traced.
  const std::size_t Scrape = S.ScrapeEvery ? S.ScrapeEvery : 64;
  const struct {
    const char *Name;
    Attach A;
  } Ablations[] = {{"bare", {}},
                   {"journal", {true, false, false, 0}},
                   {"recorder", {false, true, false, 0}},
                   {"obs", {false, false, true, Scrape}}};
  Pool Abl[4];
  repeatFor(O.Seconds * 0.4, 8, [&](std::size_t I) {
    const std::size_t K = I % 4;
    const PassStats P = runIngestPass(S, In, Ref, Ablations[K].A, true,
                                      Tmp + "/" + Ablations[K].Name);
    R.fail(P.Mismatches);
    Abl[K].add(P);
  });
  Pool &Bare = Abl[0], &Journal = Abl[1], &Recorder = Abl[2], &Obs = Abl[3];

  // 3. The read side: restore + replay of the logs just written (the
  // recover workload's own passes already are that).
  if (S.K != Kind::Recover) {
    Logs.StoreDir = Tmp + "/journal";
    Logs.TracePath = Tmp + "/recorder/trace.bin";
    Logs.State = Journal.Last.State;
    Logs.Batches = Logs.RestoreBatches = In.Batches.size();
    Logs.RestoreSamples = Logs.ReplaySamples = In.Samples;
    RecoverStats P = runRecoverPass(S, In, Logs, true);
    R.fail(P.Mismatches);
    RecoverTraced.push_back(std::move(P));
  }
  std::vector<double> RestoreS, ScanNsPerByte, ReplayNsPerSample, ApplyUs,
      RecoverSpanTraced, RecoverSpanPlain;
  std::uint64_t RecordsReplayed = 0, TraceBytes = 0;
  double Residual = 0;
  for (const RecoverStats &P : RecoverTraced) {
    RestoreS.push_back(P.RestoreS);
    ScanNsPerByte.push_back(P.ScanS * 1e9 / static_cast<double>(P.TraceBytes));
    ReplayNsPerSample.push_back((P.ReplayS - P.ScanS) * 1e9 /
                                static_cast<double>(Logs.ReplaySamples));
    RecoverSpanTraced.push_back(P.RestoreS + P.ReplayS);
    append(ApplyUs, P.ApplyUs);
    RecordsReplayed = P.RecordsReplayed;
    TraceBytes = P.TraceBytes;
    double Applied = 0;
    for (double U : P.ApplyUs)
      Applied += U;
    Residual = (P.ReplayS - P.ScanS - Applied * 1e-6) * 1e6 /
               static_cast<double>(Logs.Batches);
  }
  for (const RecoverStats &P : RecoverPlain)
    RecoverSpanPlain.push_back(P.RestoreS + P.ReplayS);

  // Reconcile the stage means with the mean submit() time.
  const double SubmitMean = mean(Traced.SubmitUs);
  const double BareMean = mean(Bare.SubmitUs);
  const double JournalUs = mean(Journal.SubmitUs) - BareMean;
  const double ObsUs = mean(Obs.SubmitUs) - BareMean;
  const Pool &RecordSrc = S.Recorder ? Traced : Recorder;
  const Pool &ScrapeSrc = S.Obs ? Traced : Obs;
  std::printf("\nstage reconciliation (means, us per batch):\n");
  if (S.K == Kind::EmbeddedLpd) {
    const double Admit = mean(Traced.AdmitUs), Process = mean(Traced.ProcessUs);
    Residual = SubmitMean - Admit - Process;
    std::printf("  submit %.3f = admit %.3f + process %.3f + residual %.3f\n",
                SubmitMean, Admit, Process, Residual);
  } else if (S.K == Kind::DurableIngest) {
    const double Record = mean(RecordSrc.RecordUs);
    Residual = SubmitMean - BareMean - JournalUs - Record - ObsUs;
    std::printf("  submit %.3f = bare %.3f + journal %.3f + record %.3f + "
                "obs %.3f + residual %.3f (%.1f%%)\n",
                SubmitMean, BareMean, JournalUs, Record, ObsUs, Residual,
                SubmitMean > 0 ? Residual / SubmitMean * 100.0 : 0.0);
  } else {
    const RecoverStats &P = RecoverTraced.back();
    std::printf("  replay %.3f = scan %.3f + apply %.3f + residual %.3f "
                "(per batch, over %llu batches)\n",
                P.ReplayS * 1e6 / static_cast<double>(Logs.Batches),
                P.ScanS * 1e6 / static_cast<double>(Logs.Batches),
                mean(P.ApplyUs), Residual,
                static_cast<unsigned long long>(Logs.Batches));
    std::printf("  restore %.6f s for %llu journal records; standalone "
                "core work on those samples %.6f s\n",
                P.RestoreS, static_cast<unsigned long long>(P.RecordsReplayed),
                Ref.ObserveSeconds / Samples *
                    static_cast<double>(Logs.RestoreSamples));
  }
  const double TraceOverhead =
      S.K == Kind::Recover
          ? (median(RecoverSpanTraced) / median(RecoverSpanPlain) - 1) * 100
          : (median(Traced.SpanS) / median(Plain.SpanS) - 1) * 100;
  std::printf("tracing overhead: %.2f%% (traced minus untraced span)\n\n",
              TraceOverhead);

  const service::ServiceSnapshot &Snap = Traced.Last.Snap;
  std::uint64_t Triggers = 0, Regions = 0, Transitions = 0;
  for (const service::StreamSnapshot &St : Snap.Streams) {
    Triggers += St.FormationTriggers;
    Regions += St.RegionsFormed;
    Transitions += St.ControllerLengthens + St.ControllerTightens;
  }
  const bool Inline = S.Workers == 0;
  R.Attempted = Traced.Last.Batches;
  R.Failed = Traced.Last.Failed;
  R.add("service.submit_us.p50", quantile(Traced.SubmitUs, 0.5), "us");
  R.add("service.submit_us.p99", quantile(Traced.SubmitUs, 0.99), "us");
  R.add("service.admit_us.p50",
        Inline ? quantile(Traced.AdmitUs, 0.5) : quantile(Bare.SubmitUs, 0.5),
        "us");
  R.add("service.queue_wait_us.p50", quantile(Traced.QueueWaitUs, 0.5), "us");
  R.add("service.queue_wait_us.p99", quantile(Traced.QueueWaitUs, 0.99),
        "us");
  R.add("service.queue_depth.max", static_cast<double>(Traced.MaxQueueDepth),
        "count");
  R.add("service.batches_refused",
        static_cast<double>(Snap.BatchesPoisoned + Snap.BatchesQuarantined),
        "count");
  R.add("service.batches_dropped", static_cast<double>(Snap.BatchesDropped),
        "count");
  R.add("service.batches_rejected", static_cast<double>(Snap.BatchesRejected),
        "count");
  const std::vector<double> &Process =
      S.K == Kind::Recover ? ApplyUs : Traced.ProcessUs;
  R.add("core.process_us.p50", quantile(Process, 0.5), "us");
  R.add("core.process_us.p99", quantile(Process, 0.99), "us");
  R.add("core.observe_ns_per_sample", Ref.ObserveSeconds * 1e9 / Samples,
        "ns");
  R.add("core.intervals", static_cast<double>(Snap.IntervalsProcessed),
        "count");
  R.add("core.phase_changes", static_cast<double>(Snap.PhaseChanges),
        "count");
  R.add("core.formation_triggers", static_cast<double>(Triggers), "count");
  R.add("core.regions_formed", static_cast<double>(Regions), "count");
  R.add("core.attributed_fraction", 1.0 - Snap.ucrFraction(), "fraction");
  R.add("sampling.samples_saved_fraction",
        static_cast<double>(Snap.SamplesSaved) /
            static_cast<double>(Snap.TotalSamples + Snap.SamplesSaved),
        "fraction");
  R.add("sampling.controller_transitions", static_cast<double>(Transitions),
        "count");
  R.add("persist.journal_us",
        quantile(Journal.SubmitUs, 0.5) - quantile(Bare.SubmitUs, 0.5), "us");
  R.add("persist.journal_bytes_per_sample",
        static_cast<double>(Journal.Last.JournalBytes) / Samples, "B");
  R.add("persist.snapshot_bytes", static_cast<double>(Logs.State.size()),
        "B");
  R.add("persist.records_replayed", static_cast<double>(RecordsReplayed),
        "count");
  R.add("persist.restore_ns_per_sample",
        median(RestoreS) * 1e9 / static_cast<double>(Logs.RestoreSamples),
        "ns");
  R.add("persist.restore_s", median(RestoreS), "s");
  R.add("trace.record_us.p50", quantile(RecordSrc.RecordUs, 0.5), "us");
  R.add("trace.record_us.p99", quantile(RecordSrc.RecordUs, 0.99), "us");
  R.add("trace.bytes_per_sample", static_cast<double>(TraceBytes) /
                                      static_cast<double>(Logs.ReplaySamples),
        "B");
  R.add("trace.scan_ns_per_byte", median(ScanNsPerByte), "ns");
  R.add("trace.replay_ns_per_sample", median(ReplayNsPerSample), "ns");
  R.add("obs.scrape_us.p50", quantile(ScrapeSrc.ScrapeUs, 0.5), "us");
  R.add("obs.attach_cpu_pct",
        (median(Obs.CpuNsPerSample) / median(Bare.CpuNsPerSample) - 1) * 100,
        "%");
  R.add("obs.series", static_cast<double>(Obs.Last.ObsSeries), "count");
  R.add("bench.trace_overhead_pct", TraceOverhead, "%");
  R.add("bench.residual_us", Residual, "us");
  R.add("bench.gen_s", GenS, "s");
  std::size_t Threads = Traced.Threads;
  for (const Pool &P : Abl)
    Threads = std::max(Threads, P.Threads);
  R.add("bench.threads", static_cast<double>(Threads), "count");
  return R.print();
}

} // namespace

int main(int Argc, char **Argv) {
  // Keep freed memory in the heap instead of returning it to the kernel:
  // every pass then reuses warm pages, as a long-running monitor does,
  // and the kernel's page-fault path stays out of the timed spans.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  Options O;
  if (!parseOptions(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: regmon_perfbench --workload "
                 "embedded-lpd|durable-ingest|recover --seed N --seconds S "
                 "--trace 0|1 --tmp DIR\n");
    return 2;
  }
  const ScratchDir Tmp(O.TmpParent);
  if (Tmp.path().empty()) {
    std::fprintf(stderr, "error: cannot create a scratch directory under "
                         "'%s'\n",
                 O.TmpParent.c_str());
    return 2;
  }
  const Shape &S = *findShape(O.Workload);
  return O.Trace ? runLedger(S, O, Tmp.path()) : runEndToEnd(S, O, Tmp.path());
}
