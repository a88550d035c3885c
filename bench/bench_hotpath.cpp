//===- bench/bench_hotpath.cpp - Hot-path kernel speedup gates ------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Locks in the hot-path optimization (support/HotpathKernels.h) with two
// gated measurements plus a real-workload baseline:
//
//  1. interval-end similarity cost: a steady (Stable-state) detector's
//     per-interval-end cost, naive O(bins) recompute vs the incremental
//     engine's O(1) moment combine. Gate: >= 2x.
//  2. service batches/sec: the multi-stream MonitorService pushing
//     identical large-region batches through monitors configured with the
//     naive vs the incremental engine. Gate: >= 2x batches/sec.
//  3. baseline context in the bench_fig15_detection_cost style: one real
//     recorded workload stream through a full RegionMonitor under both
//     engines (no gate -- real streams carry small regions where shared
//     per-sample work dominates; reported for regression hunting).
//
// Both engines funnel through the same integer moments, so every
// measurement first asserts bit-identical results before timing them.
//
// Emits JSON on stdout for the BENCH_hotpath.json CI artifact; the human
// summary goes to stderr. `--smoke` shrinks iteration counts for CI while
// keeping the gates enforced (the expected margins are far above 2x).
// Exit status: 0 when both gates hold, 1 otherwise.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "core/LocalPhaseDetector.h"
#include "service/MonitorService.h"
#include "support/HotpathKernels.h"
#include "support/Rng.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace regmon;
using namespace regmon::bench;

namespace {

//===----------------------------------------------------------------------===//
// Stage 1: interval-end similarity cost
//===----------------------------------------------------------------------===//

/// Instruction count of the stage-1 region (a 16 KiB loop body).
constexpr std::size_t Stage1Bins = 4096;

/// Fills \p H with a deterministic, phase-steady sample pattern.
void fillSteadyPattern(InstrHistogram &H, std::uint64_t Seed,
                       std::size_t SampleCount) {
  Rng Random(Seed);
  for (std::size_t I = 0; I < SampleCount; ++I) {
    // Concentrated hotspot plus a uniform tail: realistic histogram shape
    // with nonzero variance.
    const std::uint64_t Bin = (Random.next() & 1)
                                  ? Random.nextBelow(Stage1Bins / 16)
                                  : Random.nextBelow(Stage1Bins);
    H.addSample(H.start() + static_cast<Addr>(Bin) * InstrBytes);
  }
}

struct Stage1Result {
  double NaiveNsPerEnd = 0;
  double IncrNsPerEnd = 0;
  double Speedup = 0;
  bool BitIdentical = false;
};

Stage1Result runStage1(std::size_t Iterations) {
  const std::unique_ptr<core::SimilarityMetric> Metric =
      core::makeSimilarity(core::SimilarityKind::Pearson);

  InstrHistogram Curr(0x10000,
                      0x10000 + static_cast<Addr>(Stage1Bins) * InstrBytes);
  fillSteadyPattern(Curr, /*Seed=*/42, /*SampleCount=*/2032);

  // Drive both detectors into the Stable state on the identical pattern:
  // the steady regime is where a long-running monitor spends its life, and
  // the state machine neither copies nor adopts there -- the measurement
  // isolates pure interval-end cost.
  core::LocalPhaseDetector Naive(Stage1Bins, *Metric);
  core::LocalPhaseDetector Incr(Stage1Bins, *Metric);
  std::uint64_t Sxy = 0;
  for (int I = 0; I < 4; ++I) {
    Naive.observe(Curr.bins());
    Sxy = recomputeMoments(Incr.stableSet(), Curr.bins()).Sxy;
    Incr.observeMoments(Curr, Sxy);
  }
  Stage1Result R;
  R.BitIdentical =
      Naive.state() == core::LocalPhaseState::Stable &&
      Incr.state() == core::LocalPhaseState::Stable &&
      std::bit_cast<std::uint64_t>(Naive.lastR()) ==
          std::bit_cast<std::uint64_t>(Incr.lastR());

  // In the monitor's incremental path Sxy is accumulated as samples land
  // (its cost is part of stage 2); here it is a loop-invariant operand of
  // the O(1) interval end.
  const std::uint64_t SteadySxy = Sxy;

  double Acc = 0; // consumed below so the timed calls cannot be discarded
  const double NaiveSec = timeSeconds([&] {
    for (std::size_t I = 0; I < Iterations; ++I) {
      Naive.observe(Curr.bins());
      Acc += Naive.lastR();
    }
  });
  const double IncrSec = timeSeconds([&] {
    for (std::size_t I = 0; I < Iterations; ++I) {
      Incr.observeMoments(Curr, SteadySxy);
      Acc += Incr.lastR();
    }
  });
  R.BitIdentical = R.BitIdentical &&
                   std::bit_cast<std::uint64_t>(Naive.lastR()) ==
                       std::bit_cast<std::uint64_t>(Incr.lastR()) &&
                   Acc == Acc; // NaN guard; also keeps Acc alive

  R.NaiveNsPerEnd = NaiveSec * 1e9 / static_cast<double>(Iterations);
  R.IncrNsPerEnd = IncrSec * 1e9 / static_cast<double>(Iterations);
  R.Speedup = R.IncrNsPerEnd > 0 ? R.NaiveNsPerEnd / R.IncrNsPerEnd : 0;
  return R;
}

//===----------------------------------------------------------------------===//
// Stage 2: service batches/sec
//===----------------------------------------------------------------------===//

/// One large loop region (2^18 instructions = 1 MiB of code): the regime
/// the incremental engine exists for, where O(bins) interval-end work
/// dwarfs the per-sample work of a batch.
constexpr std::size_t ServiceInstrs = std::size_t{1} << 18;
constexpr Addr ServiceStart = 0x400000;
constexpr std::size_t ServiceBatchSamples = 512;
constexpr std::size_t ServiceStreams = 4;
constexpr std::size_t ServiceWorkers = 2;
constexpr std::size_t ServiceRounds = 3;

class BigLoopMap final : public core::CodeMap {
public:
  std::optional<core::CodeRegionInfo> regionFor(Addr Pc) const override {
    constexpr Addr End =
        ServiceStart + static_cast<Addr>(ServiceInstrs) * InstrBytes;
    if (Pc >= ServiceStart && Pc < End)
      return core::CodeRegionInfo{ServiceStart, End, "bigloop"};
    return std::nullopt;
  }
};

/// The per-interval batch: an identical steady pattern, so the region
/// stabilizes after three intervals and the timed regime is the frozen
/// stable set (no per-interval prev <- curr copies on either engine).
std::vector<Sample> makeServiceBatch() {
  std::vector<Sample> Batch;
  Batch.reserve(ServiceBatchSamples);
  Rng Random(7);
  for (std::size_t I = 0; I < ServiceBatchSamples; ++I) {
    const std::uint64_t Bin = Random.nextBelow(ServiceInstrs / 64);
    Batch.push_back(
        Sample{ServiceStart + static_cast<Addr>(Bin) * InstrBytes,
               static_cast<Cycles>(100 * (I + 1))});
  }
  return Batch;
}

struct Stage2Result {
  double NaiveBatchesPerSec = 0;
  double IncrBatchesPerSec = 0;
  double Speedup = 0;
  std::uint64_t BatchesPerRun = 0;
};

double runServiceConfig(core::SimilarityEngine Engine,
                        const std::vector<Sample> &Batch,
                        std::size_t BatchesPerStream) {
  const BigLoopMap Map;
  service::MonitorService Service({ServiceWorkers, /*QueueCapacity=*/64,
                                   service::OverflowPolicy::Block,
                                   /*ValidateBatches=*/true,
                                   {}});
  core::RegionMonitorConfig Monitor;
  Monitor.Similarity = {core::SimilarityKind::Pearson, Engine};
  for (std::size_t I = 0; I < ServiceStreams; ++I)
    Service.addStream(Map, Monitor);
  Service.start();

  const double Seconds = timeSeconds([&] {
    std::vector<std::thread> Producers;
    Producers.reserve(ServiceStreams);
    for (service::StreamId Id = 0; Id < ServiceStreams; ++Id)
      Producers.emplace_back([&, Id] {
        for (std::size_t B = 0; B < BatchesPerStream; ++B)
          Service.submit({Id, Batch});
      });
    for (std::thread &T : Producers)
      T.join();
    Service.stop();
  });
  return Seconds;
}

Stage2Result runStage2(std::size_t BatchesPerStream) {
  const std::vector<Sample> Batch = makeServiceBatch();
  Stage2Result R;
  R.BatchesPerRun = BatchesPerStream * ServiceStreams;

  // Interleave the engines and keep each side's minimum: the least
  // noise-contaminated observation (bench_obs_overhead's protocol).
  double NaiveMin = 0, IncrMin = 0;
  for (std::size_t Round = 0; Round < ServiceRounds; ++Round) {
    const double Naive = runServiceConfig(core::SimilarityEngine::Naive,
                                          Batch, BatchesPerStream);
    const double Incr = runServiceConfig(
        core::SimilarityEngine::Incremental, Batch, BatchesPerStream);
    if (Round == 0 || Naive < NaiveMin)
      NaiveMin = Naive;
    if (Round == 0 || Incr < IncrMin)
      IncrMin = Incr;
  }
  R.NaiveBatchesPerSec =
      static_cast<double>(R.BatchesPerRun) / NaiveMin;
  R.IncrBatchesPerSec = static_cast<double>(R.BatchesPerRun) / IncrMin;
  R.Speedup = NaiveMin > 0 ? NaiveMin / IncrMin : 0;
  return R;
}

//===----------------------------------------------------------------------===//
// Stage 3: real-workload baseline (bench_fig15_detection_cost style)
//===----------------------------------------------------------------------===//

struct Stage3Result {
  double NaiveMs = 0;
  double IncrMs = 0;
  double Speedup = 0;
  bool Identical = false;
  std::uint64_t PhaseChanges = 0;
};

Stage3Result runStage3(std::size_t Repetitions) {
  const workloads::Workload W = workloads::make("synthetic.periodic");
  const SampleStream Stream = recordStream(W, 45'000);
  sim::ProgramCodeMap Map(W.Prog);

  auto RunEngine = [&](core::SimilarityEngine Engine, double &OutSec) {
    core::RegionMonitorConfig Cfg;
    Cfg.Similarity = {core::SimilarityKind::Pearson, Engine};
    auto Monitor = std::make_unique<core::RegionMonitor>(Map, Cfg);
    OutSec = timeSeconds([&] {
      for (std::size_t Rep = 0; Rep < Repetitions; ++Rep) {
        Monitor->reset();
        for (const auto &Interval : Stream.Intervals)
          Monitor->observeInterval(Interval);
      }
    });
    return Monitor;
  };

  double NaiveSec = 0, IncrSec = 0;
  const auto Naive = RunEngine(core::SimilarityEngine::Naive, NaiveSec);
  const auto Incr =
      RunEngine(core::SimilarityEngine::Incremental, IncrSec);

  Stage3Result R;
  R.NaiveMs = NaiveSec * 1e3 / static_cast<double>(Repetitions);
  R.IncrMs = IncrSec * 1e3 / static_cast<double>(Repetitions);
  R.Speedup = IncrSec > 0 ? NaiveSec / IncrSec : 0;
  R.PhaseChanges = Incr->totalPhaseChanges();
  R.Identical =
      Naive->totalPhaseChanges() == Incr->totalPhaseChanges() &&
      Naive->totalSamples() == Incr->totalSamples() &&
      Naive->formationTriggers() == Incr->formationTriggers();
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  const bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  const std::size_t Stage1Iters = Smoke ? 2'000 : 50'000;
  const std::size_t Stage2Batches = Smoke ? 96 : 512;
  const std::size_t Stage3Reps = Smoke ? 1 : 4;

  const Stage1Result S1 = runStage1(Stage1Iters);
  const Stage2Result S2 = runStage2(Stage2Batches);
  const Stage3Result S3 = runStage3(Stage3Reps);

  const bool Gate1 = S1.Speedup >= 2.0 && S1.BitIdentical;
  const bool Gate2 = S2.Speedup >= 2.0;
  const bool Pass = Gate1 && Gate2 && S3.Identical;

  std::fprintf(
      stderr,
      "[hotpath] mode=%s\n"
      "  stage1 interval-end: naive %.1f ns, incremental %.1f ns, "
      "speedup %.1fx (gate >= 2x: %s, bit-identical: %s)\n"
      "  stage2 service:      naive %.0f batches/s, incremental %.0f "
      "batches/s, speedup %.2fx (gate >= 2x: %s)\n"
      "  stage3 stream:       naive %.2f ms, incremental %.2f ms, "
      "speedup %.2fx (results identical: %s)\n",
      Smoke ? "smoke" : "full", S1.NaiveNsPerEnd,
      S1.IncrNsPerEnd, S1.Speedup, Gate1 ? "pass" : "FAIL",
      S1.BitIdentical ? "yes" : "NO", S2.NaiveBatchesPerSec,
      S2.IncrBatchesPerSec, S2.Speedup, Gate2 ? "pass" : "FAIL",
      S3.NaiveMs, S3.IncrMs, S3.Speedup, S3.Identical ? "yes" : "NO");

  std::printf(
      "{\n"
      "  \"bench\": \"hotpath\",\n"
      "  \"mode\": \"%s\",\n"
      "  \"interval_end_bins\": %zu,\n"
      "  \"interval_end_naive_ns\": %.2f,\n"
      "  \"interval_end_incremental_ns\": %.2f,\n"
      "  \"interval_end_speedup\": %.2f,\n"
      "  \"interval_end_gate_2x\": %s,\n"
      "  \"interval_end_bit_identical\": %s,\n"
      "  \"service_region_instrs\": %zu,\n"
      "  \"service_batches_per_run\": %llu,\n"
      "  \"service_naive_batches_per_sec\": %.1f,\n"
      "  \"service_incremental_batches_per_sec\": %.1f,\n"
      "  \"service_speedup\": %.2f,\n"
      "  \"service_gate_2x\": %s,\n"
      "  \"stream_workload\": \"synthetic.periodic\",\n"
      "  \"stream_naive_ms\": %.3f,\n"
      "  \"stream_incremental_ms\": %.3f,\n"
      "  \"stream_speedup\": %.2f,\n"
      "  \"stream_results_identical\": %s,\n"
      "  \"pass\": %s\n"
      "}\n",
      Smoke ? "smoke" : "full", Stage1Bins,
      S1.NaiveNsPerEnd, S1.IncrNsPerEnd, S1.Speedup,
      Gate1 ? "true" : "false", S1.BitIdentical ? "true" : "false",
      ServiceInstrs,
      static_cast<unsigned long long>(S2.BatchesPerRun),
      S2.NaiveBatchesPerSec, S2.IncrBatchesPerSec, S2.Speedup,
      Gate2 ? "true" : "false", S3.NaiveMs, S3.IncrMs, S3.Speedup,
      S3.Identical ? "true" : "false", Pass ? "true" : "false");

  return Pass ? 0 : 1;
}
