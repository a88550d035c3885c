//===- bench_micro_primitives.cpp - Hot-path microbenchmarks --------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark timings of the primitives on the monitoring hot path:
// the similarity kernels, the two attribution structures across region
// counts, one detector step of each detector, and the execution-engine
// sampling rate. These are the constants behind Figs. 15/16. BM_Crc32
// times the checksum under every journal record, flight-recorder record
// and snapshot, on its portable table path and as dispatched on this host.
//
//===----------------------------------------------------------------------===//

#include "core/Attribution.h"
#include "core/LocalPhaseDetector.h"
#include "core/Similarity.h"
#include "gpd/CentroidPhaseDetector.h"
#include "persist/Crc32.h"
#include "sim/Engine.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <optional>
#include <span>
#include <type_traits>
#include <vector>

using namespace regmon;

namespace {

std::vector<std::uint32_t> randomHistogram(std::size_t Bins,
                                           std::uint64_t Seed) {
  Rng Random(Seed);
  std::vector<std::uint32_t> H(Bins);
  for (auto &V : H)
    V = static_cast<std::uint32_t>(Random.nextBelow(64));
  return H;
}

void BM_Similarity(benchmark::State &State, core::SimilarityKind Kind) {
  const auto Bins = static_cast<std::size_t>(State.range(0));
  const auto Metric = core::makeSimilarity(Kind);
  const auto A = randomHistogram(Bins, 1), B = randomHistogram(Bins, 2);
  for (auto _ : State)
    benchmark::DoNotOptimize(Metric->compare(A, B));
  State.SetItemsProcessed(State.iterations() *
                          static_cast<std::int64_t>(Bins));
}

template <class AttributorT>
void BM_Attribution(benchmark::State &State, AttributorT Attrib) {
  const auto Regions = static_cast<std::uint32_t>(State.range(0));
  // Regions of 64 instructions spread over a 1 MiB text section, with
  // nesting every 8th region.
  Rng Random(3);
  for (std::uint32_t Id = 0; Id < Regions; ++Id) {
    const Addr Start = (Random.nextBelow(4096)) * 256;
    const Addr Len = Id % 8 == 0 ? 2048 : 256;
    Attrib.insert(Id, Start, Start + Len);
  }
  std::vector<Addr> Pcs(1024);
  for (auto &Pc : Pcs)
    Pc = Random.nextBelow(1u << 20) & ~Addr(3);
  std::vector<core::RegionId> Out;
  Out.reserve(16);
  std::size_t I = 0;
  for (auto _ : State) {
    const Addr Pc = Pcs[I++ & 1023];
    if constexpr (std::is_same_v<AttributorT, core::SegmentAttributor>) {
      // The table answers with a span into itself, as the monitor uses it.
      benchmark::DoNotOptimize(Attrib.lookup(Pc).data());
    } else {
      Out.clear();
      Attrib.lookup(Pc, Out);
      benchmark::DoNotOptimize(Out.data());
    }
  }
}

void BM_LocalDetectorStep(benchmark::State &State) {
  const auto Bins = static_cast<std::size_t>(State.range(0));
  const core::PearsonSimilarity Metric;
  core::LocalPhaseDetector Detector(Bins, Metric);
  const auto A = randomHistogram(Bins, 1), B = randomHistogram(Bins, 2);
  bool Flip = false;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Detector.observe(Flip ? A : B));
    Flip = !Flip;
  }
}

void BM_GpdStep(benchmark::State &State) {
  gpd::CentroidPhaseDetector Detector;
  Rng Random(5);
  for (auto _ : State)
    benchmark::DoNotOptimize(Detector.observeCentroid(
        1.0e5 + static_cast<double>(Random.nextBelow(1000))));
}

void BM_EngineSampling(benchmark::State &State) {
  const workloads::Workload W = workloads::make("181.mcf");
  std::optional<sim::Engine> Engine(std::in_place, W.Prog, W.Script, 9);
  for (auto _ : State) {
    auto S = Engine->advanceAndSample(45'000);
    if (!S) {
      // Program finished mid-measurement: restart it (the reconstruction
      // cost is amortized over ~2M samples per run).
      Engine.emplace(W.Prog, W.Script, 9);
      S = Engine->advanceAndSample(45'000);
    }
    benchmark::DoNotOptimize(S);
  }
}

using CrcFn = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);

void BM_Crc32(benchmark::State &State, CrcFn Crc) {
  const auto Bytes = static_cast<std::size_t>(State.range(0));
  Rng Random(7);
  std::vector<std::uint8_t> Data(Bytes);
  for (auto &B : Data)
    B = static_cast<std::uint8_t>(Random.next() >> 56);
  for (auto _ : State)
    benchmark::DoNotOptimize(Crc(Data, 0));
  State.SetBytesProcessed(State.iterations() *
                          static_cast<std::int64_t>(Bytes));
}

} // namespace

BENCHMARK_CAPTURE(BM_Similarity, pearson, core::SimilarityKind::Pearson)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_Similarity, cosine, core::SimilarityKind::Cosine)
    ->Arg(64)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_Similarity, overlap, core::SimilarityKind::Overlap)
    ->Arg(64)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_Attribution, list, core::ListAttributor())
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_Attribution, tree, core::IntervalTreeAttributor())
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_Attribution, table, core::SegmentAttributor())
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);
BENCHMARK(BM_LocalDetectorStep)->Arg(64)->Arg(1024);
BENCHMARK(BM_GpdStep);
BENCHMARK(BM_EngineSampling);
// 13 bytes is the record-header prefix the CRC chains first; 34,561 is
// one 2032-sample batch record's payload.
BENCHMARK_CAPTURE(BM_Crc32, table, &persist::crc32Table)
    ->Arg(13)
    ->Arg(4096)
    ->Arg(34561);
BENCHMARK_CAPTURE(BM_Crc32, dispatched, &persist::crc32)
    ->Arg(13)
    ->Arg(4096)
    ->Arg(34561);

BENCHMARK_MAIN();
