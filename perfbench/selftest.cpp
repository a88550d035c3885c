//===- perfbench/selftest.cpp - Tests of the benchmark itself -------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Checks the two pieces every reported number rests on: the percentile
// helpers (on a known vector), and the correctness oracle, which must
// accept a faithful pass and reject a planted divergence -- one batch
// swapped between two streams, or a recovered state that is not the
// uninterrupted run's. Usage: perfbench_selftest [SCRATCH_PARENT]
// (default "."); exits 0 when every check passes.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Oracle.h"
#include "Passes.h"
#include "Stats.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  std::printf("%s: %s\n", Ok ? "ok  " : "FAIL", What);
  if (!Ok)
    ++Failures;
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

void testPercentiles() {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I);
  check(near(median(V), 50.5), "median of 1..100 is 50.5");
  check(near(quantile(V, 0.99), 99.01), "p99 of 1..100 is 99.01");
  check(near(quantile(V, 0.0), 1.0) && near(quantile(V, 1.0), 100.0),
        "p0 and p100 are the extremes");
  check(near(median({7.0}), 7.0) && near(median({}), 0.0),
        "median of one sample and of none");
  check(tailPercentile(19) == 0.0, "19 samples support no percentile");
  check(tailPercentile(20) == 50.0, "20 samples support p50");
  check(tailPercentile(100) == 90.0, "100 samples support p90");
  check(tailPercentile(999) == 90.0, "999 samples do not support p99");
  check(tailPercentile(1000) == 99.0, "1000 samples support p99");
  check(tailPercentile(10000) == 99.9, "10000 samples support p99.9");
}

/// A small two-stream durable shape: cheap to run, and threaded so the
/// FIFO span matching and the recovery path are exercised too.
Shape smallShape() {
  Shape S = *findShape("durable-ingest");
  S.Models = {"181.mcf", "176.gcc"};
  S.Streams = 2;
  S.IntervalsPerStream = 24;
  S.Workers = 2;
  return S;
}

void testOracle(const std::string &Dir) {
  const Shape S = smallShape();
  const Inputs In = generate(S, 7);
  const Reference Ref = computeReference(In);
  check(In.Batches.size() == 48 && Ref.Batches == 48,
        "inputs: 2 streams x 24 intervals, round-robin");

  const PassStats Good =
      runIngestPass(S, In, Ref, configured(S), true, Dir + "/good");
  check(Good.Mismatches.empty(), "a faithful pass passes the oracle");
  check(Good.QueueWaitUs.size() == In.Batches.size(),
        "every batch is matched to its worker-hook firing");

  // Swap the stream of the first batch of stream 0 with that of the
  // first batch of stream 1: same sample counts, wrong code maps.
  // The copy's code maps view the original programs.
  Inputs Swapped;
  for (const StreamModel &M : In.Streams)
    Swapped.Streams.push_back(
        {nullptr, std::make_unique<regmon::sim::ProgramCodeMap>(M.W->Prog)});
  Swapped.Batches = In.Batches;
  Swapped.Samples = In.Samples;
  std::swap(Swapped.Batches[0].Stream, Swapped.Batches[1].Stream);
  const PassStats Bad =
      runIngestPass(S, Swapped, Ref, configured(S), false, Dir + "/bad");
  check(!Bad.Mismatches.empty(), "one swapped batch fails the oracle");

  PassStats WriteSide;
  LogSet L = prepareRecover(S, In, Ref, Dir + "/recover", false, WriteSide);
  check(WriteSide.Mismatches.empty(), "recover preparation is correct");
  const RecoverStats Rec = runRecoverPass(S, In, L, true);
  check(Rec.Mismatches.empty(),
        "restore and replay reproduce the uninterrupted state");
  check(Rec.BatchesApplied == In.Batches.size() &&
            Rec.RecordsReplayed == L.RestoreBatches,
        "replay applies every batch; restore re-applies the tail");
  L.State = Bad.State;
  check(!runRecoverPass(S, In, L, false).Mismatches.empty(),
        "a recovered state unlike the reference fails the oracle");
  check(compareStates(Good.State, Good.State, false).empty() &&
            !compareStates(Good.State, Bad.State, true).empty(),
        "state comparison accepts equal and rejects diverged states");
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string Parent = Argc > 1 ? Argv[1] : ".";
  std::string Pattern = Parent + "/perfbench-selftest-XXXXXX";
  if (!::mkdtemp(Pattern.data())) {
    std::fprintf(stderr, "error: cannot create a scratch directory\n");
    return 2;
  }
  testPercentiles();
  testOracle(Pattern);
  std::error_code Ec;
  std::filesystem::remove_all(Pattern, Ec);
  std::printf("%d failure(s)\n", Failures);
  return Failures == 0 ? 0 : 1;
}
