//===- perfbench/Inputs.h - Workload shapes and input generation -*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's three workload shapes (which models feed how many
/// streams, through which service topology, with which layers attached)
/// and the load generator: `sim` + `workloads` + `Sampler` turn a seed
/// into the batch sequence one pass submits. Generation happens before
/// any timing, so the simulator never shows up in a metric.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERFBENCH_INPUTS_H
#define REGMON_PERFBENCH_INPUTS_H

#include "service/MonitorService.h"
#include "sim/ProgramCodeMap.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Kind { EmbeddedLpd, DurableIngest, Recover };

/// Sampling period (cycles per interrupt) and buffer size of every stream.
inline constexpr regmon::Cycles Period = 45'000;
inline constexpr std::size_t BufferSamples = 2032;

/// One workload's fixed topology and attachments.
struct Shape {
  std::string Name;
  Kind K = Kind::EmbeddedLpd;
  /// Stream I runs Models[I % Models.size()].
  std::vector<std::string> Models;
  std::size_t Streams = 0;
  std::size_t IntervalsPerStream = 0;
  /// Worker shards; 0 selects the Inline (worker-less) service.
  std::size_t Workers = 0;
  bool Adaptive = false;
  bool Journal = false;
  bool Recorder = false;
  bool Obs = false;
  /// Batches between producer-side snapshot() + Prometheus scrapes.
  std::size_t ScrapeEvery = 0;
};

/// The three workloads, in the order BENCHMARK.json lists them.
const std::vector<Shape> &shapes();
/// The shape named \p Name, or null.
const Shape *findShape(std::string_view Name);

/// One stream's program model and the code map the service resolves
/// regions through (both must outlive every service built over them).
struct StreamModel {
  std::unique_ptr<regmon::workloads::Workload> W;
  std::unique_ptr<regmon::sim::ProgramCodeMap> Map;
};

/// Everything one pass submits, in submission order (streams
/// round-robin, one interval each per round).
struct Inputs {
  std::vector<StreamModel> Streams;
  std::vector<regmon::service::SampleBatch> Batches;
  std::uint64_t Samples = 0;
};

/// Simulates and samples every stream of \p S. Stream I's engine seed is
/// derived from \p Seed and I, so the same seed yields the same batches.
Inputs generate(const Shape &S, std::uint64_t Seed);

/// The service configuration of \p S; \p Inline forces the worker-less
/// mode (trace replay) while keeping the recorded shard count.
regmon::service::ServiceConfig serviceConfig(const Shape &S, bool Inline);

} // namespace perfbench

#endif // REGMON_PERFBENCH_INPUTS_H
