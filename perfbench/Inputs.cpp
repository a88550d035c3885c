//===- perfbench/Inputs.cpp - Workload shapes and input generation --------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "sampling/Sampler.h"
#include "sim/Engine.h"

#include <algorithm>

using namespace regmon;

namespace perfbench {

const std::vector<Shape> &shapes() {
  static const std::vector<Shape> All = [] {
    const std::vector<std::string> PhaseRich = {
        "176.gcc",     "186.crafty", "254.gap",     "188.ammp",
        "181.mcf",     "187.facerec", "197.parser", "164.gzip"};
    const std::vector<std::string> StableNumeric = {
        "synthetic.periodic", "171.swim",   "172.mgrid",    "173.applu",
        "183.equake",         "177.mesa",   "200.sixtrack", "301.apsi"};
    Shape Embedded;
    Embedded.Name = "embedded-lpd";
    Embedded.K = Kind::EmbeddedLpd;
    Embedded.Models = PhaseRich;
    Embedded.Streams = 8;
    Embedded.IntervalsPerStream = 256;
    Embedded.Adaptive = true;

    Shape Durable;
    Durable.Name = "durable-ingest";
    Durable.K = Kind::DurableIngest;
    Durable.Models = StableNumeric;
    Durable.Streams = 32;
    Durable.IntervalsPerStream = 64;
    Durable.Workers = 3;
    Durable.Journal = Durable.Recorder = Durable.Obs = true;
    Durable.ScrapeEvery = 64;

    Shape Recover = Durable;
    Recover.Name = "recover";
    Recover.K = Kind::Recover;
    return std::vector<Shape>{Embedded, Durable, Recover};
  }();
  return All;
}

const Shape *findShape(std::string_view Name) {
  for (const Shape &S : shapes())
    if (S.Name == Name)
      return &S;
  return nullptr;
}

Inputs generate(const Shape &S, std::uint64_t Seed) {
  Inputs In;
  std::vector<std::vector<std::vector<Sample>>> PerStream;
  for (std::size_t I = 0; I < S.Streams; ++I) {
    StreamModel M;
    M.W = std::make_unique<workloads::Workload>(
        workloads::make(S.Models[I % S.Models.size()]));
    M.Map = std::make_unique<sim::ProgramCodeMap>(M.W->Prog);
    sim::Engine Engine(M.W->Prog, M.W->Script, Seed * 1'000'003ULL + I);
    sampling::Sampler Sampler(Engine, {Period, BufferSamples});
    PerStream.push_back(Sampler.collectIntervals(S.IntervalsPerStream));
    In.Streams.push_back(std::move(M));
  }
  std::size_t Rounds = 0;
  for (const auto &Intervals : PerStream)
    Rounds = std::max(Rounds, Intervals.size());
  for (std::size_t R = 0; R < Rounds; ++R)
    for (service::StreamId Id = 0; Id < PerStream.size(); ++Id)
      if (R < PerStream[Id].size()) {
        In.Samples += PerStream[Id][R].size();
        In.Batches.push_back({Id, std::move(PerStream[Id][R])});
      }
  return In;
}

service::ServiceConfig serviceConfig(const Shape &S, bool Inline) {
  service::ServiceConfig Cfg;
  Cfg.Workers = std::max<std::size_t>(S.Workers, 1);
  Cfg.QueueCapacity = 64;
  Cfg.Policy = service::OverflowPolicy::Block;
  Cfg.ValidateBatches = true;
  Cfg.Adaptive.Enabled = S.Adaptive;
  Cfg.Adaptive.BasePeriodCycles = Period;
  Cfg.Inline = Inline || S.Workers == 0;
  return Cfg;
}

} // namespace perfbench
