//===- tools/regmon_cli.cpp - Command-line driver -------------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// One binary to drive everything in the library:
//
//   regmon-cli list
//   regmon-cli gpd <workload> [--period N] [--seed N]
//   regmon-cli monitor <workload> [--period N] [--seed N]
//                      [--similarity pearson|cosine|overlap]
//                      [--adaptive-rt] [--miss-phases] [--prune N]
//   regmon-cli rto <workload> [--period N] [--seed N]
//                  [--self-monitor off|oracle|observed]
//   regmon-cli sweep <workload> [--seed N]
//   regmon-cli serve <workload> [--streams N] [--workers N] [--period N]
//                    [--seed N] [--queue N] [--policy block|drop]
//                    [--intervals N]
//   regmon-cli checkpoint <workload> --dir PATH [serve flags]
//   regmon-cli restore <workload> --dir PATH [serve flags]
//   regmon-cli stats <workload> [--period N] [--seed N] [monitor flags]
//                    [--format prom|json]
//   regmon-cli trace <workload> [--period N] [--seed N] [monitor flags]
//   regmon-cli fleet <workload> [--leaves N] [--fanout N] [--epochs N]
//                    [--streams-per-leaf N] [--period N] [--seed N]
//                    [--crash-rate P] [--stall-rate P] [--drop-rate P]
//                    [--dup-rate P] [--reorder-rate P] [--stale-rate P]
//                    [--staleness N] [--dir PATH] [--metrics prom|json]
//   regmon-cli record <workload> --trace PATH [serve flags]
//                     [--corrupt-rate P] [--truncate-rate P]
//                     [--poison-rate P] [--drop-rate P] [--crash-bytes N]
//                     [--export PATH] [--dir PATH]
//   regmon-cli replay <workload> --trace PATH [serve topology flags]
//                     [--format prom|json] [--dir PATH]
//   regmon-cli trace-verify --trace PATH [--repair]
//
// Exit codes: 0 success, 1 runtime failure (damaged trace, divergence,
// failed commit), 2 usage error (unknown command/flag, missing argument).
// --help/-h/help print the usage on stdout and exit 0.
//
//===----------------------------------------------------------------------===//

#include "core/RegionMonitor.h"
#include "faults/FaultPlan.h"
#include "fleet/FleetTree.h"
#include "gpd/CentroidPhaseDetector.h"
#include "obs/Export.h"
#include "obs/Instruments.h"
#include "persist/RecordLog.h"
#include "rto/Harness.h"
#include "sampling/Sampler.h"
#include "service/MonitorService.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "support/TextTable.h"
#include "trace/Attach.h"
#include "trace/Replay.h"
#include "workloads/Workloads.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace regmon;

namespace {

struct Options {
  std::string Command;
  std::string Workload;
  Cycles Period = 45'000;
  std::uint64_t Seed = 1;
  core::SimilarityKind Similarity = core::SimilarityKind::Pearson;
  bool AdaptiveRt = false;
  bool MissPhases = false;
  std::optional<std::uint64_t> PruneAfter;
  rto::SelfMonitorMode SelfMonitor = rto::SelfMonitorMode::Observational;
  std::size_t Streams = 8;
  std::size_t Workers = 4;
  std::size_t QueueCapacity = 64;
  service::OverflowPolicy Policy = service::OverflowPolicy::Block;
  std::size_t MaxIntervals = SIZE_MAX;
  std::string Dir;
  std::string Format = "prom";
  // fleet command
  std::uint32_t Leaves = 8;
  std::uint32_t Fanout = 4;
  std::uint32_t StreamsPerLeaf = 1;
  std::uint64_t Epochs = 12;
  double CrashRate = 0;
  double StallRate = 0;
  double DropRate = 0;
  double DupRate = 0;
  double ReorderRate = 0;
  double StaleRate = 0;
  std::uint64_t Staleness = 8;
  std::string Metrics; ///< empty = human report
  // record / replay / trace-verify
  std::string Trace;  ///< trace file path
  std::string Export; ///< where record writes the run's obs export
  std::uint64_t CrashBytes = 0; ///< recorder I/O budget; 0 = unlimited
  bool Repair = false;
  double CorruptRate = 0;
  double TruncateRate = 0;
  double PoisonRate = 0;
};

void printUsage(std::FILE *To, const char *Prog) {
  std::fprintf(
      To,
      "usage: %s <command> [args]\n"
      "  list                      list available workloads\n"
      "  gpd <workload>            run global (centroid) phase detection\n"
      "  monitor <workload>        run region monitoring (LPD)\n"
      "  rto <workload>            compare RTO-ORIG vs RTO-LPD\n"
      "  sweep <workload>          GPD + LPD summary at 45K/450K/900K\n"
      "  serve <workload>          multi-stream monitoring service\n"
      "  checkpoint <workload>     serve with durability, then snapshot\n"
      "  restore <workload>        recover service state from a directory\n"
      "  stats <workload>          run LPD + GPD, export metrics\n"
      "  trace <workload>          run LPD + GPD, print the event trace\n"
      "  fleet <workload>          hierarchical fleet aggregation demo\n"
      "  record <workload>         serve under a flight recorder\n"
      "  replay <workload>         re-drive a recorded trace, export metrics\n"
      "  trace-verify              scan a trace file, optionally repair it\n"
      "common flags: --period N --seed N\n"
      "monitor flags: --similarity pearson|cosine|overlap --adaptive-rt\n"
      "               --miss-phases --prune N\n"
      "rto flags: --self-monitor off|oracle|observed\n"
      "serve flags: --streams N --workers N --queue N "
      "--policy block|drop --intervals N\n"
      "checkpoint/restore flags: serve flags plus --dir PATH (required;\n"
      "  the same topology flags must be used across runs on one dir).\n"
      "  --dir here and in record/replay needs --policy block\n"
      "stats flags: monitor flags plus --format prom|json\n"
      "fleet flags: --leaves N --fanout N --epochs N --streams-per-leaf N\n"
      "             --crash-rate P --stall-rate P --drop-rate P --dup-rate P\n"
      "             --reorder-rate P --stale-rate P --staleness N\n"
      "             --dir PATH (leaf checkpoints) --metrics prom|json\n"
      "record flags: serve flags plus --trace PATH (required)\n"
      "              --corrupt-rate P --truncate-rate P --poison-rate P\n"
      "              --drop-rate P (sample loss) --crash-bytes N (kill the\n"
      "              recorder after N I/O units) --export PATH (write the\n"
      "              run's metrics) --dir PATH (checkpoint at the end)\n"
      "replay flags: --trace PATH (required) plus the recording run's\n"
      "              topology flags; --format prom|json --dir PATH\n"
      "              (re-apply recorded checkpoints into PATH)\n"
      "trace-verify flags: --trace PATH (required) --repair (truncate a\n"
      "              damaged trace to its valid prefix)\n",
      Prog);
}

int usage(const char *Prog) {
  printUsage(stderr, Prog);
  return 2;
}

/// Parses \p Text, the value of \p Flag, as a whole decimal number in
/// [\p Min, \p Max]; anything else is a usage error.
std::uint64_t parseCount(const std::string &Flag, const char *Text,
                         std::uint64_t Min,
                         std::uint64_t Max = UINT64_MAX) {
  const char *End = Text + std::strlen(Text);
  std::uint64_t V = 0;
  const auto [Stop, Err] = std::from_chars(Text, End, V);
  if (Err != std::errc() || Stop != End || V < Min || V > Max) {
    const std::string Range =
        Max == UINT64_MAX ? ">= " + std::to_string(Min)
                          : "in [" + std::to_string(Min) + ", " +
                                std::to_string(Max) + "]";
    std::fprintf(stderr, "error: %s needs a whole number %s, got '%s'\n",
                 Flag.c_str(), Range.c_str(), Text);
    std::exit(2);
  }
  return V;
}

/// Parses \p Text, the value of \p Flag, as a finite rate in [0, 1];
/// anything else is a usage error.
double parseRate(const std::string &Flag, const char *Text) {
  const char *End = Text + std::strlen(Text);
  double V = 0;
  const auto [Stop, Err] = std::from_chars(Text, End, V);
  if (Err != std::errc() || Stop != End || !(V >= 0.0 && V <= 1.0)) {
    std::fprintf(stderr, "error: %s needs a rate in [0, 1], got '%s'\n",
                 Flag.c_str(), Text);
    std::exit(2);
  }
  return V;
}

bool parseFlag(int Argc, char **Argv, int &I, Options &Opts) {
  const std::string Flag = Argv[I];
  const auto Next = [&]() -> const char * {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: %s needs a value\n", Flag.c_str());
      std::exit(2);
    }
    return Argv[++I];
  };
  const auto Count = [&](std::uint64_t Min) {
    return parseCount(Flag, Next(), Min);
  };
  const auto Count32 = [&](std::uint64_t Min) {
    return static_cast<std::uint32_t>(
        parseCount(Flag, Next(), Min, UINT32_MAX));
  };
  const auto Rate = [&] { return parseRate(Flag, Next()); };
  if (Flag == "--period") {
    Opts.Period = Count(1);
    return true;
  }
  if (Flag == "--seed") {
    Opts.Seed = Count(0);
    return true;
  }
  if (Flag == "--similarity") {
    const std::string V = Next();
    if (V == "pearson")
      Opts.Similarity = core::SimilarityKind::Pearson;
    else if (V == "cosine")
      Opts.Similarity = core::SimilarityKind::Cosine;
    else if (V == "overlap")
      Opts.Similarity = core::SimilarityKind::Overlap;
    else {
      std::fprintf(stderr, "error: unknown similarity '%s'\n", V.c_str());
      std::exit(2);
    }
    return true;
  }
  if (Flag == "--adaptive-rt") {
    Opts.AdaptiveRt = true;
    return true;
  }
  if (Flag == "--miss-phases") {
    Opts.MissPhases = true;
    return true;
  }
  if (Flag == "--prune") {
    Opts.PruneAfter = Count(0);
    return true;
  }
  if (Flag == "--streams") {
    Opts.Streams = Count(1);
    return true;
  }
  if (Flag == "--workers") {
    Opts.Workers = Count(1);
    return true;
  }
  if (Flag == "--queue") {
    Opts.QueueCapacity = Count(1);
    return true;
  }
  if (Flag == "--intervals") {
    Opts.MaxIntervals = Count(0);
    return true;
  }
  if (Flag == "--policy") {
    const std::string V = Next();
    if (V == "block")
      Opts.Policy = service::OverflowPolicy::Block;
    else if (V == "drop")
      Opts.Policy = service::OverflowPolicy::DropOldest;
    else {
      std::fprintf(stderr, "error: unknown policy '%s'\n", V.c_str());
      std::exit(2);
    }
    return true;
  }
  if (Flag == "--dir") {
    Opts.Dir = Next();
    return true;
  }
  if (Flag == "--format") {
    Opts.Format = Next();
    if (Opts.Format != "prom" && Opts.Format != "json") {
      std::fprintf(stderr, "error: unknown format '%s'\n",
                   Opts.Format.c_str());
      std::exit(2);
    }
    return true;
  }
  if (Flag == "--leaves") {
    Opts.Leaves = Count32(1);
    return true;
  }
  if (Flag == "--fanout") {
    Opts.Fanout = Count32(0);
    return true;
  }
  if (Flag == "--streams-per-leaf") {
    Opts.StreamsPerLeaf = Count32(1);
    return true;
  }
  if (Flag == "--epochs") {
    Opts.Epochs = Count(1);
    return true;
  }
  if (Flag == "--crash-rate") {
    Opts.CrashRate = Rate();
    return true;
  }
  if (Flag == "--stall-rate") {
    Opts.StallRate = Rate();
    return true;
  }
  if (Flag == "--drop-rate") {
    Opts.DropRate = Rate();
    return true;
  }
  if (Flag == "--dup-rate") {
    Opts.DupRate = Rate();
    return true;
  }
  if (Flag == "--reorder-rate") {
    Opts.ReorderRate = Rate();
    return true;
  }
  if (Flag == "--stale-rate") {
    Opts.StaleRate = Rate();
    return true;
  }
  if (Flag == "--staleness") {
    Opts.Staleness = Count(0);
    return true;
  }
  if (Flag == "--metrics") {
    Opts.Metrics = Next();
    if (Opts.Metrics != "prom" && Opts.Metrics != "json") {
      std::fprintf(stderr, "error: unknown metrics format '%s'\n",
                   Opts.Metrics.c_str());
      std::exit(2);
    }
    return true;
  }
  if (Flag == "--trace") {
    Opts.Trace = Next();
    return true;
  }
  if (Flag == "--export") {
    Opts.Export = Next();
    return true;
  }
  if (Flag == "--crash-bytes") {
    Opts.CrashBytes = Count(0);
    return true;
  }
  if (Flag == "--repair") {
    Opts.Repair = true;
    return true;
  }
  if (Flag == "--corrupt-rate") {
    Opts.CorruptRate = Rate();
    return true;
  }
  if (Flag == "--truncate-rate") {
    Opts.TruncateRate = Rate();
    return true;
  }
  if (Flag == "--poison-rate") {
    Opts.PoisonRate = Rate();
    return true;
  }
  if (Flag == "--self-monitor") {
    const std::string V = Next();
    if (V == "off")
      Opts.SelfMonitor = rto::SelfMonitorMode::Off;
    else if (V == "oracle")
      Opts.SelfMonitor = rto::SelfMonitorMode::GroundTruth;
    else if (V == "observed")
      Opts.SelfMonitor = rto::SelfMonitorMode::Observational;
    else {
      std::fprintf(stderr, "error: unknown self-monitor mode '%s'\n",
                   V.c_str());
      std::exit(2);
    }
    return true;
  }
  return false;
}

/// True after printing the usage error when \p Value, the path \p Flag
/// gives, is missing.
bool missing(const Options &Opts, const std::string &Value, const char *Flag) {
  if (!Value.empty())
    return false;
  std::fprintf(stderr, "error: %s needs %s PATH\n", Opts.Command.c_str(), Flag);
  return true;
}

int cmdList() {
  TextTable Table;
  Table.header({"workload", "loops", "total work (Gcycles)"});
  for (const std::string &Name : workloads::allNames()) {
    const workloads::Workload W = workloads::make(Name);
    Table.row({Name, TextTable::count(W.Prog.loops().size()),
               TextTable::num(W.Script.totalWork() / 1e9, 1)});
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}

int cmdGpd(const Options &Opts) {
  const workloads::Workload W = workloads::make(Opts.Workload);
  sim::Engine Engine(W.Prog, W.Script, Opts.Seed);
  sampling::Sampler Sampler(Engine, {Opts.Period, 2032});
  gpd::CentroidPhaseDetector Detector;
  Sampler.run([&](std::span<const Sample> Buffer) {
    Detector.observeInterval(Buffer);
  });
  std::printf("%s @ %llu cycles/interrupt (GPD)\n", Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Period));
  std::printf("  intervals:      %llu\n",
              static_cast<unsigned long long>(Detector.intervals()));
  std::printf("  phase changes:  %llu\n",
              static_cast<unsigned long long>(Detector.phaseChanges()));
  std::printf("  %% time stable:  %.1f%%\n",
              Detector.stableFraction() * 100.0);
  std::printf("  final state:    %s\n", gpd::toString(Detector.state()));
  return 0;
}

/// The region monitor the monitor flags describe.
core::RegionMonitorConfig monitorConfig(const Options &Opts) {
  core::RegionMonitorConfig Config;
  Config.Similarity = Opts.Similarity;
  Config.Lpd.AdaptiveThreshold = Opts.AdaptiveRt;
  Config.TrackMissPhases = Opts.MissPhases;
  if (Opts.PruneAfter) {
    Config.PruneColdRegions = true;
    Config.PruneAfterIdleIntervals = *Opts.PruneAfter;
  }
  return Config;
}

int cmdMonitor(const Options &Opts) {
  const workloads::Workload W = workloads::make(Opts.Workload);
  sim::Engine Engine(W.Prog, W.Script, Opts.Seed);
  sampling::Sampler Sampler(Engine, {Opts.Period, 2032});
  sim::ProgramCodeMap Map(W.Prog);
  core::RegionMonitor Monitor(Map, monitorConfig(Opts));
  Sampler.run([&](std::span<const Sample> Buffer) {
    Monitor.observeInterval(Buffer);
  });

  std::printf("%s @ %llu cycles/interrupt (region monitoring)\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Period));
  std::printf("  intervals %llu, formation triggers %llu, last UCR %.1f%%\n\n",
              static_cast<unsigned long long>(Monitor.intervals()),
              static_cast<unsigned long long>(Monitor.formationTriggers()),
              Monitor.lastUcrFraction() * 100.0);

  TextTable Table;
  std::vector<std::string> Header = {"region",   "samples", "changes",
                                     "% stable", "last r",  "DPI"};
  if (Opts.MissPhases)
    Header.push_back("miss changes");
  Table.header(std::move(Header));
  for (core::RegionId Id : Monitor.activeRegionIds()) {
    const core::Region &R = Monitor.regions()[Id];
    const core::RegionStats &S = Monitor.stats(Id);
    std::vector<std::string> Row = {
        R.Name,
        TextTable::count(S.TotalSamples),
        TextTable::count(S.PhaseChanges),
        TextTable::percent(S.stableFraction()),
        TextTable::num(Monitor.detector(Id).lastR(), 3),
        TextTable::percent(S.missFraction())};
    if (Opts.MissPhases)
      Row.push_back(TextTable::count(S.MissPhaseChanges));
    Table.row(std::move(Row));
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}

int cmdRto(const Options &Opts) {
  const workloads::Workload W = workloads::make(Opts.Workload);
  const rto::OptimizationModel Model = W.model();
  rto::RtoConfig Config;
  Config.Sampling.PeriodCycles = Opts.Period;
  Config.SelfMonitor = Opts.SelfMonitor;

  const rto::RtoResult Unopt =
      rto::runUnoptimized(W.Prog, W.Script, Opts.Seed, Config);
  const rto::RtoResult Orig =
      rto::runOriginal(W.Prog, W.Script, Model, Opts.Seed, Config);
  const rto::RtoResult Lpd =
      rto::runLocal(W.Prog, W.Script, Model, Opts.Seed, Config);

  TextTable Table;
  Table.header({"system", "cycles", "vs unoptimized", "stable%", "patches",
                "unpatches", "self-undos"});
  const auto Gain = [&](const rto::RtoResult &R) {
    return TextTable::percent(static_cast<double>(Unopt.TotalCycles) /
                                      static_cast<double>(R.TotalCycles) -
                                  1.0,
                              2);
  };
  Table.row({"unoptimized", TextTable::count(Unopt.TotalCycles), "0.00%",
             "", "0", "0", "0"});
  Table.row({"RTO-ORIG", TextTable::count(Orig.TotalCycles), Gain(Orig),
             TextTable::percent(Orig.StableFraction),
             TextTable::count(Orig.Patches),
             TextTable::count(Orig.Unpatches), "0"});
  Table.row({"RTO-LPD", TextTable::count(Lpd.TotalCycles), Gain(Lpd),
             TextTable::percent(Lpd.StableFraction),
             TextTable::count(Lpd.Patches),
             TextTable::count(Lpd.Unpatches),
             TextTable::count(Lpd.SelfUndos)});
  std::printf("%s\nLPD speedup over ORIG: %.2f%%\n", Table.render().c_str(),
              rto::speedupPercent(Orig, Lpd));
  return 0;
}

int cmdSweep(const Options &Opts) {
  TextTable Table;
  Table.header({"period", "GPD changes", "GPD stable%", "LPD changes",
                "regions", "median region stable%"});
  for (const Cycles Period : {45'000u, 450'000u, 900'000u}) {
    const workloads::Workload W = workloads::make(Opts.Workload);
    sim::Engine Engine(W.Prog, W.Script, Opts.Seed);
    sampling::Sampler Sampler(Engine, {Period, 2032});
    sim::ProgramCodeMap Map(W.Prog);
    core::RegionMonitor Monitor(Map);
    gpd::CentroidPhaseDetector Gpd;
    Sampler.run([&](std::span<const Sample> Buffer) {
      Monitor.observeInterval(Buffer);
      Gpd.observeInterval(Buffer);
    });
    std::uint64_t LpdChanges = 0;
    std::vector<double> Stable;
    for (core::RegionId Id : Monitor.activeRegionIds()) {
      LpdChanges += Monitor.stats(Id).PhaseChanges;
      Stable.push_back(Monitor.stats(Id).stableFraction());
    }
    Table.row({TextTable::count(Period),
               TextTable::count(Gpd.phaseChanges()),
               TextTable::percent(Gpd.stableFraction()),
               TextTable::count(LpdChanges),
               TextTable::count(Monitor.activeRegionIds().size()),
               TextTable::percent(median(Stable))});
  }
  std::printf("%s (GPD vs LPD across sampling periods)\n%s",
              Opts.Workload.c_str(), Table.render().c_str());
  return 0;
}

// Each stream runs a private copy of the workload, seeded differently,
// with its own code map -- N independent cores executing the program.
struct Stream {
  std::unique_ptr<workloads::Workload> W;
  std::unique_ptr<sim::ProgramCodeMap> Map;
};

std::vector<Stream> makeStreams(const Options &Opts) {
  std::vector<Stream> Streams;
  Streams.reserve(Opts.Streams);
  for (std::size_t I = 0; I < Opts.Streams; ++I) {
    Stream S;
    S.W = std::make_unique<workloads::Workload>(
        workloads::make(Opts.Workload));
    S.Map = std::make_unique<sim::ProgramCodeMap>(S.W->Prog);
    Streams.push_back(std::move(S));
  }
  return Streams;
}

/// The service the topology flags describe, one registered stream per
/// entry of \p Streams. \p Inline builds the worker-less service a replay
/// drives.
std::unique_ptr<service::MonitorService>
makeService(const Options &Opts, const std::vector<Stream> &Streams,
            bool Inline = false) {
  service::ServiceConfig Cfg{Opts.Workers, Opts.QueueCapacity, Opts.Policy,
                             /*ValidateBatches=*/true, {}};
  Cfg.Inline = Inline;
  auto Service = std::make_unique<service::MonitorService>(Cfg);
  for (const Stream &S : Streams)
    Service->addStream(*S.Map);
  return Service;
}

/// trace::attach, with a refused description reported as the usage error
/// it is. Empty after printing why.
std::optional<trace::Attachment> attachLogs(service::MonitorService &Service,
                                            const trace::AttachSpec &Spec) {
  trace::Attachment Logs = trace::attach(Service, Spec);
  if (Logs.Refused) {
    std::fprintf(stderr, "error: --dir needs --policy block (the journal "
                         "does not record --policy drop's evictions)\n");
    return std::nullopt;
  }
  return Logs;
}

/// Runs one live producer per stream: each samples its stream's engine
/// and submits every buffer overflow as a batch, exactly as per-core HPM
/// drivers would, until it has submitted --intervals batches. The engines
/// are deterministic in (workload, seed), so a restored stream re-derives
/// its sample sequence and skips every interval it already holds:
/// processed, poisoned or sat out in quarantine. \p Plan (nullable)
/// injects seeded faults into every batch, drawing its decisions for the
/// skipped intervals too, so a resumed run sees the uninterrupted run's
/// fault schedule. The plan's refusals are the point, so the producer
/// keeps going through them, while without a plan a refusal means the
/// service takes no more (stopped, or its journal died).
void produce(const Options &Opts, const std::vector<Stream> &Streams,
             service::MonitorService &Service, const faults::FaultPlan *Plan) {
  std::vector<std::uint64_t> Skip(Streams.size(), 0);
  for (const service::StreamSnapshot &St : Service.snapshot().Streams)
    Skip[St.Stream] =
        St.BatchesProcessed + St.PoisonedBatches + St.QuarantinedBatches;
  std::vector<std::thread> Producers;
  Producers.reserve(Streams.size());
  for (service::StreamId Id = 0; Id < Streams.size(); ++Id)
    Producers.emplace_back([&, Id] {
      const Stream &S = Streams[Id];
      sim::Engine Engine(S.W->Prog, S.W->Script, Opts.Seed + Id);
      sampling::Sampler Sampler(Engine, {Opts.Period, 2032});
      std::optional<faults::StreamFaultInjector> Inj;
      if (Plan)
        Inj = Plan->forStream(Id);
      std::vector<Sample> Buffer;
      std::size_t Sent = 0;
      while (Sent < Opts.MaxIntervals && Sampler.fillBuffer(Buffer)) {
        std::vector<Sample> Batch = Inj ? Inj->apply(Buffer) : Buffer;
        const bool Poison =
            Inj && Inj->nextBatchFault() == faults::BatchFault::Poison;
        if (Skip[Id] > 0) {
          --Skip[Id];
          continue;
        }
        if (Poison)
          faults::poisonBatch(Batch);
        if (!Service.submit({Id, std::move(Batch)}) && !Plan)
          break;
        ++Sent;
      }
    });
  for (std::thread &T : Producers)
    T.join();
}

/// The run's shape, as serve and record report it.
void printTopology(const Options &Opts) {
  std::printf("%s x %zu streams @ %llu cycles/interrupt "
              "(%zu workers, queue %zu, policy %s)\n",
              Opts.Workload.c_str(), Opts.Streams,
              static_cast<unsigned long long>(Opts.Period), Opts.Workers,
              Opts.QueueCapacity, service::toString(Opts.Policy));
}

/// What restore found in --dir.
void printRestore(const Options &Opts, const trace::Attachment &Logs) {
  std::printf("%s: %s (sequence %llu)\n", Opts.Dir.c_str(),
              service::toString(Logs.Restored),
              static_cast<unsigned long long>(Logs.RestoredSequence));
}

void printStreamTable(const service::ServiceSnapshot &Snap) {
  TextTable Table;
  Table.header({"stream", "shard", "intervals", "regions", "changes",
                "triggers", "UCR%"});
  for (const service::StreamSnapshot &St : Snap.Streams)
    Table.row({TextTable::count(St.Stream), TextTable::count(St.Shard),
               TextTable::count(St.IntervalsProcessed),
               TextTable::count(St.ActiveRegions),
               TextTable::count(St.PhaseChanges),
               TextTable::count(St.FormationTriggers),
               TextTable::percent(St.ucrFraction())});
  std::printf("%s", Table.render().c_str());
}

void printRecovery(const persist::RecoveryCounters &C) {
  std::printf("  recovery: %llu replayed, %llu skipped, %llu corrupt "
              "snapshot(s), %llu fallback(s), %llu cold start(s), "
              "%llu torn tail(s) (%llu repaired)\n",
              static_cast<unsigned long long>(C.JournalRecordsReplayed),
              static_cast<unsigned long long>(C.JournalRecordsSkipped),
              static_cast<unsigned long long>(C.CorruptSnapshots),
              static_cast<unsigned long long>(C.FallbacksUsed),
              static_cast<unsigned long long>(C.ColdStarts),
              static_cast<unsigned long long>(C.JournalTornTails),
              static_cast<unsigned long long>(C.JournalRepairs));
  if (C.LastError != persist::SnapshotError::None)
    std::printf("  last snapshot error: %s\n",
                persist::toString(C.LastError));
  if (C.JournalMismatches != 0)
    std::printf("  topology mismatch: the journal names a stream this "
                "service lacks; it is kept whole, and new batches and "
                "checkpoints are refused\n");
  if (C.JournalGaps != 0)
    std::printf("  journal gap: the state is at sequence %llu but the "
                "journal resumes at %llu; it is kept whole, and new "
                "batches and checkpoints are refused\n",
                static_cast<unsigned long long>(C.GapStateSeq),
                static_cast<unsigned long long>(C.GapJournalSeq));
}

/// The metrics in \p Format; as JSON, with the events of \p Tracer.
std::string renderExport(const std::string &Format,
                         const obs::MetricsRegistry &Registry,
                         const obs::EventTracer *Tracer) {
  return Format == "json" ? obs::exportJson(Registry, Tracer) + "\n"
                          : obs::exportPrometheus(Registry);
}

int cmdServe(const Options &Opts) {
  const std::vector<Stream> Streams = makeStreams(Opts);
  const auto Service = makeService(Opts, Streams);
  Service->start();
  produce(Opts, Streams, *Service, /*Plan=*/nullptr);
  Service->stop();

  const service::ServiceSnapshot Snap = Service->snapshot();
  printTopology(Opts);
  std::printf("  batches: %llu submitted, %llu processed, %llu dropped\n",
              static_cast<unsigned long long>(Snap.BatchesSubmitted),
              static_cast<unsigned long long>(Snap.BatchesProcessed),
              static_cast<unsigned long long>(Snap.BatchesDropped));
  std::printf("  aggregate: %llu intervals, %llu phase changes, "
              "UCR %.1f%%\n\n",
              static_cast<unsigned long long>(Snap.IntervalsProcessed),
              static_cast<unsigned long long>(Snap.PhaseChanges),
              Snap.ucrFraction() * 100.0);

  printStreamTable(Snap);
  return 0;
}

// serve with durability attached: recover whatever the directory holds,
// process (journaled) batches, then commit a snapshot. Re-running the
// command on the same directory continues where the last run stopped --
// each run contributes up to --intervals *new* intervals -- and killing
// it mid-run loses nothing but the un-acked tail.
int cmdCheckpoint(const Options &Opts) {
  if (missing(Opts, Opts.Dir, "--dir"))
    return 2;
  const std::vector<Stream> Streams = makeStreams(Opts);
  const auto Service = makeService(Opts, Streams);
  const std::optional<trace::Attachment> Logs =
      attachLogs(*Service, {.Dir = Opts.Dir});
  if (!Logs)
    return 2;
  std::printf("restored from ");
  printRestore(Opts, *Logs);
  Service->start();
  produce(Opts, Streams, *Service, /*Plan=*/nullptr);
  Service->stop();

  const bool Committed = Service->checkpoint();
  const service::ServiceSnapshot Snap = Service->snapshot();
  std::printf("%s x %zu streams @ %llu cycles/interrupt, journaled "
              "sequence %llu -> %llu\n",
              Opts.Workload.c_str(), Opts.Streams,
              static_cast<unsigned long long>(Opts.Period),
              static_cast<unsigned long long>(Logs->RestoredSequence),
              static_cast<unsigned long long>(Service->persistedSequence()));
  printRecovery(Logs->Store->counters());
  printStreamTable(Snap);
  if (!Committed) {
    std::fprintf(stderr,
                 "error: snapshot commit failed (journal still holds the "
                 "run; see counters above)\n");
    return 1;
  }
  std::printf("snapshot committed to %s\n", Opts.Dir.c_str());
  return 0;
}

// Rebuilds service state from a checkpoint directory and reports what
// the recovery ladder did -- no new work is submitted. The topology
// flags must match the run that produced the directory, or the snapshot
// is (safely) rejected and recovery degrades to journal replay.
int cmdRestore(const Options &Opts) {
  if (missing(Opts, Opts.Dir, "--dir"))
    return 2;
  const std::vector<Stream> Streams = makeStreams(Opts);
  const auto Service = makeService(Opts, Streams);
  const std::optional<trace::Attachment> Logs =
      attachLogs(*Service, {.Dir = Opts.Dir});
  if (!Logs)
    return 2;

  const service::ServiceSnapshot Snap = Service->snapshot();
  printRestore(Opts, *Logs);
  printRecovery(Logs->Store->counters());
  std::printf("  aggregate: %llu batches, %llu intervals, %llu phase "
              "changes, UCR %.1f%%\n",
              static_cast<unsigned long long>(Snap.BatchesSubmitted),
              static_cast<unsigned long long>(Snap.IntervalsProcessed),
              static_cast<unsigned long long>(Snap.PhaseChanges),
              Snap.ucrFraction() * 100.0);
  printStreamTable(Snap);
  return 0;
}

// Shared by stats/trace: one deterministic single-threaded run of region
// monitoring (LPD) plus the centroid baseline (GPD) over the workload,
// with the full instrument catalogue attached. Single-threaded on
// purpose: the event arrival order -- and therefore the exported bytes
// -- is a pure function of (workload, period, seed).
void runObserved(const Options &Opts, obs::MetricsRegistry &Registry,
                 obs::EventTracer &Tracer) {
  const workloads::Workload W = workloads::make(Opts.Workload);
  sim::Engine Engine(W.Prog, W.Script, Opts.Seed);
  sampling::Sampler Sampler(Engine, {Opts.Period, 2032});
  sim::ProgramCodeMap Map(W.Prog);
  core::RegionMonitor Monitor(Map, monitorConfig(Opts));
  const obs::MonitorInstruments MonObs =
      obs::makeMonitorInstruments(Registry, &Tracer, 0, "");
  Monitor.attachObservability(&MonObs);

  gpd::CentroidPhaseDetector Gpd;
  const obs::GpdInstruments GpdObs =
      obs::makeGpdInstruments(Registry, &Tracer, 0, "");
  Gpd.attachObservability(&GpdObs);

  Sampler.run([&](std::span<const Sample> Buffer) {
    Monitor.observeInterval(Buffer);
    Gpd.observeInterval(Buffer);
  });
}

int cmdStats(const Options &Opts) {
  obs::MetricsRegistry Registry;
  obs::EventTracer Tracer;
  runObserved(Opts, Registry, Tracer);
  std::printf("%s", renderExport(Opts.Format, Registry, &Tracer).c_str());
  return 0;
}

int cmdTrace(const Options &Opts) {
  obs::MetricsRegistry Registry;
  obs::EventTracer Tracer;
  runObserved(Opts, Registry, Tracer);
  std::printf("%s", obs::exportTraceText(Tracer).c_str());
  return 0;
}

// A deterministic fleet run: N leaf services under an aggregation tree,
// with optional crash/stall/transport faults injected from the seed.
// The same flags always print the same bytes -- faults included.
int cmdFleet(const Options &Opts) {
  fleet::FleetSimConfig Cfg;
  Cfg.Leaves = Opts.Leaves;
  Cfg.Fanout = Opts.Fanout;
  Cfg.StreamsPerLeaf = Opts.StreamsPerLeaf;
  Cfg.Workload = Opts.Workload;
  Cfg.PeriodCycles = Opts.Period;
  Cfg.Seed = Opts.Seed;
  Cfg.PersistDir = Opts.Dir;

  fleet::FleetFaultConfig Faults;
  Faults.LeafCrashRate = Opts.CrashRate;
  Faults.AggStallRate = Opts.StallRate;
  Faults.Transport = {Opts.DropRate, Opts.DupRate, Opts.ReorderRate,
                      Opts.StaleRate};
  Faults.MaxStalenessEpochs = Opts.Staleness;

  fleet::FleetSim Sim(Cfg, fleet::FleetFaultPlan(Opts.Seed, Faults));
  Sim.run(Opts.Epochs);

  if (!Opts.Metrics.empty()) {
    obs::MetricsRegistry Registry;
    const obs::FleetInstruments Inst = obs::makeFleetInstruments(
        Registry, fleet::stableFractionBounds(), "");
    fleet::publishFleetMetrics(Sim, Inst);
    std::printf("%s", renderExport(Opts.Metrics, Registry, nullptr).c_str());
    return 0;
  }

  const fleet::FleetTopology &Topo = Sim.topology();
  std::printf("%s x %u leaves x %u stream(s), fanout %u "
              "(%zu aggregator(s), %u level(s))\n",
              Opts.Workload.c_str(), Topo.leaves(), Opts.StreamsPerLeaf,
              Topo.fanout(), Topo.aggs().size(), Topo.levels());
  std::uint64_t Crashes = 0, Discarded = 0;
  for (std::uint32_t L = 0; L < Topo.leaves(); ++L) {
    Crashes += Sim.leafStats(L).Crashes;
    Discarded += Sim.leafStats(L).BatchesDiscarded;
  }
  std::uint64_t Sent = 0, Delivered = 0, Resyncs = 0;
  const std::uint32_t NumLinks =
      Topo.leaves() + static_cast<std::uint32_t>(Topo.aggs().size());
  for (std::uint32_t I = 0; I < NumLinks; ++I) {
    Sent += Sim.linkStats(I).Sent;
    Delivered += Sim.linkStats(I).Delivered;
  }
  for (const auto &N : Topo.aggs())
    Resyncs += Sim.aggStats(N.Id).ResyncSuccesses;
  std::printf("  faults: %llu leaf crash(es), %llu batch(es) lost to "
              "downtime; links %llu sent / %llu delivered; "
              "%llu re-sync(s)\n",
              static_cast<unsigned long long>(Crashes),
              static_cast<unsigned long long>(Discarded),
              static_cast<unsigned long long>(Sent),
              static_cast<unsigned long long>(Delivered),
              static_cast<unsigned long long>(Resyncs));
  std::printf("%s", Sim.view().render().c_str());
  return 0;
}

// serve under an attached flight recorder, with seeded stream faults
// injected so the captured incident exercises the health machine and (with
// --policy drop) the eviction path. --crash-bytes kills the *recorder* --
// not the service -- after the given I/O budget, leaving the torn trace a
// later trace-verify/replay repairs; the service finishes the run either
// way. --dir attaches durability and commits a snapshot at the end, which
// the trace captures as a checkpoint marker.
int cmdRecord(const Options &Opts) {
  if (missing(Opts, Opts.Trace, "--trace"))
    return 2;
  const std::vector<Stream> Streams = makeStreams(Opts);
  const auto Service = makeService(Opts, Streams);
  obs::MetricsRegistry Registry;
  obs::EventTracer Tracer;
  persist::CrashPoint Crash = Opts.CrashBytes > 0
                                  ? persist::CrashPoint(Opts.CrashBytes)
                                  : persist::CrashPoint::unlimited();
  const std::optional<trace::Attachment> Logs =
      attachLogs(*Service, {.Registry = &Registry,
                            .Tracer = &Tracer,
                            .Dir = Opts.Dir,
                            .TracePath = Opts.Trace,
                            .Crash = &Crash});
  if (!Logs)
    return 2;
  if (Logs->Store) {
    std::printf("restored from ");
    printRestore(Opts, *Logs);
  }
  if (!Logs->Recorder) {
    std::fprintf(stderr,
                 "error: cannot record to '%s' (not a regmon trace, or the "
                 "crash budget died before the header)\n",
                 Opts.Trace.c_str());
    return 1;
  }
  Service->start();

  faults::FaultConfig FaultCfg;
  FaultCfg.DropRate = Opts.DropRate;
  FaultCfg.CorruptRate = Opts.CorruptRate;
  FaultCfg.TruncateRate = Opts.TruncateRate;
  FaultCfg.PoisonRate = Opts.PoisonRate;
  const faults::FaultPlan Plan(Opts.Seed, FaultCfg);
  produce(Opts, Streams, *Service, &Plan);
  Service->stop();
  const bool Committed = !Logs->Store || Service->checkpoint();
  trace::TraceRecorder &Recorder = *Logs->Recorder;
  const bool RecorderDied = !Recorder.ok();
  Recorder.close();

  const service::ServiceSnapshot Snap = Service->snapshot();
  printTopology(Opts);
  std::printf("  batches: %llu submitted, %llu processed, %llu dropped, "
              "%llu rejected, %llu poisoned, %llu quarantined\n",
              static_cast<unsigned long long>(Snap.BatchesSubmitted),
              static_cast<unsigned long long>(Snap.BatchesProcessed),
              static_cast<unsigned long long>(Snap.BatchesDropped),
              static_cast<unsigned long long>(Snap.BatchesRejected),
              static_cast<unsigned long long>(Snap.BatchesPoisoned),
              static_cast<unsigned long long>(Snap.BatchesQuarantined));
  std::printf("  trace: %s%s, %llu record(s) (%llu bytes), %llu append "
              "failure(s), next seq %llu\n",
              Opts.Trace.c_str(),
              Logs->Open.Repaired ? " (tail repaired)" : "",
              static_cast<unsigned long long>(Recorder.recordsWritten()),
              static_cast<unsigned long long>(Recorder.bytesWritten()),
              static_cast<unsigned long long>(Recorder.appendFailures()),
              static_cast<unsigned long long>(Recorder.nextSequence()));
  if (RecorderDied)
    std::printf("  recorder died mid-run (crash budget or I/O error); the "
                "surviving prefix is replayable after trace-verify "
                "--repair\n");
  if (!Opts.Export.empty()) {
    const std::string Text = renderExport(Opts.Format, Registry, &Tracer);
    std::FILE *F = std::fopen(Opts.Export.c_str(), "wb");
    bool Written =
        F && std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
    if (F)
      Written = std::fclose(F) == 0 && Written;
    if (!Written) {
      std::fprintf(stderr, "error: cannot write export to '%s'\n",
                   Opts.Export.c_str());
      return 1;
    }
    std::printf("  export: %s (%s)\n", Opts.Export.c_str(),
                Opts.Format.c_str());
  }
  if (!Committed) {
    std::fprintf(stderr, "error: snapshot commit failed\n");
    return 1;
  }
  return 0;
}

// Re-drives a recorded trace through a fresh worker-less service built
// with the same topology flags (and the same workload, for the code maps)
// as the recording run, then prints the obs export on stdout -- which is
// byte-identical to the recording run's --export file when the trace is
// whole. A damaged trace replays its repaired/valid prefix. --dir
// re-applies the recorded checkpoints into that directory.
int cmdReplay(const Options &Opts) {
  if (missing(Opts, Opts.Trace, "--trace"))
    return 2;
  const std::vector<Stream> Streams = makeStreams(Opts);
  const auto Service = makeService(Opts, Streams, /*Inline=*/true);
  obs::MetricsRegistry Registry;
  obs::EventTracer Tracer;
  const std::optional<trace::Attachment> Logs =
      attachLogs(*Service, {.Registry = &Registry,
                            .Tracer = &Tracer,
                            .Dir = Opts.Dir});
  if (!Logs)
    return 2;
  trace::ReplayConfig RCfg;
  RCfg.ApplyCheckpoints = Logs->Store != nullptr;
  const trace::FileReplay R =
      trace::replayTraceFile(Opts.Trace, *Service, RCfg);
  if (R.Scan.Missing) {
    std::fprintf(stderr, "error: no trace at '%s'\n", Opts.Trace.c_str());
    return 1;
  }
  if (!R.Scan.intact() && !R.Scan.repairable()) {
    std::fprintf(stderr,
                 "error: '%s' is not a regmon trace this build can read "
                 "(wrong magic, future version, or unknown record kind)\n",
                 Opts.Trace.c_str());
    return 1;
  }
  if (!R.Scan.intact())
    std::fprintf(stderr,
                 "note: damaged tail; replaying the %llu-byte valid prefix "
                 "(%llu record(s))\n",
                 static_cast<unsigned long long>(R.Scan.ValidBytes),
                 static_cast<unsigned long long>(R.Scan.RecordCount));
  if (R.Replay.ConfigMismatch) {
    std::fprintf(stderr,
                 "error: trace was recorded under a different configuration "
                 "(check --streams/--workers/--queue/--policy)\n");
    return 1;
  }
  if (R.Replay.StartMismatch) {
    std::fprintf(
        stderr,
        "error: trace starts at journal sequence %llu, but this service "
        "holds sequence %llu%s (replay with --dir on a copy of the "
        "recording's directory taken before it recorded)\n",
        static_cast<unsigned long long>(R.Replay.TraceStart.Sequence),
        static_cast<unsigned long long>(R.Replay.ServiceStart.Sequence),
        R.Replay.TraceStart.Sequence == R.Replay.ServiceStart.Sequence
            ? " in another state"
            : "");
    return 1;
  }
  if (R.Replay.Diverged) {
    std::fprintf(stderr, "error: replay diverged at record %llu\n",
                 static_cast<unsigned long long>(R.Replay.DivergedSeq));
    return 1;
  }
  // Refresh the point-in-time gauges (queue depth, quarantined streams)
  // exactly as the recording run's final snapshot did, so the exported
  // bytes line up.
  (void)Service->snapshot();
  std::printf("%s", renderExport(Opts.Format, Registry, &Tracer).c_str());
  std::fprintf(stderr,
               "replayed %llu batch(es), %llu drop(s), %llu push "
               "reject(s), %llu checkpoint(s) (%llu re-applied)\n",
               static_cast<unsigned long long>(R.Replay.BatchesApplied),
               static_cast<unsigned long long>(R.Replay.DropsApplied),
               static_cast<unsigned long long>(R.Replay.PushRejectsApplied),
               static_cast<unsigned long long>(R.Replay.CheckpointsSeen),
               static_cast<unsigned long long>(R.Replay.CheckpointsApplied));
  return 0;
}

// Scans a trace and reports its health. Exit 0 when the file is intact
// (or was repaired here under --repair), 1 when damaged, 2 on usage
// errors -- scriptable as a post-crash triage step before replay.
int cmdTraceVerify(const Options &Opts) {
  if (missing(Opts, Opts.Trace, "--trace"))
    return 2;
  const trace::ScanSummary Scan = trace::verifyTraceFile(Opts.Trace);
  if (Scan.Missing) {
    std::fprintf(stderr, "error: no trace at '%s'\n", Opts.Trace.c_str());
    return 1;
  }
  std::printf("%s: %llu / %llu bytes valid, %llu record(s), last seq %llu\n",
              Opts.Trace.c_str(),
              static_cast<unsigned long long>(Scan.ValidBytes),
              static_cast<unsigned long long>(Scan.FileBytes),
              static_cast<unsigned long long>(Scan.RecordCount),
              static_cast<unsigned long long>(Scan.LastSeq));
  if (Scan.intact()) {
    std::printf("  intact\n");
    return 0;
  }
  std::printf("  damage:%s%s%s%s%s%s\n", Scan.TornTail ? " torn-tail" : "",
              Scan.MalformedPayload ? " malformed-payload" : "",
              Scan.UnknownKind ? " unknown-kind" : "",
              Scan.HeaderTorn ? " header-torn" : "",
              Scan.HeaderCorrupt ? " header-corrupt" : "",
              Scan.VersionSkew ? " version-skew" : "");
  if (!Scan.repairable()) {
    std::fprintf(stderr,
                 "error: not repairable (foreign or future-version data; "
                 "truncating would destroy another writer's file)\n");
    return 1;
  }
  if (!Opts.Repair) {
    std::fprintf(stderr,
                 "note: repairable; re-run with --repair to truncate to "
                 "the valid prefix\n");
    return 1;
  }
  if (!persist::repairLog(Opts.Trace, Scan.ValidBytes, nullptr)) {
    std::fprintf(stderr, "error: cannot truncate '%s'\n", Opts.Trace.c_str());
    return 1;
  }
  std::printf("  repaired: truncated to %llu byte(s)\n",
              static_cast<unsigned long long>(Scan.ValidBytes));
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  Options Opts;
  Opts.Command = Argv[1];
  if (Opts.Command == "--help" || Opts.Command == "-h" ||
      Opts.Command == "help") {
    printUsage(stdout, Argv[0]);
    return 0;
  }
  if (Opts.Command == "list")
    return cmdList();
  if (Opts.Command == "trace-verify") {
    for (int I = 2; I < Argc; ++I) {
      if (!parseFlag(Argc, Argv, I, Opts)) {
        std::fprintf(stderr, "error: unknown flag '%s'\n", Argv[I]);
        return usage(Argv[0]);
      }
    }
    return cmdTraceVerify(Opts);
  }

  // Every remaining command takes a workload argument. Validate the
  // command *first* so a typo'd command reports itself, not its operand.
  static const char *const WorkloadCommands[] = {
      "gpd",     "monitor", "rto",   "sweep", "serve",  "checkpoint",
      "restore", "stats",   "trace", "fleet", "record", "replay"};
  bool Known = false;
  for (const char *const C : WorkloadCommands)
    Known = Known || Opts.Command == C;
  if (!Known) {
    std::fprintf(stderr, "error: unknown command '%s'\n",
                 Opts.Command.c_str());
    return usage(Argv[0]);
  }

  if (Argc < 3)
    return usage(Argv[0]);
  Opts.Workload = Argv[2];
  if (!workloads::exists(Opts.Workload)) {
    std::fprintf(stderr, "error: unknown workload '%s' (try 'list')\n",
                 Opts.Workload.c_str());
    return 2;
  }
  for (int I = 3; I < Argc; ++I) {
    if (!parseFlag(Argc, Argv, I, Opts)) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Argv[I]);
      return usage(Argv[0]);
    }
  }
  if (Opts.Command == "gpd")
    return cmdGpd(Opts);
  if (Opts.Command == "monitor")
    return cmdMonitor(Opts);
  if (Opts.Command == "rto")
    return cmdRto(Opts);
  if (Opts.Command == "sweep")
    return cmdSweep(Opts);
  if (Opts.Command == "serve")
    return cmdServe(Opts);
  if (Opts.Command == "checkpoint")
    return cmdCheckpoint(Opts);
  if (Opts.Command == "restore")
    return cmdRestore(Opts);
  if (Opts.Command == "stats")
    return cmdStats(Opts);
  if (Opts.Command == "trace")
    return cmdTrace(Opts);
  if (Opts.Command == "fleet")
    return cmdFleet(Opts);
  if (Opts.Command == "record")
    return cmdRecord(Opts);
  return cmdReplay(Opts);
}
