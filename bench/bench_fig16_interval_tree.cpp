//===- bench_fig16_interval_tree.cpp - Paper Fig. 16 ----------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Fig. 16: "Improvement from using interval trees instead of simple
// lists" for sample attribution. Each benchmark's final region set is
// loaded into the three attribution structures and the identical recorded
// sample stream is looked up through each; we report the interval-tree
// cost normalized to the list cost, and beside it the cost of the flat
// elementary-segment table (SegmentAttributor), timed through its span
// lookup. The RegionMonitor's count slab is laid out over the same
// segments, but it counts into one slot per sample instead of returning
// each region's id; this column times the segment search, not the
// monitor. Exits 1 unless all three structures count the same hits on
// every program.
//
// Expected shape: tree/list ~1 (or slightly above, from tree maintenance)
// for programs with a handful of regions; well below 1 for the
// many-region programs (gcc, crafty, parser, bzip2, fma3d in the paper).
// table/list below 1 everywhere.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "core/Attribution.h"
#include "support/TextTable.h"

#include <cstdio>

using namespace regmon;
using namespace regmon::bench;

int main() {
  std::printf("[Fig. 16] Attribution cost: interval tree and segment "
              "table normalized to list @ 45K\n\n");
  TextTable Table;
  Table.header({"benchmark", "regions", "list ms", "tree ms",
                "tree/list factor", "table ms", "table/list"});

  std::vector<std::string> Names = workloads::fig6Names();
  Names.push_back("179.art"); // the paper's Fig. 16 adds 179.art

  for (const std::string &Name : Names) {
    const workloads::Workload W = workloads::make(Name);
    const SampleStream Stream = recordStream(W, 45'000);

    // Discover the region set by running the monitor once.
    MonitorRun Run(workloads::make(Name), 45'000);
    const std::vector<core::RegionId> Ids = Run.monitor().activeRegionIds();

    core::ListAttributor List;
    core::IntervalTreeAttributor Tree;
    core::SegmentAttributor Segments;
    for (core::RegionId Id : Ids) {
      const core::Region &R = Run.monitor().regions()[Id];
      List.insert(Id, R.Start, R.End);
      Tree.insert(Id, R.Start, R.End);
      Segments.insert(Id, R.Start, R.End);
    }

    std::vector<core::RegionId> Scratch;
    Scratch.reserve(8);
    std::uint64_t HitsList = 0, HitsTree = 0, HitsTable = 0;
    const double ListSec = timeSeconds([&] {
      for (const auto &Interval : Stream.Intervals)
        for (const Sample &S : Interval) {
          Scratch.clear();
          List.lookup(S.Pc, Scratch);
          HitsList += Scratch.size();
        }
    });
    const double TreeSec = timeSeconds([&] {
      for (const auto &Interval : Stream.Intervals)
        for (const Sample &S : Interval) {
          Scratch.clear();
          Tree.lookup(S.Pc, Scratch);
          HitsTree += Scratch.size();
        }
    });
    const double TableSec = timeSeconds([&] {
      for (const auto &Interval : Stream.Intervals)
        for (const Sample &S : Interval)
          HitsTable += Segments.lookup(S.Pc).size();
    });
    if (HitsList != HitsTree || HitsList != HitsTable) {
      std::fprintf(stderr, "attribution mismatch on %s\n", Name.c_str());
      return 1;
    }

    Table.row({Name, TextTable::count(Ids.size()),
               TextTable::num(ListSec * 1e3, 2),
               TextTable::num(TreeSec * 1e3, 2),
               TextTable::num(ListSec > 0 ? TreeSec / ListSec : 0, 3),
               TextTable::num(TableSec * 1e3, 2),
               TextTable::num(ListSec > 0 ? TableSec / ListSec : 0, 3)});
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}
