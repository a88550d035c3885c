//===- bench_fig07_ucr_timeline.cpp - Paper Fig. 7 ------------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Fig. 7: "Percentage of samples in UCR over time" for 254.gap and
// 186.crafty. Expected shape: despite region formation triggering on
// essentially every buffer overflow, the UCR percentage never drops --
// the unclaimed samples live in code the region builder cannot handle.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "support/AsciiChart.h"
#include "support/TextTable.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace regmon;
using namespace regmon::bench;

int main() {
  core::RegionMonitorConfig UcrSeries;
  UcrSeries.RecordTimelines = true;
  std::printf("[Fig. 7] %%UCR over time (45K cycles/interrupt)\n\n");
  for (const char *Name : {"254.gap", "186.crafty"}) {
    MonitorRun Run(workloads::make(Name), 45'000, UcrSeries);
    std::span<const double> History = Run.monitor().ucrHistory();

    const std::size_t Cols = std::min<std::size_t>(96, History.size());
    std::vector<double> Cells;
    for (std::size_t Col = 0; Col < Cols; ++Col)
      Cells.push_back(History[Col * History.size() / Cols]);

    std::printf("%s (%llu formation triggers over %llu intervals):\n",
                Name,
                static_cast<unsigned long long>(
                    Run.monitor().formationTriggers()),
                static_cast<unsigned long long>(Run.monitor().intervals()));
    std::printf("  %%UCR 0..60%%: |%s|\n", sparkline(Cells, 0, 0.6).c_str());
    TextTable Table;
    Table.header({"quarter", "mean %UCR"});
    for (int Q = 0; Q < 4; ++Q) {
      const std::size_t Lo = History.size() * static_cast<std::size_t>(Q) / 4;
      const std::size_t Hi =
          History.size() * static_cast<std::size_t>(Q + 1) / 4;
      double Acc = 0;
      for (std::size_t I = Lo; I < Hi; ++I)
        Acc += History[I];
      std::string Label = "Q";
      Label += std::to_string(Q + 1);
      Table.row({Label, TextTable::percent(Hi > Lo ? Acc / (Hi - Lo) : 0)});
    }
    std::printf("%s\n", Table.render().c_str());
  }
  return 0;
}
