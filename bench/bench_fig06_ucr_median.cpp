//===- bench_fig06_ucr_median.cpp - Paper Fig. 6 --------------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Fig. 6: "Median of percentage of samples not monitored by the region
// monitor" across 23 benchmarks, against the 30% formation-trigger
// threshold. Expected shape: most programs sit well below 30%; 254.gap and
// 186.crafty sit above it because their hot cycles span procedure
// boundaries and the region builder can never claim them.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "support/Statistics.h"
#include "support/TextTable.h"

#include <cstdio>
#include <vector>

using namespace regmon;
using namespace regmon::bench;

int main() {
  core::RegionMonitorConfig UcrSeries;
  UcrSeries.RecordTimelines = true;
  std::printf("[Fig. 6] Median %%UCR per benchmark @ 45K cycles/interrupt "
              "(threshold %.0f%%)\n\n", core::UcrTriggerFraction * 100.0);
  TextTable Table;
  Table.header({"benchmark", "median %UCR", "> threshold",
                "formation triggers"});
  for (const std::string &Name : workloads::fig6Names()) {
    MonitorRun Run(workloads::make(Name), 45'000, UcrSeries);
    std::span<const double> History = Run.monitor().ucrHistory();
    const std::vector<double> Ucr(History.begin(), History.end());
    const double Median = median(Ucr);
    Table.row({Name, TextTable::percent(Median),
               Median > core::UcrTriggerFraction ? "YES" : "",
               TextTable::count(Run.monitor().formationTriggers())});
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}
