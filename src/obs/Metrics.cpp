//===- obs/Metrics.cpp - Deterministic lock-free metrics registry ---------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

namespace regmon::obs {

MetricsRegistry::Entry &MetricsRegistry::entry(std::string_view Name,
                                               std::string_view Label,
                                               MetricKind Kind,
                                               std::string_view Help) {
  auto Key = std::make_pair(std::string(Name), std::string(Label));
  auto It = Entries.find(Key);
  if (It != Entries.end()) {
    assert(It->second.Kind == Kind && "metric re-registered as another kind");
    return It->second;
  }
  Entry &E = Entries[std::move(Key)];
  E.Kind = Kind;
  E.Help = std::string(Help);
  return E;
}

Counter &MetricsRegistry::counter(std::string_view Name, std::string_view Help,
                                  std::string_view Label) {
  std::lock_guard<std::mutex> Lock(Mu);
  Entry &E = entry(Name, Label, MetricKind::Counter, Help);
  if (!E.C)
    E.C = std::make_unique<Counter>();
  return *E.C;
}

Gauge &MetricsRegistry::gauge(std::string_view Name, std::string_view Help,
                              std::string_view Label) {
  std::lock_guard<std::mutex> Lock(Mu);
  Entry &E = entry(Name, Label, MetricKind::Gauge, Help);
  if (!E.G)
    E.G = std::make_unique<Gauge>();
  return *E.G;
}

BucketHistogram &MetricsRegistry::histogram(std::string_view Name,
                                            std::vector<double> UpperBounds,
                                            std::string_view Help,
                                            std::string_view Label) {
  std::lock_guard<std::mutex> Lock(Mu);
  Entry &E = entry(Name, Label, MetricKind::Histogram, Help);
  if (!E.H)
    E.H = std::make_unique<BucketHistogram>(std::move(UpperBounds));
  return *E.H;
}

} // namespace regmon::obs
