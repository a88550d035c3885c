//===- tests/ObsTest.cpp - Observability layer ----------------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The obs layer's contract: exact counters, byte-stable exporters, a
// bounded event ring with honest drop accounting, and instrumentation
// that survives the hostile inputs the release-hardening bugfixes exist
// for -- corrupted PC storms, out-of-enum similarity kinds -- in every
// build mode, NDEBUG included.
//
//===----------------------------------------------------------------------===//

#include "obs/Export.h"
#include "obs/Instruments.h"
#include "obs/Metrics.h"

#include "core/RegionMonitor.h"
#include "faults/FaultPlan.h"
#include "sampling/Sampler.h"
#include "service/MonitorService.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "support/Rng.h"
#include "trace/Recorder.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace regmon;
using namespace regmon::obs;

namespace {

//===----------------------------------------------------------------------===//
// Metric primitives and registry
//===----------------------------------------------------------------------===//

TEST(ObsMetrics, CounterAccumulates) {
  Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
}

TEST(ObsMetrics, GaugeLastStoreWins) {
  Gauge G;
  EXPECT_DOUBLE_EQ(G.value(), 0.0);
  G.set(0.25);
  G.set(-3.5);
  EXPECT_DOUBLE_EQ(G.value(), -3.5);
}

TEST(ObsMetrics, HistogramBucketsByUpperBound) {
  BucketHistogram H({1.0, 10.0});
  H.observe(0.5);  // <= 1
  H.observe(1.0);  // <= 1 (bounds are inclusive)
  H.observe(2.0);  // <= 10
  H.observe(99.0); // +Inf
  EXPECT_EQ(H.count(), 4u);
  ASSERT_EQ(H.bounds().size(), 2u);
  EXPECT_EQ(H.bucket(0), 2u);
  EXPECT_EQ(H.bucket(1), 1u);
  EXPECT_EQ(H.bucket(2), 1u) << "the +Inf bucket follows the last bound";
}

TEST(ObsMetrics, RegistryIsIdempotentPerNameAndLabel) {
  MetricsRegistry R;
  Counter &A = R.counter("hits_total", "hits");
  Counter &B = R.counter("hits_total");
  EXPECT_EQ(&A, &B) << "same (name, label) must return the same counter";
  Counter &Labelled = R.counter("hits_total", "hits", "stream=\"1\"");
  EXPECT_NE(&A, &Labelled);
  A.add(2);
  Labelled.add(5);
  std::size_t Entries = 0;
  R.forEach([&Entries](const MetricView &) { ++Entries; });
  EXPECT_EQ(Entries, 2u);
}

TEST(ObsMetrics, ForEachOrdersByNameThenLabel) {
  MetricsRegistry R;
  R.counter("zeta_total");
  R.counter("alpha_total", "", "stream=\"1\"");
  R.counter("alpha_total", "", "stream=\"0\"");
  R.gauge("mid");
  std::vector<std::pair<std::string, std::string>> Out;
  R.forEach([&Out](const MetricView &M) {
    Out.emplace_back(M.Name, M.Label);
  });
  ASSERT_EQ(Out.size(), 4u);
  EXPECT_EQ(Out[0].first, "alpha_total");
  EXPECT_EQ(Out[0].second, "stream=\"0\"");
  EXPECT_EQ(Out[1].second, "stream=\"1\"");
  EXPECT_EQ(Out[2].first, "mid");
  EXPECT_EQ(Out[3].first, "zeta_total");
}

TEST(ObsMetrics, ForEachHandsOutTheLiveMetricOfItsKind) {
  MetricsRegistry R;
  Counter &C = R.counter("c_total", "a counter");
  Gauge &G = R.gauge("g");
  BucketHistogram &H = R.histogram("h", {1.0}, "", "stream=\"2\"");
  std::vector<MetricView> Views;
  R.forEach([&Views](const MetricView &M) { Views.push_back(M); });
  ASSERT_EQ(Views.size(), 3u);
  EXPECT_EQ(Views[0].Kind, MetricKind::Counter);
  EXPECT_EQ(Views[0].C, &C);
  EXPECT_EQ(Views[0].Help, "a counter");
  EXPECT_EQ(Views[1].Kind, MetricKind::Gauge);
  EXPECT_EQ(Views[1].G, &G);
  EXPECT_EQ(Views[2].Kind, MetricKind::Histogram);
  EXPECT_EQ(Views[2].H, &H);
  for (const MetricView &V : Views)
    EXPECT_EQ((V.C != nullptr) + (V.G != nullptr) + (V.H != nullptr), 1);
}

//===----------------------------------------------------------------------===//
// Exporters: golden output and byte stability
//===----------------------------------------------------------------------===//

/// The hand-built registry behind the golden-output assertions.
void populate(MetricsRegistry &R, EventTracer &T) {
  R.counter("requests_total", "requests served").add(3);
  R.gauge("temperature", "degrees").set(36.5);
  BucketHistogram &H = R.histogram("latency", {0.5, 1.0}, "seconds");
  H.observe(0.25);
  H.observe(0.75);
  H.observe(5.0);
  R.counter("hits_total", "per-stream hits", "stream=\"1\"").add(2);
  R.counter("hits_total", "per-stream hits", "stream=\"0\"").add(1);
  recordEvent(&T, EventKind::RegionFormed, 0, 2, 7);
  recordEvent(&T, EventKind::PhaseEnteredStable, 0, 2, 9, 0.91);
}

TEST(ObsExport, PrometheusGoldenOutput) {
  MetricsRegistry R;
  EventTracer T;
  populate(R, T);
  EXPECT_EQ(exportPrometheus(R),
            "# HELP regmon_hits_total per-stream hits\n"
            "# TYPE regmon_hits_total counter\n"
            "regmon_hits_total{stream=\"0\"} 1\n"
            "regmon_hits_total{stream=\"1\"} 2\n"
            "# HELP regmon_latency seconds\n"
            "# TYPE regmon_latency histogram\n"
            "regmon_latency_bucket{le=\"0.5\"} 1\n"
            "regmon_latency_bucket{le=\"1\"} 2\n"
            "regmon_latency_bucket{le=\"+Inf\"} 3\n"
            "regmon_latency_count 3\n"
            "# HELP regmon_requests_total requests served\n"
            "# TYPE regmon_requests_total counter\n"
            "regmon_requests_total 3\n"
            "# HELP regmon_temperature degrees\n"
            "# TYPE regmon_temperature gauge\n"
            "regmon_temperature 36.5\n");
}

TEST(ObsExport, JsonGoldenOutput) {
  MetricsRegistry R;
  EventTracer T;
  populate(R, T);
  EXPECT_EQ(
      exportJson(R, &T),
      "{\"metrics\":["
      "{\"name\":\"hits_total\",\"label\":\"stream=\\\"0\\\"\","
      "\"type\":\"counter\",\"value\":1},"
      "{\"name\":\"hits_total\",\"label\":\"stream=\\\"1\\\"\","
      "\"type\":\"counter\",\"value\":2},"
      "{\"name\":\"latency\",\"label\":\"\",\"type\":\"histogram\","
      "\"bounds\":[0.5,1],\"buckets\":[1,1,1],\"count\":3},"
      "{\"name\":\"requests_total\",\"label\":\"\",\"type\":\"counter\","
      "\"value\":3},"
      "{\"name\":\"temperature\",\"label\":\"\",\"type\":\"gauge\","
      "\"value\":36.5}"
      "],\"events\":["
      "{\"kind\":\"region-formed\",\"stream\":0,\"region\":2,"
      "\"interval\":7,\"value\":0},"
      "{\"kind\":\"phase-entered-stable\",\"stream\":0,\"region\":2,"
      "\"interval\":9,\"value\":0.91}"
      "],\"dropped_events\":0}");
}

TEST(ObsExport, TraceTextGoldenOutput) {
  MetricsRegistry R;
  EventTracer T;
  populate(R, T);
  EXPECT_EQ(exportTraceText(T),
            "interval=7 stream=0 region=2 kind=region-formed value=0\n"
            "interval=9 stream=0 region=2 kind=phase-entered-stable "
            "value=0.91\n");
}

TEST(ObsExport, ByteStableAcrossIdenticalRuns) {
  MetricsRegistry R1, R2;
  EventTracer T1, T2;
  populate(R1, T1);
  populate(R2, T2);
  EXPECT_EQ(exportPrometheus(R1), exportPrometheus(R2));
  EXPECT_EQ(exportJson(R1, &T1), exportJson(R2, &T2));
  EXPECT_EQ(exportTraceText(T1), exportTraceText(T2));
}

TEST(ObsExport, SortedOrderErasesArrivalOrder) {
  // The same event set recorded in two different arrival orders must
  // export identically -- this is what makes multi-worker runs
  // byte-stable.
  EventTracer A, B;
  recordEvent(&A, EventKind::RegionFormed, 1, 0, 5);
  recordEvent(&A, EventKind::RegionFormed, 0, 0, 5);
  recordEvent(&A, EventKind::GlobalPhaseChange, 0, 0, 2);
  recordEvent(&B, EventKind::GlobalPhaseChange, 0, 0, 2);
  recordEvent(&B, EventKind::RegionFormed, 0, 0, 5);
  recordEvent(&B, EventKind::RegionFormed, 1, 0, 5);
  EXPECT_EQ(exportTraceText(A), exportTraceText(B));
  const std::vector<TraceEvent> Sorted = A.sortedSnapshot();
  ASSERT_EQ(Sorted.size(), 3u);
  EXPECT_EQ(Sorted[0].Kind, EventKind::GlobalPhaseChange);
  EXPECT_EQ(Sorted[1].Stream, 0u);
  EXPECT_EQ(Sorted[2].Stream, 1u);
}

//===----------------------------------------------------------------------===//
// Exporter differential: the in-place walk against the copy-then-render
// exporter it replaced
//===----------------------------------------------------------------------===//

/// The exporters' former shape, kept as the reference: copy every entry's
/// strings, bounds and counts out of the registry, then render the copies
/// with a std::string per bucket line.
namespace reference {

struct MetricValue {
  std::string Name;
  std::string Label;
  std::string Help;
  MetricKind Kind = MetricKind::Counter;
  std::uint64_t CounterValue = 0;
  double GaugeValue = 0;
  std::vector<double> Bounds;
  std::vector<std::uint64_t> BucketCounts;
  std::uint64_t Count = 0;
};

std::vector<MetricValue> collect(const MetricsRegistry &Registry) {
  std::vector<MetricValue> Out;
  Registry.forEach([&Out](const MetricView &M) {
    MetricValue V;
    V.Name = M.Name;
    V.Label = M.Label;
    V.Help = M.Help;
    V.Kind = M.Kind;
    switch (M.Kind) {
    case MetricKind::Counter:
      V.CounterValue = M.C->value();
      break;
    case MetricKind::Gauge:
      V.GaugeValue = M.G->value();
      break;
    case MetricKind::Histogram:
      V.Bounds.assign(M.H->bounds().begin(), M.H->bounds().end());
      for (std::size_t I = 0; I <= V.Bounds.size(); ++I)
        V.BucketCounts.push_back(M.H->bucket(I));
      V.Count = M.H->count();
      break;
    }
    Out.push_back(std::move(V));
  });
  return Out;
}

std::string formatDouble(double V) {
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

void appendEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
}

void appendSeries(std::string &Out, std::string_view Name,
                  std::string_view Label, std::string_view Extra = "") {
  Out.append("regmon_");
  Out.append(Name);
  if (!Label.empty() || !Extra.empty()) {
    Out.push_back('{');
    Out.append(Label);
    if (!Label.empty() && !Extra.empty())
      Out.push_back(',');
    Out.append(Extra);
    Out.push_back('}');
  }
}

std::string kindName(MetricKind K) {
  switch (K) {
  case MetricKind::Counter:
    return "counter";
  case MetricKind::Gauge:
    return "gauge";
  case MetricKind::Histogram:
    return "histogram";
  }
  return "untyped";
}

std::string prometheus(const MetricsRegistry &Registry) {
  std::string Out;
  std::string LastName;
  for (const MetricValue &M : collect(Registry)) {
    if (M.Name != LastName) {
      LastName = M.Name;
      if (!M.Help.empty())
        Out += "# HELP regmon_" + M.Name + " " + M.Help + "\n";
      Out += "# TYPE regmon_" + M.Name + " " + kindName(M.Kind) + "\n";
    }
    switch (M.Kind) {
    case MetricKind::Counter:
      appendSeries(Out, M.Name, M.Label);
      Out += " " + std::to_string(M.CounterValue) + "\n";
      break;
    case MetricKind::Gauge:
      appendSeries(Out, M.Name, M.Label);
      Out += " " + formatDouble(M.GaugeValue) + "\n";
      break;
    case MetricKind::Histogram: {
      std::uint64_t Cum = 0;
      for (std::size_t I = 0; I < M.BucketCounts.size(); ++I) {
        Cum += M.BucketCounts[I];
        std::string Le = "le=\"";
        Le += I < M.Bounds.size() ? formatDouble(M.Bounds[I]) : "+Inf";
        Le += '"';
        appendSeries(Out, M.Name + "_bucket", M.Label, Le);
        Out += " " + std::to_string(Cum) + "\n";
      }
      appendSeries(Out, M.Name + "_count", M.Label);
      Out += " " + std::to_string(M.Count) + "\n";
      break;
    }
    }
  }
  return Out;
}

std::string json(const MetricsRegistry &Registry, const EventTracer *Tracer) {
  std::string Out = "{\"metrics\":[";
  bool First = true;
  for (const MetricValue &M : collect(Registry)) {
    if (!First)
      Out.push_back(',');
    First = false;
    Out.append("{\"name\":\"");
    appendEscaped(Out, M.Name);
    Out.append("\",\"label\":\"");
    appendEscaped(Out, M.Label);
    Out += "\",\"type\":\"" + kindName(M.Kind) + "\"";
    switch (M.Kind) {
    case MetricKind::Counter:
      Out += ",\"value\":" + std::to_string(M.CounterValue);
      break;
    case MetricKind::Gauge:
      Out += ",\"value\":" + formatDouble(M.GaugeValue);
      break;
    case MetricKind::Histogram: {
      Out.append(",\"bounds\":[");
      for (std::size_t I = 0; I < M.Bounds.size(); ++I)
        Out += (I ? "," : "") + formatDouble(M.Bounds[I]);
      Out.append("],\"buckets\":[");
      for (std::size_t I = 0; I < M.BucketCounts.size(); ++I)
        Out += (I ? "," : "") + std::to_string(M.BucketCounts[I]);
      Out += "],\"count\":" + std::to_string(M.Count);
      break;
    }
    }
    Out.push_back('}');
  }
  Out.append("]");
  if (Tracer) {
    Out.append(",\"events\":[");
    First = true;
    for (const TraceEvent &E : Tracer->sortedSnapshot()) {
      if (!First)
        Out.push_back(',');
      First = false;
      Out += "{\"kind\":\"" + std::string(toString(E.Kind)) +
             "\",\"stream\":" + std::to_string(E.Stream) +
             ",\"region\":" + std::to_string(E.Region) +
             ",\"interval\":" + std::to_string(E.Interval) +
             ",\"value\":" + formatDouble(E.Value) + "}";
    }
    Out += "],\"dropped_events\":" + std::to_string(Tracer->dropped());
  }
  Out.push_back('}');
  return Out;
}

} // namespace reference

constexpr double Inf = std::numeric_limits<double>::infinity();
const double NaN = std::numeric_limits<double>::quiet_NaN();
const std::vector<double> EdgeValues = {
    -0.0, NaN, Inf, -Inf, 1e-300, 0.0, 0.25,
    -3.5, 1e20, 5e-324, std::numeric_limits<double>::max(), 0.1, 7};
const std::vector<std::string> EdgeLabels = {
    "", R"(stream="0")", R"(stream="1")", R"(k="a\"b")", R"(k="back\\slash")",
    R"(x="1",y="2")"};

/// The exporters' edge cases: labelled and unlabelled series of one name,
/// empty help, a name that prefixes others, labels holding `"` and `\`,
/// gauges at -0.0, NaN, +-inf and 1e-300, and a counter at UINT64_MAX.
void populateEdges(MetricsRegistry &R) {
  R.counter("a", "first family").add(3);
  R.counter("a", "", R"(stream="0")").add(1);
  R.counter("ab", R"(quote " and \ in help)", R"(k="a\"b")")
      .add(std::numeric_limits<std::uint64_t>::max());
  for (std::size_t I = 0; I < 6; ++I)
    R.gauge("a_b", "", EdgeLabels[I]).set(EdgeValues[I]);
}

/// The edge cases, then random registrations and updates over the same
/// names, labels and values, and a few events.
void populateRandom(MetricsRegistry &R, EventTracer &T, std::uint64_t Seed) {
  // Each name keeps one kind. "a" prefixes "a_b" and "ab", and "lat"
  // prefixes the series names its own histogram expands to.
  struct Family {
    std::string Name;
    MetricKind Kind;
    std::string Help;
  };
  const std::vector<Family> Families = {
      {"a", MetricKind::Counter, "first family"},
      {"a_b", MetricKind::Gauge, ""},
      {"ab", MetricKind::Counter, R"(quote " and \ in help)"},
      {"lat", MetricKind::Histogram, "latency"},
      {"lat_bucket", MetricKind::Counter, ""},
      {"lat_count", MetricKind::Gauge, "shadow of a histogram series"},
      {"zz", MetricKind::Histogram, ""},
  };
  populateEdges(R);
  Rng G(Seed);
  for (std::size_t N = 0; N < 40; ++N) {
    const Family &F = Families[G.nextBelow(Families.size())];
    const std::string &Label = EdgeLabels[G.nextBelow(EdgeLabels.size())];
    const double V = EdgeValues[G.nextBelow(EdgeValues.size())];
    switch (F.Kind) {
    case MetricKind::Counter:
      R.counter(F.Name, F.Help, Label)
          .add(G.nextBelow(4) == 0 ? std::numeric_limits<std::uint64_t>::max()
                                   : G.nextBelow(1000));
      break;
    case MetricKind::Gauge:
      R.gauge(F.Name, F.Help, Label).set(V);
      break;
    case MetricKind::Histogram: {
      BucketHistogram &H =
          R.histogram(F.Name, {-1e-300, 0, 0.5, 1e20}, F.Help, Label);
      for (std::uint64_t K = G.nextBelow(5); K > 0; --K)
        H.observe(EdgeValues[G.nextBelow(EdgeValues.size())]);
      break;
    }
    }
    if (G.nextBelow(3) == 0)
      recordEvent(&T, EventKind::RegionFormed,
                  static_cast<std::uint32_t>(G.nextBelow(4)),
                  G.nextBelow(10), G.nextBelow(100), V);
  }
}

TEST(ObsExport, InPlaceWalkMatchesTheCopyingExporterOverRandomRegistries) {
  for (std::uint64_t Seed = 1; Seed <= 64; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    MetricsRegistry R;
    EventTracer T;
    populateRandom(R, T, Seed);
    EXPECT_EQ(exportPrometheus(R), reference::prometheus(R));
    EXPECT_EQ(exportJson(R), reference::json(R, nullptr));
    EXPECT_EQ(exportJson(R, &T), reference::json(R, &T));
  }
}

TEST(ObsExport, EdgeValuesGoldenOutput) {
  MetricsRegistry R;
  populateEdges(R);
  const std::string Expected =
      "# HELP regmon_a first family\n"
      "# TYPE regmon_a counter\n"
      "regmon_a 3\n"
      R"(regmon_a{stream="0"} 1)"
      "\n"
      "# TYPE regmon_a_b gauge\n"
      "regmon_a_b -0\n"
      R"(regmon_a_b{k="a\"b"} -inf)"
      "\n"
      R"(regmon_a_b{k="back\\slash"} 1e-300)"
      "\n"
      R"(regmon_a_b{stream="0"} nan)"
      "\n"
      R"(regmon_a_b{stream="1"} inf)"
      "\n"
      R"(regmon_a_b{x="1",y="2"} 0)"
      "\n"
      R"(# HELP regmon_ab quote " and \ in help)"
      "\n"
      "# TYPE regmon_ab counter\n"
      R"(regmon_ab{k="a\"b"} 18446744073709551615)"
      "\n";
  EXPECT_EQ(exportPrometheus(R), Expected);
  const std::string Json = exportJson(R);
  EXPECT_NE(
      Json.find(R"("label":"k=\"a\\\"b\"","type":"gauge","value":-inf)"),
      std::string::npos)
      << Json;
  EXPECT_NE(Json.find(R"("label":"k=\"back\\\\slash\"","type":"gauge",)"
                      R"("value":1e-300)"),
            std::string::npos)
      << Json;
  EXPECT_EQ(Json, reference::json(R, nullptr));
}

//===----------------------------------------------------------------------===//
// Event tracer ring
//===----------------------------------------------------------------------===//

TEST(ObsEventTracerRing, WrapDropsOldestAndCountsDrops) {
  EventTracer T(3);
  for (std::uint64_t I = 0; I < 5; ++I)
    recordEvent(&T, EventKind::RegionFormed, 0, I, I);
  EXPECT_EQ(T.capacity(), 3u);
  EXPECT_EQ(T.recorded(), 5u);
  EXPECT_EQ(T.dropped(), 2u);
  const std::vector<TraceEvent> Snap = T.snapshot();
  ASSERT_EQ(Snap.size(), 3u);
  EXPECT_EQ(Snap[0].Interval, 2u) << "oldest retained after two drops";
  EXPECT_EQ(Snap[2].Interval, 4u);
}

TEST(ObsEventTracerRing, DropsAreDisclosedInExports) {
  EventTracer T(2);
  for (std::uint64_t I = 0; I < 3; ++I)
    recordEvent(&T, EventKind::RegionFormed, 0, 0, I);
  const std::string Text = exportTraceText(T);
  EXPECT_NE(Text.find("# dropped=1\n"), std::string::npos);
  MetricsRegistry R;
  const std::string Json = exportJson(R, &T);
  EXPECT_NE(Json.find("\"dropped_events\":1"), std::string::npos);
}

TEST(ObsEventTracerRing, ClearResetsRetentionAndAccounting) {
  EventTracer T(2);
  for (std::uint64_t I = 0; I < 3; ++I)
    recordEvent(&T, EventKind::RegionFormed, 0, 0, I);
  T.clear();
  EXPECT_EQ(T.recorded(), 0u);
  EXPECT_EQ(T.dropped(), 0u);
  EXPECT_TRUE(T.snapshot().empty());
}

TEST(ObsEventTracerRing, CapacityFloorIsOne) {
  EventTracer T(0);
  recordEvent(&T, EventKind::RegionFormed, 0, 0, 1);
  recordEvent(&T, EventKind::RegionFormed, 0, 0, 2);
  ASSERT_EQ(T.snapshot().size(), 1u);
  EXPECT_EQ(T.snapshot()[0].Interval, 2u);
}

//===----------------------------------------------------------------------===//
// Concurrency: exact totals under contention (TSan-clean by construction)
//===----------------------------------------------------------------------===//

TEST(ObsConcurrency, CountersHistogramsAndTracerAreExactUnderContention) {
  constexpr std::size_t Threads = 8;
  constexpr std::uint64_t PerThread = 20'000;
  MetricsRegistry R;
  Counter &C = R.counter("ops_total");
  Gauge &G = R.gauge("level");
  BucketHistogram &H = R.histogram("sizes", {10.0, 100.0});
  EventTracer T(Threads * 4);

  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (std::size_t W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      for (std::uint64_t I = 0; I < PerThread; ++I) {
        C.add();
        G.set(static_cast<double>(W));
        H.observe(static_cast<double>(I % 150));
      }
      recordEvent(&T, EventKind::RegionFormed,
                  static_cast<std::uint32_t>(W), 0, W);
    });
  for (std::thread &Th : Workers)
    Th.join();

  EXPECT_EQ(C.value(), Threads * PerThread);
  EXPECT_EQ(H.count(), Threads * PerThread);
  std::uint64_t BucketSum = 0;
  for (std::size_t I = 0; I <= H.bounds().size(); ++I)
    BucketSum += H.bucket(I);
  EXPECT_EQ(BucketSum, H.count()) << "no observation lost between buckets";
  const double Level = G.value();
  EXPECT_GE(Level, 0.0);
  EXPECT_LT(Level, static_cast<double>(Threads));
  EXPECT_EQ(T.recorded(), Threads);
  EXPECT_EQ(T.dropped(), 0u);
  EXPECT_EQ(T.sortedSnapshot().size(), Threads);
}

/// The value of the unlabelled series \p Series in Prometheus \p Text.
std::uint64_t seriesValue(const std::string &Text, const std::string &Series) {
  const std::string Key = "\n" + Series + " ";
  const std::size_t At = Text.find(Key);
  if (At == std::string::npos)
    return 0;
  return std::stoull(Text.substr(At + Key.size()));
}

// Scrapes race the instruments they read: the walk holds the registry
// mutex, the workers touch only atomics. Run in the TSan shard.
TEST(ObsConcurrency, ExportWhileFourThreadsBumpTheSameInstruments) {
  MetricsRegistry R;
  Counter &C = R.counter("bumps_total", "bumps");
  Gauge &G = R.gauge("level", "last writer");
  BucketHistogram &H = R.histogram("spread", {10, 100}, "values");
  constexpr std::size_t Threads = 4;
  constexpr std::uint64_t PerThread = 20000;
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (std::size_t W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      for (std::uint64_t I = 0; I < PerThread; ++I) {
        C.add();
        G.set(static_cast<double>(W));
        H.observe(static_cast<double>(I % 150));
      }
    });
  std::uint64_t Last = 0;
  for (int Scrape = 0; Scrape < 40; ++Scrape) {
    const std::string Text = exportPrometheus(R);
    const std::uint64_t Now = seriesValue(Text, "regmon_bumps_total");
    EXPECT_GE(Now, Last) << "a counter never moves back between scrapes";
    EXPECT_LE(Now, Threads * PerThread);
    Last = Now;
    EXPECT_NE(exportJson(R).find("\"name\":\"spread\""), std::string::npos);
  }
  for (std::thread &Th : Workers)
    Th.join();

  const std::string Final = exportPrometheus(R);
  EXPECT_EQ(seriesValue(Final, "regmon_bumps_total"), Threads * PerThread);
  EXPECT_EQ(seriesValue(Final, "regmon_spread_count"), Threads * PerThread);
  EXPECT_EQ(Final, reference::prometheus(R));
  EXPECT_EQ(exportJson(R), reference::json(R, nullptr));
}

//===----------------------------------------------------------------------===//
// Hostile inputs: the release-hardening regressions, observed
//===----------------------------------------------------------------------===//

/// Same two-loop code map the core monitor tests use.
core::CodeMap testCodeMap() {
  return core::CodeMap(
      {{0x1000, 0x1100, "loopA"}, {0x2000, 0x2080, "loopB"}});
}

/// One interval's clean buffer: alternating PCs across loopA with
/// monotonic timestamps, the shape the fault injector expects.
std::vector<Sample> cleanInterval(std::size_t Count) {
  std::vector<Sample> Out;
  Out.reserve(Count);
  for (std::size_t I = 0; I < Count; ++I)
    Out.push_back(Sample{0x1000 + 4 * (I % 0x40),
                         static_cast<Cycles>(100 * (I + 1))});
  return Out;
}

TEST(ObsHostileInputs, MonitorAbsorbsCorruptedPcStormAsUcr) {
  faults::FaultConfig Cfg;
  Cfg.CorruptRate = 0.3;
  const faults::FaultPlan Plan(/*PlanSeed=*/7, Cfg);
  faults::StreamFaultInjector Inj = Plan.forStream(0);

  const core::CodeMap Map = testCodeMap();
  core::RegionMonitor M(Map);
  MetricsRegistry R;
  EventTracer T;
  const MonitorInstruments Obs = makeMonitorInstruments(R, &T, 0, "");
  M.attachObservability(&Obs);

  std::uint64_t Fed = 0;
  for (int Interval = 0; Interval < 30; ++Interval) {
    const std::vector<Sample> Faulted = Inj.apply(cleanInterval(512));
    Fed += Faulted.size();
    M.observeInterval(Faulted);
  }
  EXPECT_EQ(M.intervals(), 30u);
  EXPECT_EQ(Obs.SamplesTotal->value(), Fed);
  // Corrupted PCs are non-regionable: they surface as UCR pressure, not
  // as out-of-region histogram rejections (attribution never maps them).
  // UCR also holds the first interval's clean samples, observed before
  // the formation trigger built loopA, hence >= rather than ==.
  EXPECT_GE(Obs.SamplesUcr->value(), Inj.stats().SamplesCorrupted)
      << "every wild PC counted as UCR";
  EXPECT_GT(Inj.stats().SamplesCorrupted, 0u);
  EXPECT_EQ(M.outOfRegionSamples(), Obs.SamplesOutOfRegion->value());
  EXPECT_GE(M.lastUcrFraction(), 0.0);
  EXPECT_LE(M.lastUcrFraction(), 1.0);
}

TEST(ObsHostileInputs, HostileSimilarityKindFallsBackAndIsCounted) {
  // An out-of-enum similarity kind -- version skew, a fuzzed config --
  // used to make makeSimilarity return nullptr and the monitor
  // dereference it. The monitor must construct with the Pearson fallback
  // and disclose the substitution as a metric and an event.
  const core::CodeMap Map = testCodeMap();
  core::RegionMonitorConfig Config;
  Config.Similarity = static_cast<core::SimilarityKind>(0xEF);
  core::RegionMonitor M(Map, Config);
  EXPECT_TRUE(M.similarityFellBack());

  MetricsRegistry R;
  EventTracer T;
  const MonitorInstruments Obs = makeMonitorInstruments(R, &T, 0, "");
  M.attachObservability(&Obs);
  EXPECT_EQ(Obs.SimilarityFallbacks->value(), 1u);
  EXPECT_NE(exportTraceText(T).find("kind=similarity-fallback"),
            std::string::npos);

  // And the fallback metric actually detects phases.
  for (int I = 0; I < 8; ++I)
    M.observeInterval(cleanInterval(256));
  EXPECT_EQ(M.regions().size(), 1u);
}

TEST(ObsHostileInputs, HealthySimilarityKindIsNotCounted) {
  const core::CodeMap Map = testCodeMap();
  core::RegionMonitor M(Map);
  EXPECT_FALSE(M.similarityFellBack());
  MetricsRegistry R;
  const MonitorInstruments Obs = makeMonitorInstruments(R, nullptr, 0, "");
  M.attachObservability(&Obs);
  EXPECT_EQ(Obs.SimilarityFallbacks->value(), 0u);
}

//===----------------------------------------------------------------------===//
// Service integration: per-stream labels and aggregate counters
//===----------------------------------------------------------------------===//

TEST(ObsService, PerStreamSeriesAndAggregatesMatchSnapshot) {
  const core::CodeMap Map = testCodeMap();
  service::MonitorService Service(
      {/*Workers=*/2, /*QueueCapacity=*/16, service::OverflowPolicy::Block,
       /*ValidateBatches=*/true, {}});
  Service.addStream(Map);
  Service.addStream(Map);
  MetricsRegistry R;
  EventTracer T(1 << 12);
  Service.attachObservability(R, &T);
  Service.start();
  for (int I = 0; I < 10; ++I) {
    ASSERT_TRUE(Service.submit({0, cleanInterval(256)}));
    ASSERT_TRUE(Service.submit({1, cleanInterval(256)}));
  }
  Service.stop();
  const service::ServiceSnapshot Snap = Service.snapshot();

  EXPECT_EQ(R.counter("service_batches_submitted_total").value(),
            Snap.BatchesSubmitted);
  EXPECT_EQ(R.counter("service_batches_rejected_total").value(),
            Snap.BatchesRejected);
  const std::uint64_t Stream0 =
      R.counter("monitor_intervals_total", "", streamLabel(0)).value();
  const std::uint64_t Stream1 =
      R.counter("monitor_intervals_total", "", streamLabel(1)).value();
  EXPECT_EQ(Stream0, 10u);
  EXPECT_EQ(Stream1, 10u);
  const std::string Prom = exportPrometheus(R);
  EXPECT_NE(Prom.find("regmon_monitor_intervals_total{stream=\"0\"} 10"),
            std::string::npos);
  EXPECT_NE(Prom.find("regmon_monitor_intervals_total{stream=\"1\"} 10"),
            std::string::npos);
}

// The service's per-stream UCR count and the monitor's counter come from
// one exact integer per interval, so they agree over a real workload
// whose intervals are partly unattributed.
TEST(ObsService, SnapshotUcrSamplesMatchMonitorSeries) {
  std::vector<std::unique_ptr<workloads::Workload>> Workloads;
  std::vector<std::unique_ptr<sim::ProgramCodeMap>> Maps;
  service::MonitorService Service(
      {/*Workers=*/2, /*QueueCapacity=*/16, service::OverflowPolicy::Block,
       /*ValidateBatches=*/true, {}});
  for (const char *Name : {"synthetic.periodic", "synthetic.pollution"}) {
    Workloads.push_back(
        std::make_unique<workloads::Workload>(workloads::make(Name)));
    Maps.push_back(
        std::make_unique<sim::ProgramCodeMap>(Workloads.back()->Prog));
    Service.addStream(*Maps.back());
  }
  MetricsRegistry R;
  Service.attachObservability(R);
  Service.start();
  for (service::StreamId Id = 0; Id < Workloads.size(); ++Id) {
    sim::Engine Engine(Workloads[Id]->Prog, Workloads[Id]->Script, 7 + Id);
    sampling::Sampler Sampler(Engine, {45'000, 2032});
    std::vector<Sample> Buffer;
    for (int I = 0; I < 40 && Sampler.fillBuffer(Buffer); ++I)
      ASSERT_TRUE(Service.submit({Id, Buffer}));
  }
  Service.stop();

  const service::ServiceSnapshot Snap = Service.snapshot();
  ASSERT_EQ(Snap.Streams.size(), 2U);
  for (const service::StreamSnapshot &St : Snap.Streams) {
    SCOPED_TRACE("stream " + std::to_string(St.Stream));
    EXPECT_GT(St.UcrSamples, 0U);
    EXPECT_LT(St.UcrSamples, St.TotalSamples);
    const Counter &Series =
        R.counter("monitor_samples_ucr_total", "", streamLabel(St.Stream));
    EXPECT_EQ(St.UcrSamples, Series.value());
  }
}

TEST(ObsService, QuarantineAndRecoveryAreTraced) {
  const core::CodeMap Map = testCodeMap();
  service::ServiceConfig Cfg{/*Workers=*/1, /*QueueCapacity=*/16,
                             service::OverflowPolicy::Block,
                             /*ValidateBatches=*/true, {}};
  Cfg.Health.PoisonQuarantineThreshold = 1; // quarantine on first poison
  Cfg.Health.QuarantineBaseBatches = 2;
  Cfg.Health.RecoveryCleanBatches = 2;
  service::MonitorService Service(Cfg);
  Service.addStream(Map);
  MetricsRegistry R;
  EventTracer T;
  Service.attachObservability(R, &T);
  Service.start();

  std::vector<Sample> Poisoned = cleanInterval(8);
  faults::poisonBatch(Poisoned);
  EXPECT_FALSE(Service.submit({0, Poisoned})); // -> quarantined
  for (int I = 0; I < 2; ++I)
    EXPECT_FALSE(Service.submit({0, cleanInterval(8)})); // backoff served
  // Probe + clean streak -> recovery.
  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(Service.submit({0, cleanInterval(8)}));
  Service.stop();

  EXPECT_EQ(R.counter("service_stream_quarantines_total").value(), 1u);
  EXPECT_EQ(R.counter("service_stream_recoveries_total").value(), 1u);
  EXPECT_EQ(R.counter("service_batches_poisoned_total").value(), 1u);
  const std::string Trace = exportTraceText(T);
  EXPECT_NE(Trace.find("kind=stream-quarantined"), std::string::npos);
  EXPECT_NE(Trace.find("kind=stream-recovered"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Flight-recorder instruments
//===----------------------------------------------------------------------===//

/// The trace counter catalogue mirrors the recorder's own accounting and
/// exports byte-for-byte: an operator alarming on
/// trace_records_dropped_total or trace_append_failures_total sees the
/// same numbers recordsWritten()/appendFailures() report in-process.
TEST(ObsService, TraceInstrumentsMirrorRecorderAccounting) {
  MetricsRegistry R;
  const TraceInstruments I = makeTraceInstruments(R, "");
  const std::string Path = ::testing::TempDir() + "regmon_obs_trace_" +
                           std::to_string(::getpid()) + ".bin";
  std::remove(Path.c_str());
  trace::TraceRecorder Rec;
  ASSERT_TRUE(Rec.open(Path).Ok);
  Rec.attachObservability(&I);

  const service::SampleBatch Batch{0, {{0x400010, 100, false}}};
  EXPECT_EQ(Rec.recordBatch(Batch, service::RecordedFate::Admitted), 1u);
  EXPECT_EQ(Rec.recordBatch(Batch, service::RecordedFate::Admitted), 2u);
  Rec.recordDrop(/*EvictedSeq=*/1, /*Shard=*/0);
  Rec.recordPushReject(/*Seq=*/2);
  Rec.recordCheckpoint(/*JournalSeq=*/7, /*Committed=*/true);

  EXPECT_EQ(I.RecordsTotal->value(), Rec.recordsWritten());
  EXPECT_EQ(I.RecordsDropped->value(), 1u)
      << "only the Drop record feeds the dropped counter";
  // The 8-byte file header predates attach (open() writes it before any
  // instruments exist), so the byte counter covers records only.
  EXPECT_EQ(I.BytesTotal->value(),
            Rec.bytesWritten() - persist::LogHeaderBytes);
  EXPECT_EQ(I.AppendFailures->value(), 0u);

  const std::uint64_t RecordBytes = I.BytesTotal->value();
  EXPECT_TRUE(Rec.close());
  // A dead recorder turns every tap call into an append failure -- and
  // never into a phantom drop.
  Rec.recordDrop(/*EvictedSeq=*/2, /*Shard=*/0);
  EXPECT_EQ(I.AppendFailures->value(), 1u);
  EXPECT_EQ(I.RecordsDropped->value(), 1u);

  EXPECT_EQ(exportPrometheus(R),
            "# HELP regmon_trace_append_failures_total flight-recorder "
            "appends that failed\n"
            "# TYPE regmon_trace_append_failures_total counter\n"
            "regmon_trace_append_failures_total 1\n"
            "# HELP regmon_trace_bytes_total flight-recorder bytes "
            "appended\n"
            "# TYPE regmon_trace_bytes_total counter\n"
            "regmon_trace_bytes_total " +
                std::to_string(RecordBytes) +
                "\n"
                "# HELP regmon_trace_records_dropped_total drop records "
                "appended (batches evicted by the DropOldest policy while "
                "recording)\n"
                "# TYPE regmon_trace_records_dropped_total counter\n"
                "regmon_trace_records_dropped_total 1\n"
                "# HELP regmon_trace_records_total flight-recorder records "
                "appended\n"
                "# TYPE regmon_trace_records_total counter\n"
                "regmon_trace_records_total 5\n");
  std::remove(Path.c_str());
}

} // namespace
