//===- obs/Export.cpp - Byte-stable Prometheus and JSON exporters ---------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Both metric exporters walk the registry in place (MetricsRegistry::
// forEach) and format straight into one output string: no per-entry copy,
// no std::string per line. Numbers and bucket bounds render into a stack
// buffer. A first walk sums an upper bound on the text from the entries'
// string lengths, bucket counts and the widest number forms, so the output
// is sized once and the second walk never reallocates (unless a
// registration lands between the walks, which only costs a regrowth).
//
//===----------------------------------------------------------------------===//

#include "obs/Export.h"

#include <charconv>
#include <cstdint>

namespace regmon::obs {
namespace {

constexpr std::string_view Prefix = "regmon_";

/// The widest forms a number takes: UINT64_MAX, and a shortest
/// round-trip double ("-2.2250738585072014e-308").
constexpr std::size_t MaxU64Chars = 20;
constexpr std::size_t MaxDoubleChars = 24;

void appendEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
}

void appendU64(std::string &Out, std::uint64_t V) {
  char Buf[MaxU64Chars];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  Out.append(Buf, Res.ptr);
}

void appendDouble(std::string &Out, double V) {
  char Buf[MaxDoubleChars];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  Out.append(Buf, Res.ptr);
}

/// Emits `regmon_<name><suffix>`, then `{label}` when there is a label.
void appendSeries(std::string &Out, const MetricView &M,
                  std::string_view Suffix = "") {
  Out.append(Prefix);
  Out.append(M.Name);
  Out.append(Suffix);
  if (!M.Label.empty()) {
    Out.push_back('{');
    Out.append(M.Label);
    Out.push_back('}');
  }
}

std::string_view kindName(MetricKind K) {
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

/// An upper bound on the Prometheus text of \p M, its HELP and TYPE
/// headers included when \p NewName.
std::size_t prometheusBound(const MetricView &M, bool NewName) {
  const std::size_t Series = Prefix.size() + M.Name.size() + M.Label.size();
  std::size_t N = 0;
  if (NewName)
    N += 2 * (Prefix.size() + M.Name.size()) + M.Help.size() + 32;
  switch (M.Kind) {
  case MetricKind::Counter:
    return N + Series + 4 + MaxU64Chars;
  case MetricKind::Gauge:
    return N + Series + 4 + MaxDoubleChars;
  case MetricKind::Histogram:
    return N + (M.H->bounds().size() + 1) *
                   (Series + 20 + MaxDoubleChars + MaxU64Chars) +
           Series + 12 + MaxU64Chars;
  }
  return N;
}

/// An upper bound on the JSON object of \p M and its separator.
std::size_t jsonBound(const MetricView &M) {
  const std::size_t N = 48 + 2 * (M.Name.size() + M.Label.size());
  switch (M.Kind) {
  case MetricKind::Counter:
    return N + 10 + MaxU64Chars;
  case MetricKind::Gauge:
    return N + 10 + MaxDoubleChars;
  case MetricKind::Histogram:
    return N + 56 + M.H->bounds().size() * (MaxDoubleChars + 1) +
           (M.H->bounds().size() + 1) * (MaxU64Chars + 1) + MaxU64Chars;
  }
  return N;
}

} // namespace

std::string exportPrometheus(const MetricsRegistry &Registry) {
  // HELP/TYPE headers go out once per name; labelled series of the same
  // name are adjacent because the walk orders by (name, label).
  std::size_t Bound = 0;
  std::string_view LastName;
  Registry.forEach([&](const MetricView &M) {
    Bound += prometheusBound(M, M.Name != LastName);
    LastName = M.Name;
  });
  std::string Out;
  Out.reserve(Bound);
  LastName = {};
  Registry.forEach([&](const MetricView &M) {
    if (M.Name != LastName) {
      LastName = M.Name;
      if (!M.Help.empty()) {
        Out.append("# HELP ");
        Out.append(Prefix);
        Out.append(M.Name);
        Out.push_back(' ');
        Out.append(M.Help);
        Out.push_back('\n');
      }
      Out.append("# TYPE ");
      Out.append(Prefix);
      Out.append(M.Name);
      Out.push_back(' ');
      Out.append(kindName(M.Kind));
      Out.push_back('\n');
    }
    switch (M.Kind) {
    case MetricKind::Counter:
      appendSeries(Out, M);
      Out.push_back(' ');
      appendU64(Out, M.C->value());
      Out.push_back('\n');
      break;
    case MetricKind::Gauge:
      appendSeries(Out, M);
      Out.push_back(' ');
      appendDouble(Out, M.G->value());
      Out.push_back('\n');
      break;
    case MetricKind::Histogram: {
      const BucketHistogram &H = *M.H;
      const std::span<const double> Bounds = H.bounds();
      std::uint64_t Cum = 0;
      for (std::size_t I = 0; I <= Bounds.size(); ++I) {
        Cum += H.bucket(I);
        Out.append(Prefix);
        Out.append(M.Name);
        Out.append("_bucket{");
        if (!M.Label.empty()) {
          Out.append(M.Label);
          Out.push_back(',');
        }
        Out.append("le=\"");
        if (I < Bounds.size())
          appendDouble(Out, Bounds[I]);
        else
          Out.append("+Inf");
        Out.append("\"} ");
        appendU64(Out, Cum);
        Out.push_back('\n');
      }
      appendSeries(Out, M, "_count");
      Out.push_back(' ');
      appendU64(Out, H.count());
      Out.push_back('\n');
      break;
    }
    }
  });
  return Out;
}

std::string exportJson(const MetricsRegistry &Registry,
                       const EventTracer *Tracer) {
  std::size_t Bound = 16;
  Registry.forEach([&](const MetricView &M) { Bound += jsonBound(M); });
  std::vector<TraceEvent> Events;
  if (Tracer) {
    Events = Tracer->sortedSnapshot();
    Bound += 32 + MaxU64Chars;
    for (const TraceEvent &E : Events)
      Bound += 56 + toString(E.Kind).size() + 3 * MaxU64Chars + MaxDoubleChars;
  }
  std::string Out;
  Out.reserve(Bound);
  Out.append("{\"metrics\":[");
  bool First = true;
  Registry.forEach([&](const MetricView &M) {
    if (!First)
      Out.push_back(',');
    First = false;
    Out.append("{\"name\":\"");
    appendEscaped(Out, M.Name);
    Out.append("\",\"label\":\"");
    appendEscaped(Out, M.Label);
    Out.append("\",\"type\":\"");
    Out.append(kindName(M.Kind));
    Out.push_back('"');
    switch (M.Kind) {
    case MetricKind::Counter:
      Out.append(",\"value\":");
      appendU64(Out, M.C->value());
      break;
    case MetricKind::Gauge:
      Out.append(",\"value\":");
      appendDouble(Out, M.G->value());
      break;
    case MetricKind::Histogram: {
      const BucketHistogram &H = *M.H;
      const std::span<const double> Bounds = H.bounds();
      Out.append(",\"bounds\":[");
      for (std::size_t I = 0; I < Bounds.size(); ++I) {
        if (I)
          Out.push_back(',');
        appendDouble(Out, Bounds[I]);
      }
      Out.append("],\"buckets\":[");
      for (std::size_t I = 0; I <= Bounds.size(); ++I) {
        if (I)
          Out.push_back(',');
        appendU64(Out, H.bucket(I));
      }
      Out.append("],\"count\":");
      appendU64(Out, H.count());
      break;
    }
    }
    Out.push_back('}');
  });
  Out.append("]");
  if (Tracer) {
    Out.append(",\"events\":[");
    First = true;
    for (const TraceEvent &E : Events) {
      if (!First)
        Out.push_back(',');
      First = false;
      Out.append("{\"kind\":\"");
      Out.append(toString(E.Kind));
      Out.append("\",\"stream\":");
      appendU64(Out, E.Stream);
      Out.append(",\"region\":");
      appendU64(Out, E.Region);
      Out.append(",\"interval\":");
      appendU64(Out, E.Interval);
      Out.append(",\"value\":");
      appendDouble(Out, E.Value);
      Out.push_back('}');
    }
    Out.append("],\"dropped_events\":");
    appendU64(Out, Tracer->dropped());
  }
  Out.push_back('}');
  return Out;
}

std::string exportTraceText(const EventTracer &Tracer) {
  std::string Out;
  for (const TraceEvent &E : Tracer.sortedSnapshot()) {
    Out.append("interval=");
    appendU64(Out, E.Interval);
    Out.append(" stream=");
    appendU64(Out, E.Stream);
    Out.append(" region=");
    appendU64(Out, E.Region);
    Out.append(" kind=");
    Out.append(toString(E.Kind));
    Out.append(" value=");
    appendDouble(Out, E.Value);
    Out.push_back('\n');
  }
  const std::uint64_t Dropped = Tracer.dropped();
  if (Dropped != 0) {
    Out.append("# dropped=");
    appendU64(Out, Dropped);
    Out.push_back('\n');
  }
  return Out;
}

} // namespace regmon::obs
