//===- obs/Export.h - Byte-stable Prometheus and JSON exporters -*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exporters over \ref MetricsRegistry and \ref EventTracer. Output is
/// byte-stable for a fixed seed: metrics emit in (name, label) map order,
/// events in the deterministic sorted order, and doubles format through
/// std::to_chars shortest round-trip -- no locale, no wall clock, no
/// pointer- or hash-dependent iteration anywhere.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_OBS_EXPORT_H
#define REGMON_OBS_EXPORT_H

#include "obs/EventTracer.h"
#include "obs/Metrics.h"

#include <string>

namespace regmon::obs {

/// Renders every metric in Prometheus text exposition format. Metric
/// names gain a `regmon_` prefix; histograms expand to cumulative
/// `_bucket{le=...}` series plus `_count`.
std::string exportPrometheus(const MetricsRegistry &Registry);

/// Renders metrics -- and, when \p Tracer is non-null, the sorted event
/// trace plus drop accounting -- as a single compact JSON object.
std::string exportJson(const MetricsRegistry &Registry,
                       const EventTracer *Tracer = nullptr);

/// Renders the sorted event trace as one human-readable line per event:
/// `interval=12 stream=0 region=3 kind=phase-entered-stable value=0.91`.
std::string exportTraceText(const EventTracer &Tracer);

} // namespace regmon::obs

#endif // REGMON_OBS_EXPORT_H
