//===- trace/Attach.h - One attach point for a service's logs --*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one call that wires a \ref service::MonitorService to its
/// instruments, its durability directory and its flight recorder. Given a
/// service whose streams are registered, \ref attach does, in this order:
///
///  1. attachObservability, when a registry is given;
///  2. opens a \ref persist::CheckpointManager on the directory and
///     attachPersistence;
///  3. restore, so the service holds the recovered state;
///  4. opens a \ref TraceRecorder and attachRecorder, so the trace starts
///     at the recovered state.
///
/// A directory under the DropOldest policy is refused before step 1.
/// Each primitive states what must precede it; the order lives here so
/// no caller re-derives it. The service is not started. The call lives in
/// src/trace because it is the lowest layer that sees the service, the
/// persist layer and the recorder (regmon_trace links regmon_service).
/// The primitives stay public: they are the steps this call composes,
/// and the durability suites drive them one at a time.
///
/// It wires no persist_* or trace_* instruments: a replay opens no
/// recorder, so those families would make a recording's export differ
/// from its replay's.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_TRACE_ATTACH_H
#define REGMON_TRACE_ATTACH_H

#include "persist/Checkpoint.h"
#include "service/MonitorService.h"
#include "trace/Recorder.h"

#include <cstdint>
#include <memory>
#include <string>

namespace regmon::trace {

/// What \ref attach wires a service to. Every field is optional; an empty
/// description attaches nothing.
struct AttachSpec {
  /// Receives the service's metric catalogue; null attaches none.
  obs::MetricsRegistry *Registry = nullptr;
  /// Receives the service's health events (with a registry only).
  obs::EventTracer *Tracer = nullptr;
  /// Checkpoint directory (snapshots and journal); empty attaches no
  /// durability.
  std::string Dir = {};
  /// Flight-recorder file; empty attaches no recorder.
  std::string TracePath = {};
  /// Gates the recorder's I/O; null is unlimited. Must outlive the
  /// recorder.
  persist::CrashPoint *Crash = nullptr;
};

/// What \ref attach opened and found. Owns the store and the recorder the
/// service refers to, so it must outlive the service's last submit and
/// checkpoint.
struct Attachment {
  /// A directory under the DropOldest policy: the journal records no
  /// evictions, so recovery would process the batches the queue dropped.
  /// Nothing was attached and nothing on disk was touched.
  bool Refused = false;
  /// The attached store; null without a directory.
  std::unique_ptr<persist::CheckpointManager> Store;
  /// What restore rebuilt, and the journal sequence it reached. Set when
  /// a store is attached.
  service::RestoreOutcome Restored = service::RestoreOutcome::ColdStart;
  std::uint64_t RestoredSequence = 0;
  /// What opening the trace found, and the recorder, which is attached
  /// only when Open.Ok (null otherwise, and without a trace path).
  TraceRecorder::OpenResult Open;
  std::unique_ptr<TraceRecorder> Recorder;
};

/// Attaches \p Spec to \p Service (streams registered, not started) in
/// the order the file comment gives. A refused recorder (foreign file,
/// exhausted crash budget) leaves the earlier steps in place.
Attachment attach(service::MonitorService &Service, const AttachSpec &Spec);

} // namespace regmon::trace

#endif // REGMON_TRACE_ATTACH_H
