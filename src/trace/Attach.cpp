//===- trace/Attach.cpp - One attach point for a service's logs -----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Attach.h"

using namespace regmon;
using namespace regmon::trace;

Attachment trace::attach(service::MonitorService &Service,
                         const AttachSpec &Spec) {
  Attachment Out;
  if (!Spec.Dir.empty() &&
      Service.config().Policy == service::OverflowPolicy::DropOldest) {
    Out.Refused = true;
    return Out;
  }
  if (Spec.Registry != nullptr)
    Service.attachObservability(*Spec.Registry, Spec.Tracer);
  if (!Spec.Dir.empty()) {
    Out.Store = std::make_unique<persist::CheckpointManager>(Spec.Dir);
    Service.attachPersistence(*Out.Store);
    Out.Restored = Service.restore();
    Out.RestoredSequence = Service.persistedSequence();
  }
  if (!Spec.TracePath.empty()) {
    auto Recorder = std::make_unique<TraceRecorder>();
    Out.Open = Recorder->open(Spec.TracePath, Spec.Crash);
    if (Out.Open.Ok) {
      Service.attachRecorder(*Recorder);
      Out.Recorder = std::move(Recorder);
    }
  }
  return Out;
}
