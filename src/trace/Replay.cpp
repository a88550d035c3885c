//===- trace/Replay.cpp - Bit-identical incident replay -------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Replay.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

using namespace regmon;
using namespace regmon::trace;

namespace {

/// One drop/push-reject reference, kept for the cross-checks: every
/// reference must name an earlier *admitted* batch, and no batch can be
/// both dropped and push-rejected (or either one twice).
struct RefRec {
  std::uint64_t Ref = 0; ///< the referenced batch's trace seq
  std::uint64_t At = 0;  ///< the referencing record's trace seq
  bool IsDrop = false;
};

} // namespace

ReplayResult regmon::trace::replayRecords(const ScanResult &Scan,
                                          service::MonitorService &Service,
                                          const ReplayConfig &Cfg) {
  assert(Service.config().Inline &&
         "replay drives a worker-less (Inline) service");
  ReplayResult Out;
  if (Scan.Records.empty()) {
    Out.Ok = true; // a fresh trace replays to a fresh service
    return Out;
  }
  // Byte-compare the Config record against the replaying service before
  // applying anything: a replay under a different configuration diverges
  // in ways that are much harder to diagnose downstream.
  if (Scan.Records.front().Kind != RecordKind::Config ||
      Scan.Records.front().Config != Service.configFingerprint()) {
    Out.ConfigMismatch = true;
    return Out;
  }
  // Pre-pass: resolve the timing-dependent outcomes. Applied at each
  // batch's own position (the aggregate accounting is order-independent,
  // and the eviction's only state effect is "this batch never reached a
  // worker").
  std::vector<std::uint64_t> AdmittedSeqs;
  for (const TraceRecord &R : Scan.Records)
    if (R.Kind == RecordKind::Batch &&
        R.Fate == service::RecordedFate::Admitted)
      AdmittedSeqs.push_back(R.Seq); // scan order: already ascending
  std::vector<RefRec> Refs;
  for (const TraceRecord &R : Scan.Records)
    if (R.Kind == RecordKind::Drop || R.Kind == RecordKind::PushReject)
      Refs.push_back({R.RefSeq, R.Seq, R.Kind == RecordKind::Drop});
  std::sort(Refs.begin(), Refs.end(),
            [](const RefRec &A, const RefRec &B) { return A.Ref < B.Ref; });
  for (std::uint64_t I = 0; I < Refs.size(); ++I) {
    const bool Duplicate = I > 0 && Refs[I].Ref == Refs[I - 1].Ref;
    const bool Known = std::binary_search(AdmittedSeqs.begin(),
                                          AdmittedSeqs.end(), Refs[I].Ref);
    if (Duplicate || !Known) {
      Out.Diverged = true;
      Out.DivergedSeq = Refs[I].At;
      return Out;
    }
  }
  std::vector<std::uint64_t> DroppedSeqs;
  std::vector<std::uint64_t> PushRejectSeqs;
  for (const RefRec &R : Refs)
    (R.IsDrop ? DroppedSeqs : PushRejectSeqs).push_back(R.Ref);
  // Drive. The service must not have been started by the caller; replay
  // owns the start/stop cycle so the monitors end quiescent.
  if (!Service.running())
    Service.start();
  for (const TraceRecord &R : Scan.Records) {
    switch (R.Kind) {
    case RecordKind::Config:
      if (R.Seq != Scan.Records.front().Seq) {
        // A second Config record would mean a multi-segment recording;
        // this driver replays single-segment traces only.
        Out.Diverged = true;
        Out.DivergedSeq = R.Seq;
      }
      break;
    case RecordKind::Batch: {
      const bool Dropped = std::binary_search(DroppedSeqs.begin(),
                                              DroppedSeqs.end(), R.Seq);
      const bool PushFailed = std::binary_search(
          PushRejectSeqs.begin(), PushRejectSeqs.end(), R.Seq);
      if (!Service.applyRecorded(R.Batch, R.Fate, Dropped, PushFailed)) {
        Out.Diverged = true;
        Out.DivergedSeq = R.Seq;
        break;
      }
      ++Out.BatchesApplied;
      break;
    }
    case RecordKind::Drop:
      ++Out.DropsApplied; // consumed at the referenced batch already
      break;
    case RecordKind::PushReject:
      ++Out.PushRejectsApplied;
      break;
    case RecordKind::Checkpoint:
      ++Out.CheckpointsSeen;
      if (Cfg.ApplyCheckpoints) {
        if (Service.checkpoint())
          ++Out.CheckpointsApplied;
        else if (R.Committed) {
          // The original commit succeeded; a replay environment that
          // cannot commit is not reproducing the run.
          Out.Diverged = true;
          Out.DivergedSeq = R.Seq;
        }
      }
      break;
    }
    if (Out.Diverged)
      break;
  }
  Service.stop();
  Out.Ok = !Out.Diverged && !Out.ConfigMismatch;
  return Out;
}

FileReplay regmon::trace::replayTraceFile(const std::string &Path,
                                          service::MonitorService &Service,
                                          const ReplayConfig &Cfg) {
  FileReplay Out;
  Out.Scan = scanTraceFile(Path);
  Out.Replay = replayRecords(Out.Scan, Service, Cfg);
  return Out;
}
