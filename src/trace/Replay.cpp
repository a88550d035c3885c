//===- trace/Replay.cpp - Bit-identical incident replay -------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Replay.h"

#include "persist/Io.h"

#include <algorithm>
#include <cassert>
#include <functional>
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

/// What the drive needs before it applies anything, noted from every
/// record in file order: whether the first one is the replaying service's
/// Config and where it starts, the admitted batches' seqs, and the drop
/// and push-reject references.
class Prepass {
public:
  explicit Prepass(std::vector<std::uint8_t> ServiceConfig)
      : Fingerprint(std::move(ServiceConfig)) {}

  void note(const TraceRecord &R) {
    // Byte-compare the Config record against the replaying service: a
    // replay under a different configuration diverges in ways that are
    // much harder to diagnose downstream.
    if (std::exchange(First, false)) {
      ConfigMatches = R.Kind == RecordKind::Config && R.Config == Fingerprint;
      Start = R.Start;
    }
    if (R.Kind == RecordKind::Batch &&
        R.Fate == service::RecordedFate::Admitted)
      AdmittedSeqs.push_back(R.Seq); // file order: already ascending
    if (R.Kind == RecordKind::Drop || R.Kind == RecordKind::PushReject)
      Refs.push_back({R.RefSeq, R.Seq, R.Kind == RecordKind::Drop});
  }

  bool configMatches() const { return ConfigMatches; }
  /// The first record's start point (meaningful once configMatches()).
  const service::StartPoint &start() const { return Start; }

  /// Resolves the timing-dependent outcomes; false (with \p DivergedSeq,
  /// the referencing record) on a duplicate or non-admitted reference.
  bool resolve(std::uint64_t &DivergedSeq) {
    std::sort(Refs.begin(), Refs.end(),
              [](const RefRec &A, const RefRec &B) { return A.Ref < B.Ref; });
    for (std::uint64_t I = 0; I < Refs.size(); ++I) {
      const bool Duplicate = I > 0 && Refs[I].Ref == Refs[I - 1].Ref;
      const bool Known = std::binary_search(AdmittedSeqs.begin(),
                                            AdmittedSeqs.end(), Refs[I].Ref);
      if (Duplicate || !Known) {
        DivergedSeq = Refs[I].At;
        return false;
      }
    }
    for (const RefRec &R : Refs)
      (R.IsDrop ? DroppedSeqs : PushRejectSeqs).push_back(R.Ref);
    return true;
  }

  bool dropped(std::uint64_t Seq) const {
    return std::binary_search(DroppedSeqs.begin(), DroppedSeqs.end(), Seq);
  }
  bool pushFailed(std::uint64_t Seq) const {
    return std::binary_search(PushRejectSeqs.begin(), PushRejectSeqs.end(),
                              Seq);
  }

private:
  std::vector<std::uint8_t> Fingerprint;
  bool First = true;
  bool ConfigMatches = false;
  service::StartPoint Start;
  std::vector<std::uint64_t> AdmittedSeqs;
  std::vector<RefRec> Refs;
  std::vector<std::uint64_t> DroppedSeqs;
  std::vector<std::uint64_t> PushRejectSeqs;
};

/// Loads the valid prefix's record \p I (file order) into \p Rec.
using RecordLoader = std::function<void(std::uint64_t I, TraceRecord &Rec)>;

/// The one replay engine under both entry points: \p Count records, all
/// already noted in \p P, are loaded one at a time into a reused record
/// and applied against \p Service.
ReplayResult drive(Prepass &P, std::uint64_t Count, const RecordLoader &Load,
                   service::MonitorService &Service,
                   const ReplayConfig &Cfg) {
  assert(Service.config().Inline &&
         "replay drives a worker-less (Inline) service");
  ReplayResult Out;
  if (Count == 0) {
    Out.Ok = true; // a fresh trace replays to a fresh service
    return Out;
  }
  if (!P.configMatches()) {
    Out.ConfigMismatch = true;
    return Out;
  }
  // A trace records decisions taken from its start point on; applied to
  // any other state they rebuild a run that never happened.
  Out.TraceStart = P.start();
  Out.ServiceStart = Service.startPoint();
  if (Out.TraceStart != Out.ServiceStart) {
    Out.StartMismatch = true;
    return Out;
  }
  // Applied at each batch's own position (the aggregate accounting is
  // order-independent, and the eviction's only state effect is "this
  // batch never reached a worker").
  if (!P.resolve(Out.DivergedSeq)) {
    Out.Diverged = true;
    return Out;
  }
  // The service must not have been started by the caller; replay owns the
  // start/stop cycle so the monitors end quiescent.
  if (!Service.running())
    Service.start();
  TraceRecord R;
  for (std::uint64_t I = 0; I < Count && !Out.Diverged; ++I) {
    Load(I, R);
    switch (R.Kind) {
    case RecordKind::Config:
      if (I != 0) {
        // A second Config record would mean a multi-segment recording;
        // this driver replays single-segment traces only.
        Out.Diverged = true;
        Out.DivergedSeq = R.Seq;
      }
      break;
    case RecordKind::Batch:
      if (!Service.applyRecorded(R.Batch, R.Fate, P.dropped(R.Seq),
                                 P.pushFailed(R.Seq))) {
        Out.Diverged = true;
        Out.DivergedSeq = R.Seq;
        break;
      }
      ++Out.BatchesApplied;
      break;
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
  }
  Service.stop();
  Out.Ok = !Out.Diverged;
  return Out;
}

} // namespace

ReplayResult regmon::trace::replayRecords(const ScanResult &Scan,
                                          service::MonitorService &Service,
                                          const ReplayConfig &Cfg) {
  Prepass P(Service.configFingerprint());
  for (const TraceRecord &R : Scan.Records)
    P.note(R);
  return drive(
      P, Scan.Records.size(),
      [&Scan](std::uint64_t I, TraceRecord &Rec) { Rec = Scan.Records[I]; },
      Service, Cfg);
}

FileReplay regmon::trace::replayTraceFile(const std::string &Path,
                                          service::MonitorService &Service,
                                          const ReplayConfig &Cfg) {
  FileReplay Out;
  const auto Bytes = persist::readFileBytes(Path);
  Prepass P(Service.configFingerprint());
  // The drive's index: 32 bytes per record, the payloads staying views
  // into Bytes.
  std::vector<persist::LogRecord> Index;
  static_cast<ScanSummary &>(Out.Scan) = verifyTraceBytes(
      Bytes ? std::span<const std::uint8_t>(*Bytes)
            : std::span<const std::uint8_t>(),
      [&](const persist::LogRecord &R, const TraceRecord &Rec) {
        P.note(Rec);
        Index.push_back(R);
      });
  Out.Scan.Missing = !Bytes;
  Out.Replay = drive(
      P, Index.size(),
      [&Index](std::uint64_t I, TraceRecord &Rec) {
        [[maybe_unused]] const RecordDecode Decoded =
            decodeRecord(Index[I], Rec);
        assert(Decoded == RecordDecode::Ok &&
               "the scan decoded every indexed record");
      },
      Service, Cfg);
  return Out;
}
