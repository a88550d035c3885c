//===- persist/StateCodec.h - Monitoring-state serialization ---*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes the learned state of the monitoring stack -- region monitor
/// (regions, interval-tree membership, per-region histograms and local
/// phase machines), GPD centroid detector, and the RTO deployment ledger
/// -- to the persist byte format and back.
///
/// Contract:
///
///  * **Bit-identical**: encode(decode(encode(x))) == encode(x), and a
///    decoded object continued over the same input sequence produces the
///    same bytes as the uninterrupted original. Doubles are stored as raw
///    IEEE-754 bits for exactly this reason (re-deriving a windowed Sum
///    would replay a different accumulation order).
///  * **All-or-nothing**: decode either fully populates a freshly
///    constructed object or returns false and leaves it reset. Every
///    length, state value, and cross-field invariant (histogram totals,
///    window occupancy, region alignment) is validated; a hostile payload
///    cannot corrupt a monitor, only fail the decode.
///  * **Config-checked**: payloads embed a fingerprint of the
///    configuration fields that shape the state layout; decoding under a
///    different configuration is rejected rather than misinterpreted.
///
/// The codec is a friend of the classes it serializes: state stays
/// private, and none of those libraries link against persist.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERSIST_STATECODEC_H
#define REGMON_PERSIST_STATECODEC_H

#include "core/RegionMonitor.h"
#include "gpd/CentroidPhaseDetector.h"
#include "persist/Bytes.h"
#include "rto/TraceDeployments.h"
#include "sampling/AdaptiveController.h"
#include "support/Histogram.h"
#include "support/Statistics.h"

namespace regmon::persist {

/// Stateless encode/decode entry points. See the file comment for the
/// safety and identity contract shared by every pair.
class StateCodec {
public:
  /// Region monitor: the full learned state (regions, attribution
  /// membership, current + stable histograms, detectors, statistics,
  /// optional timelines). Decode requires \p M freshly constructed (or
  /// reset) with the *same configuration* the encoder ran under, builds
  /// each region through the monitor as formation does, and refuses
  /// region state formation cannot reach (more active regions than
  /// MaxRegions, two active regions with equal bounds, a sample clock
  /// outside [formed, intervals)); on failure \p M is reset back to cold
  /// state.
  static void encode(ByteWriter &W, const core::RegionMonitor &M);
  static bool decode(ByteReader &R, core::RegionMonitor &M);

  /// Local phase detector (state machine + frozen stable set, followed by
  /// the stable set's sum and sum of squares, derived at encode). Decode
  /// refuses sums that disagree with the set and state observe cannot
  /// reach: a non-finite r, a stable set valid other than exactly after
  /// the first observation, LessUnstable before 2 observations or Stable
  /// before 3, more than Observed - 2 phase changes, or a change last
  /// interval with none counted.
  static void encode(ByteWriter &W, const core::LocalPhaseDetector &D);
  static bool decode(ByteReader &R, core::LocalPhaseDetector &D);

  /// Per-instruction histogram: start, bins, total and sum of squares
  /// (derived at encode). Decode validates the region bounds match the
  /// histogram \p H was constructed for and refuses sums that disagree
  /// with the bins.
  static void encode(ByteWriter &W, const InstrHistogram &H);
  static bool decode(ByteReader &R, InstrHistogram &H);

  /// Sliding-window statistics. \p MaxCap bounds the accepted capacity
  /// (windows resize dynamically under adaptive configs, so the expected
  /// capacity is a range, not a constant).
  static void encode(ByteWriter &W, const WindowedStats &S);
  static bool decode(ByteReader &R, WindowedStats &S, std::uint64_t MaxCap);

  /// Centroid global phase detector.
  static void encode(ByteWriter &W, const gpd::CentroidPhaseDetector &G);
  static bool decode(ByteReader &R, gpd::CentroidPhaseDetector &G);

  /// Adaptive sampling controller. Decode requires \p C constructed with
  /// the same (normalized) configuration the encoder ran under and
  /// rejects dynamic state violating the machine's invariants (scale
  /// above the cap, a banked streak at or past the step threshold, or
  /// nonzero state on a disabled controller) -- a desynced payload fails
  /// rather than replaying a different period schedule.
  static void encode(ByteWriter &W, const sampling::AdaptiveController &C);
  static bool decode(ByteReader &R, sampling::AdaptiveController &C);

  /// RTO deployment ledger. Decode restores the tracker's bookkeeping
  /// only; the engine's rate factors resync on the caller's next
  /// refresh() (the rto driver calls it once per interval).
  static void encode(ByteWriter &W, const rto::TraceDeployments &T);
  static bool decode(ByteReader &R, rto::TraceDeployments &T);
};

} // namespace regmon::persist

#endif // REGMON_PERSIST_STATECODEC_H
