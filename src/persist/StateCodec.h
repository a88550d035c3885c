//===- persist/StateCodec.h - Monitoring-state serialization ---*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes the learned state of one service stream -- its region
/// monitor (regions, their local phase machines, statistics and miss
/// accounting) and its adaptive sampling controller -- to the persist
/// byte format and back. Each learned number is written once: whatever
/// the monitor keeps equal to other persisted state is derived at decode.
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
///    length, state value, and cross-field invariant (window occupancy,
///    region alignment, counters the monitor could not have reached) is
///    validated; a hostile payload cannot corrupt a monitor, only fail the
///    decode.
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
#include "persist/Bytes.h"
#include "sampling/AdaptiveController.h"
#include "support/Statistics.h"

namespace regmon::persist {

/// Stateless encode/decode entry points. See the file comment for the
/// safety and identity contract shared by every pair.
class StateCodec {
public:
  /// Region monitor: what a restored monitor needs to continue
  /// bit-identically (regions, detectors, statistics, miss accounting, the
  /// last UCR fraction, and the chart series under RecordTimelines). The
  /// interval's counts are not written: observeInterval lays the count
  /// slab out and zeroes it before use. Decode requires \p M freshly
  /// constructed (or reset) with the *same configuration* the encoder ran
  /// under, builds each region through the monitor as formation does,
  /// derives the phase-change copies and the miss total, and refuses
  /// state formation cannot reach (more active regions than MaxRegions,
  /// two active regions with equal bounds, a sample clock outside
  /// [formed, intervals), counters observeInterval cannot reach, a UCR
  /// fraction outside [0, 1], a UCR history whose length is not the
  /// interval count); on failure \p M is reset back to cold state.
  static void encode(ByteWriter &W, const core::RegionMonitor &M);
  static bool decode(ByteReader &R, core::RegionMonitor &M);

  /// Local phase detector (state machine + frozen stable set). Decode
  /// refuses state observe cannot reach: a non-finite r, a stable set valid
  /// other than exactly after the first observation, LessUnstable before 2
  /// observations, Stable other than after an odd number of phase changes,
  /// more than Observed - 2 phase changes, or a change last interval with
  /// none counted.
  static void encode(ByteWriter &W, const core::LocalPhaseDetector &D);
  static bool decode(ByteReader &R, core::LocalPhaseDetector &D);

  /// Sliding-window statistics. \p MaxCap bounds the accepted capacity;
  /// a caller that knows the exact capacity checks it after decode.
  static void encode(ByteWriter &W, const WindowedStats &S);
  static bool decode(ByteReader &R, WindowedStats &S, std::uint64_t MaxCap);

  /// Adaptive sampling controller. Decode requires \p C constructed with
  /// the same (normalized) configuration the encoder ran under and
  /// rejects dynamic state violating the machine's invariants (scale
  /// above the cap, a banked streak at or past the step threshold, or
  /// nonzero state on a disabled controller) -- a desynced payload fails
  /// rather than replaying a different period schedule.
  static void encode(ByteWriter &W, const sampling::AdaptiveController &C);
  static bool decode(ByteReader &R, sampling::AdaptiveController &C);
};

} // namespace regmon::persist

#endif // REGMON_PERSIST_STATECODEC_H
