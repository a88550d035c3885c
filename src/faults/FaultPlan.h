//===- faults/FaultPlan.h - Deterministic fault injection -------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the sampling -> service -> RTO stack.
///
/// The paper's robustness claim -- LPD stays stable where centroid GPD
/// thrashes as sampling conditions shift -- is only credible if the system
/// survives the ways real HPM front-ends misbehave: lost and duplicated
/// samples, wild program counters landing in unmapped address space,
/// jittered interrupt periods, intervals cut short by buffer teardown, and
/// a collection pipeline that occasionally delivers garbage or stalls
/// outright. A \ref FaultPlan models all of these as *pure, seeded
/// transformations* of a clean sample stream:
///
///  * every random decision is drawn from a \ref regmon::Rng derived from
///    the plan seed, so the identical plan over the identical clean stream
///    yields a bit-identical faulted stream on every replay;
///  * per-stream injectors are derived by seed mixing, not by sharing one
///    generator, so stream K's faults are independent of how many other
///    streams exist or in which order injectors were created;
///  * sample-level and batch-level decisions come from separate forked
///    generators, so a dropped sample never shifts which batch gets
///    poisoned.
///
/// The layer is deliberately free of threads and clocks: fault *timing* in
/// the service (worker stalls) is expressed as a \ref BatchFault marker the
/// test harness interprets, keeping this library in the deterministic
/// world where ChaosTest can assert bit-identical replays.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_FAULTS_FAULTPLAN_H
#define REGMON_FAULTS_FAULTPLAN_H

#include "support/Contracts.h"
#include "support/Rng.h"
#include "support/Types.h"

#include <cstdint>
#include <span>
#include <vector>

namespace regmon::faults {

/// Service-level fate of one delivered batch, decided deterministically by
/// the injector. Sample-level faults (drop/duplicate/corrupt/jitter/
/// truncate) are applied by \ref StreamFaultInjector::apply regardless.
enum class BatchFault : std::uint8_t {
  None,   ///< Deliver normally.
  Poison, ///< Deliver structurally malformed (see \ref poisonBatch).
  Stall,  ///< Deliver normally, but the worker stalls on it (harness hook).
};

/// Returns a short human-readable name for \p F.
const char *toString(BatchFault F);

/// Fate of one summary message on a fleet-tree link (child -> parent),
/// decided deterministically by a \ref LinkFaultInjector. Models what a
/// real summary transport (UDP rollup, gossip hop, RPC retry queue) does
/// to in-flight rollup messages; the fleet layer must absorb every one of
/// these without the merged view going silently wrong.
enum class TransportFault : std::uint8_t {
  None,      ///< Deliver normally.
  Drop,      ///< Message lost; the parent keeps its stale entry.
  Duplicate, ///< Delivered twice; merges must be idempotent.
  Reorder,   ///< Delayed one round and delivered after its successor.
  Stale,     ///< A previously sent message is re-delivered *instead of*
             ///< the current one (retry queue replaying an old payload).
};

/// Returns a short human-readable name for \p F.
const char *toString(TransportFault F);

/// Summary-transport fault rates, all probabilities in [0, 1]. A
/// default-constructed config injects nothing.
struct TransportFaultConfig {
  double DropRate = 0;
  double DuplicateRate = 0;
  double ReorderRate = 0;
  double StaleRate = 0;
};

/// Counters of everything a link injector did.
struct LinkFaultStats {
  std::uint64_t MessagesSeen = 0;
  std::uint64_t Dropped = 0;
  std::uint64_t Duplicated = 0;
  std::uint64_t Reordered = 0;
  std::uint64_t Stale = 0;
};

/// Decides the fate of each summary message crossing one fleet-tree link.
/// Stateful in the same sense as \ref StreamFaultInjector: the K-th call
/// judges the K-th message, and every decision draw is always consumed,
/// so the identical seed yields the identical fault sequence regardless
/// of which faults actually fire (bit-identical replay).
class LinkFaultInjector {
public:
  /// Creates an injector with its own derived generator. Prefer
  /// \ref FaultPlan::forLink over calling this directly.
  LinkFaultInjector(std::uint64_t Seed, TransportFaultConfig Config);

  /// Decides the next message's fate. One decision per fault class per
  /// message, always drawn; precedence drop > duplicate > reorder >
  /// stale when several fire at once.
  TransportFault nextFault();

  /// Returns the running fault counters.
  const LinkFaultStats &stats() const { return Stats; }

  /// Returns the configuration in use.
  const TransportFaultConfig &config() const { return Config; }

private:
  TransportFaultConfig Config;
  Rng MsgRng;
  LinkFaultStats Stats;
};

/// Base of the unmapped address window corrupted PCs land in:
/// instruction-aligned and outside every monitored program's code. Repro
/// choice.
inline constexpr Addr CorruptBase = 0x6000'0000;
/// Number of instruction slots in the corruption window. Repro choice.
inline constexpr std::uint64_t CorruptSpan = 4096;
static_assert(CorruptBase % InstrBytes == 0,
              "corrupted PCs must stay instruction-aligned");
static_assert(CorruptSpan > 0, "the corruption window must be non-empty");

/// Fault rates and shapes. All rates are probabilities in [0, 1]; a
/// default-constructed config injects nothing.
struct FaultConfig {
  /// Per-sample probability of the sample being lost (kernel buffer
  /// overrun, interrupt coalescing).
  double DropRate = 0;
  /// Per-sample probability of the sample being delivered twice (replayed
  /// DMA page, double interrupt).
  double DuplicateRate = 0;
  /// Per-sample probability of the PC being corrupted into unmapped
  /// address space (wild interrupt PC), a slot of the window at
  /// CorruptBase. Corrupted PCs stay instruction-aligned: they are
  /// *plausible* garbage the monitor must absorb as UCR noise, not
  /// structural damage.
  double CorruptRate = 0;
  /// Timestamp jitter as a fraction of the nominal inter-sample spacing
  /// (sampling-period wobble). Monotonicity of timestamps is preserved.
  double PeriodJitterFrac = 0;
  /// Per-batch probability of the interval being truncated (optimizer
  /// woken early, teardown racing the sampler).
  double TruncateRate = 0;
  /// Per-batch probability of the batch being structurally malformed
  /// (see \ref poisonBatch); the service must reject it.
  double PoisonRate = 0;
  /// Per-batch probability of the worker stalling on the batch.
  double StallRate = 0;
};

/// Counters of everything an injector did, for reports and invariants.
struct FaultStats {
  std::uint64_t SamplesSeen = 0;
  std::uint64_t SamplesDropped = 0;
  std::uint64_t SamplesDuplicated = 0;
  std::uint64_t SamplesCorrupted = 0;
  std::uint64_t BatchesSeen = 0;
  std::uint64_t BatchesTruncated = 0;
  std::uint64_t BatchesPoisoned = 0;
  std::uint64_t BatchesStalled = 0;
};

/// Renders \p Batch structurally malformed in a deterministic,
/// validation-detectable way: one PC loses its instruction alignment and,
/// when the batch holds two or more samples, the first two timestamps are
/// swapped out of order. The service's batch validation (see
/// service/StreamHealth.h) must reject the result.
void poisonBatch(std::vector<Sample> &Batch);

/// Applies one stream's faults. Stateful: the K-th call transforms the
/// K-th batch, so determinism requires calling \ref apply and
/// \ref nextBatchFault once each per batch, in stream order.
class StreamFaultInjector {
public:
  /// Creates an injector with its own derived generators. Prefer
  /// \ref FaultPlan::forStream over calling this directly.
  StreamFaultInjector(std::uint64_t Seed, FaultConfig Config);

  /// Returns the faulted copy of \p Clean: drops, duplicates, PC
  /// corruption, timestamp jitter and truncation applied in that order.
  /// The result preserves non-decreasing timestamps and instruction
  /// alignment -- sample-level faults are noise, not structural damage.
  std::vector<Sample> apply(std::span<const Sample> Clean);

  /// Decides the service-level fate of the next batch.
  BatchFault nextBatchFault();

  /// Returns the running fault counters.
  const FaultStats &stats() const { return Stats; }

  /// Returns the configuration in use.
  const FaultConfig &config() const { return Config; }

private:
  FaultConfig Config;
  Rng SampleRng; ///< per-sample decisions (drop/dup/corrupt/jitter)
  Rng ShapeRng;  ///< per-batch shape decisions (truncation)
  Rng BatchRng;  ///< per-batch delivery decisions (poison/stall)
  FaultStats Stats;
};

/// A seeded, fully replayable composition of faults over any number of
/// streams. The plan itself is immutable; \ref forStream derives the
/// per-stream injector deterministically from (seed, stream id).
class FaultPlan {
public:
  explicit FaultPlan(std::uint64_t PlanSeed, FaultConfig Cfg = {})
      : Seed(PlanSeed), Config(Cfg) {}

  /// Returns stream \p Id's injector. Pure in (plan seed, \p Id): the
  /// result is independent of call order and of other streams.
  StreamFaultInjector forStream(std::uint32_t Id) const;

  /// Returns link \p Id's summary-transport injector, drawing from
  /// \p Cfg. Pure in (plan seed, \p Id), and derived from a different
  /// mixing constant than \ref forStream so link K's faults are
  /// independent of stream K's.
  LinkFaultInjector forLink(std::uint32_t Id,
                            TransportFaultConfig Cfg) const;

  /// Returns the plan seed.
  std::uint64_t seed() const { return Seed; }
  /// Returns the shared fault configuration.
  const FaultConfig &config() const { return Config; }

private:
  std::uint64_t Seed;
  FaultConfig Config;
};

} // namespace regmon::faults

#endif // REGMON_FAULTS_FAULTPLAN_H
