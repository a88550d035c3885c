//===- faults/FaultPlan.cpp - Deterministic fault injection ---------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "faults/FaultPlan.h"

#include <algorithm>

using namespace regmon;
using namespace regmon::faults;

namespace {

/// A truncated batch keeps at least this fraction of its samples. Repro
/// choice.
constexpr double TruncateMinFrac = 0.1;
static_assert(TruncateMinFrac > 0 && TruncateMinFrac <= 1,
              "truncation must keep a positive fraction");

} // namespace

const char *faults::toString(BatchFault F) {
  switch (F) {
  case BatchFault::None:
    return "none";
  case BatchFault::Poison:
    return "poison";
  case BatchFault::Stall:
    return "stall";
  }
  return "?";
}

const char *faults::toString(TransportFault F) {
  switch (F) {
  case TransportFault::None:
    return "none";
  case TransportFault::Drop:
    return "drop";
  case TransportFault::Duplicate:
    return "duplicate";
  case TransportFault::Reorder:
    return "reorder";
  case TransportFault::Stale:
    return "stale";
  }
  return "?";
}

LinkFaultInjector::LinkFaultInjector(std::uint64_t Seed,
                                     TransportFaultConfig Cfg)
    : Config(Cfg), MsgRng(mix64(Seed ^ 0x96969696'96969696ULL)) {}

REGMON_PURE TransportFault LinkFaultInjector::nextFault() {
  ++Stats.MessagesSeen;
  // One decision per fault class per message, always drawn, so the
  // consumed random stream is independent of which faults fire -- the
  // same discipline StreamFaultInjector::apply uses.
  const bool Drop = MsgRng.nextDouble() < Config.DropRate;
  const bool Duplicate = MsgRng.nextDouble() < Config.DuplicateRate;
  const bool Reorder = MsgRng.nextDouble() < Config.ReorderRate;
  const bool Stale = MsgRng.nextDouble() < Config.StaleRate;
  if (Drop) {
    ++Stats.Dropped;
    return TransportFault::Drop;
  }
  if (Duplicate) {
    ++Stats.Duplicated;
    return TransportFault::Duplicate;
  }
  if (Reorder) {
    ++Stats.Reordered;
    return TransportFault::Reorder;
  }
  if (Stale) {
    ++Stats.Stale;
    return TransportFault::Stale;
  }
  return TransportFault::None;
}

REGMON_PURE void faults::poisonBatch(std::vector<Sample> &Batch) {
  if (Batch.empty()) {
    // An empty batch carries nothing to malform; give it one impossible
    // sample so validation still has something to reject.
    Batch.push_back(Sample{1, 0, false}); // unaligned PC
    return;
  }
  // Knock the middle sample off instruction alignment: a PC a real
  // front-end could never deliver.
  Batch[Batch.size() / 2].Pc |= 1;
  // And break timestamp monotonicity when there is room to.
  if (Batch.size() >= 2 && Batch[0].Time != Batch[1].Time)
    std::swap(Batch[0].Time, Batch[1].Time);
}

StreamFaultInjector::StreamFaultInjector(std::uint64_t Seed, FaultConfig Cfg)
    : Config(Cfg), SampleRng(mix64(Seed ^ 0x5a5a5a5a5a5a5a5aULL)),
      ShapeRng(mix64(Seed ^ 0xc3c3c3c3c3c3c3c3ULL)),
      BatchRng(mix64(Seed ^ 0x0f0f0f0f0f0f0f0fULL)) {}

REGMON_PURE std::vector<Sample>
StreamFaultInjector::apply(std::span<const Sample> Clean) {
  ++Stats.BatchesSeen;
  Stats.SamplesSeen += Clean.size();

  std::vector<Sample> Out;
  Out.reserve(Clean.size() + Clean.size() / 8);

  // Nominal inter-sample spacing, for jitter scaling. A single-sample or
  // constant-time batch jitters over nothing.
  Cycles Spacing = 0;
  if (Clean.size() >= 2 && Clean.back().Time > Clean.front().Time)
    Spacing = (Clean.back().Time - Clean.front().Time) /
              static_cast<Cycles>(Clean.size() - 1);

  for (const Sample &S : Clean) {
    // One decision per fault class per sample, always drawn, so the
    // consumed random stream (and thus every later decision) is
    // independent of which faults actually fire.
    const bool Drop = SampleRng.nextDouble() < Config.DropRate;
    const bool Duplicate = SampleRng.nextDouble() < Config.DuplicateRate;
    const bool Corrupt = SampleRng.nextDouble() < Config.CorruptRate;
    const std::uint64_t CorruptSlot = SampleRng.nextBelow(CorruptSpan);
    const double JitterDraw = SampleRng.nextDouble();

    if (Drop) {
      ++Stats.SamplesDropped;
      continue;
    }
    Sample Faulted = S;
    if (Corrupt) {
      Faulted.Pc = CorruptBase + static_cast<Addr>(CorruptSlot) * InstrBytes;
      ++Stats.SamplesCorrupted;
    }
    if (Config.PeriodJitterFrac > 0 && Spacing > 0) {
      // Symmetric jitter in [-J, +J] cycles around the nominal timestamp.
      const double J = Config.PeriodJitterFrac * static_cast<double>(Spacing);
      const auto Offset =
          static_cast<std::int64_t>((JitterDraw * 2.0 - 1.0) * J);
      if (Offset >= 0 ||
          Faulted.Time >= static_cast<Cycles>(-Offset))
        Faulted.Time = static_cast<Cycles>(
            static_cast<std::int64_t>(Faulted.Time) + Offset);
    }
    Out.push_back(Faulted);
    if (Duplicate) {
      Out.push_back(Faulted);
      ++Stats.SamplesDuplicated;
    }
  }

  // Jitter may have locally reordered timestamps; restore the
  // non-decreasing order a real buffer delivers (samples are appended in
  // interrupt order even when the period wobbles).
  Cycles Floor = 0;
  for (Sample &S : Out) {
    S.Time = std::max(S.Time, Floor);
    Floor = S.Time;
  }

  // Truncation last: the interval ends early, whatever survived so far.
  if (!Out.empty() && ShapeRng.nextDouble() < Config.TruncateRate) {
    const double KeptFrac =
        TruncateMinFrac + (1.0 - TruncateMinFrac) * ShapeRng.nextDouble();
    const auto Kept = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               KeptFrac * static_cast<double>(Out.size())));
    if (Kept < Out.size()) {
      Out.resize(Kept);
      ++Stats.BatchesTruncated;
    }
  } else if (!Out.empty()) {
    ShapeRng.nextDouble(); // keep the shape stream aligned per batch
  }

  return Out;
}

REGMON_PURE BatchFault StreamFaultInjector::nextBatchFault() {
  // Two independent draws per batch, always consumed, so the poison and
  // stall sequences never shift each other.
  const bool Poison = BatchRng.nextDouble() < Config.PoisonRate;
  const bool Stall = BatchRng.nextDouble() < Config.StallRate;
  if (Poison) {
    ++Stats.BatchesPoisoned;
    return BatchFault::Poison;
  }
  if (Stall) {
    ++Stats.BatchesStalled;
    return BatchFault::Stall;
  }
  return BatchFault::None;
}

REGMON_PURE StreamFaultInjector FaultPlan::forStream(std::uint32_t Id) const {
  // Mixed, so a stream's seed depends neither on id patterns nor on the
  // order injectors are created in.
  return StreamFaultInjector(mix64(Seed) ^ mix64(Id), Config);
}

REGMON_PURE LinkFaultInjector
FaultPlan::forLink(std::uint32_t Id, TransportFaultConfig Cfg) const {
  // A distinct mixing constant decorrelates link Id from stream Id, so a
  // fleet reusing one plan seed for both draws independent sequences.
  return LinkFaultInjector(mix64(Seed ^ 0x7171717171717171ULL) ^ mix64(Id),
                           Cfg);
}
