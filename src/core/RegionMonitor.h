//===- core/RegionMonitor.h - The region monitoring framework --*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's contribution assembled: **region monitoring** (section 3)
/// decouples working-set change detection from phase detection.
///
/// On every buffer overflow the monitor:
///
///  1. attributes each sample to *every* monitored region containing it
///     (regions may overlap); samples matching no region are charged to the
///     **unmonitored code region (UCR)**;
///  2. if the UCR fraction exceeds a threshold (30% in the paper's study),
///     triggers **region formation**: hot unmonitored PCs are resolved
///     through the CodeMap to enclosing loops, which become new monitored
///     regions (working-set change handled);
///  3. feeds each region's per-instruction histogram to that region's
///     **local phase detector** (phase change handled, per region);
///  4. optionally prunes regions that have been cold for a long time
///     (a cost-reduction the paper lists as future work).
///
/// Deployment-facing events (region formed / became stable / became
/// unstable / pruned) are delivered through a callback, which is how the
/// runtime-optimizer layer patches and unpatches traces and implements
/// self-monitoring of deployed optimizations.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_CORE_REGIONMONITOR_H
#define REGMON_CORE_REGIONMONITOR_H

#include "core/CodeMap.h"
#include "core/LocalPhaseDetector.h"
#include "core/Region.h"
#include "core/Similarity.h"
#include "obs/Instruments.h"
#include "support/Contracts.h"
#include "support/Statistics.h"
#include "support/Types.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace regmon::persist {
class StateCodec;
} // namespace regmon::persist

namespace regmon::core {

/// UCR sample fraction above which region formation is triggered. Paper
/// section 3.1: the Fig. 6 threshold line sits at 30%.
inline constexpr double UcrTriggerFraction = 0.30;
static_assert(UcrTriggerFraction >= 0 && UcrTriggerFraction <= 1,
              "the UCR trigger is a fraction");
/// Minimum UCR samples a candidate loop needs in the triggering interval
/// before it is worth forming a region around. Repro choice.
inline constexpr std::size_t MinRegionSamples = 16;
/// Cap on regions formed by a single trigger. Repro choice.
inline constexpr std::size_t MaxNewRegionsPerTrigger = 8;
/// Cap on simultaneously monitored regions; a snapshot holding more
/// active regions is refused. Repro choice.
inline constexpr std::size_t MaxRegions = 128;
static_assert(MaxRegions > 0, "formation must allow at least one region");
/// Sliding window (in non-empty intervals) over which
/// \ref RegionMonitor::recentMissFraction is computed; part of the
/// snapshot's monitor fingerprint. Repro choice for the paper's
/// self-monitoring feedback (section 5).
inline constexpr std::size_t MissWindowIntervals = 8;

/// Tunable parameters of the region monitor.
struct RegionMonitorConfig {
  /// Histogram similarity metric for local phase detection.
  SimilarityKind Similarity = SimilarityKind::Pearson;
  /// Per-region detector parameters.
  LocalDetectorConfig Lpd;
  /// Degraded-mode gate: intervals delivering fewer than this many
  /// samples (truncated buffers, heavy sample loss) still have their
  /// samples attributed and counted, but neither trigger region formation
  /// nor advance any phase detector -- under-sampling must read as
  /// missing evidence, not as behaviour change. 0 (the paper's
  /// configuration) disables the gate.
  std::size_t MinIntervalSamples = 0;
  /// Future-work feature: drop regions that received no samples for
  /// PruneAfterIdleIntervals consecutive intervals.
  bool PruneColdRegions = false;
  std::uint64_t PruneAfterIdleIntervals = 64;
  /// Record the per-interval chart series: each region's sample counts, r
  /// values and states (Figs. 2, 5, 9-11) and the UCR fraction (Figs. 6
  /// and 7). Each grows by one entry per interval; off by default.
  bool RecordTimelines = false;
  /// Extension of the paper's "change in performance characteristics"
  /// goal: run a second per-region detector over the *miss* histograms, so
  /// a region whose cycle profile is unchanged but whose delinquent loads
  /// moved (invisible to the PC-histogram detector) still reports a local
  /// phase change. Off by default (the paper's configuration).
  bool TrackMissPhases = false;
};

/// A deployment-facing notification.
struct RegionEvent {
  enum class Kind : std::uint8_t {
    Formed,          ///< A new region entered monitoring.
    BecameStable,    ///< The region's local phase became stable.
    BecameUnstable,  ///< The region's local phase left stable.
    Pruned,          ///< The region was dropped from monitoring.
    MissPhaseChange, ///< TrackMissPhases: the miss histogram's phase
                     ///< toggled while the cycle phase did not.
  };
  Kind K = Kind::Formed;
  RegionId Id = 0;
  /// Interval index (0-based) at which the event fired.
  std::uint64_t Interval = 0;
};

/// Aggregated per-region statistics.
struct RegionStats {
  /// Intervals elapsed since the region was formed.
  std::uint64_t LifetimeIntervals = 0;
  /// Of those, intervals spent in the locally-stable state (Fig. 14).
  std::uint64_t StableIntervals = 0;
  /// Intervals in which the region received at least one sample.
  std::uint64_t ActiveIntervals = 0;
  /// Total samples attributed to the region.
  std::uint64_t TotalSamples = 0;
  /// Of those, samples flagged as D-cache miss stalls.
  std::uint64_t TotalMisses = 0;
  /// Local phase changes (Fig. 13).
  std::uint64_t PhaseChanges = 0;
  /// TrackMissPhases only: phase changes of the miss-histogram channel.
  std::uint64_t MissPhaseChanges = 0;

  /// Lifetime fraction of the region's samples stalled on D-cache misses
  /// (the paper's DPI, expressed per cycle sample).
  double missFraction() const {
    return TotalSamples == 0 ? 0.0
                             : static_cast<double>(TotalMisses) /
                                   static_cast<double>(TotalSamples);
  }

  /// Fraction of the region's lifetime spent locally stable.
  double stableFraction() const {
    return LifetimeIntervals == 0
               ? 0.0
               : static_cast<double>(StableIntervals) /
                     static_cast<double>(LifetimeIntervals);
  }
};

/// The region monitoring framework (region formation + local phase
/// detection + self-monitoring hooks).
class RegionMonitor {
public:
  using EventHandler = std::function<void(const RegionEvent &)>;

  /// Creates a monitor forming regions from the candidates of \p Map
  /// (which must outlive the monitor).
  explicit RegionMonitor(const CodeMap &Map, RegionMonitorConfig Config = {});

  /// Installs \p Handler for deployment-facing events. Events fire during
  /// \ref observeInterval, after the monitor's own state is consistent.
  void setEventHandler(EventHandler Handler);

  /// Consumes one interval's sample buffer. Returns the exact number of
  /// its samples no region claimed (the UCR count; \ref lastUcrFraction
  /// is that count over the buffer size).
  std::uint64_t observeInterval(std::span<const Sample> Samples);

  /// Returns every region ever formed, indexed by RegionId (pruned regions
  /// included; see \ref isActive).
  std::span<const Region> regions() const { return Regions; }
  /// Returns true while \p Id is being monitored.
  bool isActive(RegionId Id) const;
  /// Returns the ids of currently monitored regions, in formation order.
  std::vector<RegionId> activeRegionIds() const { return ActiveIds; }
  /// Returns the number of currently monitored regions. Allocation-free
  /// (unlike \ref activeRegionIds), for per-interval stats publication.
  std::size_t activeRegionCount() const { return ActiveIds.size(); }
  /// Returns how many currently monitored regions sit in the Stable LPD
  /// state. Allocation-free; with \ref activeRegionCount this is the
  /// all-regions-stable signal the adaptive sampling controller consumes
  /// every interval.
  std::size_t stableRegionCount() const;
  /// Returns the local phase detector of region \p Id.
  const LocalPhaseDetector &detector(RegionId Id) const;
  /// Returns aggregated statistics of region \p Id.
  const RegionStats &stats(RegionId Id) const;

  /// Returns the number of samples region \p Id received in the most
  /// recently observed interval (0 for regions formed in that interval).
  /// The interval's histograms are not checkpointed, so a restored monitor
  /// reads 0 here until it observes its next interval.
  std::uint64_t lastSampleCount(RegionId Id) const;

  /// Returns the region's D-cache-miss sample fraction over the last
  /// \ref MissWindowIntervals non-empty intervals -- the feedback signal
  /// self-monitoring uses to judge a deployed optimization (paper
  /// section 5). 0 before the region has drawn samples.
  double recentMissFraction(RegionId Id) const;

  /// One delinquent load: an instruction address and its cumulative miss
  /// sample count.
  struct DelinquentLoad {
    Addr Pc = 0;
    std::uint64_t Misses = 0;
  };

  /// Returns region \p Id's top-\p N instructions by cumulative miss
  /// samples (most delinquent first) -- what a prefetch optimizer targets.
  std::vector<DelinquentLoad> delinquentLoads(RegionId Id,
                                              std::size_t N = 4) const;

  /// TrackMissPhases only: the miss-channel detector of region \p Id.
  const LocalPhaseDetector &missDetector(RegionId Id) const;

  /// Returns the total local phase changes summed over all regions ever
  /// formed (pruned regions included) -- the per-stream scalar the
  /// multi-stream service publishes.
  std::uint64_t totalPhaseChanges() const { return PhaseChangesTotal; }
  /// Returns the total samples attributed to any region, summed over all
  /// regions ever formed. Overlapping regions count a sample once each.
  std::uint64_t totalSamples() const;

  /// Returns the monitor to its freshly constructed state (no regions, no
  /// history), keeping the configuration and CodeMap. Lets a service
  /// shard reuse a monitor for a new stream.
  void reset();

  /// Returns the number of intervals observed.
  std::uint64_t intervals() const { return Intervals; }
  /// Returns the number of intervals discounted by the MinIntervalSamples
  /// gate (still counted in \ref intervals).
  std::uint64_t undersampledIntervals() const {
    return UndersampledIntervals;
  }
  /// Returns the number of region-formation triggers fired (Fig. 7's
  /// repeated triggers in 254.gap / 186.crafty).
  std::uint64_t formationTriggers() const { return FormationTriggers; }
  /// Returns the UCR sample fraction of the most recent interval (0 before
  /// the first).
  double lastUcrFraction() const { return LastUcrFraction; }
  /// Returns the per-interval UCR fraction history (Figs. 6 and 7), one
  /// entry per interval. Requires RecordTimelines.
  std::span<const double> ucrHistory() const;

  /// Per-interval sample counts of region \p Id starting at its formation
  /// interval. Requires RecordTimelines.
  std::span<const std::uint32_t> sampleTimeline(RegionId Id) const;
  /// Per-interval similarity values of region \p Id (carried forward over
  /// empty intervals, as in Figs. 10/11). Requires RecordTimelines.
  std::span<const double> rTimeline(RegionId Id) const;
  /// Per-interval local states of region \p Id. Requires RecordTimelines.
  std::span<const LocalPhaseState> stateTimeline(RegionId Id) const;

  /// Returns the configuration in use.
  const RegionMonitorConfig &config() const { return Config; }

  /// Attaches observability instruments (obs layer). \p O may be null to
  /// detach; otherwise it must outlive the monitor. The monitor records
  /// per-interval counter roll-ups and phase-lifecycle events against it;
  /// with no instruments attached the overhead is one pointer test per
  /// interval.
  void attachObservability(const obs::MonitorInstruments *O);

  /// Returns true if the configured similarity kind was out of enum and
  /// the constructor fell back to Pearson (see \ref makeSimilarity).
  bool similarityFellBack() const { return SimilarityFellBack; }

  /// Returns the number of samples the attribution loop's every-build
  /// guard refused because their slot fell past the count slab. The slab
  /// layout makes that impossible, so this stays 0; a nonzero value
  /// means the layout and the region set disagree.
  std::uint64_t outOfRegionSamples() const { return OutOfRegionSamples; }

private:
  /// Checkpointing serializes each learned field below once (the count
  /// slab, scratch buffers and the event handler excluded; the
  /// RegionStats copies of detector and miss counts are derived on
  /// decode) and rebuilds each region through \ref addRegion
  /// (persist/StateCodec.h).
  friend class persist::StateCodec;

  /// RegionRecord::Slot of a region the current slab layout leaves out.
  static constexpr std::uint32_t NoSlot = ~std::uint32_t{0};

  /// RecordTimelines only: one region's per-interval chart series.
  struct Timelines {
    std::vector<std::uint32_t> Samples;
    std::vector<double> R;
    std::vector<LocalPhaseState> States;
  };

  /// One region's learned state, indexed by RegionId beside Regions. The
  /// detectors and timelines sit behind pointers to keep the record small:
  /// every interval walks the active records.
  struct RegionRecord {
    bool Active = false;
    /// The slot of the region's first instruction in the count slab: its
    /// interval histograms are the instrCount() slots from here. NoSlot
    /// until the slab is laid out with the region in it, so a region
    /// formed during an interval reads empty for the rest of it.
    std::uint32_t Slot = NoSlot;
    /// Samples the region received in the last interval it was active.
    std::uint64_t LastSamples = 0;
    std::unique_ptr<LocalPhaseDetector> Detector;
    /// TrackMissPhases only.
    std::unique_ptr<LocalPhaseDetector> MissDetector;
    RegionStats Stats;
    std::uint64_t LastSampledInterval = 0;
    std::vector<std::uint64_t> CumulativeMisses; // per bin
    WindowedStats RecentMiss;
    /// RecordTimelines only.
    std::unique_ptr<Timelines> Timeline;
  };

  /// One elementary segment of the count slab's layout.
  struct SlabSegment {
    /// The slot of the segment's first instruction, or the sink slot 0
    /// when no active region covers the segment.
    std::uint32_t First = 0;
    /// 1 when no active region covers the segment, so its samples belong
    /// to the UCR; 0 otherwise.
    std::uint32_t Uncovered = 1;
  };

  /// Appends \p R under the next RegionId with a fresh record. An active
  /// region joins ActiveIds and marks the slab layout stale. Formation and
  /// decode both build regions here. The reference is valid until the next
  /// call.
  RegionRecord &addRegion(Region R, bool Active);
  const RegionRecord &record(RegionId Id) const;
  /// Lays the union of the active regions out in the count slab, with
  /// every count zero, and assigns each active region its slot.
  void layoutSlab();
  /// Step 1 of observeInterval, once per sample: counts each sample (and,
  /// when it missed, its miss) in its instruction's slab slot, which every
  /// active region containing the PC reads, and writes the PCs no region
  /// covers to the front of UcrScratch, which must hold Samples.size()
  /// entries. Returns how many it wrote, and adds to \p Rejected the
  /// samples the slot guard refused.
  REGMON_HOT std::size_t attributeSamples(std::span<const Sample> Samples,
                                          std::uint64_t &Rejected);
  void triggerFormation(std::span<const Addr> UcrPcs);
  void pruneCold();
  void emit(RegionEvent::Kind K, RegionId Id);

  const CodeMap &Map;
  RegionMonitorConfig Config;
  /// Declared before Metric: the constructor's makeSimilarity call writes
  /// through its address, so it must be initialized first.
  bool SimilarityFellBack = false;
  std::unique_ptr<SimilarityMetric> Metric;
  EventHandler Handler;
  const obs::MonitorInstruments *Obs = nullptr;

  std::vector<Region> Regions;
  std::vector<RegionRecord> Records;
  /// The active regions' ids in RegionId order: what every per-interval
  /// walk visits, so retired records cost nothing however many a long
  /// pruning stream accumulates.
  std::vector<RegionId> ActiveIds;
  /// Lifetime sum of every record's PhaseChanges, retired ones included;
  /// decode derives it like the RegionStats copies.
  std::uint64_t PhaseChangesTotal = 0;

  double LastUcrFraction = 0;
  /// RecordTimelines only.
  std::vector<double> UcrHistory;
  std::uint64_t Intervals = 0;
  std::uint64_t FormationTriggers = 0;
  std::uint64_t UndersampledIntervals = 0;
  std::uint64_t OutOfRegionSamples = 0;

  /// The count slab: one cycle count and one miss count per instruction
  /// of the union of the active regions, in address order, after the sink
  /// slot 0 that uncovered samples count into. Nested regions share
  /// slots, which credits every region containing a sample. The layout
  /// changes only at formation, pruning, restore and reset, which set
  /// SlabDirty; observeInterval lays the slab out again before its next
  /// attribution loop, and zeroes the counts every interval. SlabBounds
  /// holds the active regions' segment bounds (support/Segments.h).
  std::vector<Addr> SlabBounds;
  std::vector<SlabSegment> SlabSegments;
  std::vector<std::uint32_t> SlabCycles;
  std::vector<std::uint32_t> SlabMisses;
  bool SlabDirty = true;

  /// Reused hot-path scratch: the interval's unclaimed PCs, written by
  /// index. It grows to the largest buffer seen and never shrinks, so
  /// only its first N entries belong to the current interval.
  std::vector<Addr> UcrScratch;
  /// Reused formation scratch: UCR samples per CodeMap candidate, plus a
  /// last entry for the PCs no region can be built around; and the
  /// candidates that clear MinRegionSamples, hottest first.
  std::vector<std::uint32_t> CandidateCounts;
  std::vector<CandidateId> Ranked;
};

} // namespace regmon::core

#endif // REGMON_CORE_REGIONMONITOR_H
