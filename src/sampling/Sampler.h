//===- sampling/Sampler.h - HPM sampling front-end --------------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware-performance-monitor sampling substrate. Real prototype
/// systems (ADORE [12][13]) program a cycle counter to overflow every N
/// cycles; the interrupt handler appends the interrupted PC to a user
/// buffer, and the dynamic optimizer is woken on *buffer overflow* with one
/// interval's worth of samples. This class reproduces that interface over
/// the simulated execution engine: a fixed sampling period in
/// cycles/interrupt and a fixed buffer of 2032 samples (the size used in
/// the paper's Fig. 2).
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_SAMPLING_SAMPLER_H
#define REGMON_SAMPLING_SAMPLER_H

#include "obs/Instruments.h"
#include "sampling/AdaptiveController.h"
#include "sim/Engine.h"
#include "support/Types.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace regmon::sampling {

/// Sampling parameters. The paper sweeps PeriodCycles over
/// 45K/450K/900K (Figs. 3/4) and 100K/800K/1.5M (Fig. 17).
/// Zero values are invalid; the sampler clamps them to 1 in every build
/// (a zero period would spin advanceAndSample forever) and reports the
/// clamp through its instruments.
struct SamplingConfig {
  /// Cycles between sampling interrupts.
  Cycles PeriodCycles = 45'000;
  /// User-buffer capacity; one "interval" is one full buffer.
  std::size_t BufferSize = 2032;
};

/// Drives an engine with periodic sampling interrupts and delivers full
/// buffers to a handler.
class Sampler {
public:
  /// Called once per buffer overflow with the interval's samples, in
  /// arrival order.
  using OverflowHandler = std::function<void(std::span<const Sample>)>;

  /// Creates a sampler over \p Eng (which must outlive the sampler).
  Sampler(sim::Engine &Eng, SamplingConfig Config);

  /// Runs the program to completion, invoking \p Handler on every buffer
  /// overflow. A final partial buffer (program ended mid-interval) is
  /// discarded, as in the real system where teardown races the optimizer
  /// thread. Returns the number of complete intervals delivered.
  std::size_t run(const OverflowHandler &Handler);

  /// Collects exactly one full buffer into \p Buffer. Returns false (with
  /// \p Buffer holding any partial data) once the program ends.
  bool fillBuffer(std::vector<Sample> &Buffer);

  /// Records up to \p MaxIntervals complete intervals (all of them by
  /// default), one vector per interval, discarding a trailing partial
  /// buffer like \ref run. A pre-recorded stream can be replayed through
  /// many detector configurations -- or submitted as SampleBatches to the
  /// multi-stream monitoring service -- on identical inputs.
  std::vector<std::vector<Sample>>
  collectIntervals(std::size_t MaxIntervals = SIZE_MAX);

  /// Returns the number of complete intervals delivered so far.
  std::size_t intervals() const { return Intervals; }

  /// Returns the sampling configuration (post-clamping).
  const SamplingConfig &config() const { return Config; }

  /// True when construction had to clamp an invalid (zero) config field.
  bool configClamped() const { return ConfigClamped; }

  /// Ceiling on the dynamic period scale exponent.
  static constexpr std::uint32_t MaxPeriodScaleLog2 =
      AdaptiveController::MaxSupportedScaleLog2;

  /// Sets the dynamic period multiplier to 2^Log2 (the adaptive
  /// controller's recommendation), clamping to \ref MaxPeriodScaleLog2.
  /// Takes effect from the next sampling interrupt. Returns the applied
  /// exponent.
  std::uint32_t setPeriodScaleLog2(std::uint32_t Log2);

  /// Effective period: PeriodCycles << scale, saturating.
  Cycles effectivePeriodCycles() const {
    return scaledPeriod(Config.PeriodCycles, ScaleLog2);
  }

  /// Wires metric/tracer sinks (may be null to detach). Reports any
  /// construction-time config clamp to the sinks on attach.
  void attachObservability(const obs::SamplerInstruments *O);

private:
  sim::Engine &Eng;
  SamplingConfig Config;
  const obs::SamplerInstruments *Obs = nullptr;
  std::size_t Intervals = 0;
  std::uint32_t ScaleLog2 = 0;
  bool ConfigClamped = false;
};

} // namespace regmon::sampling

#endif // REGMON_SAMPLING_SAMPLER_H
