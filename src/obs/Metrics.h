//===- obs/Metrics.h - Deterministic lock-free metrics registry -*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability subsystem's metric primitives: monotonic counters,
/// gauges, and fixed-bound bucket histograms, all backed by atomics with
/// explicit memory orders so instrumented hot paths never take a lock.
///
/// Determinism contract (DESIGN.md §11): nothing in this layer reads a
/// wall clock -- the *interval index* of the instrumented subsystem is the
/// only notion of time -- and exported values are either exact integer
/// sums (order-independent across threads) or point-in-time gauge stores,
/// so two runs over the same seeded workload export byte-identical text.
/// Histograms deliberately track bucket counts and a total count but no
/// floating-point sum: a cross-thread FP accumulation is
/// addition-order-dependent and would break byte-stable export.
///
/// Registration (\ref MetricsRegistry) is mutex-protected and meant for
/// setup phases; instrumented code holds direct Counter/Gauge/Histogram
/// pointers (see obs/Instruments.h) and touches only the atomics. The
/// exporters walk the entries in place under the same mutex
/// (\ref MetricsRegistry::forEach), so an export never waits on a metric
/// update, only on a registration.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_OBS_METRICS_H
#define REGMON_OBS_METRICS_H

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace regmon::obs {

/// A monotonically increasing event count.
class Counter {
public:
  /// Adds \p N to the counter. Wait-free; safe from any thread.
  void add(std::uint64_t N = 1) {
    V.fetch_add(N, std::memory_order_relaxed);
  }

  /// Returns the current value.
  std::uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> V{0};
};

/// A point-in-time value (last store wins). Stored as the bit pattern of a
/// double so fractional values (UCR fraction, Pearson r) fit alongside
/// plain counts.
class Gauge {
public:
  /// Publishes \p X as the gauge's current value.
  void set(double X) {
    Bits.store(std::bit_cast<std::uint64_t>(X), std::memory_order_relaxed);
  }

  /// Returns the most recently stored value.
  double value() const {
    return std::bit_cast<double>(Bits.load(std::memory_order_relaxed));
  }

private:
  std::atomic<std::uint64_t> Bits{std::bit_cast<std::uint64_t>(0.0)};
};

/// A histogram over fixed, registration-time bucket bounds. Observation is
/// a linear scan of the (few) bounds plus two relaxed increments.
class BucketHistogram {
public:
  /// Creates a histogram with \p UpperBounds (ascending); an implicit
  /// +Inf bucket catches everything above the last bound.
  explicit BucketHistogram(std::vector<double> UpperBounds)
      : Upper(std::move(UpperBounds)), Buckets(Upper.size() + 1) {
    for (std::size_t I = 1; I < Upper.size(); ++I)
      assert(Upper[I - 1] < Upper[I] && "bucket bounds must ascend");
  }

  /// Counts \p X into its bucket. Wait-free; safe from any thread.
  void observe(double X) {
    std::size_t Bin = Upper.size(); // +Inf bucket
    for (std::size_t I = 0; I < Upper.size(); ++I)
      if (X <= Upper[I]) {
        Bin = I;
        break;
      }
    Buckets[Bin].fetch_add(1, std::memory_order_relaxed);
    Total.fetch_add(1, std::memory_order_relaxed);
  }

  /// Returns the finite upper bounds (the +Inf bucket is implicit).
  std::span<const double> bounds() const { return Upper; }

  /// Returns the count in bucket \p I: one bucket per bound, then the
  /// +Inf bucket at I == bounds().size().
  std::uint64_t bucket(std::size_t I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }

  /// Returns the total number of observations.
  std::uint64_t count() const {
    return Total.load(std::memory_order_relaxed);
  }

private:
  std::vector<double> Upper;
  std::vector<std::atomic<std::uint64_t>> Buckets;
  std::atomic<std::uint64_t> Total{0};
};

/// What kind of metric a registry entry is.
enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// One registry entry as an exporter sees it: views of its strings and
/// the live metric, valid only for the duration of the visit. Exactly the
/// pointer that matches \ref Kind is set.
struct MetricView {
  std::string_view Name;  ///< metric name without the exporter prefix
  std::string_view Label; ///< optional label pair(s), e.g. `stream="3"`
  std::string_view Help;
  MetricKind Kind = MetricKind::Counter;
  const Counter *C = nullptr;
  const Gauge *G = nullptr;
  const BucketHistogram *H = nullptr;
};

/// Owns every registered metric. Registration is idempotent on
/// (name, label) and mutex-protected; the returned references stay valid
/// for the registry's lifetime, and all reads/writes through them are
/// lock-free. Enumeration order is the (name, label) map order --
/// deterministic by construction, never hash layout.
class MetricsRegistry {
public:
  /// Returns the counter registered under (\p Name, \p Label), creating
  /// it on first use.
  Counter &counter(std::string_view Name, std::string_view Help = "",
                   std::string_view Label = "");

  /// Returns the gauge registered under (\p Name, \p Label).
  Gauge &gauge(std::string_view Name, std::string_view Help = "",
               std::string_view Label = "");

  /// Returns the histogram registered under (\p Name, \p Label) with
  /// \p UpperBounds (ignored after first registration).
  BucketHistogram &histogram(std::string_view Name,
                             std::vector<double> UpperBounds,
                             std::string_view Help = "",
                             std::string_view Label = "");

  /// Calls \p Visit with a \ref MetricView of every entry, in
  /// deterministic (name, label) order. Nothing is copied: the visitor
  /// reads each metric's atomics in place. The registry mutex is held
  /// throughout, so the visitor must not register; updates through held
  /// metric references go on.
  template <typename Visitor> void forEach(Visitor &&Visit) const {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &[Key, E] : Entries)
      Visit(MetricView{Key.first, Key.second, E.Help, E.Kind, E.C.get(),
                       E.G.get(), E.H.get()});
  }

private:
  struct Entry {
    MetricKind Kind = MetricKind::Counter;
    std::string Help;
    std::unique_ptr<Counter> C;
    std::unique_ptr<Gauge> G;
    std::unique_ptr<BucketHistogram> H;
  };

  Entry &entry(std::string_view Name, std::string_view Label,
               MetricKind Kind, std::string_view Help);

  /// Guards the Entries layout: registration and the exporters' walk,
  /// never a metric update.
  mutable std::mutex Mu;
  std::map<std::pair<std::string, std::string>, Entry> Entries;
};

} // namespace regmon::obs

#endif // REGMON_OBS_METRICS_H
