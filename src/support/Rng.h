//===- support/Rng.h - Deterministic pseudo-random numbers ------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fast, deterministic PRNG (xoshiro256**) plus the weighted-choice
/// helpers the execution simulator needs. Determinism matters: every
/// experiment in the paper reproduction must give identical sample streams
/// for identical seeds so that phase-detector comparisons are apples to
/// apples.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_SUPPORT_RNG_H
#define REGMON_SUPPORT_RNG_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

namespace regmon {

/// The splitmix64 mix of \p X: a bijection that spreads every input bit
/// over the whole output. It derives independent values from dense ids
/// (shard routing, per-stream and per-node fault seeds) and seeds \ref Rng.
constexpr std::uint64_t mix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// xoshiro256** 1.0 by Blackman & Vigna, seeded through splitmix64.
///
/// Not cryptographic; chosen for speed, tiny state and excellent statistical
/// quality for simulation workloads.
class Rng {
public:
  /// Seeds the full 256-bit state from \p Seed via splitmix64.
  explicit Rng(std::uint64_t Seed = 0x9e3779b97f4a7c15ULL) { reseed(Seed); }

  /// Re-seeds the generator; the subsequent stream depends only on \p Seed.
  void reseed(std::uint64_t Seed);

  /// Returns the next raw 64-bit value.
  std::uint64_t next();

  /// Returns a double uniformly distributed in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns an integer uniformly distributed in [0, Bound). \p Bound must
  /// be nonzero. Uses Lemire's multiply-shift rejection method.
  std::uint64_t nextBelow(std::uint64_t Bound);

  /// Picks an index in [0, Weights.size()) with probability proportional to
  /// Weights[i]. All weights must be >= 0 and their sum must be > 0.
  std::size_t pickWeighted(std::span<const double> Weights);

  /// Forks a statistically independent generator. Useful for giving each
  /// subsystem (engine, sampler jitter, ...) its own stream so that adding
  /// consumers does not perturb existing streams.
  Rng fork() { return Rng(next() ^ 0xa0761d6478bd642fULL); }

private:
  std::uint64_t State[4] = {};
};

} // namespace regmon

#endif // REGMON_SUPPORT_RNG_H
