//===- support/Rng.cpp - Deterministic pseudo-random numbers --------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Rng.h"

using namespace regmon;

void Rng::reseed(std::uint64_t Seed) {
  // splitmix64 guarantees the xoshiro state is not all-zero for any seed:
  // each word mixes the next point of the seed's Weyl sequence.
  for (auto &Word : State) {
    Word = mix64(Seed);
    Seed += 0x9e3779b97f4a7c15ULL;
  }
}

static inline std::uint64_t rotl(std::uint64_t X, int K) {
  return (X << K) | (X >> (64 - K));
}

std::uint64_t Rng::next() {
  const std::uint64_t Result = rotl(State[1] * 5, 7) * 9;
  const std::uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

std::uint64_t Rng::nextBelow(std::uint64_t Bound) {
  assert(Bound != 0 && "nextBelow requires a nonzero bound");
  // Lemire's nearly-divisionless bounded generation.
  std::uint64_t X = next();
  __uint128_t M = static_cast<__uint128_t>(X) * Bound;
  auto Lo = static_cast<std::uint64_t>(M);
  if (Lo < Bound) {
    const std::uint64_t Threshold = -Bound % Bound;
    while (Lo < Threshold) {
      X = next();
      M = static_cast<__uint128_t>(X) * Bound;
      Lo = static_cast<std::uint64_t>(M);
    }
  }
  return static_cast<std::uint64_t>(M >> 64);
}

std::size_t Rng::pickWeighted(std::span<const double> Weights) {
  assert(!Weights.empty() && "cannot pick from an empty weight list");
  double Total = 0;
  for (double W : Weights) {
    assert(W >= 0 && "weights must be non-negative");
    Total += W;
  }
  assert(Total > 0 && "weights must not all be zero");
  double Point = nextDouble() * Total;
  for (std::size_t I = 0, E = Weights.size(); I != E; ++I) {
    Point -= Weights[I];
    if (Point < 0)
      return I;
  }
  // Floating-point rounding can leave Point barely >= 0; return the last
  // index with nonzero weight.
  for (std::size_t I = Weights.size(); I-- > 0;)
    if (Weights[I] > 0)
      return I;
  return Weights.size() - 1;
}
