//===- persist/Crc32.cpp - CRC-32 checksums for durable state -------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/Crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

using namespace regmon::persist;

namespace {

/// Slicing-by-8 lookup tables for the reflected polynomial, computed
/// once. Tables[0] is the classic byte-at-a-time table; Tables[K][B] is
/// the CRC of byte B followed by K zero bytes, which lets the loop fold
/// 8 input bytes per iteration while producing bit-identical results to
/// the byte-at-a-time form. Function-local static: built
/// deterministically from constants, no run-to-run variation.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables &crcTables() {
  static const CrcTables Tables = [] {
    CrcTables T{};
    for (std::uint32_t N = 0; N < 256; ++N) {
      std::uint32_t C = N;
      for (std::uint32_t K = 0; K < 8; ++K)
        C = (C & 1U) ? (0xEDB88320U ^ (C >> 1)) : (C >> 1);
      T[0][N] = C;
    }
    for (std::uint32_t N = 0; N < 256; ++N)
      for (std::uint32_t K = 1; K < 8; ++K)
        T[K][N] = T[0][T[K - 1][N] & 0xFFU] ^ (T[K - 1][N] >> 8);
    return T;
  }();
  return Tables;
}

/// Advances the running (pre-inverted) CRC register \p C over \p N bytes
/// at \p P with the slicing-by-8 tables.
std::uint32_t tableUpdate(std::uint32_t C, const std::uint8_t *P,
                          std::uint64_t N) {
  const CrcTables &T = crcTables();
  while (N >= 8) {
    // Fold the running CRC through the first 4 bytes, slice the next 4
    // independently -- byte loads only, so endianness-neutral.
    const std::uint32_t Lo = C ^ (static_cast<std::uint32_t>(P[0]) |
                                  static_cast<std::uint32_t>(P[1]) << 8 |
                                  static_cast<std::uint32_t>(P[2]) << 16 |
                                  static_cast<std::uint32_t>(P[3]) << 24);
    C = T[7][Lo & 0xFFU] ^ T[6][(Lo >> 8) & 0xFFU] ^
        T[5][(Lo >> 16) & 0xFFU] ^ T[4][Lo >> 24] ^ T[3][P[4]] ^
        T[2][P[5]] ^ T[1][P[6]] ^ T[0][P[7]];
    P += 8;
    N -= 8;
  }
  for (; N > 0; ++P, --N)
    C = T[0][(C ^ *P) & 0xFFU] ^ (C >> 8);
  return C;
}

#if defined(__x86_64__)

/// True when the host CPU executes PCLMULQDQ. Asked once per process.
bool hostHasClmul() {
  static const bool Has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return Has;
}

/// A 128-bit constant operand: \p Hi in the upper quadword, \p Lo in the
/// lower.
inline __m128i qwords(std::uint64_t Hi, std::uint64_t Lo) {
  return _mm_set_epi64x(static_cast<std::int64_t>(Hi),
                        static_cast<std::int64_t>(Lo));
}

/// Folds \p Acc forward by the distance its two quadword constants encode
/// and adds \p Next: Acc.lo * K.lo ^ Acc.hi * K.hi ^ Next, carry-less.
__attribute__((target("pclmul"))) inline __m128i
foldInto(__m128i Acc, __m128i K, __m128i Next) {
  const __m128i Lo = _mm_clmulepi64_si128(Acc, K, 0x00);
  const __m128i Hi = _mm_clmulepi64_si128(Acc, K, 0x11);
  return _mm_xor_si128(_mm_xor_si128(Lo, Hi), Next);
}

/// Carry-less-multiply folding CRC-32 after Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009), with the paper's constants for the reflected
/// polynomial 0xEDB88320. Advances the pre-inverted register \p C over
/// \p N bytes at \p P; N must be at least 64 and a multiple of 16. Four
/// 128-bit lanes are folded 64 bytes at a time, merged into one lane,
/// folded 16 bytes at a time over the rest, then reduced to 32 bits
/// (128 -> 64 by k4 and k5, Barrett by P' and mu).
__attribute__((target("pclmul"))) std::uint32_t
clmulUpdate(std::uint32_t C, const std::uint8_t *P, std::uint64_t N) {
  const __m128i K1K2 = qwords(0x1C6E41596U, 0x154442BD4U);
  const __m128i K3K4 = qwords(0x0CCAA009EU, 0x1751997D0U);
  const __m128i K5 = qwords(0, 0x163CD6124U);
  const __m128i PolyMu = qwords(0x1F7011641U, 0x1DB710641U);
  // The low 32 bits of each quadword.
  const __m128i Low32 = qwords(0xFFFFFFFFU, 0xFFFFFFFFU);
  const auto *V = reinterpret_cast<const __m128i *>(P);

  __m128i X0 = _mm_xor_si128(_mm_loadu_si128(V),
                             _mm_cvtsi32_si128(static_cast<std::int32_t>(C)));
  __m128i X1 = _mm_loadu_si128(V + 1);
  __m128i X2 = _mm_loadu_si128(V + 2);
  __m128i X3 = _mm_loadu_si128(V + 3);
  V += 4;
  N -= 64;
  for (; N >= 64; V += 4, N -= 64) {
    X0 = foldInto(X0, K1K2, _mm_loadu_si128(V));
    X1 = foldInto(X1, K1K2, _mm_loadu_si128(V + 1));
    X2 = foldInto(X2, K1K2, _mm_loadu_si128(V + 2));
    X3 = foldInto(X3, K1K2, _mm_loadu_si128(V + 3));
  }
  __m128i X = foldInto(X0, K3K4, X1);
  X = foldInto(X, K3K4, X2);
  X = foldInto(X, K3K4, X3);
  for (; N >= 16; ++V, N -= 16)
    X = foldInto(X, K3K4, _mm_loadu_si128(V));

  // 128 -> 64 bits: the low quadword times k4 into the high one, then
  // the low 32 bits of that times k5 into the rest.
  X = _mm_xor_si128(_mm_srli_si128(X, 8), _mm_clmulepi64_si128(X, K3K4, 0x10));
  X = _mm_xor_si128(_mm_srli_si128(X, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(X, Low32), K5, 0x00));
  // Barrett reduction to 32 bits by mu and P'; the CRC lands in bits
  // 32..63.
  __m128i T = _mm_clmulepi64_si128(_mm_and_si128(X, Low32), PolyMu, 0x10);
  T = _mm_clmulepi64_si128(_mm_and_si128(T, Low32), PolyMu, 0x00);
  X = _mm_xor_si128(X, T);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(X, 4)));
}

#endif

} // namespace

std::uint32_t regmon::persist::crc32Table(std::span<const std::uint8_t> Data,
                                          std::uint32_t Seed) {
  return ~tableUpdate(~Seed, Data.data(), Data.size());
}

std::uint32_t regmon::persist::crc32(std::span<const std::uint8_t> Data,
                                     std::uint32_t Seed) {
  std::uint32_t C = ~Seed;
  const std::uint8_t *P = Data.data();
  std::uint64_t N = Data.size();
#if defined(__x86_64__)
  if (N >= 64 && hostHasClmul()) {
    const std::uint64_t Bulk = N & ~std::uint64_t{15};
    C = clmulUpdate(C, P, Bulk);
    P += Bulk;
    N -= Bulk;
  }
#endif
  return ~tableUpdate(C, P, N);
}
