//===- persist/SampleBlock.cpp - Bulk sample-block codec ------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/SampleBlock.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

using namespace regmon;
using namespace regmon::persist;

namespace {

/// Maps a signed difference (as its u64 bit pattern) to an unsigned one
/// with the small magnitudes first: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
constexpr std::uint64_t zigzag(std::uint64_t V) {
  return (V << 1) ^ (0 - (V >> 63));
}
constexpr std::uint64_t unzigzag(std::uint64_t Z) {
  return (Z >> 1) ^ (0 - (Z & 1));
}
static_assert(zigzag(0) == 0 && zigzag(UINT64_MAX) == 1 && zigzag(1) == 2);
static_assert(unzigzag(zigzag(0x8000000000000000ULL)) ==
              0x8000000000000000ULL);

/// The fewest bytes that hold \p V (0 for 0).
constexpr std::uint64_t leastBytes(std::uint64_t V) {
  return (static_cast<std::uint64_t>(std::bit_width(V)) + 7) / 8;
}

/// The width a column of \p Values values whose bits OR to \p Bits must
/// declare; a pc column that is not empty is at least 1 byte wide.
constexpr std::uint64_t pcWidthFor(std::uint64_t Values, std::uint64_t Bits) {
  return Values == 0 ? 0 : std::max<std::uint64_t>(1, leastBytes(Bits));
}

/// Stores the low \p W bytes of \p V, little-endian, as at most two
/// fixed-width words (an odd-sized copy would go through the stack).
template <std::uint64_t W> void storeWidth(std::uint8_t *Out, std::uint64_t V) {
  if constexpr (W == 1)
    *Out = static_cast<std::uint8_t>(V);
  else if constexpr (W == 2)
    storeLE(Out, static_cast<std::uint16_t>(V));
  else if constexpr (W == 3) {
    storeLE(Out, static_cast<std::uint16_t>(V));
    Out[2] = static_cast<std::uint8_t>(V >> 16);
  } else if constexpr (W == 4)
    storeLE(Out, static_cast<std::uint32_t>(V));
  else if constexpr (W == 5) {
    storeLE(Out, static_cast<std::uint32_t>(V));
    Out[4] = static_cast<std::uint8_t>(V >> 32);
  } else if constexpr (W == 6) {
    storeLE(Out, static_cast<std::uint32_t>(V));
    storeLE(Out + 4, static_cast<std::uint16_t>(V >> 32));
  } else if constexpr (W == 7) {
    // Two overlapping words; byte 3 is written twice with one value.
    storeLE(Out, static_cast<std::uint32_t>(V));
    storeLE(Out + 3, static_cast<std::uint32_t>(V >> 24));
  } else {
    static_assert(W == 8, "widths run 1..8");
    storeLE(Out, V);
  }
}

/// Loads \p W little-endian bytes as at most two fixed-width words.
template <std::uint64_t W> std::uint64_t loadWidth(const std::uint8_t *In) {
  if constexpr (W == 1)
    return *In;
  else if constexpr (W == 2)
    return loadLE<std::uint16_t>(In);
  else if constexpr (W == 3)
    return loadLE<std::uint16_t>(In) | std::uint64_t{In[2]} << 16;
  else if constexpr (W == 4)
    return loadLE<std::uint32_t>(In);
  else if constexpr (W == 5)
    return loadLE<std::uint32_t>(In) | std::uint64_t{In[4]} << 32;
  else if constexpr (W == 6)
    return loadLE<std::uint32_t>(In) |
           std::uint64_t{loadLE<std::uint16_t>(In + 4)} << 32;
  else if constexpr (W == 7)
    return loadLE<std::uint32_t>(In) |
           std::uint64_t{loadLE<std::uint32_t>(In + 3)} << 24;
  else {
    static_assert(W == 8, "widths run 1..8");
    return loadLE<std::uint64_t>(In);
  }
}

/// Runs \p Column with the width \p W (1..8) as a compile-time constant,
/// so each width gets its own loop.
template <typename Fn> void withWidth(std::uint64_t W, Fn &&Column) {
  switch (W) {
  case 1:
    return Column(std::integral_constant<std::uint64_t, 1>{});
  case 2:
    return Column(std::integral_constant<std::uint64_t, 2>{});
  case 3:
    return Column(std::integral_constant<std::uint64_t, 3>{});
  case 4:
    return Column(std::integral_constant<std::uint64_t, 4>{});
  case 5:
    return Column(std::integral_constant<std::uint64_t, 5>{});
  case 6:
    return Column(std::integral_constant<std::uint64_t, 6>{});
  case 7:
    return Column(std::integral_constant<std::uint64_t, 7>{});
  case 8:
    return Column(std::integral_constant<std::uint64_t, 8>{});
  default:
    return; // width 0: an empty or all-zero column stores nothing
  }
}

/// A non-empty block's fixed fields and where its columns start.
struct Layout {
  std::uint64_t Count = 0;
  std::uint64_t Pc0 = 0;
  std::uint64_t Time0 = 0;
  std::uint64_t Stride = 0;
  std::uint64_t PcWidth = 0;
  std::uint64_t TimeWidth = 0;
  const std::uint8_t *Misses = nullptr;
  const std::uint8_t *Pcs = nullptr;
  const std::uint8_t *Times = nullptr;

  /// Values in the pc column, and in the time column.
  std::uint64_t pcValues() const { return Count - 1; }
  std::uint64_t timeValues() const { return Count < 2 ? 0 : Count - 2; }
};

bool failed(ByteReader &R) {
  R.fail();
  return false;
}

/// Reads a block's fixed fields from \p R and consumes its columns,
/// checking every rule that needs no column value. The count is checked
/// against the bytes present, by division, before anything is sized from
/// it. A zero count leaves \p L.Count 0 and consumes nothing more.
bool readLayout(ByteReader &R, Layout &L) {
  L.Count = R.u64();
  if (!R.ok() || L.Count == 0)
    return R.ok();
  L.Pc0 = R.u64();
  L.Time0 = R.u64();
  L.Stride = R.u64();
  L.PcWidth = R.u8();
  L.TimeWidth = R.u8();
  if (!R.ok() || L.PcWidth > 8 || L.TimeWidth > 8)
    return failed(R);
  const std::uint64_t PcValues = L.pcValues();
  if (PcValues == 0) {
    // One sample: nothing to stride over and two empty columns.
    if (L.Stride != 0 || L.PcWidth != 0 || L.TimeWidth != 0)
      return failed(R);
  } else if (L.PcWidth == 0 ||
             PcValues - 1 > R.remaining() / (L.PcWidth + L.TimeWidth)) {
    // Each sample after the second holds PcWidth + TimeWidth >= 1 bytes
    // (the second holds no time value). The view below is exact.
    return failed(R);
  }
  // Count <= remaining + 2 now, so none of these sums can wrap.
  const std::uint64_t BitmapBytes = L.Count / 8 + (L.Count % 8 != 0);
  const std::uint64_t PcBytes = PcValues * L.PcWidth;
  const std::uint64_t Total =
      BitmapBytes + PcBytes + L.timeValues() * L.TimeWidth;
  const std::uint8_t *In = R.view(Total).data();
  if (!R.ok())
    return false;
  if (L.Count % 8 != 0 && (In[BitmapBytes - 1] >> (L.Count % 8)) != 0)
    return failed(R); // padding bits past the last sample
  L.Misses = In;
  L.Pcs = In + BitmapBytes;
  L.Times = L.Pcs + PcBytes;
  return true;
}

/// Checks that \p L's widths are the least for columns whose values OR to
/// \p PcBits and \p TimeBits.
bool leastWidths(ByteReader &R, const Layout &L, std::uint64_t PcBits,
                 std::uint64_t TimeBits) {
  if (L.PcWidth != pcWidthFor(L.pcValues(), PcBits) ||
      L.TimeWidth != leastBytes(TimeBits))
    return failed(R);
  return true;
}

/// The OR of a column's \p N values of width \p W.
std::uint64_t orColumn(std::uint64_t W, const std::uint8_t *In,
                       std::uint64_t N) {
  std::uint64_t Bits = 0;
  withWidth(W, [&Bits, In, N](auto Width) {
    const std::uint8_t *At = In;
    std::uint64_t Or = 0;
    for (std::uint64_t I = 0; I < N; ++I, At += Width)
      Or |= loadWidth<Width>(At);
    Bits = Or;
  });
  return Bits;
}

// The column loops. Each keeps its running values in locals: the column
// bytes are accessed as unsigned char, which may alias anything, so a
// value read back from memory would be reloaded after every store.

void storeMisses(std::uint8_t *Out, const Sample *S, std::uint64_t Count) {
  const auto Bit = [S](std::uint64_t I, std::uint64_t Shift) {
    return static_cast<std::uint32_t>(S[I].DCacheMiss) << Shift;
  };
  std::uint64_t I = 0;
  for (; I + 8 <= Count; I += 8)
    *Out++ = static_cast<std::uint8_t>(
        Bit(I, 0) | Bit(I + 1, 1) | Bit(I + 2, 2) | Bit(I + 3, 3) |
        Bit(I + 4, 4) | Bit(I + 5, 5) | Bit(I + 6, 6) | Bit(I + 7, 7));
  if (I < Count) {
    std::uint32_t Bits = 0;
    for (std::uint64_t J = I; J < Count; ++J)
      Bits |= Bit(J, J - I);
    *Out = static_cast<std::uint8_t>(Bits);
  }
}

template <std::uint64_t W>
void storePcs(std::uint8_t *Out, const Sample *S, std::uint64_t Count) {
  std::uint64_t Prev = S[0].Pc;
  for (std::uint64_t I = 1; I < Count; ++I, Out += W) {
    const std::uint64_t Pc = S[I].Pc;
    storeWidth<W>(Out, zigzag(Pc - Prev));
    Prev = Pc;
  }
}

template <std::uint64_t W>
void storeTimes(std::uint8_t *Out, const Sample *S, std::uint64_t Count,
                std::uint64_t Stride) {
  std::uint64_t Prev = S[1].Time;
  for (std::uint64_t I = 2; I < Count; ++I, Out += W) {
    const std::uint64_t Time = S[I].Time;
    storeWidth<W>(Out, zigzag(Time - Prev - Stride));
    Prev = Time;
  }
}

/// Fills S[1..Count) from the pc column and the miss bitmap, and, when
/// every time step is the stride (\p Strided: a width-0 time column), the
/// times too; returns the OR of the pc column's values. One pass, so each
/// sample is written while its cache line is hot.
template <std::uint64_t W, bool Strided>
std::uint64_t loadColumns(Sample *S, const Layout &L) {
  const std::uint8_t *In = L.Pcs;
  const std::uint8_t *Misses = L.Misses;
  const std::uint64_t Count = L.Count;
  const std::uint64_t Stride = L.Stride;
  std::uint64_t Pc = L.Pc0;
  std::uint64_t Time = L.Time0;
  std::uint64_t Bits = 0;
  for (std::uint64_t I = 1; I < Count; ++I, In += W) {
    const std::uint64_t Z = loadWidth<W>(In);
    Bits |= Z;
    Pc += unzigzag(Z);
    S[I].Pc = Pc;
    if constexpr (Strided) {
      Time += Stride;
      S[I].Time = Time;
    }
    S[I].DCacheMiss = ((Misses[I / 8] >> (I % 8)) & 1U) != 0;
  }
  return Bits;
}

/// Fills S[2..Count) from the time column, S[1] holding \p Time; returns
/// the OR of its values.
template <std::uint64_t W>
std::uint64_t loadTimes(Sample *S, const std::uint8_t *In, std::uint64_t Count,
                        std::uint64_t Time, std::uint64_t Stride) {
  std::uint64_t Bits = 0;
  for (std::uint64_t I = 2; I < Count; ++I, In += W) {
    const std::uint64_t Z = loadWidth<W>(In);
    Bits |= Z;
    Time += Stride + unzigzag(Z);
    S[I].Time = Time;
  }
  return Bits;
}

} // namespace

void regmon::persist::encodeSampleBlock(ByteWriter &W,
                                        std::span<const Sample> Samples) {
  const std::uint64_t Count = Samples.size();
  if (Count == 0) {
    W.u64(0);
    return;
  }
  const Sample *S = Samples.data();
  const std::uint64_t Stride = Count > 1 ? S[1].Time - S[0].Time : 0;
  // Pass 1: the widths. Sample 1's time difference from the stride is 0
  // by definition, so including it changes no width.
  std::uint64_t PcBits = 0;
  std::uint64_t TimeBits = 0;
  for (std::uint64_t I = 1; I < Count; ++I) {
    PcBits |= zigzag(S[I].Pc - S[I - 1].Pc);
    TimeBits |= zigzag(S[I].Time - S[I - 1].Time - Stride);
  }
  Layout L;
  L.Count = Count;
  L.PcWidth = pcWidthFor(L.pcValues(), PcBits);
  L.TimeWidth = leastBytes(TimeBits);
  const std::uint64_t BitmapBytes = Count / 8 + (Count % 8 != 0);
  const std::uint64_t PcBytes = L.pcValues() * L.PcWidth;
  std::uint8_t *Out =
      W.extend(SampleBlockHeaderBytes + BitmapBytes + PcBytes +
               L.timeValues() * L.TimeWidth);
  storeLE<std::uint64_t>(Out, Count);
  storeLE<std::uint64_t>(Out + 8, S[0].Pc);
  storeLE<std::uint64_t>(Out + 16, S[0].Time);
  storeLE<std::uint64_t>(Out + 24, Stride);
  Out[32] = static_cast<std::uint8_t>(L.PcWidth);
  Out[33] = static_cast<std::uint8_t>(L.TimeWidth);

  // Pass 2: the columns.
  std::uint8_t *Misses = Out + SampleBlockHeaderBytes;
  std::uint8_t *Pcs = Misses + BitmapBytes;
  std::uint8_t *Times = Pcs + PcBytes;
  storeMisses(Misses, S, Count);
  withWidth(L.PcWidth,
            [=](auto Width) { storePcs<Width>(Pcs, S, Count); });
  withWidth(L.TimeWidth, [=](auto Width) {
    storeTimes<Width>(Times, S, Count, Stride);
  });
}

bool regmon::persist::decodeSampleBlock(ByteReader &R,
                                        std::vector<Sample> &Out) {
  Layout L;
  if (!readLayout(R, L))
    return false;
  Out.resize(L.Count);
  if (L.Count == 0)
    return true;
  Sample *S = Out.data();
  const std::uint64_t Count = L.Count;
  S[0] = {L.Pc0, L.Time0, (L.Misses[0] & 1U) != 0};
  if (Count == 1)
    return true;
  const bool Strided = L.TimeWidth == 0;
  std::uint64_t PcBits = 0;
  withWidth(L.PcWidth, [&PcBits, S, &L, Strided](auto Width) {
    PcBits = Strided ? loadColumns<Width, true>(S, L)
                     : loadColumns<Width, false>(S, L);
  });
  std::uint64_t TimeBits = 0;
  withWidth(L.TimeWidth, [&TimeBits, S, &L](auto Width) {
    TimeBits = loadTimes<Width>(S, L.Times, L.Count, L.Time0 + L.Stride,
                                L.Stride);
  });
  if (!Strided)
    S[1].Time = L.Time0 + L.Stride;
  return leastWidths(R, L, PcBits, TimeBits);
}

bool regmon::persist::checkSampleBlock(ByteReader &R) {
  Layout L;
  if (!readLayout(R, L))
    return false;
  if (L.Count == 0)
    return true;
  return leastWidths(R, L, orColumn(L.PcWidth, L.Pcs, L.pcValues()),
                     orColumn(L.TimeWidth, L.Times, L.timeValues()));
}
