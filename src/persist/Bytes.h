//===- persist/Bytes.h - Bounds-checked binary encoding --------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian binary encoding primitives for snapshot and journal
/// payloads. The reader is the trust boundary of the whole durability
/// layer: every field it hands out has been bounds-checked against the
/// remaining input first, every length prefix is validated against the
/// bytes actually present before a single element is allocated, and the
/// first failed read latches a sticky failure flag that makes every later
/// read return zero. Decoding arbitrary hostile bytes is therefore memory
/// safe by construction -- corruption can only produce `ok() == false`,
/// never an out-of-bounds access or an unbounded allocation.
///
/// All integers are serialized as fixed-width little-endian values and all
/// doubles as their raw IEEE-754 bit patterns (recomputing a sum on load
/// would change last-ulp accumulation and break bit-identical recovery).
/// Each field moves as one std::memcpy of its native representation,
/// byte-swapped first on a big-endian host, so the wire bytes are the
/// same on every platform and no field is assembled a byte at a time.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERSIST_BYTES_H
#define REGMON_PERSIST_BYTES_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace regmon::persist {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "wire words are stored little-endian from either byte order");

/// Reverses the byte order of \p V (std::byteswap predates our C++20).
template <typename T> constexpr T byteSwap(T V) {
  T Out = 0;
  for (std::uint64_t I = 0; I < sizeof(T); ++I) {
    Out = static_cast<T>((Out << 8) | (V & 0xFFU));
    V = static_cast<T>(V >> 8);
  }
  return Out;
}
static_assert(byteSwap<std::uint32_t>(0x01020304U) == 0x04030201U);

/// Stores \p V at \p Out as sizeof(T) little-endian bytes.
template <typename T> void storeLE(std::uint8_t *Out, T V) {
  static_assert(std::is_unsigned_v<T>, "wire words are unsigned");
  if constexpr (std::endian::native == std::endian::big)
    V = byteSwap(V);
  std::memcpy(Out, &V, sizeof(T));
}

/// Loads sizeof(T) little-endian bytes from \p In.
template <typename T> T loadLE(const std::uint8_t *In) {
  static_assert(std::is_unsigned_v<T>, "wire words are unsigned");
  T V = 0;
  std::memcpy(&V, In, sizeof(T));
  if constexpr (std::endian::native == std::endian::big)
    V = byteSwap(V);
  return V;
}

/// Appends little-endian fields to a growable byte buffer.
class ByteWriter {
public:
  /// Pre-sizes the buffer for \p Total bytes of upcoming output. Purely
  /// an allocation hint -- hot encoders (the flight recorder's per-batch
  /// payloads) call it to avoid growth reallocations mid-record.
  void reserve(std::uint64_t Total) { Buf.reserve(Total); }

  /// Grows the buffer by \p N bytes and returns where they start, so a
  /// block encoder can size its output once and fill it in place. The
  /// pointer is valid until the next write.
  std::uint8_t *extend(std::uint64_t N) {
    const std::uint64_t At = Buf.size();
    Buf.resize(At + N);
    return Buf.data() + At;
  }

  void u8(std::uint8_t V) { Buf.push_back(V); }

  void u32(std::uint32_t V) { storeLE(extend(4), V); }

  void u64(std::uint64_t V) { storeLE(extend(8), V); }

  void f64(double V) { u64(std::bit_cast<std::uint64_t>(V)); }

  void boolean(bool V) { u8(V ? 1 : 0); }

  void bytes(std::span<const std::uint8_t> Data) {
    if (!Data.empty())
      std::memcpy(extend(Data.size()), Data.data(), Data.size());
  }

  /// Length-prefixed (u64) UTF-8/opaque string.
  void str(std::string_view S) {
    u64(S.size());
    bytes({reinterpret_cast<const std::uint8_t *>(S.data()), S.size()});
  }

  /// Length-prefixed (u64 element count) vectors.
  void vecU32(std::span<const std::uint32_t> V) {
    u64(V.size());
    for (std::uint32_t X : V)
      u32(X);
  }
  void vecU64(std::span<const std::uint64_t> V) {
    u64(V.size());
    for (std::uint64_t X : V)
      u64(X);
  }
  void vecF64(std::span<const double> V) {
    u64(V.size());
    for (double X : V)
      f64(X);
  }

  std::span<const std::uint8_t> data() const { return Buf; }
  std::uint64_t size() const { return Buf.size(); }
  std::vector<std::uint8_t> take() { return std::move(Buf); }

private:
  std::vector<std::uint8_t> Buf;
};

/// Consumes little-endian fields from an immutable byte view. See the file
/// comment for the safety contract; callers check \ref ok once after a
/// group of reads rather than after every field.
class ByteReader {
public:
  explicit ByteReader(std::span<const std::uint8_t> Data) : Buf(Data) {}

  bool ok() const { return !Failed; }
  /// Latches the sticky failure flag (also used by callers to reject
  /// semantically invalid values mid-decode).
  void fail() { Failed = true; }
  std::uint64_t remaining() const { return Buf.size() - Pos; }
  /// True when every byte has been consumed; decode routines require this
  /// at the end so trailing garbage is rejected, not ignored.
  bool atEnd() const { return !Failed && Pos == Buf.size(); }

  std::uint8_t u8() {
    if (!take(1))
      return 0;
    return Buf[Pos - 1];
  }

  std::uint32_t u32() {
    return take(4) ? loadLE<std::uint32_t>(Buf.data() + Pos - 4) : 0;
  }

  std::uint64_t u64() {
    return take(8) ? loadLE<std::uint64_t>(Buf.data() + Pos - 8) : 0;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  /// A serialized bool must be exactly 0 or 1; anything else is corruption.
  bool boolean() {
    const std::uint8_t V = u8();
    if (V > 1)
      fail();
    return V == 1;
  }

  /// Length-prefixed string. The length is validated against the remaining
  /// bytes before the string is built.
  bool str(std::string &Out) {
    const std::uint64_t Len = u64();
    if (Failed || Len > remaining()) {
      fail();
      return false;
    }
    Out.assign(reinterpret_cast<const char *>(Buf.data() + Pos), Len);
    Pos += Len;
    return true;
  }

  bool vecU32(std::vector<std::uint32_t> &Out) {
    const std::uint64_t Len = u64();
    if (Failed || Len > remaining() / 4) {
      fail();
      return false;
    }
    Out.clear();
    Out.reserve(Len);
    for (std::uint64_t I = 0; I < Len; ++I)
      Out.push_back(u32());
    return ok();
  }

  bool vecU64(std::vector<std::uint64_t> &Out) {
    const std::uint64_t Len = u64();
    if (Failed || Len > remaining() / 8) {
      fail();
      return false;
    }
    Out.clear();
    Out.reserve(Len);
    for (std::uint64_t I = 0; I < Len; ++I)
      Out.push_back(u64());
    return ok();
  }

  bool vecF64(std::vector<double> &Out) {
    const std::uint64_t Len = u64();
    if (Failed || Len > remaining() / 8) {
      fail();
      return false;
    }
    Out.clear();
    Out.reserve(Len);
    for (std::uint64_t I = 0; I < Len; ++I)
      Out.push_back(f64());
    return ok();
  }

  /// Reads exactly Out.size() raw bytes.
  bool bytes(std::span<std::uint8_t> Out) {
    const std::span<const std::uint8_t> In = view(Out.size());
    if (!ok())
      return false;
    if (!In.empty())
      std::memcpy(Out.data(), In.data(), In.size());
    return true;
  }

  /// Consumes \p N bytes and returns them as a view into the input (no
  /// copy); an empty view when fewer than \p N remain, which fails the
  /// reader.
  std::span<const std::uint8_t> view(std::uint64_t N) {
    if (!take(N))
      return {};
    return Buf.subspan(Pos - N, N);
  }

private:
  /// Advances past \p N bytes if present; latches failure otherwise.
  bool take(std::uint64_t N) {
    if (Failed || N > remaining()) {
      Failed = true;
      return false;
    }
    Pos += N;
    return true;
  }

  std::span<const std::uint8_t> Buf;
  std::uint64_t Pos = 0;
  bool Failed = false;
};

} // namespace regmon::persist

#endif // REGMON_PERSIST_BYTES_H
