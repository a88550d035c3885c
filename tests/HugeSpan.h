//===- tests/HugeSpan.h - A payload too long for a u32 length --*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// A read-only byte span of 4 GiB + 1 bytes over a sparse anonymous
// mapping: the shortest payload a record's u32 length field cannot frame.
// Appends must refuse it before reading or writing a byte, so the pages
// are never touched and the span costs address space, not memory.
//
//===----------------------------------------------------------------------===//

#ifndef REGMON_TESTS_HUGESPAN_H
#define REGMON_TESTS_HUGESPAN_H

#include <sys/mman.h>

#include <cstdint>
#include <span>

namespace regmon::persisttest {

class HugeSpan {
public:
  static constexpr std::uint64_t Bytes = (std::uint64_t{1} << 32) + 1;

  HugeSpan()
      : Base(::mmap(nullptr, Bytes, PROT_READ,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0)) {}
  ~HugeSpan() {
    if (ok())
      ::munmap(Base, Bytes);
  }

  HugeSpan(const HugeSpan &) = delete;
  HugeSpan &operator=(const HugeSpan &) = delete;

  bool ok() const { return Base != MAP_FAILED; }

  std::span<const std::uint8_t> bytes() const {
    return {static_cast<const std::uint8_t *>(Base), Bytes};
  }

private:
  void *Base;
};

} // namespace regmon::persisttest

#endif // REGMON_TESTS_HUGESPAN_H
