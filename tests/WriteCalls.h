//===- tests/WriteCalls.h - The process's write(2) call count --*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Reads the `syscw` line of /proc/self/io: how many write-family system
// calls (write, writev, pwrite, ...) the process has made. A test that
// brackets an operation with two reads counts the calls it issued, as
// long as no other thread writes meanwhile. Where the file cannot be read
// (not Linux, or no procfs) the count is std::nullopt and the test skips.
//
//===----------------------------------------------------------------------===//

#ifndef REGMON_TESTS_WRITECALLS_H
#define REGMON_TESTS_WRITECALLS_H

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

namespace regmon::persisttest {

inline std::optional<std::uint64_t> writeCalls() {
  std::ifstream In("/proc/self/io");
  std::string Key;
  std::uint64_t Value = 0;
  while (In >> Key >> Value)
    if (Key == "syscw:")
      return Value;
  return std::nullopt;
}

} // namespace regmon::persisttest

#endif // REGMON_TESTS_WRITECALLS_H
