//===- persist/Io.cpp - Crash-injectable durable file I/O -----------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/Io.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <system_error>

using namespace regmon::persist;

FileSink::FileSink(const std::string &Path, bool Append, CrashPoint *CP)
    : Crash(CP) {
  Fd = ::open(Path.c_str(),
              O_WRONLY | O_CREAT | O_CLOEXEC | (Append ? O_APPEND : O_TRUNC),
              0666);
}

FileSink::~FileSink() {
  if (Fd >= 0 && ::close(Fd) != 0)
    Failed = true;
}

bool FileSink::write(std::span<const std::uint8_t> Head,
                     std::span<const std::uint8_t> Tail) {
  if (!ok())
    return false;
  const std::uint64_t Want = Head.size() + Tail.size();
  const std::uint64_t Allowed =
      Crash != nullptr ? Crash->grantBytes(Want) : Want;
  // The granted prefix of Head + Tail, as at most two pieces.
  const std::uint64_t FromHead = std::min<std::uint64_t>(Allowed, Head.size());
  iovec Pieces[2];
  std::int32_t Count = 0;
  if (FromHead > 0)
    Pieces[Count++] = {const_cast<std::uint8_t *>(Head.data()), FromHead};
  if (Allowed > FromHead)
    Pieces[Count++] = {const_cast<std::uint8_t *>(Tail.data()),
                       Allowed - FromHead};
  if (Count > 0) {
    auto Wrote = ::writev(Fd, Pieces, Count);
    while (Wrote < 0 && errno == EINTR)
      Wrote = ::writev(Fd, Pieces, Count);
    if (Wrote < 0 || static_cast<std::uint64_t>(Wrote) != Allowed) {
      Failed = true;
      return false;
    }
  }
  // An injected crash tore this write: the granted prefix is on disk, and
  // the sink stays failed forever.
  if (Allowed < Want) {
    Failed = true;
    return false;
  }
  return true;
}

bool FileSink::acknowledge() {
  if (!ok())
    return false;
  if (Crash != nullptr && !Crash->grantOp()) {
    Failed = true;
    return false;
  }
  return true;
}

bool FileSink::close() {
  const bool WasOk = acknowledge();
  bool CloseOk = true;
  if (Fd >= 0) {
    CloseOk = ::close(Fd) == 0;
    Fd = -1;
  }
  return WasOk && CloseOk;
}

std::optional<std::vector<std::uint8_t>>
regmon::persist::readFileBytes(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (F == nullptr)
    return std::nullopt;
  // One read sized from the file as it stands. A path file_size cannot
  // measure (a directory, say) starts empty and is left to the chunked
  // read, whose fread sets the error flag.
  std::error_code Ec;
  const std::uint64_t Size = std::filesystem::file_size(Path, Ec);
  std::vector<std::uint8_t> Data(Ec ? 0 : Size);
  std::uint64_t Got = 0;
  if (!Data.empty())
    Got = std::fread(Data.data(), 1, Data.size(), F);
  if (Got == Data.size()) {
    // The file may have grown since it was measured: read on to EOF.
    std::uint8_t Chunk[4096];
    for (;;) {
      const auto N = std::fread(Chunk, 1, sizeof(Chunk), F);
      Data.insert(Data.end(), Chunk, Chunk + N);
      if (N < sizeof(Chunk))
        break;
    }
  } else {
    Data.resize(Got);
  }
  const bool HadError = std::ferror(F) != 0;
  if (std::fclose(F) != 0 || HadError)
    return std::nullopt;
  return Data;
}

bool regmon::persist::fileExists(const std::string &Path) {
  std::error_code Ec;
  return std::filesystem::exists(Path, Ec) && !Ec;
}

bool regmon::persist::renameFile(const std::string &From,
                                 const std::string &To, CrashPoint *Crash) {
  if (Crash != nullptr && !Crash->grantOp())
    return false;
  std::error_code Ec;
  std::filesystem::rename(From, To, Ec);
  return !Ec;
}

bool regmon::persist::ensureDir(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  std::error_code Ec2;
  return std::filesystem::is_directory(Dir, Ec2) && !Ec2;
}
