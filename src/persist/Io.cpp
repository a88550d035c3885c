//===- persist/Io.cpp - Crash-injectable durable file I/O -----------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/Io.h"

#include <filesystem>
#include <system_error>

using namespace regmon::persist;

FileSink::FileSink(const std::string &Path, bool Append, CrashPoint *CP)
    : Crash(CP) {
  File = std::fopen(Path.c_str(), Append ? "ab" : "wb");
}

FileSink::~FileSink() {
  if (File != nullptr) {
    if (std::fclose(File) != 0)
      Failed = true;
    File = nullptr;
  }
}

bool FileSink::write(std::span<const std::uint8_t> Data) {
  if (!ok())
    return false;
  std::uint64_t Allowed = Data.size();
  if (Crash != nullptr)
    Allowed = Crash->grantBytes(Data.size());
  if (Allowed > 0 &&
      std::fwrite(Data.data(), 1, Allowed, File) != Allowed) {
    Failed = true;
    return false;
  }
  if (Allowed < Data.size()) {
    // The injected crash truncated this write: flush what survived so the
    // torn prefix is really on disk, then stay failed forever.
    if (std::fflush(File) != 0) {
      Failed = true;
      return false;
    }
    Failed = true;
    return false;
  }
  return true;
}

bool FileSink::flush() {
  if (!ok())
    return false;
  if (Crash != nullptr && !Crash->grantOp()) {
    Failed = true;
    return false;
  }
  if (std::fflush(File) != 0) {
    Failed = true;
    return false;
  }
  return true;
}

bool FileSink::close() {
  const bool WasOk = flush();
  bool CloseOk = true;
  if (File != nullptr) {
    CloseOk = std::fclose(File) == 0;
    File = nullptr;
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
