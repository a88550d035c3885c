// Fixture: discarded POSIX write results. The test lints this with the
// path src/persist/persist_writev_bad.cpp, where the rule applies. The
// two dropped results are flagged; the checked call and the member call
// of the same name are not.
#include <sys/uio.h>
#include <unistd.h>

#include <cstdint>

namespace regmon::persist {

struct Sink {
  bool write(const std::uint8_t *Data, std::uint64_t Len);
};

inline void appendBad(std::int32_t Fd, const iovec *Pieces) {
  ::writev(Fd, Pieces, 2); // transfer count dropped
}

inline void headerBad(std::int32_t Fd, const std::uint8_t *Head) {
  if (Fd >= 0)
    write(Fd, Head, 17); // dropped in statement position after ')'
}

inline bool appendGood(std::int32_t Fd, const iovec *Pieces,
                       std::uint64_t Want) {
  const auto Wrote = ::writev(Fd, Pieces, 2);
  return Wrote >= 0 && static_cast<std::uint64_t>(Wrote) == Want;
}

inline void memberCall(Sink &S, const std::uint8_t *Data) {
  S.write(Data, 4); // the sink's own result, not a POSIX call
}

} // namespace regmon::persist
