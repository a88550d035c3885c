// Fixture: a REGMON_PURE decision root that reaches a POSIX write through
// a helper. The root's body is token-clean; only the graph pass, with
// ::writev counted as I/O in the effect lattice, can convict it. Linted
// with a Layer::Deterministic override.

#include "support/Contracts.h"

#include <sys/uio.h>

namespace fixture {

inline long persistDecision(int Fd, const iovec *Pieces) {
  return ::writev(Fd, Pieces, 1);
}

REGMON_PURE inline long decideAndLog(long State, int Fd,
                                     const iovec *Pieces) {
  return State + persistDecision(Fd, Pieces);
}

} // namespace fixture
