// Fixture: a REGMON_HOT root calling a helper declared with a GNU target
// attribute, the shape of an ISA-specific kernel. The declaration parser
// must skip `__attribute__((...))` and record the helper under its own
// name, so the graph follows the call and convicts the allocation below.
// The same attribute before a class name must leave the class its name.
// Linted with a Layer::Deterministic override.

#include "support/Contracts.h"

namespace fixture {

__attribute__((target("pclmul"))) inline int *clmulHelper() {
  return new int(1);
}

REGMON_HOT inline int hotClmulRoot() { return *clmulHelper(); }

struct __attribute__((aligned(16))) Lanes {
  int sum() const { return 0; }
};

} // namespace fixture
