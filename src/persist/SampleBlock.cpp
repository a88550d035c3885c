//===- persist/SampleBlock.cpp - Bulk sample-block codec ------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/SampleBlock.h"

using namespace regmon;
using namespace regmon::persist;

void regmon::persist::encodeSampleBlock(ByteWriter &W,
                                        std::span<const Sample> Samples) {
  std::uint8_t *Out = W.extend(sampleBlockBytes(Samples.size()));
  storeLE<std::uint64_t>(Out, Samples.size());
  Out += 8;
  for (const Sample &S : Samples) {
    storeLE<std::uint64_t>(Out, S.Pc);
    storeLE<std::uint64_t>(Out + 8, S.Time);
    Out[16] = S.DCacheMiss ? 1 : 0;
    Out += SampleWireBytes;
  }
}

bool regmon::persist::decodeSampleBlock(ByteReader &R,
                                        std::vector<Sample> &Out) {
  const std::uint64_t Count = R.u64();
  // Validate the count against the bytes actually present before a
  // single element is allocated: a hostile count can only fail cleanly.
  // (Dividing, not multiplying: Count * 17 could wrap.)
  if (!R.ok() || Count > R.remaining() / SampleWireBytes) {
    R.fail();
    return false;
  }
  const std::uint8_t *In = R.view(Count * SampleWireBytes).data();
  Out.resize(Count);
  for (Sample &S : Out) {
    const std::uint8_t Miss = In[16];
    if (Miss > 1) {
      R.fail(); // a serialized bool is exactly 0 or 1
      return false;
    }
    S.Pc = loadLE<std::uint64_t>(In);
    S.Time = loadLE<std::uint64_t>(In + 8);
    S.DCacheMiss = Miss == 1;
    In += SampleWireBytes;
  }
  return true;
}
