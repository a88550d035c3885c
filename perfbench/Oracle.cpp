//===- perfbench/Oracle.cpp - Correctness oracle for every pass -----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "persist/Snapshot.h"

#include <chrono>
#include <cmath>
#include <memory>

using namespace regmon;

namespace perfbench {

Reference computeReference(const Inputs &In) {
  Reference Ref;
  std::vector<std::unique_ptr<core::RegionMonitor>> Monitors;
  for (const StreamModel &M : In.Streams)
    Monitors.push_back(std::make_unique<core::RegionMonitor>(*M.Map));
  Ref.Streams.resize(In.Streams.size());
  for (const service::SampleBatch &B : In.Batches) {
    core::RegionMonitor &Mon = *Monitors[B.Stream];
    StreamExpect &E = Ref.Streams[B.Stream];
    ++Ref.Batches;
    if (B.Samples.empty())
      continue;
    const auto Start = std::chrono::steady_clock::now();
    Mon.observeInterval(B.Samples);
    Ref.ObserveSeconds += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - Start)
                              .count();
    // The service derives UCR samples per interval the same way.
    E.UcrSamples += static_cast<std::uint64_t>(std::llround(
        Mon.lastUcrFraction() * static_cast<double>(B.Samples.size())));
    E.TotalSamples += B.Samples.size();
    Ref.Samples += B.Samples.size();
    ++E.Intervals;
  }
  for (std::size_t I = 0; I < Monitors.size(); ++I) {
    Ref.Streams[I].PhaseChanges = Monitors[I]->totalPhaseChanges();
    Ref.Streams[I].FormationTriggers = Monitors[I]->formationTriggers();
    Ref.Streams[I].RegionsFormed = Monitors[I]->regions().size();
  }
  return Ref;
}

std::vector<std::string> checkSnapshot(const service::ServiceSnapshot &Snap,
                                       const Reference &Ref) {
  std::vector<std::string> Out;
  const auto Expect = [&](const std::string &What, std::uint64_t Got,
                          std::uint64_t Want) {
    if (Got != Want)
      Out.push_back(What + ": got " + std::to_string(Got) + ", want " +
                    std::to_string(Want));
  };
  Expect("batches processed", Snap.BatchesProcessed, Ref.Batches);
  Expect("batches dropped", Snap.BatchesDropped, 0);
  Expect("batches rejected", Snap.BatchesRejected, 0);
  Expect("batches refused", Snap.BatchesPoisoned + Snap.BatchesQuarantined, 0);
  Expect("streams", Snap.Streams.size(), Ref.Streams.size());
  for (std::size_t I = 0;
       I < Snap.Streams.size() && I < Ref.Streams.size(); ++I) {
    const service::StreamSnapshot &S = Snap.Streams[I];
    const StreamExpect &E = Ref.Streams[I];
    const std::string Tag = "stream " + std::to_string(I) + " ";
    Expect(Tag + "intervals", S.IntervalsProcessed, E.Intervals);
    Expect(Tag + "phase changes", S.PhaseChanges, E.PhaseChanges);
    Expect(Tag + "formation triggers", S.FormationTriggers,
           E.FormationTriggers);
    Expect(Tag + "regions formed", S.RegionsFormed, E.RegionsFormed);
    Expect(Tag + "samples", S.TotalSamples, E.TotalSamples);
    Expect(Tag + "UCR samples", S.UcrSamples, E.UcrSamples);
  }
  return Out;
}

std::vector<std::string> compareStates(const std::vector<std::uint8_t> &Got,
                                       const std::vector<std::uint8_t> &Want,
                                       bool IgnoreJournalCursor) {
  if (!IgnoreJournalCursor)
    return Got == Want ? std::vector<std::string>{}
                       : std::vector<std::string>{"encoded state differs"};
  std::vector<persist::SnapshotSection> G, W;
  if (persist::decodeSnapshot(Got, G) != persist::SnapshotError::None ||
      persist::decodeSnapshot(Want, W) != persist::SnapshotError::None)
    return {"encoded state does not decode"};
  if (G.size() != W.size())
    return {"encoded state section count differs"};
  std::vector<std::string> Out;
  for (std::size_t I = 0; I < G.size(); ++I) {
    std::vector<std::uint8_t> A = G[I].Payload, B = W[I].Payload;
    // Section 0 is the meta section; its first field is the cursor.
    if (I == 0 && A.size() >= 8 && B.size() >= 8) {
      A.erase(A.begin(), A.begin() + 8);
      B.erase(B.begin(), B.begin() + 8);
    }
    if (G[I].Id != W[I].Id || A != B)
      Out.push_back("encoded state section " + std::to_string(I) +
                    " differs");
  }
  return Out;
}

} // namespace perfbench
