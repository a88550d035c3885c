//===- tests/CoreCodeMapTest.cpp - The formable-region table --------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CodeMap.h"

#include "sim/Program.h"
#include "sim/ProgramCodeMap.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace regmon;
using namespace regmon::core;

namespace {

/// The per-PC scan the table replaced: the first listed of the smallest
/// regionable loops containing \p Pc, or nullptr.
const sim::Loop *linearRegionFor(const sim::Program &P, Addr Pc) {
  const sim::Loop *Best = nullptr;
  for (const sim::Loop &L : P.loops()) {
    if (!L.Regionable || Pc < L.Start || Pc >= L.End)
      continue;
    if (!Best || L.End - L.Start < Best->End - Best->Start)
      Best = &L;
  }
  return Best;
}

/// Checks the table's answer for \p Pc against the linear scan.
void expectScanAnswer(const CodeMap &Map, const sim::Program &P, Addr Pc) {
  const sim::Loop *Want = linearRegionFor(P, Pc);
  const CodeRegionInfo *Got = Map.regionFor(Pc);
  if (Want == nullptr) {
    ASSERT_EQ(Got, nullptr) << "pc 0x" << std::hex << Pc;
    return;
  }
  ASSERT_NE(Got, nullptr) << "pc 0x" << std::hex << Pc;
  ASSERT_EQ(Got->Start, Want->Start) << "pc 0x" << std::hex << Pc;
  ASSERT_EQ(Got->End, Want->End) << "pc 0x" << std::hex << Pc;
  ASSERT_EQ(Got->Name, Want->Name) << "pc 0x" << std::hex << Pc;
}

/// Checks every instruction address of \p P, 0 and one past its last
/// loop. Returns how many addresses were checked.
std::size_t expectScanAnswers(const sim::Program &P) {
  const sim::ProgramCodeMap Map(P);
  std::vector<Addr> Pcs = {0};
  for (const sim::Procedure &Proc : P.procedures())
    for (Addr Pc = Proc.Start; Pc < Proc.End; Pc += InstrBytes)
      Pcs.push_back(Pc);
  Addr LastLoopEnd = 0;
  for (const sim::Loop &L : P.loops())
    LastLoopEnd = std::max(LastLoopEnd, L.End);
  Pcs.push_back(LastLoopEnd);
  for (Addr Pc : Pcs) {
    expectScanAnswer(Map, P, Pc);
    if (::testing::Test::HasFatalFailure())
      break;
  }
  return Pcs.size();
}

TEST(CodeMap, MatchesTheLinearScanOnEveryWorkload) {
  for (const std::string &Name : workloads::allNames()) {
    SCOPED_TRACE(Name);
    const workloads::Workload W = workloads::make(Name);
    EXPECT_GT(expectScanAnswers(W.Prog), W.Prog.loops().size());
    if (HasFatalFailure())
      return;
  }
}

TEST(CodeMap, MatchesTheLinearScanOnTiesAndNesting) {
  // The cases no shipped workload may contain: equal-size overlapping
  // loops (the first listed wins the overlap), identical bounds, and a
  // regionable outer loop claiming a nested non-regionable one.
  sim::ProgramBuilder B("ties");
  const auto Proc = B.addProcedure("f", 0x1000, 0x4000);
  const sim::LoopId Loops[] = {
      B.addLoop(Proc, 0x1080, 0x1180),
      B.addLoop(Proc, 0x1000, 0x1100),
      B.addLoop(Proc, 0x2000, 0x2800),
      B.addLoop(Proc, 0x2200, 0x2300, /*Regionable=*/false),
      B.addLoop(Proc, 0x3000, 0x3100),
      B.addLoop(Proc, 0x3000, 0x3100),
      B.addLoop(Proc, 0x3800, 0x3900, /*Regionable=*/false),
  };
  for (sim::LoopId L : Loops)
    B.addHotSpotProfile(L, 1.0, {});
  const sim::Program P = B.build();
  expectScanAnswers(P);
  if (HasFatalFailure())
    return;

  const sim::ProgramCodeMap Map(P);
  ASSERT_NE(Map.regionFor(0x1090), nullptr);
  EXPECT_EQ(Map.regionFor(0x1090)->Start, 0x1080u) << "first listed wins";
  ASSERT_NE(Map.regionFor(0x2250), nullptr);
  EXPECT_EQ(Map.regionFor(0x2250)->Start, 0x2000u)
      << "the outer loop claims the non-regionable inner one";
  EXPECT_EQ(Map.regionFor(0x3850), nullptr);
}

TEST(CodeMap, EqualSizeLoopsFirstListedWins) {
  const CodeMap Map({{0x1080, 0x1180, "B"}, {0x1000, 0x1100, "A"}});
  EXPECT_EQ(Map.regionFor(0x1000)->Name, "A");
  EXPECT_EQ(Map.regionFor(0x10fc)->Name, "B") << "the overlap";
  EXPECT_EQ(Map.regionFor(0x1080)->Name, "B");
  EXPECT_EQ(Map.regionFor(0x1100)->Name, "B");
  EXPECT_EQ(Map.regionFor(0x1180), nullptr);

  const CodeMap Swapped({{0x1000, 0x1100, "A"}, {0x1080, 0x1180, "B"}});
  EXPECT_EQ(Swapped.regionFor(0x10fc)->Name, "A");
}

TEST(CodeMap, SmallestContainingRegionWinsRegardlessOfOrder) {
  const CodeMap Map({{0x1000, 0x1800, "outer"}, {0x1200, 0x1300, "inner"}});
  EXPECT_EQ(Map.regionFor(0x1100)->Name, "outer");
  EXPECT_EQ(Map.regionFor(0x1200)->Name, "inner");
  EXPECT_EQ(Map.regionFor(0x12fc)->Name, "inner");
  EXPECT_EQ(Map.regionFor(0x1300)->Name, "outer");
  EXPECT_EQ(Map.regionFor(0x1802), nullptr);
}

TEST(CodeMap, IdenticalBoundsAreOneCandidateNamedByTheFirst) {
  const CodeMap Map({{0x1000, 0x1100, "first"},
                     {0x2000, 0x2100, "other"},
                     {0x1000, 0x1100, "second"}});
  ASSERT_EQ(Map.candidateCount(), 2u);
  EXPECT_EQ(Map.candidate(0).Name, "first");
  EXPECT_EQ(Map.candidateFor(0x1040), 0u);
  EXPECT_EQ(Map.regionFor(0x1040)->Name, "first");
}

TEST(CodeMap, EmptyListFormsNothing) {
  for (const CodeMap &Map :
       {CodeMap(), CodeMap(std::vector<CodeRegionInfo>{})}) {
    EXPECT_EQ(Map.candidateCount(), 0u);
    for (Addr Pc : {Addr{0}, Addr{0x1000}, ~Addr{0}}) {
      EXPECT_EQ(Map.candidateFor(Pc), 0u) << "candidateCount(): none";
      EXPECT_EQ(Map.regionFor(Pc), nullptr);
    }
  }
}

TEST(CodeMap, RegionsThatAreNotWholeInstructionsAreLeftOut) {
  const CodeMap Map({{0x1000, 0x1000, "empty"},
                     {0x2000, 0x1000, "reversed"},
                     {0x3002, 0x3100, "unaligned"},
                     {0x4000, 0x4100, "ok"}});
  ASSERT_EQ(Map.candidateCount(), 1u);
  EXPECT_EQ(Map.candidate(0).Name, "ok");
  EXPECT_EQ(Map.regionFor(0x3050), nullptr);
}

TEST(CodeMap, CandidatesAreOrderedByStartThenEnd) {
  const CodeMap Map({{0x3000, 0x3100, "c"},
                     {0x1000, 0x1800, "a-outer"},
                     {0x2000, 0x2100, "b"},
                     {0x1000, 0x1100, "a-inner"}});
  ASSERT_EQ(Map.candidateCount(), 4u);
  const char *Want[] = {"a-inner", "a-outer", "b", "c"};
  for (CandidateId C = 0; C < 4; ++C)
    EXPECT_EQ(Map.candidate(C).Name, Want[C]) << C;
  EXPECT_EQ(Map.candidateFor(0x1050), 0u);
  EXPECT_EQ(Map.candidateFor(0x1150), 1u);
  EXPECT_EQ(Map.candidateFor(0x2050), 2u);
  EXPECT_EQ(Map.candidateFor(0x3050), 3u);
  EXPECT_EQ(Map.candidateFor(0x2800), 4u) << "between loops: none";
}

} // namespace
