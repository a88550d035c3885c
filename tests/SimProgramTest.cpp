//===- tests/SimProgramTest.cpp - Program model ---------------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Program.h"

#include "sim/ProgramCodeMap.h"

#include <gtest/gtest.h>

using namespace regmon;
using namespace regmon::sim;

namespace {

Program makeNestedProgram() {
  ProgramBuilder B("nested");
  const auto P = B.addProcedure("main", 0x1000, 0x3000);
  const LoopId Outer = B.addLoop(P, 0x1100, 0x1a00);
  const LoopId Inner = B.addLoop(P, 0x1400, 0x1500);
  const LoopId NonReg = B.addLoop(P, 0x2000, 0x2100, /*Regionable=*/false);
  B.addHotSpotProfile(Outer, 1.0, {});
  B.addHotSpotProfile(Inner, 1.0, {});
  B.addHotSpotProfile(NonReg, 1.0, {});
  return B.build();
}

TEST(Program, BuilderAssignsDenseLoopIds) {
  const Program P = makeNestedProgram();
  ASSERT_EQ(P.loops().size(), 3u);
  for (std::uint32_t I = 0; I < 3; ++I)
    EXPECT_EQ(P.loop(I).Id, I);
}

TEST(Program, LoopNamesUseHexBounds) {
  const Program P = makeNestedProgram();
  EXPECT_EQ(P.loop(0).Name, "1100-1a00");
  EXPECT_EQ(P.loop(1).Name, "1400-1500");
}

TEST(Program, InstrCount) {
  const Program P = makeNestedProgram();
  EXPECT_EQ(P.loop(1).instrCount(), (0x1500u - 0x1400u) / 4);
}

TEST(Program, LoopContainingReturnsInnermost) {
  const Program P = makeNestedProgram();
  EXPECT_EQ(P.loopContaining(0x1450).value(), 1u) << "inner loop wins";
  EXPECT_EQ(P.loopContaining(0x1200).value(), 0u);
  EXPECT_EQ(P.loopContaining(0x2050).value(), 2u);
  EXPECT_FALSE(P.loopContaining(0x2f00).has_value());
  EXPECT_FALSE(P.loopContaining(0x0).has_value());
}

TEST(Program, ProfileWeightsCoverLoop) {
  ProgramBuilder B("p");
  const auto Proc = B.addProcedure("f", 0, 0x100);
  const LoopId L = B.addLoop(Proc, 0, 0x40); // 16 instructions
  const ProfileId Prof =
      B.addHotSpotProfile(L, 0.5, {{std::pair<std::size_t, double>{3, 10.0}}});
  const Program P = B.build();
  const auto W = P.profile(L, Prof);
  ASSERT_EQ(W.size(), 16u);
  EXPECT_DOUBLE_EQ(W[3], 10.5);
  EXPECT_DOUBLE_EQ(W[0], 0.5);
}

TEST(Program, ShiftedProfileRotates) {
  ProgramBuilder B("p");
  const auto Proc = B.addProcedure("f", 0, 0x100);
  const LoopId L = B.addLoop(Proc, 0, 0x28); // 10 instructions
  const ProfileId Base =
      B.addHotSpotProfile(L, 1.0, {{std::pair<std::size_t, double>{2, 9.0}}});
  const ProfileId Right = B.addShiftedProfile(L, Base, 1);
  const ProfileId WrapAround = B.addShiftedProfile(L, Base, 9);
  const Program P = B.build();
  EXPECT_DOUBLE_EQ(P.profile(L, Right)[3], 10.0);
  EXPECT_DOUBLE_EQ(P.profile(L, Right)[2], 1.0);
  EXPECT_DOUBLE_EQ(P.profile(L, WrapAround)[1], 10.0);
}

TEST(Program, ShiftedProfileNegativeDelta) {
  ProgramBuilder B("p");
  const auto Proc = B.addProcedure("f", 0, 0x100);
  const LoopId L = B.addLoop(Proc, 0, 0x28);
  const ProfileId Base =
      B.addHotSpotProfile(L, 1.0, {{std::pair<std::size_t, double>{0, 9.0}}});
  const ProfileId Left = B.addShiftedProfile(L, Base, -1);
  const Program P = B.build();
  EXPECT_DOUBLE_EQ(P.profile(L, Left)[9], 10.0) << "wraps backwards";
}

TEST(Program, ProfileCount) {
  const Program P = makeNestedProgram();
  EXPECT_EQ(P.profileCount(0), 1u);
}

TEST(ProgramCodeMap, ResolvesRegionableLoop) {
  const Program P = makeNestedProgram();
  const ProgramCodeMap Map(P);
  const core::CodeRegionInfo *Info = Map.regionFor(0x1450);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->Start, 0x1400u) << "innermost regionable loop";
  EXPECT_EQ(Info->End, 0x1500u);
  EXPECT_EQ(Info->Name, "1400-1500");
}

TEST(ProgramCodeMap, NonRegionableResolvesToNothing) {
  const Program P = makeNestedProgram();
  const ProgramCodeMap Map(P);
  EXPECT_EQ(Map.regionFor(0x2050), nullptr);
  EXPECT_EQ(Map.regionFor(0x2f00), nullptr) << "straight-line code";
}

TEST(ProgramCodeMap, OuterRegionableClaimsNestedNonRegionable) {
  ProgramBuilder B("p");
  const auto Proc = B.addProcedure("f", 0x1000, 0x2000);
  const LoopId Outer = B.addLoop(Proc, 0x1000, 0x1800);
  const LoopId Inner =
      B.addLoop(Proc, 0x1200, 0x1300, /*Regionable=*/false);
  B.addHotSpotProfile(Outer, 1.0, {});
  B.addHotSpotProfile(Inner, 1.0, {});
  const Program P = B.build();
  const ProgramCodeMap Map(P);
  const core::CodeRegionInfo *Info = Map.regionFor(0x1250);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->Start, 0x1000u)
      << "skips the non-regionable inner loop, claims the outer";
}

} // namespace
