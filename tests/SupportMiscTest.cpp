//===- tests/SupportMiscTest.cpp - Tables and charts ----------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/AsciiChart.h"
#include "support/TextTable.h"

#include <gtest/gtest.h>

using namespace regmon;

namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable T;
  T.header({"name", "value"});
  T.row({"alpha", "1"});
  T.row({"b", "22"});
  const std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("alpha"), std::string::npos);
  // Numeric column is right-aligned: "22" ends at the same column as "1".
  EXPECT_NE(Out.find(" 1\n"), std::string::npos);
  EXPECT_NE(Out.find("22\n"), std::string::npos);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable T;
  T.header({"a", "b", "c"});
  T.row({"x"});
  EXPECT_NO_THROW({ (void)T.render(); });
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::percent(0.256, 1), "25.6%");
  EXPECT_EQ(TextTable::count(42), "42");
}

TEST(Sparkline, EmptyInput) {
  EXPECT_EQ(sparkline(std::span<const double>(), 0, 1), "");
}

TEST(Sparkline, MapsExtremes) {
  const std::vector<double> V = {0.0, 1.0};
  const std::string S = sparkline(V, 0, 1);
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S[0], ' ');
  EXPECT_EQ(S[1], '@');
}

TEST(Sparkline, ClampsOutOfRange) {
  const std::vector<double> V = {-5.0, 5.0};
  const std::string S = sparkline(V, 0, 1);
  EXPECT_EQ(S[0], ' ');
  EXPECT_EQ(S[1], '@');
}

TEST(StackedChart, RendersSeriesAndLegend) {
  StackedChart C(4);
  C.addSeries("first", {1, 2, 3});
  C.addSeries("second", {3, 2, 1});
  const std::string Out = C.render();
  EXPECT_NE(Out.find("a = first"), std::string::npos);
  EXPECT_NE(Out.find("b = second"), std::string::npos);
}

TEST(StackedChart, EmptyChart) {
  StackedChart C;
  EXPECT_EQ(C.render(), "(empty chart)\n");
}

TEST(StackedChart, OverlayLine) {
  StackedChart C(3);
  C.addSeries("s", {1, 1});
  C.setOverlay("flag", {true, false});
  const std::string Out = C.render();
  EXPECT_NE(Out.find('#'), std::string::npos);
  EXPECT_NE(Out.find("flag"), std::string::npos);
}

} // namespace
