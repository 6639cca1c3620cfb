//===- tests/harness/HarnessTest.cpp - Bench harness unit tests -----------===//

#include "harness/Characteristics.h"
#include "harness/PaperTables.h"
#include "harness/Stats.h"
#include "harness/Table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace st;

namespace {

TEST(StatsTest, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(geomean({1, 100}), 10.0, 1e-9);
  EXPECT_NEAR(geomean({7}), 7.0, 1e-9);
}

TEST(StatsTest, CiHalfWidthMatchesHandComputation) {
  // n=10 samples 1..10: mean 5.5, sd ≈ 3.0277, t=2.262.
  std::vector<double> Xs;
  for (int I = 1; I <= 10; ++I)
    Xs.push_back(I);
  double Hw = ciHalfWidth95(Xs);
  EXPECT_NEAR(Hw, 2.262 * 3.02765 / std::sqrt(10.0), 1e-3);
  EXPECT_DOUBLE_EQ(ciHalfWidth95({5.0}), 0.0) << "one sample: no interval";
}

TEST(StatsTest, TCriticalValues) {
  EXPECT_NEAR(tCritical95(2), 12.706, 1e-3);
  EXPECT_NEAR(tCritical95(10), 2.262, 1e-3);
  EXPECT_NEAR(tCritical95(1000), 1.96, 1e-3);
}

TEST(PaperTablesTest, FormatFactor) {
  EXPECT_EQ(formatFactor(4.23), "4.2x");
  EXPECT_EQ(formatFactor(12.7), "13x");
  EXPECT_EQ(formatFactor(9.94), "9.9x");
  EXPECT_NE(formatFactor(4.2, 0.3).find("±"), std::string::npos);
}

TEST(PaperTablesTest, FormatRaces) {
  EXPECT_EQ(formatRaces(6, 425515), "6 (425,515)");
  EXPECT_EQ(formatRaces(1, 1), "1 (1)");
  EXPECT_EQ(formatRaces(0, 0), "0 (0)");
}

TEST(PaperTablesTest, KindIndexLayoutMatchesPaper) {
  const auto &Kinds = mainTableAnalysisKinds();
  EXPECT_EQ(Kinds[gridKindIndex(0, 0)], AnalysisKind::UnoptHB);
  EXPECT_EQ(Kinds[gridKindIndex(0, 1)], AnalysisKind::FTOHB);
  EXPECT_EQ(gridKindIndex(0, 2), -1) << "ST-HB is N/A";
  EXPECT_EQ(Kinds[gridKindIndex(1, 2)], AnalysisKind::STWCP);
  EXPECT_EQ(Kinds[gridKindIndex(2, 0)], AnalysisKind::UnoptDC);
  EXPECT_EQ(Kinds[gridKindIndex(3, 2)], AnalysisKind::STWDC);
  EXPECT_EQ(gridKindIndex(4, 0), -1);
}

/// A hand-built grid over the 11 main-table kinds. avrora: one repeat,
/// drain 1 s, kind i slows down 1.5 + 0.5i and holds i + 1 MiB. xalan:
/// two repeats, drain 0.5 s, kind i slows down 3 + i +- 0.1 and holds
/// 2i + 1 MiB both times.
std::vector<WorkloadResult> handBuiltGrid() {
  const auto &Kinds = mainTableAnalysisKinds();
  std::vector<WorkloadResult> Grid(2);
  Grid[0].Profile = findProfile("avrora");
  Grid[0].DrainSeconds = 1.0;
  Grid[1].Profile = findProfile("xalan");
  Grid[1].DrainSeconds = 0.5;
  for (size_t I = 0; I != Kinds.size(); ++I) {
    CellResult A;
    A.Kind = Kinds[I];
    A.Seconds = {0.5 + 0.5 * static_cast<double>(I)};
    A.FootprintBytes = {(I + 1) << 20};
    A.StaticRaces = 6;
    A.DynamicRaces = Kinds[I] == AnalysisKind::STWDC ? 1234567 : 100 * I;
    CellResult X = A;
    double S = (2.0 + static_cast<double>(I)) / 2; // slowdown 3 + i
    X.Seconds = {S - 0.05, S + 0.05};
    X.FootprintBytes = {(2 * I + 1) << 20, (2 * I + 1) << 20};
    // No same-epoch hits; reads 900/50/30/15/5; writes 300/100/100.
    X.HasCaseStats = Kinds[I] == AnalysisKind::STWDC;
    X.Cases = {0, 0, 0, 900, 50, 30, 15, 5, 300, 100, 100};
    Grid[0].Cells.push_back(A);
    Grid[1].Cells.push_back(X);
  }
  return Grid;
}

/// The cells of \p Workload's block in a per-program table, row-major
/// over (relation, level); columns are split at runs of 2+ spaces.
std::vector<std::string> blockCells(const std::string &Table,
                                    const std::string &Workload) {
  size_t Pos = Table.find("\n" + Workload + "\n");
  EXPECT_NE(Pos, std::string::npos) << Workload;
  std::vector<std::string> Cells;
  std::istringstream In(Table.substr(Pos + Workload.size() + 2));
  std::string Line;
  std::getline(In, Line); // header
  std::getline(In, Line); // rule
  for (int Row = 0; Row < 4 && std::getline(In, Line); ++Row) {
    size_t At = Line.find("  "); // past the relation name
    size_t Last = Line.find_last_not_of(' ') + 1;
    while ((At = Line.find_first_not_of(' ', At)) < Last) {
      size_t End = std::min(Line.find("  ", At), Last);
      Cells.push_back(Line.substr(At, End - At));
      At = End;
    }
  }
  return Cells;
}

TEST(PaperTablesTest, Table5BlockIsExact) {
  std::string T5 = renderPaperTable(5, handBuiltGrid());
  EXPECT_NE(T5.find("avrora\n"
                    "     Unopt-  FTO-  ST- \n"
                    "-----------------------\n"
                    "HB   1.5x    2.0x  N/A \n"
                    "WCP  2.5x    3.0x  3.5x\n"
                    "DC   4.0x    4.5x  5.0x\n"
                    "WDC  5.5x    6.0x  6.5x\n"
                    "\n"),
            std::string::npos)
      << T5;
  // Two repeats: every cell carries its 95% CI (t=12.706 x se 0.1).
  EXPECT_NE(T5.find("xalan\n"
                    "     Unopt-      FTO-        ST-       \n"
                    "---------------------------------------\n"
                    "HB   3.0x ±1.3  4.0x ±1.3  N/A       \n"
                    "WCP  5.0x ±1.3  6.0x ±1.3  7.0x ±1.3\n"
                    "DC   8.0x ±1.3  9.0x ±1.3  10x ±1.3 \n"
                    "WDC  11x ±1.3   12x ±1.3   13x ±1.3 \n"
                    "\n"),
            std::string::npos)
      << T5;
}

TEST(PaperTablesTest, Table4IsTheGeomeanOfTables5And6) {
  std::vector<WorkloadResult> Grid = handBuiltGrid();
  // Table 4's two blocks parse like per-program blocks.
  std::string T4 = renderPaperTable(4, Grid);
  std::vector<std::string> Geo[] = {blockCells(T4, "Run time"),
                                    blockCells(T4, "Memory usage")};
  for (int Aspect = 0; Aspect < 2; ++Aspect) {
    std::string PerProgram = renderPaperTable(Aspect ? 6 : 5, Grid);
    std::vector<std::string> A = blockCells(PerProgram, "avrora");
    std::vector<std::string> X = blockCells(PerProgram, "xalan");
    ASSERT_EQ(Geo[Aspect].size(), 12u);
    ASSERT_EQ(A.size(), 12u);
    ASSERT_EQ(X.size(), 12u);
    for (size_t I = 0; I != 12; ++I) {
      if (A[I] == "N/A") {
        EXPECT_EQ(Geo[Aspect][I], "N/A");
        continue;
      }
      double Want = geomean({std::stod(A[I]), std::stod(X[I])});
      EXPECT_EQ(Geo[Aspect][I], formatFactor(Want))
          << "aspect " << Aspect << " cell " << I << ": " << A[I] << ", "
          << X[I];
    }
  }
}

TEST(PaperTablesTest, Table7GroupsDigits) {
  std::vector<std::string> A =
      blockCells(renderPaperTable(7, handBuiltGrid()), "avrora");
  ASSERT_EQ(A.size(), 12u);
  EXPECT_EQ(A[0], "6 (0)");
  EXPECT_EQ(A[2], "N/A");
  EXPECT_EQ(A[11], "6 (1,234,567)");
}

TEST(PaperTablesTest, Table12WriteRowsHaveNoShareColumns) {
  std::string T12 = renderPaperTable(12, handBuiltGrid());
  EXPECT_EQ(T12.find("avrora"), std::string::npos)
      << "no case stats, no row";
  // The xalan Read row, then its Write row: no "Owned Shared" and no
  // "Unowned Share" case exists for writes.
  std::istringstream In(T12.substr(T12.find("xalan")));
  std::string Rows;
  for (std::string Word; In >> Word;)
    Rows += Word + " ";
  EXPECT_EQ(Rows, "xalan Read 1.0K 90% 5% 3% 1.5% 0.5% "
                  "Write 500 60% N/A 20% N/A 20% ");
}

TEST(PaperTablesTest, MissingCellsPrintDashes) {
  std::vector<WorkloadResult> Grid = handBuiltGrid();
  Grid[0].Cells.resize(1); // avrora keeps Unopt-HB only
  std::vector<std::string> A = blockCells(renderPaperTable(5, Grid), "avrora");
  ASSERT_EQ(A.size(), 12u);
  EXPECT_EQ(A[0], "1.5x");
  EXPECT_EQ(A[1], "-");
  EXPECT_EQ(A[2], "N/A");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter T({"A", "LongHeader"});
  T.addRow({"wide-cell", "x"});
  T.addRow({"y", "z"});
  std::string Out = T.str();
  EXPECT_NE(Out.find("A          LongHeader"), std::string::npos) << Out;
  EXPECT_NE(Out.find("wide-cell  x"), std::string::npos) << Out;
  EXPECT_NE(Out.find("---"), std::string::npos);
}

TEST(CharacteristicsTest, CountsSameEpochAccessesLikeFTO) {
  // Hand-built stream: wr(x); wr(x) same epoch; sync; wr(x) new epoch.
  WorkloadProfile P;
  P.Threads = 2;
  P.EpisodesPerMillion = 0;
  WorkloadGenerator G(P, 200, 3);
  WorkloadCharacteristics C = measureCharacteristics(G);
  EXPECT_GT(C.AllEvents, 0u);
  EXPECT_GT(C.Nseas, 0u);
  EXPECT_LE(C.Nseas, C.AllEvents);
  EXPECT_LE(C.NseaHeld3, C.NseaHeld2);
  EXPECT_LE(C.NseaHeld2, C.NseaHeld1);
  EXPECT_LE(C.NseaHeld1, C.Nseas);
}

} // namespace
