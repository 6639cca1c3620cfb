//===- harness/PaperTables.cpp - The paper's tables from one grid ---------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/PaperTables.h"

#include "harness/Stats.h"
#include "harness/Table.h"

#include <algorithm>
#include <cstdio>
#include <functional>

using namespace st;

namespace {

const char *const RelName[] = {"HB", "WCP", "DC", "WDC"};

using CellFormat = std::string (*)(const WorkloadResult &, const CellResult &);
using Samples = std::vector<double> (*)(const WorkloadResult &,
                                        const CellResult &);

std::string factorCell(const std::vector<double> &Xs) {
  return formatFactor(mean(Xs), ciHalfWidth95(Xs));
}
std::string timeCell(const WorkloadResult &W, const CellResult &C) {
  return factorCell(slowdowns(W, C));
}
std::string memoryCell(const WorkloadResult &W, const CellResult &C) {
  return factorCell(memoryFactors(W, C));
}
std::string racesCell(const WorkloadResult &, const CellResult &C) {
  return formatRaces(C.StaticRaces, static_cast<double>(C.DynamicRaces));
}

/// Tables 3 and 4 print both cost aspects, in this order.
struct Aspect {
  const char *Title;
  Samples Of;
};
const Aspect Aspects[] = {{"Run time", slowdowns},
                          {"Memory usage", memoryFactors}};

/// Geomean across workloads of the mean per-cell factor; "-" when no
/// workload measured \p Kind.
std::string geomeanCell(const std::vector<WorkloadResult> &Grid,
                        AnalysisKind Kind, const Aspect &A) {
  std::vector<double> Means;
  for (const WorkloadResult &W : Grid)
    if (const CellResult *C = W.find(Kind))
      Means.push_back(mean(A.Of(W, *C)));
  return Means.empty() ? "-" : formatFactor(geomean(Means));
}

std::string repeatsNote(const std::vector<WorkloadResult> &Grid) {
  size_t Repeats = 0;
  for (const WorkloadResult &W : Grid)
    for (const CellResult &C : W.Cells)
      Repeats = std::max(Repeats, C.Seconds.size());
  return "(" + std::to_string(Repeats) +
         " repeat(s) of one seeded stream per cell)\n\n";
}

/// "350K" / "2.4M" event counts; \p KFormat picks the K precision.
std::string formatCount(uint64_t N, const char *KFormat) {
  if (N < 1000)
    return std::to_string(N);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), N >= 1000000 ? "%.1fM" : KFormat,
                N >= 1000000 ? N / 1e6 : N / 1e3);
  return Buf;
}

std::string formatPct(double Fraction) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f%%", 100.0 * Fraction);
  return Buf;
}

/// Table 12's share of \p Total, to three significant digits.
std::string formatShare(uint64_t Part, uint64_t Total) {
  if (Total == 0)
    return "-";
  double Pct = 100.0 * static_cast<double>(Part) / static_cast<double>(Total);
  if (Pct != 0 && Pct < 0.001)
    return "<0.001%";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3g%%", Pct);
  return Buf;
}

/// The relations x levels layout of Tables 4-7, ST-HB printing N/A.
std::string gridBlock(const std::function<std::string(AnalysisKind)> &Cell) {
  const auto &Kinds = mainTableAnalysisKinds();
  TablePrinter Table({"", "Unopt-", "FTO-", "ST-"});
  for (unsigned Rel = 0; Rel < 4; ++Rel) {
    std::vector<std::string> Row = {RelName[Rel]};
    for (unsigned Level = 0; Level < 3; ++Level) {
      int KI = gridKindIndex(Rel, Level);
      Row.push_back(KI < 0 ? "N/A" : Cell(Kinds[static_cast<size_t>(KI)]));
    }
    Table.addRow(std::move(Row));
  }
  return Table.str();
}

/// One gridBlock per workload (Tables 5, 6 and 7).
std::string programBlocks(const std::vector<WorkloadResult> &Grid,
                          CellFormat Format) {
  std::string Out = repeatsNote(Grid);
  for (const WorkloadResult &W : Grid) {
    auto Cell = [&](AnalysisKind K) {
      const CellResult *C = W.find(K);
      return C ? Format(W, *C) : "-";
    };
    Out += std::string(W.Profile->Name) + "\n" + gridBlock(Cell) + "\n";
  }
  return Out;
}

std::string table2(const std::vector<WorkloadResult> &Grid) {
  TablePrinter Table({"Program", "#Thr", "All", "NSEAs", ">=1 lock",
                      ">=2 locks", ">=3 locks"});
  for (const WorkloadResult &W : Grid) {
    const WorkloadProfile &P = *W.Profile;
    const WorkloadCharacteristics &C = W.Characteristics;
    auto Held = [&C](unsigned AtLeast, double Target) {
      return formatPct(C.heldFraction(AtLeast)) + " (" + formatPct(Target) +
             ")";
    };
    Table.addRow({P.Name, std::to_string(C.Threads),
                  formatCount(C.AllEvents, "%.0fK"),
                  formatCount(C.Nseas, "%.0fK"), Held(1, P.Held1),
                  Held(2, P.Held2), Held(3, P.Held3)});
  }
  return "Table 2: run-time characteristics of the evaluated programs\n"
         "(paper targets in parentheses)\n\n" +
         Table.str();
}

std::string table3(const std::vector<WorkloadResult> &Grid) {
  const AnalysisKind Kinds[] = {
      AnalysisKind::FT2,        AnalysisKind::FTOHB,
      AnalysisKind::UnoptDCwG,  AnalysisKind::UnoptDC,
      AnalysisKind::UnoptWDCwG, AnalysisKind::UnoptWDC,
  };
  std::string Out = "Table 3: baselines (run time and memory factors vs "
                    "uninstrumented execution)\n" +
                    repeatsNote(Grid);
  for (const Aspect &A : Aspects) {
    TablePrinter Table({"Program", "FT2", "FTO", "UnoptDC w/G", "UnoptDC",
                        "UnoptWDC w/G", "UnoptWDC"});
    for (const WorkloadResult &W : Grid) {
      std::vector<std::string> Row = {W.Profile->Name};
      for (AnalysisKind K : Kinds) {
        const CellResult *C = W.find(K);
        Row.push_back(C ? factorCell(A.Of(W, *C)) : "-");
      }
      Table.addRow(std::move(Row));
    }
    std::vector<std::string> Geo = {"geomean"};
    for (AnalysisKind K : Kinds)
      Geo.push_back(geomeanCell(Grid, K, A));
    Table.addRow(std::move(Geo));
    Out += std::string(&A == Aspects ? "" : "\n") + A.Title + "\n" +
           Table.str();
  }
  return Out;
}

std::string table4(const std::vector<WorkloadResult> &Grid) {
  std::string Out = "Table 4: geometric mean of run time and memory usage "
                    "across the evaluated programs\n" +
                    repeatsNote(Grid);
  for (const Aspect &A : Aspects)
    Out += std::string(&A == Aspects ? "" : "\n") + A.Title + "\n" +
           gridBlock([&](AnalysisKind K) { return geomeanCell(Grid, K, A); });
  return Out;
}

std::string table12(const std::vector<WorkloadResult> &Grid) {
  TablePrinter Table({"Program", "Event", "Total", "Owned Excl",
                      "Owned Shared", "Unowned Excl", "Unowned Share",
                      "Unowned Shared"});
  for (const WorkloadResult &W : Grid) {
    const CellResult *C = W.find(AnalysisKind::STWDC);
    if (!C || !C->HasCaseStats)
      continue;
    const CaseStats &S = C->Cases;
    uint64_t Reads = S.nonSameEpochReads();
    uint64_t Writes = S.nonSameEpochWrites();
    Table.addRow({W.Profile->Name, "Read", formatCount(Reads, "%.1fK"),
                  formatShare(S.ReadOwned, Reads),
                  formatShare(S.ReadSharedOwned, Reads),
                  formatShare(S.ReadExclusive, Reads),
                  formatShare(S.ReadShare, Reads),
                  formatShare(S.ReadShared, Reads)});
    Table.addRow({"", "Write", formatCount(Writes, "%.1fK"),
                  formatShare(S.WriteOwned, Writes), "N/A",
                  formatShare(S.WriteExclusive, Writes), "N/A",
                  formatShare(S.WriteShared, Writes)});
  }
  return "Table 12: frequencies of non-same-epoch reads and writes for "
         "SmartTrack-WDC\n\n" +
         Table.str();
}

} // namespace

const CellResult *WorkloadResult::find(AnalysisKind Kind) const {
  for (const CellResult &C : Cells)
    if (C.Kind == Kind && !C.Shards)
      return &C;
  return nullptr;
}

std::vector<double> st::slowdowns(const WorkloadResult &W,
                                  const CellResult &C) {
  std::vector<double> Out;
  for (double S : C.Seconds)
    Out.push_back(W.DrainSeconds > 0 ? (W.DrainSeconds + S) / W.DrainSeconds
                                     : 0);
  return Out;
}

std::vector<double> st::memoryFactors(const WorkloadResult &,
                                      const CellResult &C) {
  std::vector<double> Out;
  for (size_t Bytes : C.FootprintBytes)
    Out.push_back(1.0 + static_cast<double>(Bytes) / (1 << 20));
  return Out;
}

std::string st::formatFactor(double Value, double CiHalfWidth) {
  char Buf[64];
  if (Value >= 9.95)
    std::snprintf(Buf, sizeof(Buf), "%.0fx", Value);
  else
    std::snprintf(Buf, sizeof(Buf), "%.1fx", Value);
  std::string Out = Buf;
  if (CiHalfWidth > 0) {
    std::snprintf(Buf, sizeof(Buf), " ±%.2g", CiHalfWidth);
    Out += Buf;
  }
  return Out;
}

std::string st::formatRaces(double StaticMean, double DynamicMean) {
  std::string Digits =
      std::to_string(static_cast<uint64_t>(DynamicMean + 0.5));
  std::string Grouped;
  for (size_t I = 0; I != Digits.size(); ++I) {
    if (I && (Digits.size() - I) % 3 == 0)
      Grouped += ',';
    Grouped += Digits[I];
  }
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%.0f (%s)", StaticMean, Grouped.c_str());
  return Buf;
}

int st::gridKindIndex(unsigned RelationRow, unsigned LevelCol) {
  // mainTableAnalysisKinds() order:
  //  0 Unopt-HB, 1 FTO-HB, 2 Unopt-WCP, 3 FTO-WCP, 4 ST-WCP,
  //  5 Unopt-DC, 6 FTO-DC, 7 ST-DC, 8 Unopt-WDC, 9 FTO-WDC, 10 ST-WDC.
  static const int Map[4][3] = {
      {0, 1, -1}, // HB: Unopt, FTO, (no ST)
      {2, 3, 4},  // WCP
      {5, 6, 7},  // DC
      {8, 9, 10}, // WDC
  };
  if (RelationRow >= 4 || LevelCol >= 3)
    return -1;
  return Map[RelationRow][LevelCol];
}

std::string st::renderPaperTable(unsigned Number,
                                 const std::vector<WorkloadResult> &Grid) {
  switch (Number) {
  case 2:
    return table2(Grid);
  case 3:
    return table3(Grid);
  case 4:
    return table4(Grid);
  case 5:
    return "Table 5: run time, relative to uninstrumented execution, per "
           "program\n" +
           programBlocks(Grid, timeCell);
  case 6:
    return "Table 6: memory usage, relative to uninstrumented execution, "
           "per program\n" +
           programBlocks(Grid, memoryCell);
  case 7:
    return "Table 7: races reported (statically distinct, with dynamic "
           "races in parentheses)\n" +
           programBlocks(Grid, racesCell);
  case 12:
    return table12(Grid);
  default:
    return "";
  }
}

std::string st::renderPaperTables(const std::vector<WorkloadResult> &Grid) {
  std::string Out;
  for (unsigned Number : {2u, 3u, 4u, 5u, 6u, 7u, 12u})
    Out += (Out.empty() ? "" : "\n") + renderPaperTable(Number, Grid);
  return Out;
}

std::string st::renderAblation(const std::vector<WorkloadResult> &Grid) {
  TablePrinter Table({"held>=1", "Unopt-DC", "FTO-DC", "ST-DC",
                      "FTO/ST speedup", "Unopt/FTO speedup"});
  auto MeanSlowdown = [](const WorkloadResult &W, AnalysisKind K) {
    const CellResult *C = W.find(K);
    return C ? mean(slowdowns(W, *C)) : 0.0;
  };
  auto Factor = [](double X) { return X > 0 ? formatFactor(X) : "-"; };
  auto Ratio = [](double Num, double Den) {
    if (Num <= 0 || Den <= 0)
      return std::string("-");
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.2fx", Num / Den);
    return std::string(Buf);
  };
  for (const WorkloadResult &W : Grid) {
    double Unopt = MeanSlowdown(W, AnalysisKind::UnoptDC);
    double FTO = MeanSlowdown(W, AnalysisKind::FTODC);
    double ST = MeanSlowdown(W, AnalysisKind::STDC);
    char Held[16];
    std::snprintf(Held, sizeof(Held), "%.0f%%", W.Profile->Held1 * 100);
    Table.addRow({Held, Factor(Unopt), Factor(FTO), Factor(ST),
                  Ratio(FTO, ST), Ratio(Unopt, FTO)});
  }
  return "Ablation: CCS optimizations vs fraction of accesses in critical "
         "sections (DC analyses)\n" +
         repeatsNote(Grid) + Table.str() +
         "\nExpected shape: the FTO/ST speedup grows with the held "
         "fraction (CCS work dominates),\nwhile Unopt/FTO reflects the "
         "epoch/ownership benefit throughout.\n";
}
