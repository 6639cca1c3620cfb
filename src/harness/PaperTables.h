//===- harness/PaperTables.h - The paper's tables from one grid -*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measured (workload, analysis) cell st-bench produces, and the pure
/// renderers that turn one grid of such cells into the paper's evaluation
/// tables: Table 2 (characteristics), Table 3 (baselines), Tables 4-7 (run
/// time, memory, races) and Table 12 (case frequencies), plus the CCS
/// ablation. Every table reads the same cells, so they agree with each
/// other; tests feed the renderers hand-built grids.
///
/// The cost rules live here and nowhere else:
///
///  - slowdown = (drain + analysis seconds) / drain per repeat, where drain
///    is the workload's warmed median uninstrumented stream drain (a
///    Session with no analyses) — st-bench's "slowdown_vs_drain";
///  - memory = 1 + max(peak, final footprint) / 1 MiB per repeat: sampled
///    analysis metadata over a fixed proxy for the uninstrumented footprint
///    (docs/architecture.md, "Substitutions");
///  - a cell prints the mean over its repeats, with "± h" (the 95% CI
///    half-width) once there are two or more. Repeats re-run one seeded
///    stream, so the interval covers timing noise only.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_HARNESS_PAPERTABLES_H
#define SMARTTRACK_HARNESS_PAPERTABLES_H

#include "analysis/AnalysisRegistry.h"
#include "harness/Characteristics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace st {

/// One measured analysis cell of a WorkloadResult.
struct CellResult {
  AnalysisKind Kind = AnalysisKind::FT2;
  /// 0 = plain core; N >= 1 = sharded executor with N variable shards
  /// (SessionOptions::Shards; 1 runs the plain core and anchors scaling).
  unsigned Shards = 0;
  /// eventsPerSec(N shards) / (N * eventsPerSec(1 shard)); 0 until the
  /// 1-shard anchor cell is known. Only meaningful when Shards > 1.
  double ScalingEfficiency = 0;
  uint64_t Events = 0;
  /// Per measured repeat, in run order: analysis seconds, and
  /// max(peak, final) sampled footprint bytes.
  std::vector<double> Seconds;
  std::vector<size_t> FootprintBytes;
  double MedianSeconds = 0;
  /// Peak over all repeats; final footprint of the last repeat.
  size_t PeakFootprintBytes = 0;
  size_t FinalFootprintBytes = 0;
  uint64_t DynamicRaces = 0;
  unsigned StaticRaces = 0;
  /// Table 12 case frequencies (HasCaseStats false for analyses that do
  /// not track them).
  bool HasCaseStats = false;
  CaseStats Cases;

  double nsPerEvent() const {
    return Events ? MedianSeconds * 1e9 / static_cast<double>(Events) : 0;
  }
  double eventsPerSec() const {
    return MedianSeconds > 0 ? static_cast<double>(Events) / MedianSeconds
                             : 0;
  }
};

/// Everything one workload contributes to a report.
struct WorkloadResult {
  const WorkloadProfile *Profile = nullptr;
  uint64_t Events = 0;
  double DrainSeconds = 0; // uninstrumented baseline (median)
  /// Table 2 row; measured only by suites that render paper tables.
  WorkloadCharacteristics Characteristics;
  std::vector<CellResult> Cells;

  /// The plain (unsharded) cell for \p Kind, or null when not measured.
  const CellResult *find(AnalysisKind Kind) const;
};

/// Per-repeat slowdown and memory factors of \p C in \p W (rules above).
std::vector<double> slowdowns(const WorkloadResult &W, const CellResult &C);
std::vector<double> memoryFactors(const WorkloadResult &W,
                                  const CellResult &C);

/// Formats "4.2x" / "12x" like the paper's tables (two significant digits),
/// with "± h" when a confidence half-width is supplied.
std::string formatFactor(double Value, double CiHalfWidth = 0.0);

/// Formats "6 (425,515)" static (dynamic) race counts.
std::string formatRaces(double StaticMean, double DynamicMean);

/// The paper's row/column layout for the per-program blocks: rows are the
/// relations, columns are the optimization levels. Returns the index into
/// mainTableAnalysisKinds() at (Relation row 0-3, Level column 0-2), or a
/// negative index when the cell is N/A (ST-HB).
int gridKindIndex(unsigned RelationRow, unsigned LevelCol);

/// The paper's table \p Number (2-7 or 12; empty for any other) over
/// \p Grid, title line included. Cells a grid lacks print as "-"; Table 12
/// lists the workloads with an ST-WDC cell.
std::string renderPaperTable(unsigned Number,
                             const std::vector<WorkloadResult> &Grid);

/// Tables 2, 3, 4, 5, 6, 7 and 12 in that order, blank-line separated.
std::string renderPaperTables(const std::vector<WorkloadResult> &Grid);

/// The CCS ablation: one row per held-fraction workload, Unopt-/FTO-/ST-DC
/// slowdowns and the FTO/ST and Unopt/FTO speedups.
std::string renderAblation(const std::vector<WorkloadResult> &Grid);

} // namespace st

#endif // SMARTTRACK_HARNESS_PAPERTABLES_H
