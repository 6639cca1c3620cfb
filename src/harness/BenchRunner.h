//===- harness/BenchRunner.h - Analysis benchmark runner --------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one analysis over one streamed workload, measuring the paper's
/// quantities:
///
///  - run time: wall-clock of streaming the workload through the analysis,
///    reported as a slowdown factor over the uninstrumented baseline
///    (streaming the same events through no analysis);
///  - memory: peak live analysis-metadata bytes (sampled periodically),
///    reported as a usage factor over a fixed per-program uninstrumented
///    footprint proxy (docs/architecture.md, "Substitutions", documents
///    this substitution for max RSS);
///  - race counts (statically distinct and dynamic).
///
/// Trials are repeated and summarized with the Stats helpers.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_HARNESS_BENCHRUNNER_H
#define SMARTTRACK_HARNESS_BENCHRUNNER_H

#include "analysis/AnalysisRegistry.h"
#include "workload/Workload.h"

#include <cstdint>
#include <string>
#include <vector>

namespace st {

struct SessionOptions;

/// Command-line configuration shared by all table benches.
struct BenchConfig {
  /// Divide each profile's paper event count by this to get the bench
  /// event count.
  uint64_t EventScale = 4000;
  uint64_t MinEvents = 100000;
  uint64_t MaxEvents = 20000000;
  unsigned Trials = 1;
  uint64_t Seed = 42;
  /// Uninstrumented-memory proxy per program (bytes): the workload's own
  /// simulated footprint, against which metadata factors are reported.
  size_t UninstrumentedBytes = 1u << 20;
  /// Cap stored race records (counters unaffected).
  size_t MaxStoredRaces = 1024;
  /// Events per engine batch; also the footprint sampling period.
  size_t BatchSize = 1 << 16;
  /// Thread-per-analysis fan-out in the single-pass grid.
  bool Parallel = false;
  /// Restrict to these profile names (empty = all).
  std::vector<std::string> Programs;

  uint64_t eventsFor(const WorkloadProfile &P) const {
    uint64_t N = P.PaperTotalEvents / EventScale;
    if (N < MinEvents)
      N = MinEvents;
    if (N > MaxEvents)
      N = MaxEvents;
    return N;
  }

  bool wantsProgram(const char *Name) const;

  /// Session options for a measured run (footprint sampling on).
  SessionOptions sessionOptions() const;
};

/// Parses --events-scale=N --trials=N --seed=N --programs=a,b,c
/// --parallel; returns false (after printing usage) on unknown arguments.
bool parseBenchArgs(int Argc, char **Argv, BenchConfig &Config);

/// Measurements from one trial.
struct RunResult {
  double Seconds = 0;
  double BaselineSeconds = 0;
  size_t PeakFootprintBytes = 0;
  uint64_t DynamicRaces = 0;
  unsigned StaticRaces = 0;
  uint64_t Events = 0;

  double slowdown() const {
    return BaselineSeconds > 0 ? Seconds / BaselineSeconds : 0;
  }
  double memoryFactor(size_t UninstrumentedBytes) const {
    return 1.0 + static_cast<double>(PeakFootprintBytes) /
                     static_cast<double>(UninstrumentedBytes);
  }
};

/// Aggregated trials for one (program, analysis) cell.
struct CellResult {
  std::vector<double> Slowdowns;
  std::vector<double> MemFactors;
  std::vector<double> StaticRaces;
  std::vector<double> DynamicRaces;
};

/// Times the uninstrumented baseline (event generation alone).
double measureBaseline(const WorkloadProfile &P, const BenchConfig &Config);

/// Runs \p Kind over \p P once; \p BaselineSeconds from measureBaseline.
RunResult runOnce(AnalysisKind Kind, const WorkloadProfile &P,
                  const BenchConfig &Config, double BaselineSeconds,
                  uint64_t TrialSeed);

/// Runs all trials for a cell.
CellResult runCell(AnalysisKind Kind, const WorkloadProfile &P,
                   const BenchConfig &Config, double BaselineSeconds);

/// Formats "4.2x" / "12x" like the paper's tables (two significant digits),
/// with "± h" when a confidence half-width is supplied.
std::string formatFactor(double Value, double CiHalfWidth = 0.0);

/// Formats "6 (425,515)" static (dynamic) race counts.
std::string formatRaces(double StaticMean, double DynamicMean);

} // namespace st

#endif // SMARTTRACK_HARNESS_BENCHRUNNER_H
