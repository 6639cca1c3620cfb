//===- perfbench/src/Report.h - Metrics, checks, and JSON output -*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one benchmark run reports: named metrics with units, the race
/// counts that run.py pins, and the correctness ledger (operations
/// attempted and failed, with the first few failure messages).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Report {
public:
  void metric(const std::string &Name, double Value, const char *Unit);

  /// Records the dynamic and static race count of one (phase, analysis)
  /// pair, e.g. "st_wdc".
  void races(const std::string &Key, uint64_t Dynamic, uint64_t Static);

  /// Free-form run facts (host provenance, sample counts).
  void note(const std::string &Key, const std::string &Value);

  /// Counts one operation; \p Ok false counts it failed with \p What.
  void check(bool Ok, const std::string &What);

  uint64_t failed() const { return Failed; }

  /// The whole report as one JSON object on one line.
  std::string json() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
  };
  struct RaceCount {
    std::string Key;
    uint64_t Dynamic, Static;
  };
  std::vector<Metric> Metrics;
  std::vector<RaceCount> Races;
  std::vector<std::pair<std::string, std::string>> Notes;
  std::vector<std::string> Failures;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Median of \p V (0 when empty); sorts a copy.
double median(std::vector<double> V);

/// Nearest-rank quantile of \p V, \p Q in [0, 1] (0 when empty).
double quantile(std::vector<double> V, double Q);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
