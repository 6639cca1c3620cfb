//===- tools/st_bench.cpp - Declarative benchmark suite driver ------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs a declarative benchmark suite — synthetic DaCapo-shaped workloads
// (src/workload) crossed with the analysis ladder (AnalysisRegistry) — on
// top of the report-layer Session facade, and emits a stable,
// schema-versioned JSON report (BENCH_results.json) plus a human-readable
// table.
//
// Methodology: every (workload, analysis) cell streams the seeded workload
// generator through ONE analysis per Session run, so per-analysis
// time excludes event generation and co-running analyses. Each cell runs
// --warmup unmeasured trials then --repeats measured trials; the median is
// reported. The uninstrumented baseline (a pure stream drain) is measured
// per workload, giving per-analysis slowdown factors; per-analysis cost
// relative to the FT2 reference is also reported because that ratio is
// stable across machines, which is what the CI regression gate
// (tools/ci/bench_compare.py) compares against bench/baseline.json.
//
// The full and ablation suites print the paper's tables instead of the
// per-cell table, rendered from the same cells (harness/PaperTables.h).
//
// Usage:
//   st-bench [--suite=smoke|ci|full|ablation] [--workloads=a,b,..]
//            [--analyses=..]
//            [--events=N] [--warmup=N] [--repeats=N] [--batch=N] [--seed=N]
//            [--out=FILE|-] [--quiet] [--list]
//
// Exit status: 0 on success, 1 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "harness/PaperTables.h"
#include "report/Session.h"
#include "workload/Workload.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace st;

namespace {

/// One shard-scaling column: the (workload, analysis) pair measured once
/// per shard count on the sharded executor (SessionOptions::Shards).
struct ShardCellSpec {
  std::string Workload;
  AnalysisKind Kind;
};

/// The shape of one predefined suite, declared as data.
struct SuiteSpec {
  const char *Name;
  const char *Description;
  std::vector<WorkloadProfile> Workloads;
  std::vector<AnalysisKind> Analyses;
  /// Events per workload; 0 = scaled from each profile's paper count.
  uint64_t Events;
  unsigned Warmup;
  unsigned Repeats;
  /// Shard-scaling cells, measured after the plain grid. The 1-shard
  /// count is the scaling denominator (Session runs the plain core when
  /// Shards == 1, so it doubles as a wrapper-overhead check).
  std::vector<ShardCellSpec> ShardCells;
  std::vector<unsigned> ShardCounts;
  /// Renders the suite's tables from its cells; null = the per-cell table.
  std::string (*Render)(const std::vector<WorkloadResult> &) = nullptr;
};

/// The CCS ablation's workloads (paper §4.2, §5.5): one 8-thread profile
/// per fraction of non-same-epoch accesses holding a lock, from none to
/// nearly all, with no seeded races.
std::vector<WorkloadProfile> heldFractionSweep() {
  std::vector<WorkloadProfile> Out;
  auto Add = [&Out](const char *Name, double Held) {
    WorkloadProfile P;
    P.Name = Name;
    P.Threads = 8;
    P.NseaFraction = 0.25;
    P.Held1 = Held;
    P.Held2 = Held * 0.5;
    P.Held3 = Held * 0.1;
    P.EpisodesPerMillion = 0;
    Out.push_back(P);
  };
  Add("held0", 0.0);
  Add("held20", 0.2);
  Add("held40", 0.4);
  Add("held60", 0.6);
  Add("held80", 0.8);
  Add("held99", 0.99);
  return Out;
}

/// The ladder every suite measures by default: the FT2 reference plus the
/// epoch-optimized and SmartTrack configurations of each relation. Unopt
/// configurations are excluded from the small suites (their O(T) clocks
/// dominate run time without informing the hot-path trajectory).
std::vector<AnalysisKind> ladderAnalyses() {
  return {AnalysisKind::FT2,    AnalysisKind::FTOHB,
          AnalysisKind::FTOWCP, AnalysisKind::STWCP,
          AnalysisKind::FTODC,  AnalysisKind::STDC,
          AnalysisKind::FTOWDC, AnalysisKind::STWDC};
}

const std::vector<SuiteSpec> &suites() {
  static const std::vector<SuiteSpec> Suites = [] {
    std::vector<SuiteSpec> S;
    // Diverse thread counts: jython=2, avrora=7, tomcat=37 straddle the
    // VectorClock inline-storage boundary from both sides.
    std::vector<WorkloadProfile> SmallSet = {
        *findProfile("avrora"), *findProfile("jython"), *findProfile("tomcat")};
    S.push_back({"smoke",
                 "CTest-sized: 3 workloads x 8 analyses, 20k events, 1 trial",
                 SmallSet,
                 ladderAnalyses(),
                 20000,
                 0,
                 1,
                 {},
                 {}});
    // The ci suite covers every main-table analysis (Tables 4-6's 11
    // configurations), so the regression gate sees the full WCP/DC/WDC
    // grid including the Unopt tiers and the WDC column. Relative costs
    // are quoted against the in-run Unopt-HB cell (the grid's first row;
    // FT2 is not a main-table configuration).
    // Shard-scaling column: ST-WDC on avrora (7 threads, the best
    // sync/access balance of the small set) at 1/2/4/8 variable shards.
    S.push_back({"ci",
                 "CI regression gate: 3 workloads x 11 main-table analyses,"
                 " 200k events, median of 3, + ST-WDC shard scaling",
                 SmallSet,
                 mainTableAnalysisKinds(),
                 200000,
                 1,
                 3,
                 {{"avrora", AnalysisKind::STWDC}},
                 {1, 2, 4, 8}});
    // The paper grid behind Tables 2-7 and 12: every profile x every
    // analysis, each profile at its paper-scaled event count.
    S.push_back({"full",
                 "paper Tables 2-7, 12: all 10 workloads x 14 analyses,"
                 " paper events / 4000, median of 5",
                 dacapoProfiles(),
                 allAnalysisKinds(),
                 0,
                 1,
                 5,
                 {},
                 {},
                 renderPaperTables});
    S.push_back({"ablation",
                 "CCS ablation: 6 held-fraction sweep workloads (held0 .."
                 " held99) x {Unopt,FTO,ST}-DC, 400k events, median of 5",
                 heldFractionSweep(),
                 {AnalysisKind::UnoptDC, AnalysisKind::FTODC,
                  AnalysisKind::STDC},
                 400000,
                 1,
                 5,
                 {},
                 {},
                 renderAblation});
    return S;
  }();
  return Suites;
}

struct Options {
  const SuiteSpec *Suite = nullptr;
  std::vector<std::string> WorkloadNames; // overrides suite when non-empty
  std::vector<const WorkloadProfile *> Workloads;
  std::vector<AnalysisKind> Analyses; // overrides suite when non-empty
  uint64_t Events = 0;                // 0 = suite default
  unsigned Warmup = UINT_MAX;         // UINT_MAX = suite default
  unsigned Repeats = UINT_MAX;
  size_t BatchSize = 1 << 14;
  uint64_t Seed = 42;
  const char *OutPath = "BENCH_results.json";
  bool Quiet = false;
  ValidationMode Validation = ValidationMode::Off;
  std::vector<unsigned> ShardCounts; // overrides suite when set
  bool ShardCountsSet = false;
};

void printUsage(FILE *Out, const char *Prog) {
  std::fprintf(
      Out,
      "usage: %s [options]\n"
      "\n"
      "Runs a declarative benchmark suite (synthetic DaCapo-shaped\n"
      "workloads x the analysis ladder) through the streaming engine and\n"
      "writes a schema-versioned JSON report plus a human table.\n"
      "\n"
      "options:\n"
      "  --suite=NAME     smoke, ci (default), full or ablation (the last\n"
      "                   two print the paper's tables)\n"
      "  --workloads=a,b  workload profile names (see --list)\n"
      "  --analyses=a,b   analysis names (see --list); default: the ladder\n"
      "  --events=N       events per workload (default: suite's)\n"
      "  --warmup=N       unmeasured trials per cell (default: suite's)\n"
      "  --repeats=N      measured trials per cell, median reported\n"
      "  --batch=N        events per engine batch (default 16384)\n"
      "  --seed=N         workload generator seed (default 42)\n"
      "  --shards=a,b,c   shard counts for the suite's shard-scaling\n"
      "                   cells (default: suite's; empty list disables)\n"
      "  --validate=MODE  Session lint pass: off (default), warn, or\n"
      "                   strict; lint runs in the source wrapper, so\n"
      "                   per-cell analysis times are comparable either\n"
      "                   way (the CI gate runs warn)\n"
      "  --out=FILE       JSON output path, '-' for stdout\n"
      "                   (default BENCH_results.json)\n"
      "  --quiet          suppress the human-readable table\n"
      "  --list           list suites, workloads, and analyses; exit\n"
      "  -h, --help       show this message\n",
      Prog);
}

void printList() {
  std::printf("suites:\n");
  for (const SuiteSpec &S : suites())
    std::printf("  %-8s %s\n", S.Name, S.Description);
  std::printf("workloads (src/workload profiles, Table 2 shapes):\n");
  for (const WorkloadProfile &P : dacapoProfiles())
    std::printf("  %-9s %2u threads, %5.1f%% NSEAs\n", P.Name, P.Threads,
                P.NseaFraction * 100);
  std::printf("analyses (Table 1 registry order):\n");
  for (AnalysisKind K : allAnalysisKinds())
    std::printf("  %s\n", analysisKindName(K));
}

bool parseCount(const char *Value, const char *Flag, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long N = std::strtoull(Value, &End, 10);
  if (End == Value || *End != '\0' || *Value == '-' || errno == ERANGE) {
    std::fprintf(stderr, "error: bad %s value '%s'\n", Flag, Value);
    return false;
  }
  Out = N;
  return true;
}

std::vector<std::string> splitCommas(const char *S) {
  std::vector<std::string> Out;
  std::istringstream In(S);
  for (std::string Item; std::getline(In, Item, ',');)
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

const SuiteSpec *findSuite(const char *Name) {
  for (const SuiteSpec &S : suites())
    if (std::strcmp(S.Name, Name) == 0)
      return &S;
  return nullptr;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    uint64_t N = 0;
    if (std::strncmp(Arg, "--suite=", 8) == 0) {
      Opts.Suite = findSuite(Arg + 8);
      if (!Opts.Suite) {
        std::fprintf(stderr, "error: unknown suite '%s' (try --list)\n",
                     Arg + 8);
        return false;
      }
    } else if (std::strncmp(Arg, "--workloads=", 12) == 0) {
      for (const std::string &W : splitCommas(Arg + 12))
        Opts.WorkloadNames.push_back(W);
    } else if (std::strncmp(Arg, "--analyses=", 11) == 0) {
      for (const std::string &A : splitCommas(Arg + 11)) {
        AnalysisKind K;
        if (!findAnalysisKind(A.c_str(), K)) {
          std::fprintf(stderr, "error: unknown analysis '%s' (try --list)\n",
                       A.c_str());
          return false;
        }
        Opts.Analyses.push_back(K);
      }
    } else if (std::strncmp(Arg, "--events=", 9) == 0) {
      if (!parseCount(Arg + 9, "--events", Opts.Events))
        return false;
    } else if (std::strncmp(Arg, "--warmup=", 9) == 0) {
      if (!parseCount(Arg + 9, "--warmup", N))
        return false;
      Opts.Warmup = static_cast<unsigned>(N);
    } else if (std::strncmp(Arg, "--repeats=", 10) == 0) {
      if (!parseCount(Arg + 10, "--repeats", N))
        return false;
      if (N == 0) {
        std::fprintf(stderr, "error: --repeats must be >= 1\n");
        return false;
      }
      Opts.Repeats = static_cast<unsigned>(N);
    } else if (std::strncmp(Arg, "--batch=", 8) == 0) {
      if (!parseCount(Arg + 8, "--batch", N))
        return false;
      Opts.BatchSize = N ? static_cast<size_t>(N) : 1;
    } else if (std::strncmp(Arg, "--seed=", 7) == 0) {
      if (!parseCount(Arg + 7, "--seed", Opts.Seed))
        return false;
    } else if (std::strncmp(Arg, "--shards=", 9) == 0) {
      Opts.ShardCountsSet = true;
      Opts.ShardCounts.clear();
      for (const std::string &C : splitCommas(Arg + 9)) {
        if (!parseCount(C.c_str(), "--shards", N) || N == 0 || N > 64) {
          std::fprintf(stderr,
                       "error: --shards counts must be in [1, 64]\n");
          return false;
        }
        Opts.ShardCounts.push_back(static_cast<unsigned>(N));
      }
    } else if (std::strncmp(Arg, "--validate=", 11) == 0) {
      const char *V = Arg + 11;
      if (std::strcmp(V, "off") == 0) {
        Opts.Validation = ValidationMode::Off;
      } else if (std::strcmp(V, "warn") == 0) {
        Opts.Validation = ValidationMode::Warn;
      } else if (std::strcmp(V, "strict") == 0) {
        Opts.Validation = ValidationMode::Strict;
      } else {
        std::fprintf(stderr,
                     "error: bad --validate '%s' (expected off, warn, or "
                     "strict)\n",
                     V);
        return false;
      }
    } else if (std::strncmp(Arg, "--out=", 6) == 0) {
      Opts.OutPath = Arg + 6;
    } else if (std::strcmp(Arg, "--quiet") == 0) {
      Opts.Quiet = true;
    } else if (std::strcmp(Arg, "--list") == 0) {
      printList();
      std::exit(0);
    } else if (std::strcmp(Arg, "-h") == 0 ||
               std::strcmp(Arg, "--help") == 0) {
      printUsage(stdout, Argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      printUsage(stderr, Argv[0]);
      return false;
    }
  }
  if (!Opts.Suite)
    Opts.Suite = findSuite("ci");
  // Names resolve against the suite's own profiles first, so --workloads
  // can pick ablation sweep points as well as DaCapo profiles.
  for (const std::string &Name : Opts.WorkloadNames) {
    const WorkloadProfile *P = findProfile(Name.c_str());
    for (const WorkloadProfile &SP : Opts.Suite->Workloads)
      if (Name == SP.Name)
        P = &SP;
    if (!P) {
      std::fprintf(stderr, "error: unknown workload '%s' (try --list)\n",
                   Name.c_str());
      return false;
    }
    Opts.Workloads.push_back(P);
  }
  if (Opts.Workloads.empty())
    for (const WorkloadProfile &P : Opts.Suite->Workloads)
      Opts.Workloads.push_back(&P);
  if (Opts.Analyses.empty())
    Opts.Analyses = Opts.Suite->Analyses;
  if (Opts.Events == 0)
    Opts.Events = Opts.Suite->Events;
  if (Opts.Warmup == UINT_MAX)
    Opts.Warmup = Opts.Suite->Warmup;
  if (Opts.Repeats == UINT_MAX)
    Opts.Repeats = Opts.Suite->Repeats;
  if (!Opts.ShardCountsSet)
    Opts.ShardCounts = Opts.Suite->ShardCounts;
  return true;
}

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

double median(std::vector<double> Xs) {
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  if (N == 0)
    return 0;
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

/// --events or the suite's count; failing both (the paper grid), the
/// profile's paper event count / 4000, clamped to [100k, 20M].
uint64_t eventsFor(const WorkloadProfile &P, const Options &Opts) {
  return Opts.Events ? Opts.Events
                     : std::clamp<uint64_t>(P.PaperTotalEvents / 4000,
                                            100000, 20000000);
}

/// Streams \p P through a fresh Session (and generator, so every trial
/// sees the identical stream) per trial; returns the --repeats measured
/// reports that follow --warmup unmeasured ones. With no \p Kind this is
/// the uninstrumented drain, warmed up like every cell so the slowdown
/// denominator does not carry cold-start cost the cells already shed.
std::vector<RunReport> runTrials(const WorkloadProfile &P, const Options &Opts,
                                 std::optional<AnalysisKind> Kind,
                                 unsigned Shards = 0) {
  std::vector<RunReport> Measured;
  for (unsigned T = 0; T != Opts.Warmup + Opts.Repeats; ++T) {
    SessionOptions SO;
    SO.BatchSize = Opts.BatchSize;
    SO.SampleFootprint = Kind.has_value();
    SO.MaxStoredRaces = 64;
    SO.Validation = Opts.Validation;
    if (Shards)
      SO.Shards = Shards;
    Session S(SO);
    if (Kind)
      S.add(*Kind);
    WorkloadGenerator Gen(P, eventsFor(P, Opts), Opts.Seed);
    GeneratorEventSource Src(Gen);
    RunReport Rep = S.run(Src);
    if (T >= Opts.Warmup)
      Measured.push_back(std::move(Rep));
  }
  return Measured;
}

CellResult measureCell(const WorkloadProfile &P, AnalysisKind Kind,
                       const Options &Opts, unsigned Shards = 0) {
  CellResult Cell;
  Cell.Kind = Kind;
  Cell.Shards = Shards;
  for (const RunReport &Rep : runTrials(P, Opts, Kind, Shards)) {
    const AnalysisRunResult &A = Rep.Analyses.front();
    Cell.Events = Rep.Stream.Events;
    Cell.Seconds.push_back(A.Seconds);
    Cell.FootprintBytes.push_back(
        std::max(A.PeakFootprintBytes, A.FinalFootprintBytes));
    Cell.PeakFootprintBytes =
        std::max(Cell.PeakFootprintBytes, A.PeakFootprintBytes);
    Cell.FinalFootprintBytes = A.FinalFootprintBytes;
    Cell.DynamicRaces = A.DynamicRaces;
    Cell.StaticRaces = A.StaticRaces;
    Cell.HasCaseStats = A.HasCaseStats;
    Cell.Cases = A.Cases;
  }
  Cell.MedianSeconds = median(Cell.Seconds);
  return Cell;
}

//===----------------------------------------------------------------------===//
// JSON report
//===----------------------------------------------------------------------===//

// Schema: bump on any breaking change to the JSON layout; the CI compare
// gate refuses to diff across schema versions.
constexpr unsigned SchemaVersion = 2;

/// Appends printf-formatted text to \p Out.
template <typename... Ts>
void appendf(std::string &Out, const char *Format, Ts... Args) {
  size_t Old = Out.size();
  int N = std::snprintf(nullptr, 0, Format, Args...);
  Out.resize(Old + static_cast<size_t>(N) + 1);
  std::snprintf(&Out[Old], static_cast<size_t>(N) + 1, Format, Args...);
  Out.resize(Old + static_cast<size_t>(N));
}

using ULL = unsigned long long;

/// Workload names and analysis names are identifier-shaped, so strings
/// are quoted without escaping; numbers print as %.9g.
std::string jsonReport(const Options &Opts,
                       const std::vector<WorkloadResult> &Workloads,
                       AnalysisKind Reference) {
  // hardware_concurrency is recorded so the shard-scaling gate can tell
  // "no speedup because the machine has too few cores" from a real
  // regression; each cell repeats it because comparison tooling reads
  // cells in isolation.
  unsigned Cores = std::thread::hardware_concurrency();
  std::string Out;
  appendf(Out,
          "{\n  \"schema\": \"st-bench/v2\",\n  \"schema_version\": %u,\n"
          "  \"suite\": \"%s\",\n  \"config\": {\"events\": %llu, "
          "\"warmup\": %u, \"repeats\": %u, \"batch\": %llu, \"seed\": %llu,"
          " \"hardware_concurrency\": %u, \"reference\": \"%s\"},\n"
          "  \"workloads\": [\n",
          SchemaVersion, Opts.Suite->Name, ULL(Opts.Events), Opts.Warmup,
          Opts.Repeats, ULL(Opts.BatchSize), ULL(Opts.Seed), Cores,
          analysisKindName(Reference));
  for (size_t W = 0; W != Workloads.size(); ++W) {
    const WorkloadResult &WR = Workloads[W];
    appendf(Out,
            "    {\"name\": \"%s\", \"threads\": %u, \"events\": %llu, "
            "\"drain_seconds\": %.9g}%s\n",
            WR.Profile->Name, WR.Profile->Threads, ULL(WR.Events),
            WR.DrainSeconds, W + 1 != Workloads.size() ? "," : "");
  }
  Out += "  ],\n  \"results\": [\n";
  size_t Total = 0, Emitted = 0;
  for (const WorkloadResult &WR : Workloads)
    Total += WR.Cells.size();
  for (const WorkloadResult &WR : Workloads) {
    // The reference cell for relative costs lives in the same workload,
    // keeping the ratio free of cross-workload generation differences.
    const CellResult *Ref = WR.find(Reference);
    for (const CellResult &C : WR.Cells) {
      appendf(Out, "    {\"workload\": \"%s\", \"analysis\": \"%s\"",
              WR.Profile->Name, analysisKindName(C.Kind));
      if (C.Shards)
        appendf(Out, ", \"shards\": %u", C.Shards);
      if (C.Shards > 1)
        appendf(Out, ", \"scaling_efficiency\": %.9g", C.ScalingEfficiency);
      appendf(Out,
              ", \"events\": %llu, \"hardware_concurrency\": %u,\n"
              "     \"seconds\": [",
              ULL(C.Events), Cores);
      for (size_t I = 0; I != C.Seconds.size(); ++I)
        appendf(Out, "%s%.9g", I ? ", " : "", C.Seconds[I]);
      appendf(Out,
              "], \"seconds_median\": %.9g,\n     \"ns_per_event\": %.9g, "
              "\"events_per_sec\": %.9g",
              C.MedianSeconds, C.nsPerEvent(), C.eventsPerSec());
      if (Ref && Ref->MedianSeconds > 0)
        appendf(Out, ", \"relative_cost\": %.9g",
                C.MedianSeconds / Ref->MedianSeconds);
      if (WR.DrainSeconds > 0)
        appendf(Out, ", \"slowdown_vs_drain\": %.9g",
                (WR.DrainSeconds + C.MedianSeconds) / WR.DrainSeconds);
      appendf(Out,
              ",\n     \"peak_footprint_bytes\": %llu, "
              "\"final_footprint_bytes\": %llu, \"dynamic_races\": %llu, "
              "\"static_races\": %u}%s\n",
              ULL(C.PeakFootprintBytes), ULL(C.FinalFootprintBytes),
              ULL(C.DynamicRaces), C.StaticRaces,
              ++Emitted != Total ? "," : "");
    }
  }
  Out += "  ]\n}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Human table
//===----------------------------------------------------------------------===//

void printTable(const std::vector<WorkloadResult> &Workloads,
                AnalysisKind Reference) {
  for (const WorkloadResult &WR : Workloads) {
    std::printf("%s (%u threads, %llu events, drain %.1f ms)\n",
                WR.Profile->Name, WR.Profile->Threads,
                static_cast<unsigned long long>(WR.Events),
                WR.DrainSeconds * 1e3);
    std::printf("  %-9s %12s %14s %9s %10s %7s\n", "analysis", "ns/event",
                "events/sec", "vs-ref", "peak-KiB", "races");
    const CellResult *Ref = WR.find(Reference);
    for (const CellResult &C : WR.Cells) {
      char RefBuf[16] = "-";
      if (C.Shards > 1) {
        // Shard-scaling rows quote efficiency, not relative cost.
        std::snprintf(RefBuf, sizeof(RefBuf), "%.0f%%eff",
                      C.ScalingEfficiency * 100);
      } else if (Ref && Ref->MedianSeconds > 0) {
        std::snprintf(RefBuf, sizeof(RefBuf), "%.2fx",
                      C.MedianSeconds / Ref->MedianSeconds);
      }
      std::string Name = analysisKindName(C.Kind);
      if (C.Shards)
        Name += "/" + std::to_string(C.Shards);
      std::printf("  %-9s %12.1f %14.0f %9s %10.0f %7llu\n", Name.c_str(),
                  C.nsPerEvent(), C.eventsPerSec(), RefBuf,
                  static_cast<double>(C.PeakFootprintBytes) / 1024,
                  static_cast<unsigned long long>(C.DynamicRaces));
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  // Relative costs are reported against FT2 when the selection includes
  // it (the paper's own baseline); otherwise against the first analysis.
  AnalysisKind Reference = Opts.Analyses.front();
  if (std::count(Opts.Analyses.begin(), Opts.Analyses.end(),
                 AnalysisKind::FT2))
    Reference = AnalysisKind::FT2;

  std::vector<WorkloadResult> Workloads;
  for (const WorkloadProfile *P : Opts.Workloads) {
    WorkloadResult WR;
    WR.Profile = P;
    std::vector<double> Drains;
    for (const RunReport &Rep : runTrials(*P, Opts, std::nullopt))
      Drains.push_back(Rep.WallSeconds);
    WR.DrainSeconds = median(std::move(Drains));
    if (Opts.Suite->Render) {
      WorkloadGenerator Gen(*P, eventsFor(*P, Opts), Opts.Seed);
      WR.Characteristics = measureCharacteristics(Gen);
    }
    for (AnalysisKind K : Opts.Analyses) {
      if (!Opts.Quiet) {
        std::fprintf(stderr, "bench: %s / %s...\n", P->Name,
                     analysisKindName(K));
      }
      CellResult Cell = measureCell(*P, K, Opts);
      WR.Events = Cell.Events;
      WR.Cells.push_back(std::move(Cell));
    }
    // Shard-scaling column for this workload: one cell per shard count,
    // then efficiency against the 1-shard anchor measured in this run.
    for (const ShardCellSpec &SC : Opts.Suite->ShardCells) {
      if (SC.Workload != P->Name || !isShardable(SC.Kind))
        continue;
      size_t First = WR.Cells.size();
      for (unsigned Shards : Opts.ShardCounts) {
        if (!Opts.Quiet) {
          std::fprintf(stderr, "bench: %s / %s x%u shards...\n", P->Name,
                       analysisKindName(SC.Kind), Shards);
        }
        WR.Cells.push_back(measureCell(*P, SC.Kind, Opts, Shards));
      }
      const CellResult *Anchor = nullptr;
      for (size_t I = First; I != WR.Cells.size(); ++I)
        if (WR.Cells[I].Shards == 1)
          Anchor = &WR.Cells[I];
      if (Anchor && Anchor->eventsPerSec() > 0)
        for (size_t I = First; I != WR.Cells.size(); ++I)
          WR.Cells[I].ScalingEfficiency =
              WR.Cells[I].eventsPerSec() /
              (WR.Cells[I].Shards * Anchor->eventsPerSec());
    }
    Workloads.push_back(std::move(WR));
  }

  std::string Report = jsonReport(Opts, Workloads, Reference);
  if (std::strcmp(Opts.OutPath, "-") == 0) {
    std::fwrite(Report.data(), 1, Report.size(), stdout);
  } else {
    FILE *Out = std::fopen(Opts.OutPath, "wb");
    if (!Out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   Opts.OutPath);
      return 1;
    }
    size_t Written = std::fwrite(Report.data(), 1, Report.size(), Out);
    if (std::fclose(Out) != 0 || Written != Report.size()) {
      std::fprintf(stderr, "error: writing %s failed\n", Opts.OutPath);
      return 1;
    }
    if (!Opts.Quiet)
      std::fprintf(stderr, "bench: wrote %s\n", Opts.OutPath);
  }
  if (Opts.Quiet)
    return 0;
  if (Opts.Suite->Render)
    std::fputs(Opts.Suite->Render(Workloads).c_str(), stdout);
  else
    printTable(Workloads, Reference);
  return 0;
}
