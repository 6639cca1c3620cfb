//===- bench/micro_lint.cpp - Lint-pass overhead microbenchmarks ----------===//
//
// Google-benchmark microbenchmarks for the streaming lint engine on the
// shapes the Session interposes it on: the hard rule alone as the
// validating sources run it (WellFormedChecker: HardRules::step, with the
// engine only for events step declines), the full rule set through the
// engine (Session Warn/Strict), and the same stream with no linting at
// all as the baseline. BM_DrainHardRules minus BM_DrainNoLint is the
// hard check's per-event cost on a clean stream; bench/micro_frame.cpp's
// BM_StbDecodeValidated shows it next to the STB decode it rides on.
//
//===----------------------------------------------------------------------===//

#include "engine/EventSource.h"
#include "lint/Lint.h"
#include "report/Session.h"
#include "workload/RandomTrace.h"

#include <benchmark/benchmark.h>

using namespace st;

namespace {

/// A realistic mixed workload: forks/joins, nested locks, volatiles.
Trace benchTrace(uint64_t Events) {
  RandomTraceConfig C;
  C.Seed = 20200615; // SmartTrack's PLDI year+month+day, fixed forever
  C.Threads = 8;
  C.Vars = 64;
  C.Locks = 8;
  C.Volatiles = 2;
  C.PVolatile = 0.02;
  C.Events = Events;
  C.MaxNesting = 2;
  C.PSync = 0.3;
  C.ForkJoin = true;
  return generateRandomTrace(C);
}

enum class RuleSet { None, Hard, All };

void drainWithRules(benchmark::State &State, RuleSet Rules) {
  Trace Tr = benchTrace(static_cast<uint64_t>(State.range(0)));
  for (auto _ : State) {
    WellFormedChecker Checker;
    LintEngine Eng;
    if (Rules == RuleSet::All)
      addAllRules(Eng);
    for (const Event &E : Tr.events()) {
      if (Rules == RuleSet::Hard)
        Checker.check(E);
      else if (Rules == RuleSet::All)
        Eng.processEvent(E);
      benchmark::DoNotOptimize(&E);
    }
    Eng.finish();
    benchmark::DoNotOptimize(Checker.failed() || Eng.hasErrors());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          State.range(0));
}

} // namespace

// Baseline: the same event walk with no lint engine in the loop.
static void BM_DrainNoLint(benchmark::State &State) {
  drainWithRules(State, RuleSet::None);
}
BENCHMARK(BM_DrainNoLint)->Arg(1 << 14)->Arg(1 << 17);

// The hard well-formedness rule as TextEventSource/StbEventSource run it
// per event when opened with Validate=true.
static void BM_DrainHardRules(benchmark::State &State) {
  drainWithRules(State, RuleSet::Hard);
}
BENCHMARK(BM_DrainHardRules)->Arg(1 << 14)->Arg(1 << 17);

// The full hard + soft set — Session Warn/Strict and st-lint.
static void BM_DrainAllRules(benchmark::State &State) {
  drainWithRules(State, RuleSet::All);
}
BENCHMARK(BM_DrainAllRules)->Arg(1 << 14)->Arg(1 << 17);

namespace {

// End-to-end: the overhead that actually matters is lint relative to an
// analysis consuming the same stream, not lint versus an empty loop.
// lint-on (Warn) vs lint-off here is the "<5% on the ci suite" check.
void sessionAnalyze(benchmark::State &State, ValidationMode Mode) {
  Trace Tr = benchTrace(static_cast<uint64_t>(State.range(0)));
  for (auto _ : State) {
    SessionOptions Opts;
    Opts.MaxStoredRaces = 0;
    Opts.Validation = Mode;
    Session S(Opts);
    S.add(AnalysisKind::STWDC);
    TraceEventSource Src(Tr);
    RunReport Rep = S.run(Src);
    benchmark::DoNotOptimize(Rep.TotalDynamicRaces);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          State.range(0));
}

} // namespace

static void BM_SessionStwdcLintOff(benchmark::State &State) {
  sessionAnalyze(State, ValidationMode::Off);
}
BENCHMARK(BM_SessionStwdcLintOff)->Arg(1 << 17);

static void BM_SessionStwdcLintWarn(benchmark::State &State) {
  sessionAnalyze(State, ValidationMode::Warn);
}
BENCHMARK(BM_SessionStwdcLintWarn)->Arg(1 << 17);

namespace {

// The ci-suite cell measurement (manual time): st-bench cells quote the
// analysis's batch-consumption seconds, with decode and lint upstream in
// the source wrapper. This pair is the "<5% lint-on vs lint-off on the
// ci suite" acceptance check in microbenchmark form.
void cellAnalyze(benchmark::State &State, ValidationMode Mode) {
  Trace Tr = benchTrace(static_cast<uint64_t>(State.range(0)));
  for (auto _ : State) {
    SessionOptions Opts;
    Opts.MaxStoredRaces = 64;
    Opts.SampleFootprint = true;
    Opts.Validation = Mode;
    Session S(Opts);
    S.add(AnalysisKind::STWDC);
    TraceEventSource Src(Tr);
    RunReport Rep = S.run(Src);
    State.SetIterationTime(Rep.Analyses.front().Seconds);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          State.range(0));
}

} // namespace

static void BM_CellStwdcLintOff(benchmark::State &State) {
  cellAnalyze(State, ValidationMode::Off);
}
BENCHMARK(BM_CellStwdcLintOff)->Arg(1 << 17)->UseManualTime();

static void BM_CellStwdcLintWarn(benchmark::State &State) {
  cellAnalyze(State, ValidationMode::Warn);
}
BENCHMARK(BM_CellStwdcLintWarn)->Arg(1 << 17)->UseManualTime();

BENCHMARK_MAIN();
