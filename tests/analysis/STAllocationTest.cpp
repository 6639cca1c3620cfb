//===- tests/analysis/STAllocationTest.cpp - ST heap allocation budget ----===//
//
// SmartTrack's critical-section records, release clocks and per-variable
// read/extra metadata live in a per-core arena whose records are recycled
// (analysis/CSList.h), so a warm ST core should almost never reach the
// heap. This binary replaces the global operator new/delete with counting
// versions and checks the steady-state allocation rate of each ST kind on
// the lock-heavy xalan profile, where every access snapshot, acquire and
// release used to allocate. It is its own executable because the
// replacement applies to the whole program.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/AnalysisRegistry.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> Counting{false};
std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t N) {
  if (Counting.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t N) { return countedAlloc(N); }
void *operator new[](std::size_t N) { return countedAlloc(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace st;

namespace {

class STAllocationTest : public ::testing::TestWithParam<AnalysisKind> {};

TEST_P(STAllocationTest, XalanSteadyStateStaysOffTheHeap) {
  // Events [Warm, End) are counted: by then every pool has reached the
  // size the stream needs.
  constexpr uint64_t Warm = 200000, End = 500000;
  constexpr double Budget = 0.06; // allocations per event
  WorkloadGenerator Gen(*findProfile("xalan"), End, /*Seed=*/1);
  std::unique_ptr<Analysis> A = createAnalysis(GetParam());
  Event E;
  uint64_t N = 0;
  Allocations = 0;
  for (; N < End && Gen.next(E); ++N) {
    // Only the analysis is counted, not the generator.
    Counting = N >= Warm;
    A->processEvent(E);
    Counting = false;
  }
  ASSERT_EQ(N, End) << "the stream ended early";
  double PerEvent = static_cast<double>(Allocations.load()) /
                    static_cast<double>(End - Warm);
  EXPECT_LE(PerEvent, Budget)
      << analysisKindName(GetParam()) << ": " << Allocations.load()
      << " allocations over events " << Warm << ".." << End;
}

INSTANTIATE_TEST_SUITE_P(
    STKinds, STAllocationTest,
    ::testing::Values(AnalysisKind::STWCP, AnalysisKind::STDC,
                      AnalysisKind::STWDC),
    [](const ::testing::TestParamInfo<AnalysisKind> &Info) {
      std::string Name = analysisKindName(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

} // namespace
