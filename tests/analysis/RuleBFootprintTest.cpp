//===- tests/analysis/RuleBFootprintTest.cpp - Flat rule-(b) memory -------===//
//
// The DC analyses keep rule-(b) acquire/release history per lock. Once
// every releaser has drained an acquirer, that history must be freed, so
// on a steady workload the metadata footprint levels off instead of
// growing with the trace. Checked on the lock-heavy xalan profile, where
// nearly every access runs under two or more locks.
//
// The SmartTrack kinds are checked for every relation: their CS records,
// release clocks and per-variable read/extra records are recycled through
// free lists, so their footprint must level off too.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/AnalysisRegistry.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

using namespace st;

namespace {

class RuleBFootprintTest : public ::testing::TestWithParam<AnalysisKind> {};

TEST_P(RuleBFootprintTest, XalanFootprintLevelsOff) {
  constexpr uint64_t Early = 100000, Late = 500000;
  WorkloadGenerator Gen(*findProfile("xalan"), Late, /*Seed=*/1);
  std::unique_ptr<Analysis> A = createAnalysis(GetParam());
  size_t AtEarly = 0, AtLate = 0;
  Event E;
  for (uint64_t N = 1; N <= Late && Gen.next(E); ++N) {
    A->processEvent(E);
    if (N == Early)
      AtEarly = A->metadataFootprintBytes();
    if (N == Late)
      AtLate = A->metadataFootprintBytes();
  }
  ASSERT_GT(AtEarly, 0u);
  ASSERT_GT(AtLate, 0u) << "the stream ended before " << Late << " events";
  EXPECT_LE(static_cast<double>(AtLate), 1.5 * static_cast<double>(AtEarly))
      << analysisKindName(GetParam()) << ": " << AtEarly << " bytes at "
      << Early << " events, " << AtLate << " at " << Late;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, RuleBFootprintTest,
    ::testing::Values(AnalysisKind::UnoptDC, AnalysisKind::FTODC,
                      AnalysisKind::STDC, AnalysisKind::STWCP,
                      AnalysisKind::STWDC),
    [](const ::testing::TestParamInfo<AnalysisKind> &Info) {
      std::string Name = analysisKindName(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

} // namespace
