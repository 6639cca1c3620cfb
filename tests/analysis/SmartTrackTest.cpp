//===- tests/analysis/SmartTrackTest.cpp - SmartTrack-specific tests ------===//
//
// Exercises Algorithm 3's machinery directly: CS lists and deferred release
// clocks, MultiCheck's held-lock joins, the [Read Share]-over-[Read
// Exclusive] behavior (Figure 4(b)), the extra metadata E^r/E^w (Figures
// 4(c,d)), the epoch acquire-queue optimization, and case statistics; and
// the CSArena those lists live in (sharing, path copying, recycling).
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisRegistry.h"
#include "analysis/FTOCore.h"
#include "analysis/STCore.h"
#include "trace/TraceText.h"
#include "workload/Figures.h"

#include <gtest/gtest.h>

using namespace st;

namespace {

TEST(SmartTrackTest, Fig4aWalkthroughIsRaceFree) {
  // The paper's §4.2 walkthrough: nested critical sections on p/m/n; the
  // deferred release clocks and MultiCheck joins must order everything.
  SmartTrackDC A;
  A.processTrace(figures::fig4a());
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, Fig4aTakesReadShareWhereFTOTakesReadExclusive) {
  // At Thread 2's rd(x), the prior write's outermost critical section on p
  // is still unreleased, so SmartTrack must take [Read Share]; FTO-DC takes
  // [Read Exclusive] because the access itself is DC-ordered.
  // fig4a has three reads: rd(x) by T2 plus the rd(oVar) of each sync(o).
  // ST: rd(x) and T3's rd(oVar) take [Read Share] (their predecessors'
  // sections are unreleased or DC-unordered); T2's rd(oVar) is the first
  // access (exclusive). FTO orders all three accesses directly and never
  // shares.
  SmartTrackDC ST;
  ST.processTrace(figures::fig4a());
  EXPECT_EQ(ST.caseStats()->ReadShare, 2u);
  EXPECT_EQ(ST.caseStats()->ReadExclusive, 1u);

  FTODC FTO;
  FTO.processTrace(figures::fig4a());
  EXPECT_EQ(FTO.caseStats()->ReadExclusive, 3u);
  EXPECT_EQ(FTO.caseStats()->ReadShare, 0u);
}

TEST(SmartTrackTest, Fig4bExtendedNeedsReadShareBehavior) {
  // Without the [Read Share] behavior, ST-WDC would lose Thread 1's
  // critical section on m and report a spurious race on z (Figure 4(b)).
  SmartTrackWDC A;
  A.processTrace(figures::fig4bExtended());
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, Fig4cExtendedNeedsExtraWriteMetadata) {
  // Thread 2's un-locked wr(x) overwrites L^w_x; E^w_x must preserve
  // Thread 1's critical section (Figure 4(c)).
  SmartTrackWDC A;
  A.processTrace(figures::fig4cExtended());
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, Fig4dExtendedNeedsExtraReadMetadata) {
  // Same as fig4c but the lost section contains a read: E^r_x (Figure 4(d)).
  SmartTrackWDC A;
  A.processTrace(figures::fig4dExtended());
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, DeferredReleaseClockResolvesAcrossThreads) {
  // T2 conflicts with T1's still-open critical section on m at the time of
  // T1's wr(x); the CS-list entry is filled at rel(m) and T2's MultiCheck
  // must pick up the final clock, ordering everything.
  SmartTrackDC A;
  A.processTrace(traceFromText(R"(
    T1: acq(m)
    T1: wr(x)
    T1: rel(m)
    T2: acq(m)
    T2: wr(x)
    T2: wr(y)
    T2: rel(m)
    T1x: rd(y)
  )"));
  // T1x never synchronized: rd(y) races with T2's wr(y).
  EXPECT_EQ(A.dynamicRaces(), 1u);
}

TEST(SmartTrackTest, UnreleasedSectionNeverOrders) {
  // T1 still holds m when T2 writes x without the lock: the ∞ sentinel in
  // the CS-list clock must make the ordering check fail, and the write must
  // race with T1's read.
  SmartTrackDC A;
  A.processTrace(traceFromText(R"(
    T1: acq(m)
    T1: rd(x)
    T2: wr(x)
  )"));
  EXPECT_EQ(A.dynamicRaces(), 1u);
}

TEST(SmartTrackTest, MultiCheckJoinsInnerSectionWhenOuterUnmatched) {
  // T1's wr(x) sits in nested sections on p (outer) and m (inner); T2 holds
  // only m. MultiCheck walks outermost-to-innermost: p is unmatched (and
  // unordered), m matches and joins. No race.
  SmartTrackDC A;
  A.processTrace(traceFromText(R"(
    T1: acq(p)
    T1: acq(m)
    T1: wr(x)
    T1: rel(m)
    T1: rel(p)
    T2: acq(m)
    T2: wr(x)
    T2: rel(m)
  )"));
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, CaseStatsMatchFTOOnOwnedPatterns) {
  const char *Text = R"(
    T1: wr(x)
    T1: acq(m)
    T1: rd(x)
    T1: wr(x)
    T1: rel(m)
  )";
  SmartTrackDC ST;
  FTODC FTO;
  ST.processTrace(traceFromText(Text));
  FTO.processTrace(traceFromText(Text));
  EXPECT_EQ(ST.caseStats()->ReadOwned, FTO.caseStats()->ReadOwned);
  EXPECT_EQ(ST.caseStats()->WriteOwned, FTO.caseStats()->WriteOwned);
  EXPECT_EQ(ST.caseStats()->WriteExclusive,
            FTO.caseStats()->WriteExclusive);
}

TEST(SmartTrackTest, STWCPComposesWithHB) {
  SmartTrackWCP A;
  A.processTrace(figures::fig2a());
  EXPECT_EQ(A.dynamicRaces(), 0u) << "WCP composes with HB: no race";
  SmartTrackDC DC;
  DC.processTrace(figures::fig2a());
  EXPECT_EQ(DC.dynamicRaces(), 1u) << "DC composes with PO only: race";
}

TEST(SmartTrackTest, STDCRuleBOrdersFig3) {
  SmartTrackDC DC;
  DC.processTrace(figures::fig3());
  EXPECT_EQ(DC.dynamicRaces(), 0u);
  SmartTrackWDC WDC;
  WDC.processTrace(figures::fig3());
  EXPECT_EQ(WDC.dynamicRaces(), 1u);
}

TEST(SmartTrackTest, ExtraMetadataConsumedAtWrites) {
  // After fig4c's pattern, a later same-thread write holding m should have
  // consumed (and cleared) the extra metadata without changing verdicts.
  SmartTrackWDC A;
  Trace Tr = figures::fig4cExtended();
  A.processTrace(Tr);
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, SameEpochFastPathsCount) {
  SmartTrackDC A;
  A.processTrace(traceFromText(R"(
    T1: wr(x)
    T1: wr(x)
    T1: rd(x)
    T1: rd(x)
  )"));
  EXPECT_EQ(A.caseStats()->WriteSameEpoch, 1u);
  // After a write by the same thread in the same epoch, reads hit the
  // same-epoch path too (R_x was updated by the write).
  EXPECT_EQ(A.caseStats()->ReadSameEpoch, 2u);
}

TEST(SmartTrackTest, LocksReleasedOutOfOrderStillTracked) {
  // Hand-over-hand (non-nested) locking: acq(a); acq(b); rel(a); rel(b).
  SmartTrackDC A;
  A.processTrace(traceFromText(R"(
    T1: acq(a)
    T1: acq(b)
    T1: wr(x)
    T1: rel(a)
    T1: rel(b)
    T2: acq(b)
    T2: wr(x)
    T2: rel(b)
  )"));
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

/// First race of \p K on \p Tr, or -1.
long firstRace(AnalysisKind K, const Trace &Tr) {
  auto A = createAnalysis(K);
  A->processTrace(Tr);
  const auto &Records = A->raceRecords();
  return Records.empty() ? -1 : static_cast<long>(Records.front().EventIdx);
}

/// Unopt, FTO and ST agree on the first race for WCP, DC and WDC.
void expectLadderAgrees(const Trace &Tr) {
  const struct {
    AnalysisKind Unopt, FTO, ST;
  } Families[] = {
      {AnalysisKind::UnoptWCP, AnalysisKind::FTOWCP, AnalysisKind::STWCP},
      {AnalysisKind::UnoptDC, AnalysisKind::FTODC, AnalysisKind::STDC},
      {AnalysisKind::UnoptWDC, AnalysisKind::FTOWDC, AnalysisKind::STWDC},
  };
  for (const auto &F : Families) {
    long U = firstRace(F.Unopt, Tr);
    EXPECT_EQ(U, firstRace(F.FTO, Tr)) << analysisKindName(F.FTO);
    EXPECT_EQ(U, firstRace(F.ST, Tr)) << analysisKindName(F.ST);
  }
}

TEST(SmartTrackTest, MultiCheckWalksSectionsInReleaseOrder) {
  // T0 releases m2 before m0, so its inner section on m0 ends last and
  // holds wr(x1). T1's rd(x0) under both locks must join the m0 section's
  // release clock, not the outer m2 one (released before wr(x1)), or T1's
  // later rd(x1) races spuriously.
  expectLadderAgrees(traceFromText(R"(
    T0: acq(m2)
    T0: acq(m0)
    T0: wr(x0)
    T0: rel(m2)
    T0: wr(x1)
    T0: rel(m0)
    T1: acq(m0)
    T1: acq(m2)
    T1: rd(x0)
    T1: rel(m0)
    T1: rd(x1)
  )"));
}

TEST(SmartTrackTest, WriteSharedJoinsEveryReaderBeforeChecking) {
  // T1's wr(x1) under m1 joins T2's section on m1, which is ordered after
  // T0's section (rule (a) on x0) and so after T0's earlier rd(x1). Checking
  // T0's read before joining T2's section reports a spurious race.
  expectLadderAgrees(traceFromText(R"(
    T2: rd(x1)
    T0: rd(x1)
    T0: acq(m1)
    T0: rd(x0)
    T0: rel(m1)
    T2: acq(m1)
    T2: wr(x0)
    T2: rd(x1)
    T2: rel(m1)
    T1: acq(m1)
    T1: wr(x1)
  )"));
}

TEST(SmartTrackTest, WriteSharedChecksEveryReader) {
  // Two unordered readers, then an unordered writer: exactly one dynamic
  // race is counted at the write (paper §5.1), and the verdict matches FTO.
  SmartTrackDC ST;
  FTODC FTO;
  Trace Tr = traceFromText("T1: rd(x)\nT2: rd(x)\nT3: wr(x)\n");
  ST.processTrace(Tr);
  FTO.processTrace(Tr);
  EXPECT_EQ(ST.dynamicRaces(), 1u);
  EXPECT_EQ(FTO.dynamicRaces(), 1u);
}

TEST(SmartTrackTest, FootprintTracksCSLists) {
  SmartTrackDC A;
  size_t Empty = A.footprintBytes();
  TraceBuilder B;
  B.acq(0, 0).acq(0, 1).acq(0, 2).write(0, 0);
  A.processTrace(B.build());
  EXPECT_GT(A.footprintBytes(), Empty);
}

TEST(CSArenaTest, NonLIFOReleasePathCopiesAndSharesClocks) {
  CSArena A;
  VectorClock Rel = VectorClock::makeSingleton(1, 7);
  // H_1 = [b, a] (innermost first), shared into metadata as Snap.
  CSHandle H = A.push(A.push(NoCS, /*a=*/0), /*b=*/1);
  A.materialize(H, 1);
  CSHandle Snap = NoCS;
  A.assign(Snap, H);
  CSHandle ClockB = A.clockOf(H), ClockA = A.clockOf(A.next(H));
  EXPECT_EQ(A.clock(ClockA).get(1), InfiniteClock);
  // rel(a) while b is still held: b's node is copied, its clock shared.
  H = A.remove(H, 0, Rel);
  ASSERT_NE(H, Snap);
  EXPECT_EQ(A.lock(H), 1u);
  EXPECT_EQ(A.next(H), NoCS);
  EXPECT_EQ(A.clockOf(H), ClockB);
  // The snapshot still lists a, and sees its release time.
  EXPECT_EQ(A.clockOf(A.next(Snap)), ClockA);
  EXPECT_EQ(A.clock(ClockA).get(1), 7u);
  H = A.remove(H, 1, Rel);
  EXPECT_EQ(H, NoCS);
  EXPECT_EQ(A.clock(ClockB).get(1), 7u);
  A.release(Snap);
}

TEST(CSArenaTest, RecycledRecordsKeepTheFootprintFlat) {
  CSArena A;
  VectorClock Rel;
  Rel.set(20, 3); // wide enough to live on the heap
  auto Cycle = [&] {
    CSHandle H = A.push(A.push(A.push(NoCS, 0), 1), 2);
    A.materialize(H, 20);
    CSHandle Snap = NoCS;
    A.assign(Snap, H);
    for (LockId M : {2u, 0u, 1u}) // one non-LIFO release
      H = A.remove(H, M, Rel);
    A.release(Snap);
  };
  Cycle();
  size_t Warm = A.footprintBytes();
  for (int I = 0; I != 100; ++I)
    Cycle();
  EXPECT_EQ(A.footprintBytes(), Warm);
}

#if ST_CHECKS_ENABLED
TEST(CSArenaDeathTest, UseAfterRecycleIsCaught) {
  CSArena A;
  CSHandle H = A.push(NoCS, 3);
  A.release(H);
  EXPECT_DEATH((void)A.lock(H), "PoisonLock");
  CSHandle H2 = A.push(NoCS, 4);
  A.materialize(H2, 0);
  CSHandle C = A.clockOf(H2);
  A.release(H2);
  EXPECT_DEATH(A.releaseClock(C), "Refs > 0");
}
#endif

} // namespace
