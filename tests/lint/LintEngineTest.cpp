//===- tests/lint/LintEngineTest.cpp - Lint engine and rule units ---------===//

#include "lint/Lint.h"
#include "support/Rng.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace st;

namespace {

std::vector<LintCode> codesOf(const std::vector<LintDiagnostic> &Diags) {
  std::vector<LintCode> Codes;
  for (const LintDiagnostic &D : Diags)
    Codes.push_back(D.Code);
  return Codes;
}

bool hasCode(const std::vector<LintDiagnostic> &Diags, LintCode C) {
  return std::any_of(Diags.begin(), Diags.end(),
                     [C](const LintDiagnostic &D) { return D.Code == C; });
}

TEST(LintEngineTest, NonLatchingReportsEveryViolation) {
  // Three independent violations in one stream; the pre-lint checker
  // would have stopped at the first.
  std::vector<Event> Events = {
      Event(EventKind::Acquire, 0, 0), Event(EventKind::Acquire, 1, 0),
      Event(EventKind::Release, 2, 1), Event(EventKind::Fork, 0, 0)};
  LintEngine Eng;
  addHardRules(Eng);
  Eng.processBatch(Events.data(), Events.size());
  Eng.finish();
  EXPECT_EQ(Eng.errorCount(), 3u);
  std::vector<LintCode> Codes = codesOf(Eng.diagnostics());
  EXPECT_EQ(Codes, (std::vector<LintCode>{LintCode::AcquireHeld,
                                          LintCode::ReleaseUnheld,
                                          LintCode::SelfForkJoin}));
}

TEST(LintEngineTest, DiagnosticCarriesEventIndexTidAndProvenance) {
  LintEngine Eng;
  addHardRules(Eng);
  Eng.processEvent(Event(EventKind::Acquire, 0, 0));
  Eng.setProvenance(/*Line=*/7, /*Byte=*/0);
  Eng.processEvent(Event(EventKind::Acquire, 3, 0));
  ASSERT_EQ(Eng.diagnostics().size(), 1u);
  const LintDiagnostic &D = Eng.diagnostics()[0];
  EXPECT_EQ(D.EventIdx, 1u);
  EXPECT_EQ(D.Tid, 3u);
  EXPECT_EQ(D.Line, 7u);
  EXPECT_FALSE(D.streamLevel());
  std::string S = formatDiagnostic(D);
  EXPECT_NE(S.find("event 1 (line 7)"), std::string::npos) << S;
  EXPECT_NE(S.find("STL001"), std::string::npos) << S;
}

TEST(LintEngineTest, ErrorPoisonsEventForLaterRules) {
  // An out-of-range fork child must be stopped by the id-range rule
  // before the lifecycle rule would size per-thread state off it.
  LintEngine Eng;
  addAllRules(Eng);
  Eng.processEvent(Event(EventKind::Fork, 0, 0xfffffffeu));
  Eng.finish();
  EXPECT_EQ(Eng.errorCount(), 1u);
  ASSERT_EQ(Eng.diagnostics().size(), 1u);
  EXPECT_EQ(Eng.diagnostics()[0].Code, LintCode::IdOutOfRange);
  // The soft unjoined-thread rule never saw the fork (poisoned), so no
  // STL021 at end of stream either.
  EXPECT_EQ(Eng.warningCount(), 0u);
}

TEST(LintEngineTest, IdRangeCoversAllIdSpaces) {
  const uint32_t Huge = LintEngine::MaxCheckableIds;
  const Event Cases[] = {
      Event(EventKind::Read, Huge, 0),          // thread id
      Event(EventKind::Read, 0, Huge),          // variable id
      Event(EventKind::Acquire, 0, Huge),       // lock id
      Event(EventKind::VolRead, 0, Huge),       // volatile id
      Event(EventKind::Join, 0, Huge),          // child thread id
      Event(EventKind::Write, 0, 0, Huge),      // site id
  };
  for (const Event &E : Cases) {
    LintEngine Eng;
    addHardRules(Eng);
    Eng.processEvent(E);
    EXPECT_EQ(Eng.errorCount(), 1u);
    ASSERT_EQ(Eng.diagnostics().size(), 1u);
    EXPECT_EQ(Eng.diagnostics()[0].Code, LintCode::IdOutOfRange);
    EXPECT_NE(Eng.diagnostics()[0].Message.find("out of range"),
              std::string::npos);
  }
}

TEST(LintEngineTest, StoreCapCountsDroppedAndCallbackSeesAll) {
  LintOptions Opts;
  Opts.MaxStoredDiagnostics = 2;
  LintEngine Eng(Opts);
  addHardRules(Eng);
  size_t CallbackCount = 0;
  Eng.setDiagnosticCallback(
      [&CallbackCount](const LintDiagnostic &) { ++CallbackCount; });
  for (int I = 0; I != 5; ++I)
    Eng.processEvent(Event(EventKind::Release, 0, 0)); // unheld release x5
  EXPECT_EQ(Eng.errorCount(), 5u);
  EXPECT_EQ(Eng.diagnostics().size(), 2u);
  EXPECT_EQ(Eng.droppedDiagnostics(), 3u);
  EXPECT_EQ(CallbackCount, 5u) << "callback streams past the store cap";
  std::string Summary = Eng.summaryString();
  EXPECT_NE(Summary.find("and 3 more"), std::string::npos) << Summary;
}

TEST(LintEngineTest, FinishIsIdempotent) {
  LintEngine Eng;
  addAllRules(Eng);
  Eng.processEvent(Event(EventKind::Acquire, 0, 0));
  Eng.finish();
  EXPECT_EQ(Eng.warningCount(), 1u); // lock held at end
  Eng.finish();
  EXPECT_EQ(Eng.warningCount(), 1u) << "onEnd must not re-fire";
}

TEST(LintRulesTest, LockDisciplineRecoversAfterDoubleAcquire) {
  // After a double acquire the lock is handed to the second acquirer, so
  // its release is not a spurious second violation.
  std::vector<Event> Events = {Event(EventKind::Acquire, 0, 0),
                               Event(EventKind::Acquire, 1, 0),
                               Event(EventKind::Release, 1, 0)};
  LintEngine Eng;
  addHardRules(Eng);
  Eng.processBatch(Events.data(), Events.size());
  EXPECT_EQ(Eng.errorCount(), 1u);
  EXPECT_EQ(Eng.diagnostics()[0].Code, LintCode::AcquireHeld);
}

TEST(LintRulesTest, EmptyCriticalSectionNeedsNoInterveningEvent) {
  Trace WithWork = TraceBuilder()
                       .acq(0, 0)
                       .write(0, 0)
                       .rel(0, 0)
                       .build();
  EXPECT_FALSE(hasCode(lintTrace(WithWork), LintCode::EmptyCriticalSection));

  Trace Empty = TraceBuilder().acq(0, 0).rel(0, 0).build();
  std::vector<LintDiagnostic> Diags = lintTrace(Empty);
  EXPECT_TRUE(hasCode(Diags, LintCode::EmptyCriticalSection));

  // Another thread's event between acq and rel does not fill the
  // critical section: the pending state is per-thread.
  Trace Interleaved =
      TraceBuilder().acq(0, 0).write(1, 0).rel(0, 0).build();
  EXPECT_TRUE(
      hasCode(lintTrace(Interleaved), LintCode::EmptyCriticalSection));
}

TEST(LintRulesTest, VolatileDataAliasIsANoteAndDeduplicated) {
  Trace Tr = TraceBuilder()
                 .volWrite(0, 2)
                 .read(1, 2)
                 .write(0, 2) // same alias again: no second note
                 .build();
  std::vector<LintDiagnostic> Diags = lintTrace(Tr);
  size_t Aliases = 0;
  for (const LintDiagnostic &D : Diags)
    if (D.Code == LintCode::VolatileDataAlias) {
      ++Aliases;
      EXPECT_EQ(D.Severity, LintSeverity::Note);
    }
  EXPECT_EQ(Aliases, 1u);
}

TEST(LintRulesTest, SiteTableChecksDeclaredBoundOncePerSite) {
  LintEngine Eng;
  addSoftRules(Eng);
  LintDeclared Declared;
  Declared.Sites = 2;
  Eng.setDeclared(Declared);
  Eng.processEvent(Event(EventKind::Read, 0, 0, /*Site=*/1));  // in range
  Eng.processEvent(Event(EventKind::Read, 0, 0, /*Site=*/5));  // out
  Eng.processEvent(Event(EventKind::Write, 0, 0, /*Site=*/5)); // dup
  Eng.processEvent(Event(EventKind::Read, 0, 0, /*Site=*/7));  // out
  Eng.finish();
  size_t SiteDiags = 0;
  for (const LintDiagnostic &D : Eng.diagnostics())
    if (D.Code == LintCode::SiteOutOfTable)
      ++SiteDiags;
  EXPECT_EQ(SiteDiags, 2u);
}

TEST(LintRulesTest, SiteTableInertWithoutDeclaration) {
  // Text inputs declare nothing; undeclared tables never fire STL024.
  LintEngine Eng;
  addSoftRules(Eng);
  Eng.processEvent(Event(EventKind::Read, 0, 0, /*Site=*/999));
  Eng.finish();
  EXPECT_FALSE(hasCode(Eng.diagnostics(), LintCode::SiteOutOfTable));
}

TEST(LintRulesTest, SparseThreadIdSpaceWarns) {
  LintEngine Eng;
  addSoftRules(Eng);
  Eng.processEvent(Event(EventKind::Write, 100000, 0));
  Eng.finish();
  ASSERT_TRUE(hasCode(Eng.diagnostics(), LintCode::SparseIdSpace));

  // Dense ids of any count stay quiet.
  LintEngine Dense;
  addSoftRules(Dense);
  for (ThreadId T = 0; T != 5000; ++T)
    Dense.processEvent(Event(EventKind::Write, T, 0));
  Dense.finish();
  EXPECT_FALSE(hasCode(Dense.diagnostics(), LintCode::SparseIdSpace));
}

TEST(LintRulesTest, NearCapThreadIdWarnsOnce) {
  LintEngine Eng;
  addSoftRules(Eng);
  Eng.processEvent(Event(EventKind::Write, LintEngine::MaxCheckableIds / 2, 0));
  Eng.processEvent(
      Event(EventKind::Write, LintEngine::MaxCheckableIds / 2 + 1, 0));
  size_t NearCap = 0;
  for (const LintDiagnostic &D : Eng.diagnostics())
    if (D.Code == LintCode::SparseIdSpace)
      ++NearCap;
  EXPECT_EQ(NearCap, 1u);
}

TEST(WellFormedCheckerTest, AdapterAggregatesAllViolations) {
  WellFormedChecker Checker;
  EXPECT_TRUE(Checker.check(Event(EventKind::Acquire, 0, 0)));
  EXPECT_FALSE(Checker.check(Event(EventKind::Acquire, 1, 0)));
  EXPECT_FALSE(Checker.check(Event(EventKind::Release, 2, 1)))
      << "keeps returning false, keeps collecting";
  EXPECT_TRUE(Checker.failed());
  const std::string &Msg = Checker.error();
  EXPECT_NE(Msg.find("acquire of a held lock"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("does not hold"), std::string::npos) << Msg;
  EXPECT_EQ(Checker.engine().errorCount(), 2u);
}

TEST(WellFormedCheckerTest, MoveKeepsState) {
  WellFormedChecker A;
  A.check(Event(EventKind::Release, 0, 0));
  WellFormedChecker B = std::move(A);
  EXPECT_TRUE(B.failed());
}

TEST(TraceValidateTest, AggregatesEveryViolation) {
  std::vector<Event> Events = {Event(EventKind::Release, 0, 0),
                               Event(EventKind::Fork, 1, 1)};
  Trace Tr(std::move(Events));
  std::string Error;
  EXPECT_FALSE(Tr.validate(&Error));
  EXPECT_NE(Error.find("STL002"), std::string::npos) << Error;
  EXPECT_NE(Error.find("STL006"), std::string::npos) << Error;
}

TEST(TraceBuilderTest, BuildThrowsInAllBuildTypes) {
  // The legacy debug-only assert let ill-formed builder traces through
  // release binaries; now every build type diagnoses them.
  TraceBuilder B;
  B.acq(0, 0).acq(1, 0).rel(2, 1);
  try {
    B.build();
    FAIL() << "build() must throw on an ill-formed trace";
  } catch (const IllFormedTraceError &E) {
    EXPECT_NE(std::string(E.what()).find("not well formed"),
              std::string::npos);
    EXPECT_EQ(E.diagnostics().size(), 2u) << "carries every violation";
    EXPECT_EQ(E.diagnostics()[0].Code, LintCode::AcquireHeld);
    EXPECT_EQ(E.diagnostics()[1].Code, LintCode::ReleaseUnheld);
  }
}

TEST(TraceBuilderTest, BuildStillReturnsWellFormedTraces) {
  EXPECT_NO_THROW({
    Trace Tr = TraceBuilder().fork(0, 1).write(1, 0).join(0, 1).build();
    EXPECT_EQ(Tr.size(), 3u);
  });
}

TEST(LintTraceTest, HardOnlySkipsSoftRules) {
  Trace Tr = TraceBuilder().acq(0, 0).rel(0, 0).build(); // empty CS
  EXPECT_TRUE(lintTrace(Tr, /*SoftRules=*/false).empty());
  EXPECT_FALSE(lintTrace(Tr, /*SoftRules=*/true).empty());
}

/// A random event over small id spaces (threads 0-5, locks 0-2), so
/// re-acquires of held locks, releases of another thread's lock, runs
/// after a join, self forks and joins, double joins and forks of started
/// threads all occur; about one event in twenty carries an out-of-range
/// id instead.
Event randomEvent(Rng &R) {
  const uint32_t Max = LintEngine::MaxCheckableIds;
  ThreadId T = static_cast<ThreadId>(R.nextBelow(6));
  uint32_t Small = static_cast<uint32_t>(R.nextBelow(3));
  switch (R.nextBelow(20)) {
  case 0:
  case 1:
  case 2:
  case 3:
  case 4: {
    SiteId Site = R.nextBool(0.2) ? InvalidId : Small;
    return Event(R.nextBool(0.5) ? EventKind::Write : EventKind::Read, T,
                 Small, Site);
  }
  case 5:
    return Event(R.nextBool(0.5) ? EventKind::VolWrite : EventKind::VolRead,
                 T, Small);
  case 6:
  case 7:
  case 8:
  case 9:
    return Event(EventKind::Acquire, T, Small);
  case 10:
  case 11:
  case 12:
  case 13:
    return Event(EventKind::Release, T, Small);
  case 14:
  case 15:
    return Event(EventKind::Fork, T, static_cast<ThreadId>(R.nextBelow(6)));
  case 16:
  case 17:
    return Event(EventKind::Join, T, static_cast<ThreadId>(R.nextBelow(6)));
  case 18: {
    // Out of range in one field: the thread, the target, or the site.
    uint32_t Huge = R.nextBool(0.5) ? InvalidId - 1 : Max + Small;
    EventKind K = static_cast<EventKind>(R.nextBelow(8));
    switch (R.nextBelow(3)) {
    case 0:
      return Event(K, Huge, Small);
    case 1:
      return Event(K, T, Huge);
    default:
      return Event(EventKind::Read, T, Small, Huge);
    }
  }
  default:
    // In-range ids at the edge of the tables, so step() meets ids it has
    // not sized for yet.
    return Event(EventKind::Acquire, T, 3 + Small);
  }
}

TEST(HardRulesTest, StepAgreesWithTheDiagnosticPath) {
  // WellFormedChecker takes HardRules::step() and falls back to the
  // engine only when step declines; the reference engine runs onEvent()
  // on every event. Diagnostics must match field for field.
  for (uint64_t Seed = 1; Seed <= 2000; ++Seed) {
    Rng R(Seed);
    WellFormedChecker Checker;
    LintEngine Ref;
    addHardRules(Ref);
    for (uint32_t I = 0; I != 80; ++I) {
      Event E = randomEvent(R);
      uint64_t Byte = 3 * uint64_t(I) + 1;
      Ref.setProvenance(I + 1, Byte);
      Ref.processEvent(E);
      ASSERT_EQ(Checker.check(E, I + 1, Byte), !Ref.hasErrors())
          << "seed " << Seed << " event " << I;
    }
    const std::vector<LintDiagnostic> &Got = Checker.engine().diagnostics();
    const std::vector<LintDiagnostic> &Want = Ref.diagnostics();
    ASSERT_EQ(Got.size(), Want.size()) << "seed " << Seed;
    for (size_t D = 0; D != Got.size(); ++D) {
      EXPECT_EQ(Got[D].Code, Want[D].Code) << "seed " << Seed;
      EXPECT_EQ(Got[D].Severity, Want[D].Severity) << "seed " << Seed;
      EXPECT_EQ(Got[D].Message, Want[D].Message) << "seed " << Seed;
      EXPECT_EQ(Got[D].EventIdx, Want[D].EventIdx) << "seed " << Seed;
      EXPECT_EQ(Got[D].Tid, Want[D].Tid) << "seed " << Seed;
      EXPECT_EQ(Got[D].Line, Want[D].Line) << "seed " << Seed;
      EXPECT_EQ(Got[D].Byte, Want[D].Byte) << "seed " << Seed;
    }
    EXPECT_EQ(Checker.engine().eventsProcessed(), Ref.eventsProcessed());
    if (HasFailure())
      break;
  }
}

TEST(HardRulesTest, DeclinedStepChangesNothing) {
  LintEngine Eng;
  HardRules &Hard = addHardRules(Eng);
  Eng.processEvent(Event(EventKind::Acquire, 0, 0)); // sizes the tables
  Eng.processEvent(Event(EventKind::Write, 1, 0));
  EXPECT_FALSE(Hard.step(Event(EventKind::Acquire, 1, 0))) << "held";
  EXPECT_FALSE(Hard.step(Event(EventKind::Release, 1, 0))) << "not owner";
  EXPECT_FALSE(Hard.step(Event(EventKind::Fork, 0, 1))) << "already ran";
  EXPECT_FALSE(Hard.step(Event(EventKind::Join, 1, 1))) << "self join";
  EXPECT_FALSE(Hard.step(Event(EventKind::Read, 0, 0, 1u << 30)))
      << "site out of range";
  // None of the declined steps took effect: T0 still holds m0, T1 may
  // still run.
  EXPECT_TRUE(Hard.step(Event(EventKind::Release, 0, 0)));
  EXPECT_TRUE(Hard.step(Event(EventKind::Join, 0, 1)));
  EXPECT_FALSE(Hard.step(Event(EventKind::Write, 1, 0))) << "joined";
  EXPECT_EQ(Eng.errorCount(), 0u);
}

} // namespace
