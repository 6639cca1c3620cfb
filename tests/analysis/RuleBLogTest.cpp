//===- tests/analysis/RuleBLogTest.cpp - Rule-(b) queue unit tests --------===//
//
// Direct tests of the acquire/release history behind DC/WCP rule (b):
// drain ordering, per-releaser vs shared cursors, dynamic thread discovery
// (late releasers see earlier acquires), storage reclamation and block
// recycling, and a differential check against Algorithm 1's queues taken
// literally.
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleBLog.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <deque>
#include <type_traits>
#include <vector>

using namespace st;

namespace {

VectorClock vc(std::initializer_list<std::pair<ThreadId, ClockValue>> Vals) {
  VectorClock C;
  for (auto [T, V] : Vals)
    C.set(T, V);
  return C;
}

TEST(RuleBLogTest, DrainsOrderedAcquiresInOrder) {
  RuleBLog<VectorClock> Log(/*PerReleaserCursors=*/true);
  // Thread 1 runs two critical sections.
  Log.onAcquire(1, vc({{1, 1}}));
  Log.onRelease(1, vc({{1, 2}}), 10);
  Log.onAcquire(1, vc({{1, 5}}));
  Log.onRelease(1, vc({{1, 6}}), 20);

  // Thread 0's clock knows thread 1 up to time 3: only the first acquire
  // is ordered.
  VectorClock C0 = vc({{0, 9}, {1, 3}});
  std::vector<uint64_t> Seen;
  Log.drainOrdered(0, C0, [&](const VectorClock &Rel, uint64_t RelIdx) {
    Seen.push_back(RelIdx);
    EXPECT_EQ(Rel.get(1), 2u);
  });
  EXPECT_EQ(Seen, std::vector<uint64_t>({10}));

  // Once thread 0 learns more of thread 1, the second acquire drains too.
  C0.set(1, 5);
  Seen.clear();
  Log.drainOrdered(0, C0, [&](const VectorClock &, uint64_t RelIdx) {
    Seen.push_back(RelIdx);
  });
  EXPECT_EQ(Seen, std::vector<uint64_t>({20}));
}

TEST(RuleBLogTest, UnorderedFrontBlocksLaterEntries) {
  // FIFO semantics: if the front is unordered, later (even orderable)
  // entries must wait — matching Algorithm 1's while-front loop.
  RuleBLog<VectorClock> Log(/*PerReleaserCursors=*/true);
  Log.onAcquire(1, vc({{1, 5}, {2, 7}})); // knows thread 2's time 7
  Log.onRelease(1, vc({{1, 6}}), 1);
  Log.onAcquire(1, vc({{1, 8}}));
  Log.onRelease(1, vc({{1, 9}}), 2);

  VectorClock C0 = vc({{1, 9}}); // knows thread 1 fully, thread 2 not
  unsigned Drained = 0;
  Log.drainOrdered(0, C0, [&](const VectorClock &, uint64_t) { ++Drained; });
  EXPECT_EQ(Drained, 0u) << "front entry requires thread 2 knowledge";
}

TEST(RuleBLogTest, PerReleaserCursorsAreIndependent) {
  RuleBLog<VectorClock> Log(/*PerReleaserCursors=*/true);
  Log.onAcquire(2, vc({{2, 1}}));
  Log.onRelease(2, vc({{2, 2}}), 5);

  VectorClock Knows = vc({{2, 4}});
  unsigned A = 0, B = 0;
  Log.drainOrdered(0, Knows, [&](const VectorClock &, uint64_t) { ++A; });
  Log.drainOrdered(0, Knows, [&](const VectorClock &, uint64_t) { ++A; });
  Log.drainOrdered(1, Knows, [&](const VectorClock &, uint64_t) { ++B; });
  EXPECT_EQ(A, 1u) << "releaser 0 dequeues once";
  EXPECT_EQ(B, 1u) << "releaser 1 has its own cursor (DC semantics)";
}

TEST(RuleBLogTest, SharedCursorDequeuesDestructively) {
  RuleBLog<VectorClock> Log(/*PerReleaserCursors=*/false);
  Log.onAcquire(2, vc({{2, 1}}));
  Log.onRelease(2, vc({{2, 2}}), 5);

  VectorClock Knows = vc({{2, 4}});
  unsigned A = 0, B = 0;
  Log.drainOrdered(0, Knows, [&](const VectorClock &, uint64_t) { ++A; });
  Log.drainOrdered(1, Knows, [&](const VectorClock &, uint64_t) { ++B; });
  EXPECT_EQ(A, 1u);
  EXPECT_EQ(B, 0u) << "WCP semantics: one shared queue per acquirer";
}

TEST(RuleBLogTest, ReleaserSkipsItsOwnAcquires) {
  RuleBLog<VectorClock> Log(/*PerReleaserCursors=*/true);
  Log.onAcquire(0, vc({{0, 1}}));
  Log.onRelease(0, vc({{0, 2}}), 1);
  unsigned Drained = 0;
  Log.drainOrdered(0, vc({{0, 99}}),
                   [&](const VectorClock &, uint64_t) { ++Drained; });
  EXPECT_EQ(Drained, 0u) << "foreach t' != t";
}

TEST(RuleBLogTest, LateReleaserSeesEarlierAcquires) {
  // Dynamic thread discovery: thread 5 releases for the first time long
  // after thread 1's acquires; it must still drain them (Figure 3 needs
  // this).
  RuleBLog<VectorClock> Log(/*PerReleaserCursors=*/true);
  for (ClockValue I = 1; I <= 5; ++I) {
    Log.onAcquire(1, vc({{1, I * 10}}));
    Log.onRelease(1, vc({{1, I * 10 + 1}}), I);
  }
  unsigned Drained = 0;
  Log.drainOrdered(5, vc({{1, 1000}}),
                   [&](const VectorClock &, uint64_t) { ++Drained; });
  EXPECT_EQ(Drained, 5u);
}

TEST(RuleBLogTest, EpochVariantChecksAcquirerEntryOnly) {
  RuleBLog<Epoch> Log(/*PerReleaserCursors=*/true);
  Log.onAcquire(1, Epoch::make(1, 7));
  Log.onRelease(1, vc({{1, 8}}), 3);
  unsigned Drained = 0;
  Log.drainOrdered(0, vc({{1, 6}}),
                   [&](const VectorClock &, uint64_t) { ++Drained; });
  EXPECT_EQ(Drained, 0u);
  Log.drainOrdered(0, vc({{1, 7}}),
                   [&](const VectorClock &, uint64_t) { ++Drained; });
  EXPECT_EQ(Drained, 1u);
}

TEST(RuleBLogTest, ReclamationKeepsSemantics) {
  // Push enough fully-drained entries to trigger reclamation, then check a
  // new batch still drains correctly and footprint stayed bounded.
  RuleBLog<Epoch> Log(/*PerReleaserCursors=*/false);
  VectorClock Knows;
  for (ClockValue I = 1; I <= 500; ++I) {
    Log.onAcquire(1, Epoch::make(1, I));
    Log.onRelease(1, vc({{1, I}}), I);
    Knows.set(1, I);
    Log.drainOrdered(0, Knows, [](const VectorClock &, uint64_t) {});
  }
  size_t Footprint = Log.footprintBytes();
  EXPECT_LT(Footprint, 500 * sizeof(VectorClock))
      << "drained entries must be reclaimed";
  Log.onAcquire(1, Epoch::make(1, 501));
  Log.onRelease(1, vc({{1, 501}}), 501);
  Knows.set(1, 501);
  unsigned Drained = 0;
  Log.drainOrdered(0, Knows,
                   [&](const VectorClock &, uint64_t) { ++Drained; });
  EXPECT_EQ(Drained, 1u);
}

TEST(RuleBLogTest, PerReleaserCursorsReclaimEveryAcquirer) {
  // DC-style cursors: three threads take turns on one lock and every
  // release is ordered after all earlier acquires. Each thread's history
  // must be reclaimed once the other two have drained it, including the
  // histories of threads whose own cursor row reaches past themselves.
  RuleBLog<Epoch> Log(/*PerReleaserCursors=*/true);
  VectorClock Knows;
  uint64_t Drained = 0;
  size_t FootprintAt100 = 0;
  for (ClockValue Round = 1; Round <= 1000; ++Round) {
    for (ThreadId T = 0; T < 3; ++T) {
      Log.onAcquire(T, Epoch::make(T, Round));
      Knows.set(T, Round);
      Log.drainOrdered(T, Knows,
                       [&](const VectorClock &, uint64_t) { ++Drained; });
      Log.onRelease(T, vc({{T, Round}}), Round * 3 + T);
    }
    if (Round == 100)
      FootprintAt100 = Log.footprintBytes();
  }
  // Every entry is drained by both other threads, except the last round's
  // entries of threads 1 and 2 (nobody releases after them).
  EXPECT_EQ(Drained, 2u * 3000u - 3u);
  EXPECT_LE(Log.footprintBytes(), FootprintAt100)
      << "footprint must stay flat once every releaser has drained";
}

TEST(RuleBLogTest, FirstTimeReleaserAfterRecyclingDrainsRetainedInOrder) {
  // Thread 1's history spans and recycles many blocks while thread 0
  // drains it; thread 0 then stops learning, so the last Pending entries
  // stay queued. A releaser seen for the first time afterwards must drain
  // every retained entry, in order, with the release clocks written into
  // the recycled slots (heap-wide clocks, so stale buffers would show).
  constexpr ClockValue Rounds = 500, Pending = 20;
  RuleBLog<VectorClock> Log(/*PerReleaserCursors=*/true);
  VectorClock Knows0;
  for (ClockValue I = 1; I <= Rounds; ++I) {
    Log.onAcquire(1, vc({{1, I}, {12, I}}));
    Log.onRelease(1, vc({{1, I}, {12, 1000 + I}}), I);
    if (I <= Rounds - Pending) {
      Knows0.set(1, I);
      Knows0.set(12, I);
    }
    Log.drainOrdered(0, Knows0, [](const VectorClock &, uint64_t) {});
  }
  VectorClock Knows5 = vc({{1, Rounds}, {12, Rounds}});
  std::vector<uint64_t> Seen;
  Log.drainOrdered(5, Knows5, [&](const VectorClock &Rel, uint64_t RelIdx) {
    EXPECT_EQ(Rel.get(12), 1000 + RelIdx) << "stale recycled slot";
    Seen.push_back(RelIdx);
  });
  ASSERT_GE(Seen.size(), Pending) << "entries thread 0 never drained";
  EXPECT_LT(Seen.size(), Rounds / 4) << "drained entries were not reclaimed";
  for (size_t I = 0; I < Seen.size(); ++I)
    EXPECT_EQ(Seen[I], Rounds - Seen.size() + 1 + I) << "position " << I;
}

/// Algorithm 1's rule-(b) queues taken literally (lines 2 and 4-8): one
/// FIFO per (releaser, acquirer) pair, or one per acquirer for shared
/// (WCP-style) queues, every thread known up front, nothing reclaimed.
template <typename AcqTimeT>
class LiteralQueues {
public:
  LiteralQueues(unsigned Threads, bool PerPair)
      : Threads(Threads), Rows(PerPair ? Threads : 1), PerPair(PerPair),
        Queues(Rows * Threads) {}

  void onAcquire(ThreadId U, const AcqTimeT &T) {
    for (ThreadId R = 0; R < Rows; ++R)
      if (!PerPair || R != U)
        queue(R, U).push_back(Item{T, VectorClock(), 0});
  }

  void onRelease(ThreadId U, const VectorClock &C, uint64_t RelIdx) {
    for (ThreadId R = 0; R < Rows; ++R)
      if (!PerPair || R != U) {
        queue(R, U).back().Rel = C;
        queue(R, U).back().RelIdx = RelIdx;
      }
  }

  template <typename F>
  void drainOrdered(ThreadId Releaser, const VectorClock &C, F &&OnOrdered) {
    for (ThreadId U = 0; U < Threads; ++U) {
      if (U == Releaser)
        continue;
      std::deque<Item> &Q = queue(PerPair ? Releaser : 0, U);
      while (!Q.empty() && ordered(Q.front().Acq, C)) {
        OnOrdered(Q.front().Rel, Q.front().RelIdx);
        Q.pop_front();
      }
    }
  }

private:
  struct Item {
    AcqTimeT Acq;
    VectorClock Rel;
    uint64_t RelIdx;
  };

  static bool ordered(const VectorClock &Acq, const VectorClock &C) {
    return Acq.leq(C);
  }
  static bool ordered(Epoch Acq, const VectorClock &C) {
    return C.epochLeq(Acq);
  }

  // Shared queues live in "releaser" row 0, whoever releases.
  std::deque<Item> &queue(ThreadId R, ThreadId U) {
    return Queues[R * Threads + U];
  }

  unsigned Threads;
  unsigned Rows;
  bool PerPair;
  std::vector<std::deque<Item>> Queues;
};

template <typename AcqTimeT>
AcqTimeT acquireTime(const VectorClock &C, ThreadId T) {
  if constexpr (std::is_same_v<AcqTimeT, Epoch>)
    return C.epochOf(T);
  else
    return C;
}

/// Drives RuleBLog and the literal model through one seeded random history
/// of acquires, releases (each preceded by its rule-(b) drain, as in the
/// cores) and cross-thread synchronization that makes queued acquires
/// ordered. Every release must drain the same RelIdx sequence from both.
/// Each thread releases the lock once up front, before any reclamation
/// can run, so every cursor is instantiated the way the literal model's
/// queues exist from the start. Returns the number of drained entries.
template <typename AcqTimeT>
uint64_t runDifferential(uint64_t Seed, bool PerReleaser) {
  Rng R(Seed);
  const unsigned Threads = 2 + static_cast<unsigned>(R.nextBelow(5));
  RuleBLog<AcqTimeT> Log(PerReleaser);
  LiteralQueues<AcqTimeT> Model(Threads, PerReleaser);
  std::vector<VectorClock> C(Threads);
  for (ThreadId T = 0; T < Threads; ++T)
    C[T].set(T, 1);
  uint64_t Idx = 0, Drained = 0;

  auto Acquire = [&](ThreadId T) {
    AcqTimeT A = acquireTime<AcqTimeT>(C[T], T);
    Log.onAcquire(T, A);
    Model.onAcquire(T, A);
    C[T].increment(T);
    ++Idx;
  };
  auto Release = [&](ThreadId T) {
    VectorClock CLog = C[T], CModel = C[T];
    std::vector<uint64_t> FromLog, FromModel;
    Log.drainOrdered(T, CLog, [&](const VectorClock &Rel, uint64_t I) {
      CLog.joinWith(Rel);
      FromLog.push_back(I);
    });
    Model.drainOrdered(T, CModel, [&](const VectorClock &Rel, uint64_t I) {
      CModel.joinWith(Rel);
      FromModel.push_back(I);
    });
    ASSERT_EQ(FromLog, FromModel) << "release at " << Idx << " by T" << T;
    ASSERT_EQ(CLog, CModel);
    Drained += FromLog.size();
    C[T] = CLog;
    Log.onRelease(T, C[T], Idx);
    Model.onRelease(T, C[T], Idx);
    C[T].increment(T);
    ++Idx;
  };

  // The highest thread goes first so every later release's cursor row
  // covers all threads.
  Acquire(Threads - 1);
  Release(Threads - 1);
  for (ThreadId T = 0; T + 1 < Threads; ++T) {
    Acquire(T);
    Release(T);
  }

  bool Held = false;
  ThreadId Holder = 0;
  for (unsigned Step = 0; Step < 3000 && !::testing::Test::HasFailure();
       ++Step) {
    if (!Held) {
      Holder = static_cast<ThreadId>(R.nextBelow(Threads));
      Acquire(Holder);
      Held = true;
      continue;
    }
    uint64_t Op = R.nextBelow(10);
    if (Op < 4) {
      Release(Holder);
      Held = false;
    } else if (Op < 7) { // B's past becomes ordered before A's future
      auto A = static_cast<ThreadId>(R.nextBelow(Threads));
      auto B = static_cast<ThreadId>(R.nextBelow(Threads));
      C[A].joinWith(C[B]);
      C[B].increment(B);
    } else {
      auto T = static_cast<ThreadId>(R.nextBelow(Threads));
      C[T].increment(T);
    }
  }
  return Drained;
}

TEST(RuleBLogTest, MatchesLiteralPerPairQueues) {
  for (bool PerReleaser : {true, false}) {
    uint64_t EpochDrained = 0, ClockDrained = 0;
    for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
      SCOPED_TRACE(::testing::Message() << "seed " << Seed << " per-releaser "
                                        << PerReleaser);
      EpochDrained += runDifferential<Epoch>(Seed, PerReleaser);
      ClockDrained += runDifferential<VectorClock>(Seed, PerReleaser);
      ASSERT_FALSE(::testing::Test::HasFailure());
    }
    EXPECT_GT(EpochDrained, 0u);
    EXPECT_GT(ClockDrained, 0u);
  }
}

} // namespace
