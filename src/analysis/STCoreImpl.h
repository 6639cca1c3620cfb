//===- analysis/STCoreImpl.h - STCore member definitions --------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Member definitions for STCore, included only by the per-policy explicit
/// instantiation units (STCoreWCP.cpp / STCoreDC.cpp / STCoreWDC.cpp).
/// One instantiation per translation unit keeps each TU's code size at the
/// level of the hand-written per-relation classes, which is what lets the
/// compiler keep inlining the VectorClock primitives into the per-event
/// handlers (measurably lost when all three policies share one TU).
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_ANALYSIS_STCOREIMPL_H
#define SMARTTRACK_ANALYSIS_STCOREIMPL_H

#include "analysis/STCore.h"

namespace st {

template <typename Policy>
size_t STCore<Policy>::metadataFootprintBytes() const {
  size_t N = this->baseFootprintBytes() +
             Vars.capacity() * sizeof(VarState) +
             Locks.capacity() * sizeof(LockState) +
             Active.capacity() * sizeof(CSHandle) + Arena.footprintBytes();
  N += Reads.footprintBytes([](const SharedReads &S) {
    return S.R.footprintBytes() + S.L.capacity() * sizeof(CSHandle);
  });
  N += ExtraPool.footprintBytes([](const Extras &X) {
    return (X.R.capacity() + X.W.capacity()) * sizeof(ExtraEntry);
  });
  N += (Residual.capacity() + WResidual.capacity()) * sizeof(ExtraEntry) +
       Walk.capacity() * sizeof(Section) +
       Unresolved.capacity() * sizeof(ThreadId);
  for (const LockState &L : Locks) {
    if constexpr (Policy::SplitClocks)
      N += L.HRel.footprintBytes() + L.PRel.footprintBytes();
    if (L.Queues)
      N += L.Queues->footprintBytes();
  }
  return N;
}

template <typename Policy>
bool STCore<Policy>::walkSections(CSHandle L, ThreadId U, ThreadId Tid,
                                  VectorClock &Pt,
                                  std::vector<ExtraEntry> &Res) {
  if (L == NoCS)
    return false;
  // A release ordered before the current access subsumes every section
  // released earlier and the race check (Algorithm 3 line 29), so the walk
  // goes from the latest release down. Unreleased sections hold ∞ in the
  // owner's entry: they come first and never pass. When releases nest,
  // this is outermost to innermost; a non-LIFO release (acq a, acq b,
  // rel a, rel b) puts the inner section b first.
  Walk.clear();
  for (CSHandle N = L; N != NoCS; N = Arena.next(N)) {
    CSHandle C = Arena.clockOf(N);
    Walk.push_back({Arena.clock(C).get(U), C, Arena.lock(N)});
  }
  // Stable ascending insertion sort; the list is innermost first, so for
  // nested releases it is already sorted and this costs one compare per
  // section. Ties (open sections) keep the outermost last.
  for (size_t I = 1; I < Walk.size(); ++I)
    for (size_t J = I; J > 0 && Walk[J - 1].Released > Walk[J].Released; --J)
      std::swap(Walk[J - 1], Walk[J]);
  const ClockValue Known = Pt.get(U);
  for (size_t I = Walk.size(); I-- > 0;) {
    const Section &S = Walk[I];
    if (S.Released <= Known)
      return true;
    // Conflicting critical sections on a held lock: rule (a); the prior
    // section must have released the lock for us to hold it, so the clock
    // is final (Algorithm 3 lines 30-32). Under split clocks the stored
    // clock holds H at the release — left composition.
    if (Held.holds(Tid, S.M)) {
      Pt.joinWith(Arena.clock(S.Clock));
      return true;
    }
    Res.push_back({U, S.M, S.Clock}); // residual (line 33)
  }
  return false;
}

template <typename Policy>
ClockValue STCore<Policy>::lastRelease(CSHandle L, ThreadId U) const {
  ClockValue Last = 0;
  for (CSHandle N = L; N != NoCS; N = Arena.next(N))
    Last = std::max(Last, Arena.clock(Arena.clockOf(N)).get(U));
  return Last;
}

template <typename Policy>
void STCore<Policy>::applyExtra(std::vector<ExtraEntry> &X, const Event &Ev,
                                VectorClock &Pt, bool Consume) {
  size_t Kept = 0;
  for (size_t I = 0, N = X.size(); I != N; ++I) {
    ExtraEntry Entry = X[I];
    bool Drop = false;
    if (Entry.T == Ev.Tid) {
      Drop = Consume; // Algorithm 3 line 23: the writer's own entries
    } else if (Held.holds(Ev.Tid, Entry.M)) {
      // These sections closed before we could hold M, so the clock is
      // final (never ∞ in any entry).
      Pt.joinWith(Arena.clock(Entry.Clock));
      Drop = Consume;
    }
    if (Drop)
      Arena.releaseClock(Entry.Clock);
    else
      X[Kept++] = Entry;
  }
  X.resize(Kept);
}

template <typename Policy>
void STCore<Policy>::setExtra(VarState &V, bool Write, ThreadId U,
                              const std::vector<ExtraEntry> &Res) {
  if (!V.Extra)
    V.Extra = ExtraPool.make();
  Extras &XR = ExtraPool[V.Extra];
  std::vector<ExtraEntry> &X = Write ? XR.W : XR.R;
  size_t Kept = 0;
  for (size_t I = 0, N = X.size(); I != N; ++I) {
    if (X[I].T == U)
      Arena.releaseClock(X[I].Clock);
    else
      X[Kept++] = X[I];
  }
  X.resize(Kept);
  for (const ExtraEntry &Entry : Res) {
    Arena.retainClock(Entry.Clock);
    X.push_back({U, Entry.M, Entry.Clock});
  }
}

template <typename Policy>
void STCore<Policy>::freeSharedReads(VarState &V) {
  SharedReads &S = Reads[V.Shared];
  for (CSHandle L : S.L)
    Arena.release(L);
  S.L.clear();
  S.R.clear();
  Reads.free(V.Shared);
  V.Shared = 0;
}

template <typename Policy> void STCore<Policy>::onRead(const Event &E) {
  VectorClock &Ht = Threads.of(E.Tid);
  VectorClock &Pt = this->predictiveOf(E.Tid, Ht);
  VarState &V = varState(E.var());
  Epoch Now = Ht.epochOf(E.Tid);

  if (!V.Shared) {
    if (V.R == Now) {
      ++Stats.ReadSameEpoch;
      return; // [Read Same Epoch]
    }
  } else if (Reads[V.Shared].R.get(E.Tid) == Now.clock()) {
    ++Stats.SharedSameEpoch;
    return; // [Shared Same Epoch]
  }

  // Algorithm 3 read lines 4-6: consume lost write-CS information.
  if (V.Extra)
    applyExtra(ExtraPool[V.Extra].W, E, Pt, /*Consume=*/false);

  const CSHandle Hcs = snapshotCS(E.Tid);

  if (!V.Shared) {
    if (V.R.tid() == E.Tid && !V.R.isNone()) {
      ++Stats.ReadOwned; // [Read Owned]
      Arena.assign(V.LR, Hcs);
      V.R = Now;
      return;
    }
    // [Read Exclusive] requires the release of the prior access's last
    // released critical section (its outermost one when releases nest)
    // ordered before this read (Algorithm 3 line 11); otherwise CS
    // information would be lost (Figure 4(b)).
    ThreadId U = V.R.tid();
    bool Ordered = V.LR == NoCS ? Pt.epochLeq(V.R)
                                : lastRelease(V.LR, U) <= Pt.get(U);
    if (Ordered) {
      ++Stats.ReadExclusive; // [Read Exclusive]
      Arena.assign(V.LR, Hcs);
      V.R = Now;
      return;
    }
    ++Stats.ReadShare; // [Read Share]
    Residual.clear();
    multiCheck(V.LW, V.W.tid(), V.W, E, Pt, Residual);
    uint32_t S = Reads.make();
    SharedReads &SR = Reads[S];
    SR.L.resize(std::max(U, E.Tid) + 1, NoCS);
    SR.L[U] = V.LR; // moves V.LR's reference
    V.LR = NoCS;
    Arena.assign(SR.L[E.Tid], Hcs);
    SR.R.set(U, V.R.clock());
    SR.R.set(E.Tid, Now.clock());
    V.Shared = S;
    V.R = Epoch::none();
    return;
  }
  SharedReads &SR = Reads[V.Shared];
  if (SR.R.get(E.Tid) != 0) {
    ++Stats.ReadSharedOwned; // [Read Shared Owned]
    Arena.assign(SR.L[E.Tid], Hcs);
    SR.R.set(E.Tid, Now.clock());
    return;
  }
  ++Stats.ReadShared; // [Read Shared]
  Residual.clear();
  multiCheck(V.LW, V.W.tid(), V.W, E, Pt, Residual);
  if (E.Tid >= SR.L.size())
    SR.L.resize(E.Tid + 1, NoCS);
  Arena.assign(SR.L[E.Tid], Hcs);
  SR.R.set(E.Tid, Now.clock());
}

template <typename Policy> void STCore<Policy>::onWrite(const Event &E) {
  VectorClock &Ht = Threads.of(E.Tid);
  VectorClock &Pt = this->predictiveOf(E.Tid, Ht);
  VarState &V = varState(E.var());
  Epoch Now = Ht.epochOf(E.Tid);

  if (V.W == Now) {
    ++Stats.WriteSameEpoch;
    return; // [Write Same Epoch]
  }

  // Algorithm 3 write lines 19-23: consume lost CS information. Writes
  // conflict with reads and writes, so both lists contribute genuine
  // rule-(a) edges (docs/architecture.md, SmartTrack interpretation
  // note 2).
  if (V.Extra) {
    Extras &XR = ExtraPool[V.Extra];
    applyExtra(XR.R, E, Pt, /*Consume=*/true);
    applyExtra(XR.W, E, Pt, /*Consume=*/true);
    if (XR.R.empty() && XR.W.empty()) {
      ExtraPool.free(V.Extra);
      V.Extra = 0;
    }
  }

  const CSHandle Hcs = snapshotCS(E.Tid);

  if (!V.Shared) {
    if (V.R.tid() == E.Tid && !V.R.isNone()) {
      ++Stats.WriteOwned; // [Write Owned]
    } else {
      ++Stats.WriteExclusive; // [Write Exclusive]
      ThreadId U = V.R.tid();
      Residual.clear();
      multiCheck(V.LR, U, V.R, E, Pt, Residual);
      if (!Residual.empty()) {
        setExtra(V, /*Write=*/false, U, Residual);
        WResidual.clear();
        multiCheck(V.LW, V.W.tid(), Epoch::none(), E, Pt, WResidual);
        if (!WResidual.empty())
          setExtra(V, /*Write=*/true, U, WResidual);
      }
    }
  } else {
    ++Stats.WriteShared; // [Write Shared]
    // Two passes over the readers in ascending thread order: every
    // rule-(a) join first, then the race checks against the final P_t. A
    // reader checked before another reader's join would miss the ordering
    // that join brings (interpretation note 4).
    SharedReads &SR = Reads[V.Shared];
    Unresolved.clear();
    for (ThreadId U = 0, N = static_cast<ThreadId>(SR.R.size()); U != N;
         ++U) {
      if (U == E.Tid || SR.R.get(U) == 0)
        continue;
      Residual.clear();
      if (!walkSections(SR.L[U], U, E.Tid, Pt, Residual))
        Unresolved.push_back(U);
      if (Residual.empty())
        continue;
      setExtra(V, /*Write=*/false, U, Residual);
      // Line 35: the last write's CS list matters for the thread that owns
      // the last write (interpretation note 3).
      if (U == V.W.tid() && !V.W.isNone()) {
        WResidual.clear();
        multiCheck(V.LW, V.W.tid(), Epoch::none(), E, Pt, WResidual);
        if (!WResidual.empty())
          setExtra(V, /*Write=*/true, U, WResidual);
      }
    }
    for (ThreadId U : Unresolved) {
      Epoch A = Epoch::make(U, SR.R.get(U));
      if (!Pt.epochLeq(A)) {
        this->reportRace(E, A); // one dynamic race per access
        break;
      }
    }
    freeSharedReads(V);
  }

  Arena.assign(V.LW, Hcs); // line 36
  Arena.assign(V.LR, Hcs);
  V.W = Now; // line 37
  V.R = Now;
}

template <typename Policy> void STCore<Policy>::onAcquire(const Event &E) {
  VectorClock &Ht = Threads.of(E.Tid);
  LockState &L = lockState(E.lock());

  if constexpr (Policy::SplitClocks) {
    Ht.joinWith(L.HRel);
    PThreads.of(E.Tid).joinWith(L.PRel);
  }
  if constexpr (Policy::RuleB) {
    if (!L.Queues)
      L.Queues = std::make_unique<RuleBLog<Epoch>>(
          Policy::PerReleaserCursors);
    L.Queues->onAcquire(E.Tid, Ht.epochOf(E.Tid)); // line 2 (epoch queue)
  }
  // Lines 3-5: push a new critical section whose release clock is not yet
  // known; ∞ in the owner's entry makes ordering queries fail until then.
  // The clock is made on demand (snapshotCS).
  if (E.Tid >= Active.size())
    Active.resize(E.Tid + 1, NoCS);
  Active[E.Tid] = Arena.push(Active[E.Tid], E.lock());
  Held.pushLock(E.Tid, E.lock());
  Ht.increment(E.Tid); // line 6
}

template <typename Policy> void STCore<Policy>::onRelease(const Event &E) {
  VectorClock &Ht = Threads.of(E.Tid);
  VectorClock &Pt = this->predictiveOf(E.Tid, Ht);
  LockState &L = lockState(E.lock());

  if constexpr (Policy::RuleB) {
    if (L.Queues) {
      // Lines 8-12.
      L.Queues->drainOrdered(E.Tid, Pt,
                             [&](const VectorClock &Rel, uint64_t) {
                               Pt.joinWith(Rel);
                             });
      L.Queues->onRelease(E.Tid, Ht, this->currentEventIndex());
    }
  }
  // Lines 13-15: fill in the deferred release clock (the advance clock:
  // HB time under split clocks, for left composition when another
  // thread's MultiCheck joins this section) and pop the section.
  ST_CHECK(E.Tid < Active.size());
  Active[E.Tid] = Arena.remove(Active[E.Tid], E.lock(), Ht);
  if constexpr (Policy::SplitClocks) {
    L.HRel = Ht;
    L.PRel = Pt;
  }
  Held.popLock(E.Tid, E.lock());
  Ht.increment(E.Tid); // line 16
}

} // namespace st

#endif // SMARTTRACK_ANALYSIS_STCOREIMPL_H
