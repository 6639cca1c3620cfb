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

#include "analysis/Footprint.h"

#include <unordered_set>

namespace st {
namespace st_core_detail {

/// Charges each shared list buffer and release clock exactly once, however
/// many variables reference it (lists and clocks are shared snapshots).
struct SharedFootprint {
  std::unordered_set<const void *> Seen;
  size_t Bytes = 0;

  void addList(const CSList &L) {
    if (!Seen.insert(&L).second)
      return;
    Bytes += L.capacity() * sizeof(CSEntry);
    for (const CSEntry &E : L)
      addClock(E.C);
  }
  void addListRef(const CSListRef &R) {
    if (R)
      addList(*R);
  }
  void addClock(const std::shared_ptr<VectorClock> &C) {
    if (C && Seen.insert(C.get()).second)
      Bytes += sizeof(VectorClock) + C->footprintBytes();
  }
};

inline size_t extraFootprint(const ExtraMap &E) {
  size_t N = unorderedFootprint(E);
  for (const auto &KV : E)
    N += unorderedFootprint(KV.second);
  return N;
}

} // namespace st_core_detail

template <typename Policy>
size_t STCore<Policy>::metadataFootprintBytes() const {
  using st_core_detail::SharedFootprint;
  size_t N = this->baseFootprintBytes() +
             Vars.capacity() * sizeof(VarState) +
             Locks.capacity() * sizeof(LockState);
  SharedFootprint Shared;
  for (const CSList &L : ActiveCS)
    Shared.addList(L);
  N += CSSnapshot.capacity() * sizeof(CSListRef);
  for (const CSListRef &R : CSSnapshot)
    Shared.addListRef(R);
  for (const VarState &V : Vars) {
    Shared.addListRef(V.LW);
    Shared.addListRef(V.LR);
    if (V.RShared)
      N += sizeof(VectorClock) + V.RShared->footprintBytes();
    if (V.LRShared) {
      N += unorderedFootprint(*V.LRShared);
      for (const auto &KV : *V.LRShared)
        Shared.addListRef(KV.second);
    }
    if (V.Er) {
      N += st_core_detail::extraFootprint(*V.Er);
      for (const auto &KV : *V.Er)
        for (const auto &LC : KV.second)
          Shared.addClock(LC.second);
    }
    if (V.Ew) {
      N += st_core_detail::extraFootprint(*V.Ew);
      for (const auto &KV : *V.Ew)
        for (const auto &LC : KV.second)
          Shared.addClock(LC.second);
    }
  }
  N += Shared.Bytes;
  for (const LockState &L : Locks) {
    if constexpr (Policy::SplitClocks)
      N += L.HRel.footprintBytes() + L.PRel.footprintBytes();
    if (L.Queues)
      N += L.Queues->footprintBytes();
  }
  return N;
}

template <typename Policy>
LockClockMap STCore<Policy>::multiCheck(const CSList &L, ThreadId U, Epoch A,
                                        const Event &Ev, VectorClock &Pt) {
  LockClockMap E;
  // The list owner's accesses are PO-ordered before the current thread's
  // only when they are the same thread; then nothing below applies
  // (docs/architecture.md, SmartTrack interpretation note 1).
  if (U == Ev.Tid)
    return E;
  for (size_t I = L.size(); I-- > 0;) { // tail (outermost) to head
    const CSEntry &CS = L[I];
    // Release ordered before the current access? Subsumes inner sections
    // and the race check (Algorithm 3 line 29). Unreleased sections hold ∞
    // in the owner's entry and never pass.
    if (CS.C->get(U) <= Pt.get(U))
      return E;
    // Conflicting critical sections on a held lock: rule (a); the prior
    // section must have released the lock for us to hold it, so the clock
    // is final (Algorithm 3 lines 30-32). Under split clocks the stored
    // clock holds H at the release — left composition.
    if (Held.holds(Ev.Tid, CS.M)) {
      Pt.joinWith(*CS.C);
      return E;
    }
    E[CS.M] = CS.C; // residual (line 33)
  }
  if (!A.isNone() && !Pt.epochLeq(A))
    this->reportRace(Ev, A); // line 34
  return E;
}

template <typename Policy>
void STCore<Policy>::applyExtraSlow(ExtraMap &ExtraRef, const Event &Ev,
                                    VectorClock &Pt, bool Consume) {
  ExtraMap *Extra = &ExtraRef;
  for (auto It = Extra->begin(); It != Extra->end();) {
    if (It->first == Ev.Tid) {
      // Algorithm 3 line 23: the writer's own entries are dropped.
      It = Consume ? Extra->erase(It) : std::next(It);
      continue;
    }
    LockClockMap &LM = It->second;
    for (LockId M : Held.of(Ev.Tid)) {
      auto LIt = LM.find(M);
      if (LIt == LM.end())
        continue;
      // These sections closed before we could hold M, so the clock is
      // final (never ∞ in any entry).
      Pt.joinWith(*LIt->second);
      if (Consume)
        LM.erase(LIt);
    }
    if (Consume && LM.empty())
      It = Extra->erase(It);
    else
      ++It;
  }
}

template <typename Policy>
const CSListRef &STCore<Policy>::snapshotCS(ThreadId T) {
  if (T >= CSSnapshot.size())
    CSSnapshot.resize(T + 1);
  CSListRef &S = CSSnapshot[T];
  if (!S) {
    if (T >= ActiveCS.size())
      ActiveCS.resize(T + 1);
    // One shared, materialized copy per epoch; every per-variable "copy"
    // of the active list within this epoch is a pointer assignment.
    S = std::make_shared<CSList>(materializeCSList(ActiveCS[T], T));
  }
  return S;
}

template <typename Policy> void STCore<Policy>::onRead(const Event &E) {
  VectorClock &Ht = Threads.of(E.Tid);
  VectorClock &Pt = this->predictiveOf(E.Tid, Ht);
  VarState &V = varState(E.var());
  Epoch Now = Ht.epochOf(E.Tid);

  if (!V.RShared && V.R == Now) {
    ++Stats.ReadSameEpoch;
    return; // [Read Same Epoch]
  }
  if (V.RShared && V.RShared->get(E.Tid) == Now.clock()) {
    ++Stats.SharedSameEpoch;
    return; // [Shared Same Epoch]
  }

  // Algorithm 3 read lines 4-6: consume lost write-CS information.
  applyExtra(V.Ew.get(), E, Pt, /*Consume=*/false);

  const CSListRef &Hcs = snapshotCS(E.Tid);

  if (!V.RShared) {
    if (V.R.tid() == E.Tid && !V.R.isNone()) {
      ++Stats.ReadOwned; // [Read Owned]
      V.LR = Hcs;
      V.R = Now;
      return;
    }
    // [Read Exclusive] requires the prior access's *outermost* critical
    // section release ordered before this read (Algorithm 3 line 11);
    // otherwise CS information would be lost (Figure 4(b)).
    ThreadId U = V.R.tid();
    const CSList &LRList = derefCSList(V.LR);
    bool Ordered = LRList.empty() ? Pt.epochLeq(V.R)
                                  : LRList.back().C->get(U) <= Pt.get(U);
    if (Ordered) {
      ++Stats.ReadExclusive; // [Read Exclusive]
      V.LR = Hcs;
      V.R = Now;
      return;
    }
    ++Stats.ReadShare; // [Read Share]
    multiCheck(derefCSList(V.LW), V.W.tid(), V.W, E, Pt);
    V.LRShared = std::make_unique<std::unordered_map<ThreadId, CSListRef>>();
    (*V.LRShared)[U] = std::move(V.LR);
    (*V.LRShared)[E.Tid] = Hcs;
    V.RShared = std::make_unique<VectorClock>();
    V.RShared->set(U, V.R.clock());
    V.RShared->set(E.Tid, Now.clock());
    V.R = Epoch::none();
    return;
  }
  if (V.RShared->get(E.Tid) != 0) {
    ++Stats.ReadSharedOwned; // [Read Shared Owned]
    (*V.LRShared)[E.Tid] = Hcs;
    V.RShared->set(E.Tid, Now.clock());
    return;
  }
  ++Stats.ReadShared; // [Read Shared]
  multiCheck(derefCSList(V.LW), V.W.tid(), V.W, E, Pt);
  (*V.LRShared)[E.Tid] = Hcs;
  V.RShared->set(E.Tid, Now.clock());
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
  // conflict with reads and writes, so both maps contribute genuine
  // rule-(a) edges (docs/architecture.md, SmartTrack interpretation
  // note 2).
  applyExtra(V.Er.get(), E, Pt, /*Consume=*/true);
  applyExtra(V.Ew.get(), E, Pt, /*Consume=*/true);

  const CSListRef &Hcs = snapshotCS(E.Tid);

  if (!V.RShared) {
    if (V.R.tid() == E.Tid && !V.R.isNone()) {
      ++Stats.WriteOwned; // [Write Owned]
    } else {
      ++Stats.WriteExclusive; // [Write Exclusive]
      ThreadId U = V.R.tid();
      LockClockMap Res = multiCheck(derefCSList(V.LR), U, V.R, E, Pt);
      if (!Res.empty()) {
        if (!V.Er)
          V.Er = std::make_unique<ExtraMap>();
        if (!V.Ew)
          V.Ew = std::make_unique<ExtraMap>();
        (*V.Er)[U] = std::move(Res);
        LockClockMap WRes =
            multiCheck(derefCSList(V.LW), V.W.tid(), Epoch::none(), E, Pt);
        if (!WRes.empty())
          (*V.Ew)[U] = std::move(WRes);
      }
    }
  } else {
    ++Stats.WriteShared; // [Write Shared]
    for (auto &KV : *V.LRShared) {
      ThreadId U = KV.first;
      if (U == E.Tid)
        continue;
      Epoch A = Epoch::make(U, V.RShared->get(U));
      if (A.clock() == 0)
        A = Epoch::none();
      LockClockMap Res = multiCheck(derefCSList(KV.second), U, A, E, Pt);
      if (Res.empty())
        continue;
      if (!V.Er)
        V.Er = std::make_unique<ExtraMap>();
      if (!V.Ew)
        V.Ew = std::make_unique<ExtraMap>();
      (*V.Er)[U] = std::move(Res);
      // Line 35: the last write's CS list matters for the thread that owns
      // the last write (interpretation note 7).
      if (U == V.W.tid() && !V.W.isNone()) {
        LockClockMap WRes =
            multiCheck(derefCSList(V.LW), V.W.tid(), Epoch::none(), E, Pt);
        if (!WRes.empty())
          (*V.Ew)[U] = std::move(WRes);
      }
    }
    V.LRShared.reset();
    V.RShared.reset();
  }

  V.LW = Hcs; // line 36
  V.LR = Hcs;
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
  if (E.Tid >= ActiveCS.size())
    ActiveCS.resize(E.Tid + 1);
  CSList &H = ActiveCS[E.Tid];
  H.insert(H.begin(), CSEntry{nullptr, E.lock()}); // clock made on demand
  if (E.Tid < CSSnapshot.size())
    CSSnapshot[E.Tid].reset();
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
  assert(E.Tid < ActiveCS.size() && "release on thread with no sections");
  CSList &H = ActiveCS[E.Tid];
  for (size_t I = 0, N = H.size(); I != N; ++I) {
    if (H[I].M == E.lock()) {
      if (H[I].C)
        *H[I].C = Ht; // deferred update; null means never shared
      H.erase(H.begin() + static_cast<long>(I));
      break;
    }
  }
  if constexpr (Policy::SplitClocks) {
    L.HRel = Ht;
    L.PRel = Pt;
  }
  if (E.Tid < CSSnapshot.size())
    CSSnapshot[E.Tid].reset();
  Held.popLock(E.Tid, E.lock());
  Ht.increment(E.Tid); // line 16
}

} // namespace st

#endif // SMARTTRACK_ANALYSIS_STCOREIMPL_H
