//===- analysis/STCore.h - Policy-parameterized SmartTrack ------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SmartTrack tier — the paper's Algorithm 3 and its most significant
/// contribution — written once over a RelationPolicy and instantiated for
/// WCP, DC, and WDC (§4.2: "applying SmartTrack to WDC and WCP analyses is
/// analogous and straightforward"). SmartTrack replaces the per-(lock,
/// variable) conflicting-critical-section clocks of Algorithms 1-2 (the
/// LockVarStore the Unopt/FTO tiers share) with per-variable critical
/// section (CS) lists that mirror the last-access metadata. Lists, release
/// clocks and the extra metadata live in one CSArena per core (analysis/
/// CSList.h) and are named by 32-bit handles.
///
/// MultiCheck (Algorithm 3) walks a CS list in descending order of its
/// sections' release times (outermost to innermost when releases nest),
/// combining the conflicting-critical-section check with the race check,
/// and collects the residual critical sections that are neither ordered
/// nor matched by a held lock.
///
/// Under WCPPolicy the CS-list release clocks are filled with *HB* release
/// times (left composition) while MultiCheck's joins and ordering checks
/// run against P_t; rule (b) uses shared per-acquirer epoch queues. Under
/// DC/WDCPolicy there is a single clock and rule (b) (when present) uses
/// per-releaser cursors ("Optimizing Acq_m,t(t')", Algorithm 3 line 2).
///
/// Interpretation notes (docs/architecture.md, "SmartTrack interpretation
/// notes"): MultiCheck returns immediately when the list owner is the
/// current thread (avoids joining the ∞ sentinel); writes join E^w
/// alongside E^r for held locks (both are genuine rule-(a) edges); line
/// 35's L^w_x(u) means "the last write's CS list when u owns the last
/// write"; [Write Shared] joins for every reader before it race-checks any.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_ANALYSIS_STCORE_H
#define SMARTTRACK_ANALYSIS_STCORE_H

#include "analysis/CSList.h"
#include "analysis/RelationPolicy.h"
#include "support/Compiler.h"

#include <memory>
#include <vector>

namespace st {

/// SmartTrack analysis per Algorithm 3, parameterized by relation policy.
template <typename Policy>
class STCore : public PolicyCoreBase<Policy, STCore<Policy>> {
public:
  const char *name() const override { return Policy::STName; }
  size_t metadataFootprintBytes() const override;

protected:
  void onRead(const Event &E) override;
  void onWrite(const Event &E) override;
  void onAcquire(const Event &E) override;
  void onRelease(const Event &E) override;

private:
  using Base = PolicyCoreBase<Policy, STCore<Policy>>;
  friend Base;

  struct VarState {
    Epoch W;              // last write
    Epoch R;              // last reads+write (epoch mode)
    CSHandle LW = NoCS;   // L^w_x
    CSHandle LR = NoCS;   // L^r_x in epoch mode
    uint32_t Shared = 0;  // SharedReads record in shared mode, else 0
    uint32_t Extra = 0;   // Extras record, 0 while E^r_x, E^w_x are empty
  };

  /// Shared-mode read metadata: R_x and L^r_x, both indexed by thread. A
  /// thread has read iff its R entry is nonzero.
  struct SharedReads {
    VectorClock R;
    std::vector<CSHandle> L;
  };

  /// E^r_x and E^w_x.
  struct Extras {
    std::vector<ExtraEntry> R, W;
  };

  /// One section of a list being walked by MultiCheck.
  struct Section {
    ClockValue Released; // owner's release time, ∞ while open
    CSHandle Clock;
    LockId M;
  };

  struct LockState : Policy::LockClocks {
    std::unique_ptr<RuleBLog<Epoch>> Queues;
  };

  VarState &varState(VarId X) {
    if (X >= Vars.size())
      Vars.resize(X + 1);
    return Vars[X];
  }

  LockState &lockState(LockId M) {
    if (M >= Locks.size())
      Locks.resize(M + 1);
    return Locks[M];
  }

  /// Algorithm 3's MultiCheck on list \p L (owned by thread \p U): see
  /// walkSections; performs the race check against \p A if nothing
  /// subsumed it.
  void multiCheck(CSHandle L, ThreadId U, Epoch A, const Event &Ev,
                  VectorClock &Pt, std::vector<ExtraEntry> &Res) {
    if (U == Ev.Tid)
      return; // interpretation note 1
    if (!walkSections(L, U, Ev.Tid, Pt, Res) && !A.isNone() &&
        !Pt.epochLeq(A))
      this->reportRace(Ev, A); // line 34
  }

  /// MultiCheck's walk: visits \p L's sections latest release first, stops
  /// at the first one whose release is ordered before \p Pt or that is on
  /// a lock \p Tid holds (joining its release clock), and appends the
  /// sections before it to \p Res. Returns true when it stopped early,
  /// which subsumes the race check.
  bool walkSections(CSHandle L, ThreadId U, ThreadId Tid, VectorClock &Pt,
                    std::vector<ExtraEntry> &Res);

  /// The latest release time of \p L's sections (∞ if any is open).
  ClockValue lastRelease(CSHandle L, ThreadId U) const;

  /// Joins into \p Pt the entries of \p X on locks \p Ev's thread holds
  /// (Algorithm 3 read lines 4-6 / write lines 19-23); with \p Consume,
  /// drops them and the writer's own entries (line 23).
  void applyExtra(std::vector<ExtraEntry> &X, const Event &Ev,
                  VectorClock &Pt, bool Consume);

  /// E^r_x(u) (\p Write false) or E^w_x(u) := \p Res.
  void setExtra(VarState &V, bool Write, ThreadId U,
                const std::vector<ExtraEntry> &Res);

  /// Drops V's shared-mode read metadata.
  void freeSharedReads(VarState &V);

  /// Thread \p T's active CS list with every section's clock materialized,
  /// ready to be shared into variable metadata.
  CSHandle snapshotCS(ThreadId T) {
    if (T >= Active.size())
      return NoCS;
    CSHandle H = Active[T];
    if (H != NoCS && Arena.clockOf(H) == NoCS)
      Arena.materialize(H, T);
    return H;
  }

  // Clock state per the PolicyCoreBase contract, ordered so the
  // per-access-hot members share leading cache lines.
  ThreadClockSet Threads;     // H_t (split clocks) or C_t
  PClocksOf<Policy> PThreads; // P_t (split clocks only)
  HeldLockSet Held;
  CSArena Arena;
  std::vector<CSHandle> Active; // H_t's active sections, per thread
  std::vector<VarState> Vars;
  RecordPool<SharedReads> Reads;
  RecordPool<Extras> ExtraPool;
  std::vector<LockState> Locks;
  ClockMap VolWriteClock, VolReadClock;
  CaseStats Stats;
  // Per-access work buffers, kept so a warm access allocates nothing.
  std::vector<ExtraEntry> Residual, WResidual;
  std::vector<Section> Walk;
  std::vector<ThreadId> Unresolved;
};

extern template class STCore<WCPPolicy>;
extern template class STCore<DCPolicy>;
extern template class STCore<WDCPolicy>;

/// The Table 1 SmartTrack configurations.
using SmartTrackWCP = STCore<WCPPolicy>;
using SmartTrackDC = STCore<DCPolicy>;
using SmartTrackWDC = STCore<WDCPolicy>;

} // namespace st

#endif // SMARTTRACK_ANALYSIS_STCORE_H
