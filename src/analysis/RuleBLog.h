//===- analysis/RuleBLog.h - Queues for DC/WCP rule (b) ---------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The acquire/release queues that compute DC and WCP rule (b) (paper
/// Algorithm 1 lines 2 and 4–8): per lock, each acquire enqueues its time
/// and each release checks, per acquiring thread, whether queued acquires
/// have become ordered before the current release; if so the corresponding
/// release time is joined into the releaser's clock (adding the rel–rel
/// edge).
///
/// DC needs an independent queue per (releasing thread, acquiring thread)
/// pair because DC knowledge is not monotone across releasers; WCP can share
/// one queue per acquiring thread since releases of one lock are totally
/// HB-ordered (Kini et al. 2017). Both shapes are provided here by storing
/// each acquirer's history once and keeping per-releaser (or shared)
/// cursors, which is observationally equivalent to the paper's per-pair
/// queues while storing each vector clock once.
///
/// Storage (docs/architecture.md, "Rule-(b) queues"): each acquirer's
/// history lives in fixed-size blocks of entries. A cursor constrains
/// reclamation once its releaser has drained that acquirer; entries every
/// such cursor has passed are freed a whole block at a time, at most once
/// per ReclaimPeriod pushes to that acquirer's log. Freed blocks go to a
/// per-lock free list, so a recycled entry's clocks keep their heap buffers
/// and a release allocates nothing in steady state. A thread that drains
/// an acquirer for the first time after a reclamation starts at the
/// earliest retained entry; this matches lazily instantiating per-pair
/// queues for pairs whose releaser actually releases the lock.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_ANALYSIS_RULEBLOG_H
#define SMARTTRACK_ANALYSIS_RULEBLOG_H

#include "support/Compiler.h"
#include "support/VectorClock.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace st {
namespace detail {

/// True iff the acquire by \p U at time \p Acq is ordered before \p C.
/// The full-clock check tests U's own entry first: a queued acquire that is
/// not yet ordered almost always fails there, so the common blocked front
/// costs one compare instead of a clock-wide scan.
inline bool ruleBOrdered(const VectorClock &Acq, const VectorClock &C,
                         ThreadId U) {
  return Acq.get(U) <= C.get(U) && Acq.leq(C);
}
inline bool ruleBOrdered(Epoch Acq, const VectorClock &C, ThreadId) {
  return C.epochLeq(Acq);
}
inline size_t ruleBTimeFootprint(const VectorClock &Acq) {
  return Acq.footprintBytes();
}
inline size_t ruleBTimeFootprint(Epoch) { return 0; }

} // namespace detail

/// Rule-(b) acquire/release history for one lock.
///
/// \tparam AcqTimeT the representation of acquire times: VectorClock for the
/// unoptimized and FTO algorithms, Epoch for SmartTrack (Algorithm 3's
/// "Optimizing Acq_m,t(t')" change).
template <typename AcqTimeT>
class RuleBLog {
public:
  /// \p PerReleaserCursors selects DC-style per-(releaser, acquirer) queues
  /// (true) or WCP-style shared per-acquirer queues (false).
  explicit RuleBLog(bool PerReleaserCursors)
      : PerReleaserCursors(PerReleaserCursors) {}

  /// Records acq(m) by \p U at time \p T.
  void onAcquire(ThreadId U, const AcqTimeT &T) {
    Entry &E = push(logOf(U));
    E.Acq = T;
    E.RelIdx = NotReleased;
  }

  /// Records rel(m) by \p U at time \p C (trace index \p RelIdx), completing
  /// the entry its acquire pushed.
  void onRelease(ThreadId U, const VectorClock &C, uint64_t RelIdx) {
    AcquirerLog &L = logOf(U);
    assert(L.End > L.Base && L.at(L.End - 1).RelIdx == NotReleased &&
           "release without matching queued acquire");
    Entry &E = L.at(L.End - 1);
    E.Rel = C;
    E.RelIdx = RelIdx;
  }

  /// Processes rule (b) at a rel(m) by \p Releaser whose current clock is
  /// \p C: for every other acquiring thread, dequeues queued acquires
  /// ordered before \p C and invokes \p OnOrdered(RelClock, RelIdx) for each
  /// so the caller can join the rel–rel edge. Force-inlined into the
  /// per-release handlers: the common case touches only the cursor
  /// bookkeeping, and an outlined call per release is measurable.
  template <typename F>
  ST_ALWAYS_INLINE void drainOrdered(ThreadId Releaser, const VectorClock &C,
                                     F &&OnOrdered) {
    uint64_t *Row = cursorRow(Releaser);
    for (ThreadId U = 0, N = static_cast<ThreadId>(Logs.size()); U < N; ++U) {
      if (U == Releaser)
        continue;
      AcquirerLog &L = Logs[U];
      uint64_t &Cur = Row[U];
      if (Cur == NotDrained)
        Cur = L.Base; // first drain of U by this cursor
      while (Cur < L.End) {
        Entry &E = L.at(Cur);
        if (!detail::ruleBOrdered(E.Acq, C, U))
          break;
        assert(E.RelIdx != NotReleased && "ordered acquire of an open section");
        OnOrdered(E.Rel, E.RelIdx);
        ++Cur;
      }
      if (L.End >= L.NextReclaim)
        reclaim(U);
    }
  }

  size_t footprintBytes() const {
    size_t N = Logs.capacity() * sizeof(AcquirerLog) +
               Cursors.capacity() * sizeof(std::vector<uint64_t>) +
               FreeBlocks.capacity() * sizeof(std::unique_ptr<Block>);
    for (const auto &Row : Cursors)
      N += Row.capacity() * sizeof(uint64_t);
    for (const AcquirerLog &L : Logs) {
      N += L.Blocks.capacity() * sizeof(std::unique_ptr<Block>);
      for (const auto &B : L.Blocks)
        N += B->footprintBytes();
    }
    for (const auto &B : FreeBlocks)
      N += B->footprintBytes();
    return N;
  }

private:
  /// Entries per storage block. Small, so a lock that an acquirer takes
  /// only a few times does not pay for a large mostly-empty block.
  static constexpr uint64_t BlockEntries = 8;
  /// Pushes to one acquirer's log between two reclamation attempts; an
  /// attempt scans every cursor row, so this amortizes it.
  static constexpr uint64_t ReclaimPeriod = 32;
  /// RelIdx of an entry whose critical section is still open.
  static constexpr uint64_t NotReleased = UINT64_MAX;
  /// Cursor of a releaser that has never drained the acquirer; it does not
  /// constrain reclamation (a minimum over cursors ignores it).
  static constexpr uint64_t NotDrained = UINT64_MAX;

  struct Entry {
    AcqTimeT Acq;
    VectorClock Rel;
    uint64_t RelIdx = NotReleased;
  };

  struct Block {
    Entry Slots[BlockEntries];

    /// sizeof(Block) plus the heap buffers its clocks keep, retired entries
    /// included: a recycled slot reuses them.
    size_t footprintBytes() const {
      size_t N = sizeof(Block);
      for (const Entry &E : Slots)
        N += detail::ruleBTimeFootprint(E.Acq) + E.Rel.footprintBytes();
      return N;
    }
  };

  /// One acquirer's retained history: global entry indices [Base, End),
  /// stored from Blocks.front() on. Base is a multiple of BlockEntries.
  struct AcquirerLog {
    std::vector<std::unique_ptr<Block>> Blocks;
    uint64_t Base = 0;
    uint64_t End = 0;
    uint64_t NextReclaim = ReclaimPeriod; // End that triggers an attempt

    Entry &at(uint64_t G) {
      return Blocks[(G - Base) / BlockEntries]->Slots[G % BlockEntries];
    }
  };

  AcquirerLog &logOf(ThreadId U) {
    if (U >= Logs.size())
      Logs.resize(U + 1);
    return Logs[U];
  }

  /// Appends a slot to \p L, taking a block from the free list when the
  /// last one is full.
  Entry &push(AcquirerLog &L) {
    if (L.End - L.Base == L.Blocks.size() * BlockEntries) {
      if (FreeBlocks.empty()) {
        L.Blocks.push_back(std::make_unique<Block>());
      } else {
        L.Blocks.push_back(std::move(FreeBlocks.back()));
        FreeBlocks.pop_back();
      }
    }
    return L.at(L.End++);
  }

  /// The cursor row \p Releaser drains with, covering every acquirer.
  uint64_t *cursorRow(ThreadId Releaser) {
    size_t R = PerReleaserCursors ? Releaser : 0;
    if (R >= Cursors.size())
      Cursors.resize(R + 1);
    std::vector<uint64_t> &Row = Cursors[R];
    if (Row.size() < Logs.size())
      Row.resize(Logs.size(), NotDrained);
    return Row.data();
  }

  /// Moves to the free list every block of \p U's log that all cursors
  /// which have drained U are past.
  void reclaim(ThreadId U) {
    AcquirerLog &L = Logs[U];
    L.NextReclaim = L.End + ReclaimPeriod;
    uint64_t Min = L.End;
    for (const auto &Row : Cursors)
      if (U < Row.size())
        Min = std::min(Min, Row[U]);
    assert(Min >= L.Base && "drained cursor behind a freed block");
    size_t Freed = static_cast<size_t>((Min - L.Base) / BlockEntries);
    for (size_t I = 0; I != Freed; ++I)
      FreeBlocks.push_back(std::move(L.Blocks[I]));
    L.Blocks.erase(L.Blocks.begin(), L.Blocks.begin() + Freed);
    L.Base += Freed * BlockEntries;
  }

  bool PerReleaserCursors;
  std::vector<AcquirerLog> Logs;              // indexed by acquirer
  std::vector<std::vector<uint64_t>> Cursors; // [releaser or 0][acquirer]
  std::vector<std::unique_ptr<Block>> FreeBlocks;
};

} // namespace st

#endif // SMARTTRACK_ANALYSIS_RULEBLOG_H
