//===- analysis/CSList.h - SmartTrack critical-section records --*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The critical-section (CS) list representation of Algorithm 3, shared by
/// every SmartTrack-tier analysis (STCore instantiations):
///
///  - H_t: the current thread's active critical sections, innermost first,
///    each naming a vector clock that is filled in with the release time
///    when the release happens (deferred update; until then the owner's
///    entry reads ∞ so ordering queries fail).
///  - L^w_x / L^r_x: CS lists mirroring W_x / R_x.
///  - E^r_x / E^w_x: "extra" (thread, lock, clock) entries holding CS
///    information that a write would otherwise overwrite (Figures 4(c,d));
///    empty in the common case, which is where SmartTrack's speedup lives.
///
/// Everything lives in a CSArena owned by one core. A core is
/// single-threaded (each shard of the sharded executor is a private core),
/// so records carry plain reference counts and are named by 32-bit
/// handles; handle 0 is the empty list and the absent clock.
///
///  - A list is a persistent cons list of nodes, innermost first. A node
///    holds its lock, the handle of its section's release clock, and the
///    handle of the next (outer) node. Acquire pushes one node. Copying a
///    list into per-variable metadata ("shallow copies", Algorithm 3) is a
///    handle store plus a reference count increment.
///  - Release clocks are separate records, so a non-LIFO release can
///    path-copy the nodes above the released one while the copies keep
///    naming the same clocks; the release fills a clock once for every
///    list that shares it.
///  - Clocks are created lazily: a section gets one only when its list is
///    first shared into metadata (materialize()), so an uncontended section
///    costs one node and no clock. Once a node has a clock, every node
///    below it has one too.
///  - Records whose count drops to zero go on per-kind free lists. A
///    recycled clock keeps its heap buffer, so once warm an acquire, a
///    release or a snapshot allocates nothing.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_ANALYSIS_CSLIST_H
#define SMARTTRACK_ANALYSIS_CSLIST_H

#include "support/Compiler.h"
#include "support/Types.h"
#include "support/VectorClock.h"

#include <cstdint>
#include <vector>

namespace st {

/// 32-bit name of a CSArena record (a list node or a release clock).
using CSHandle = uint32_t;

/// The empty list / no clock.
inline constexpr CSHandle NoCS = 0;

/// One "extra" metadata entry of E^r_x / E^w_x: a critical section of
/// thread \c T on lock \c M whose release clock a later access holding
/// \c M must join.
struct ExtraEntry {
  ThreadId T;
  LockId M;
  CSHandle Clock;
};

/// A free-listed pool of records named by 32-bit handles (0 = none). A
/// freed record keeps its buffers, so reusing it allocates nothing; the
/// owner resets whatever the next user must not see.
template <typename T> class RecordPool {
public:
  RecordPool() { Recs.emplace_back(); } // slot 0 is never handed out

  T &operator[](uint32_t H) {
    ST_CHECK(H != 0 && H < Recs.size());
    return Recs[H];
  }
  const T &operator[](uint32_t H) const {
    ST_CHECK(H != 0 && H < Recs.size());
    return Recs[H];
  }

  /// A record handle; references into the pool do not survive this call.
  uint32_t make() {
    if (!Free.empty()) {
      uint32_t H = Free.back();
      Free.pop_back();
      return H;
    }
    ST_CHECK(Recs.size() < UINT32_MAX); // the handle would wrap
    Recs.emplace_back();
    return static_cast<uint32_t>(Recs.size() - 1);
  }

  void free(uint32_t H) {
    ST_CHECK(H != 0 && H < Recs.size());
    Free.push_back(H);
  }

  /// Pool capacity plus \p HeapBytes(record) for every record.
  template <typename F> size_t footprintBytes(F HeapBytes) const {
    size_t N = Recs.capacity() * sizeof(T) + Free.capacity() * sizeof(uint32_t);
    for (const T &R : Recs)
      N += HeapBytes(R);
    return N;
  }

private:
  std::vector<T> Recs;
  std::vector<uint32_t> Free;
};

/// Reference-counted storage for CS list nodes and release clocks.
class CSArena {
public:
  // --- Lists -------------------------------------------------------------

  LockId lock(CSHandle N) const { return node(N).M; }
  CSHandle next(CSHandle N) const { return node(N).Next; }
  CSHandle clockOf(CSHandle N) const { return node(N).Clock; }

  void retain(CSHandle N) {
    if (N != NoCS)
      ++node(N).Refs;
  }

  /// Drops one reference to list \p N, freeing every node (and clock) that
  /// nothing else references.
  void release(CSHandle N) {
    while (N != NoCS) {
      Node &Nd = node(N);
      ST_CHECK(Nd.Refs > 0);
      if (--Nd.Refs != 0)
        return;
      CSHandle Next = Nd.Next;
      releaseClock(Nd.Clock);
      Nd.M = PoisonLock;
      Nodes.free(N);
      N = Next;
    }
  }

  /// Points \p Slot at list \p N, moving one reference.
  void assign(CSHandle &Slot, CSHandle N) {
    if (Slot == N)
      return;
    retain(N);
    release(Slot);
    Slot = N;
  }

  /// Returns \p Head with a section on \p M pushed in front. The reference
  /// held on \p Head passes to the new node; the result carries one.
  CSHandle push(CSHandle Head, LockId M) { return makeNode(M, NoCS, Head); }

  /// Ends the section on \p M in list \p Head: fills its clock (if it was
  /// ever materialized) with \p Rel and returns the list without it. The
  /// nodes above the removed one are path-copied and share their clocks.
  /// Consumes the reference held on \p Head; the result carries one.
  CSHandle remove(CSHandle Head, LockId M, const VectorClock &Rel);

  /// Gives every clockless section of \p Head (owned by thread \p T) a
  /// clock holding ∞ in \p T's entry.
  void materialize(CSHandle Head, ThreadId T) {
    for (CSHandle N = Head; N != NoCS && node(N).Clock == NoCS;
         N = node(N).Next) {
      CSHandle C = Clocks.make();
      ClockRec &R = Clocks[C];
      R.Refs = 1;
      R.C.clear();
      R.C.set(T, InfiniteClock);
      node(N).Clock = C;
    }
  }

  // --- Release clocks ------------------------------------------------------

  const VectorClock &clock(CSHandle C) const { return clockRec(C).C; }

  void retainClock(CSHandle C) {
    if (C != NoCS)
      ++clockRec(C).Refs;
  }

  void releaseClock(CSHandle C) {
    if (C == NoCS)
      return;
    if (--clockRec(C).Refs == 0)
      Clocks.free(C);
  }

  /// Pool capacity plus the clocks' heap buffers, free records included
  /// (they keep their buffers for reuse).
  size_t footprintBytes() const {
    return Nodes.footprintBytes([](const Node &) { return size_t(0); }) +
           Clocks.footprintBytes(
               [](const ClockRec &R) { return R.C.footprintBytes(); }) +
           AboveTarget.capacity() * sizeof(CSHandle);
  }

private:
  /// Lock id written into freed nodes, so a use after recycling trips
  /// ST_CHECK.
  static constexpr LockId PoisonLock = InvalidId;

  struct Node {
    CSHandle Next = NoCS;  // outer section
    CSHandle Clock = NoCS; // release clock, NoCS until materialized
    LockId M = PoisonLock;
    uint32_t Refs = 0;
  };
  struct ClockRec {
    VectorClock C;
    uint32_t Refs = 0;
  };

  Node &node(CSHandle N) {
    Node &Nd = Nodes[N];
    ST_CHECK(Nd.M != PoisonLock);
    return Nd;
  }
  const Node &node(CSHandle N) const {
    const Node &Nd = Nodes[N];
    ST_CHECK(Nd.M != PoisonLock);
    return Nd;
  }
  ClockRec &clockRec(CSHandle C) {
    ClockRec &R = Clocks[C];
    ST_CHECK(R.Refs > 0); // freed clocks hold 0
    return R;
  }
  const ClockRec &clockRec(CSHandle C) const {
    const ClockRec &R = Clocks[C];
    ST_CHECK(R.Refs > 0);
    return R;
  }

  /// A node with one reference, taking over a reference to \p Next and
  /// one to \p Clock.
  CSHandle makeNode(LockId M, CSHandle Clock, CSHandle Next) {
    CSHandle N = Nodes.make();
    Nodes[N] = Node{Next, Clock, M, 1};
    return N;
  }

  RecordPool<Node> Nodes;
  RecordPool<ClockRec> Clocks;
  std::vector<CSHandle> AboveTarget; // remove()'s path from the head
};

inline CSHandle CSArena::remove(CSHandle Head, LockId M,
                                const VectorClock &Rel) {
  AboveTarget.clear();
  CSHandle Target = Head;
  while (Target != NoCS && node(Target).M != M) {
    AboveTarget.push_back(Target);
    Target = node(Target).Next;
  }
  if (Target == NoCS)
    return Head; // not an active section: nothing to end
  if (CSHandle C = node(Target).Clock)
    Clocks[C].C = Rel; // deferred update; NoCS means never shared
  // Rebuild the nodes above the target (none for a LIFO release) onto the
  // target's tail, innermost last so each copy can point at the previous.
  CSHandle Tail = node(Target).Next;
  retain(Tail);
  for (size_t I = AboveTarget.size(); I-- > 0;) {
    const Node &Above = node(AboveTarget[I]);
    LockId AboveM = Above.M;
    CSHandle AboveClock = Above.Clock;
    retainClock(AboveClock);
    Tail = makeNode(AboveM, AboveClock, Tail); // may grow Nodes
  }
  release(Head);
  return Tail;
}

} // namespace st

#endif // SMARTTRACK_ANALYSIS_CSLIST_H
