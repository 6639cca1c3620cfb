//===- runtime/Runtime.h - Online instrumentation runtime -------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A ThreadSanitizer-style online runtime standing in for RoadRunner
/// (docs/architecture.md, "Substitutions"): real std::thread programs call
/// into a Detector that linearizes instrumentation events and feeds any
/// analysis from the registry while the program runs. RAII wrappers
/// (InstrumentedMutex, SharedVar) make instrumenting an application a
/// one-line-per-object change; see examples/bank_accounts.cpp.
///
/// The intake serializes events with one mutex — the paper's RoadRunner
/// tools use fine-grained metadata synchronization instead (§5.1); a global
/// order is the simplest correct substitute and is documented as such.
/// Lock events are emitted while the real mutex is held, so the analyzed
/// linearization is well formed by construction.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_RUNTIME_RUNTIME_H
#define SMARTTRACK_RUNTIME_RUNTIME_H

#include "analysis/Analysis.h"
#include "trace/Trace.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace st {

/// Online race detector: thread-safe event intake in front of an Analysis.
class Detector {
public:
  /// \p KeepTrace records the linearization so races can be vindicated or
  /// replayed after the run.
  explicit Detector(std::unique_ptr<Analysis> ImplAnalysis,
                    bool KeepTrace = false);

  /// Registers the spawning of a new thread by \p Parent; returns the
  /// child's ThreadId (the main thread is 0 and needs no registration).
  ThreadId forkThread(ThreadId Parent);

  /// Registers that \p Parent joined \p Child.
  void joinThread(ThreadId Parent, ThreadId Child);

  /// Allocates fresh lock / variable ids.
  LockId makeLock() { return NextLock.fetch_add(1); }
  VarId makeVar() { return NextVar.fetch_add(1); }
  VarId makeVolatile() { return NextVolatile.fetch_add(1); }

  void onAcquire(ThreadId T, LockId M);
  void onRelease(ThreadId T, LockId M);
  void onRead(ThreadId T, VarId X, SiteId Site = InvalidId);
  void onWrite(ThreadId T, VarId X, SiteId Site = InvalidId);
  void onVolRead(ThreadId T, VarId V);
  void onVolWrite(ThreadId T, VarId V);

  /// Routes every race report to \p S the moment the analysis detects it
  /// (null detaches), so online detection can react while the program is
  /// still executing. The callback runs on the thread that performed the
  /// racing access, inside the intake critical section: it must be quick
  /// and must not call back into this Detector (self-deadlock). Safe to
  /// call concurrently with intake.
  void setRaceSink(RaceSink *S);

  /// The underlying analysis (race counts, records, stats).
  const Analysis &analysis() const { return *Impl; }

  /// The recorded linearization (empty unless KeepTrace).
  Trace recordedTrace() const;

private:
  void submit(const Event &E);

  mutable std::mutex IntakeMutex;
  std::unique_ptr<Analysis> Impl;
  bool KeepTrace;
  std::vector<Event> Recorded;
  std::atomic<ThreadId> NextThread{1};
  std::atomic<LockId> NextLock{0};
  std::atomic<VarId> NextVar{0};
  std::atomic<VarId> NextVolatile{0};
};

/// A mutex whose lock/unlock operations are reported to a Detector. The
/// analysis event is emitted while the real mutex is held, keeping the
/// analyzed linearization well formed.
class InstrumentedMutex {
public:
  explicit InstrumentedMutex(Detector &D) : D(D), Id(D.makeLock()) {}

  void lock(ThreadId T) {
    M.lock();
    D.onAcquire(T, Id);
  }

  void unlock(ThreadId T) {
    D.onRelease(T, Id);
    M.unlock();
  }

  LockId id() const { return Id; }

private:
  Detector &D;
  LockId Id;
  std::mutex M;
};

/// RAII guard for InstrumentedMutex.
class ScopedLock {
public:
  ScopedLock(InstrumentedMutex &M, ThreadId T) : M(M), T(T) { M.lock(T); }
  ~ScopedLock() { M.unlock(T); }
  ScopedLock(const ScopedLock &) = delete;
  ScopedLock &operator=(const ScopedLock &) = delete;

private:
  InstrumentedMutex &M;
  ThreadId T;
};

/// An instrumented shared variable: every load/store is reported. The
/// payload itself is a relaxed atomic: tests deliberately race SharedVars
/// to exercise the detector, and the detector's job is to *report* those
/// races — the shim must not turn them into C++ undefined behavior (or
/// ThreadSanitizer findings) at the language level. Relaxed order adds no
/// synchronization, so every race stays visible to the analysis.
template <typename T>
class SharedVar {
public:
  SharedVar(Detector &D, T Init = T()) : D(D), Id(D.makeVar()), Value(Init) {}

  T load(ThreadId Tid, SiteId Site = InvalidId) const {
    D.onRead(Tid, Id, Site);
    return Value.load(std::memory_order_relaxed);
  }

  void store(ThreadId Tid, T V, SiteId Site = InvalidId) {
    D.onWrite(Tid, Id, Site);
    Value.store(V, std::memory_order_relaxed);
  }

  VarId id() const { return Id; }

private:
  Detector &D;
  VarId Id;
  std::atomic<T> Value;
};

} // namespace st

#endif // SMARTTRACK_RUNTIME_RUNTIME_H
