//===- workload/Workload.h - DaCapo-like synthetic workloads ----*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic multithreaded workloads standing in for the paper's DaCapo
/// benchmarks (docs/architecture.md, "Substitutions"). Each profile is
/// tuned to reproduce the run-time characteristics §5.3 identifies as
/// performance-relevant (Table 2): thread count, the fraction of
/// non-same-epoch accesses (NSEAs), and the distribution of locks held at
/// NSEAs. Profiles also seed racy access patterns shaped like the paper's
/// figures so Table 7's relation-vs-race-count structure emerges:
///
///  - "HB" episodes: unsynchronized conflicting accesses (every relation);
///  - "predictive" episodes (Figure 1 shape): accesses ordered by HB
///    through critical sections on unrelated data — WCP/DC/WDC races;
///  - "DC-only" episodes (Figure 2 shape): ordering requires composing a
///    rule-(a) edge with an HB lock edge — DC/WDC races, not WCP.
///
/// The generator streams events without materializing traces, so benchmark
/// memory reflects analysis metadata, not workload storage. Everything is
/// seeded and deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_WORKLOAD_WORKLOAD_H
#define SMARTTRACK_WORKLOAD_WORKLOAD_H

#include "trace/Trace.h"

#include <cstdint>
#include <deque>
#include <vector>

namespace st {

/// Tuning knobs for one synthetic program, mirroring a Table 2 row.
struct WorkloadProfile {
  const char *Name = "custom";
  unsigned Threads = 8;
  /// The paper's total event count for this program (Table 2 "All");
  /// benches divide by a scale factor.
  uint64_t PaperTotalEvents = 1000000;
  /// Table 2: NSEAs / All.
  double NseaFraction = 0.10;
  /// Table 2: fraction of NSEAs holding >= 1/2/3 locks (0..1 each).
  double Held1 = 0.10, Held2 = 0.0, Held3 = 0.0;
  unsigned SharedVarsPerLock = 512;
  unsigned PrivateVarsPerThread = 64;
  unsigned Locks = 8;
  double WriteFraction = 0.35;
  /// Race seeding: statically distinct racy sites per category.
  unsigned HbRacySites = 0;
  unsigned PredictiveRacySites = 0;
  unsigned DcOnlyRacySites = 0;
  /// Racy episodes per million events (dynamic race volume).
  double EpisodesPerMillion = 200.0;
};

/// Streaming generator for a profile. Emits a well-formed linearization.
class WorkloadGenerator {
public:
  /// \p TotalEvents is the approximate number of events to emit (the
  /// stream stops at the first block boundary past the target).
  WorkloadGenerator(const WorkloadProfile &Profile, uint64_t TotalEvents,
                    uint64_t Seed = 42);

  /// Emits the next event; returns false when the stream has ended.
  bool next(Event &E);

  /// Restarts the stream from the beginning (same seed).
  void reset();

  uint64_t eventsEmitted() const { return Emitted; }
  const WorkloadProfile &profile() const { return Profile; }

  /// Materializes up to \p MaxEvents into a Trace (testing only).
  Trace materialize(uint64_t MaxEvents);

private:
  void scheduleBackgroundBlock();
  void scheduleHbEpisode();
  void schedulePredictiveEpisode();
  void scheduleDcOnlyEpisode();
  void scheduleNext();

  // Id-space layout helpers.
  VarId privateVar(ThreadId T, unsigned I) const;
  VarId lockVar(LockId M, unsigned I) const;
  VarId racyVar(unsigned Category, unsigned Site) const;
  LockId episodeLock(unsigned I) const;

  WorkloadProfile Profile;
  uint64_t TotalEvents;
  uint64_t Seed;
  uint64_t RngState;
  uint64_t Emitted = 0;
  uint64_t NextEpisodeAt = 0;
  unsigned EpisodeRotor = 0;
  bool Prologue = true;
  std::deque<Event> Pending;
  unsigned VarsPerBlock = 1; // distinct variables (NSEAs) per block
  double RepeatAvg = 1.0;    // same-epoch repeats per variable
  double PDepth[4];          // block lock-depth distribution
};

/// The ten DaCapo-like profiles tuned to Table 2 / Table 7.
const std::vector<WorkloadProfile> &dacapoProfiles();

/// Looks up a profile by name (nullptr if unknown).
const WorkloadProfile *findProfile(const char *Name);

} // namespace st

#endif // SMARTTRACK_WORKLOAD_WORKLOAD_H
