//===- perfbench/src/Offline.h - Trace bytes in, race report out -*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline pipeline: a generated workload stream, encoded to STB in
/// memory at set-up, is analyzed by one analysis per run of the full
/// public stack — MemoryByteSource -> StbEventSource -> Session ->
/// NdjsonSink -> a discarding byte sink.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_OFFLINE_H
#define PERFBENCH_OFFLINE_H

#include "Probes.h"
#include "Report.h"

#include "analysis/AnalysisRegistry.h"
#include "workload/Workload.h"

#include <string>
#include <vector>

namespace perfbench {

/// One analysis of the offline column: its kind and metric-name key.
struct KindInfo {
  st::AnalysisKind Kind;
  const char *Key;
};

/// FT2, then FTO and ST for each of WCP, DC and WDC.
const std::vector<KindInfo> &offlineKinds();

/// A generated stream, STB-encoded in memory.
struct Stream {
  std::string Stb;
  uint64_t Events = 0;
  uint64_t GenerateNs = 0;
  uint64_t EncodeNs = 0;
};

/// Generates \p Events events of \p Profile from \p Seed and encodes them,
/// in chunks so the generated events are never all held at once. Records
/// "generate" and "encode" spans when \p Log is given.
Stream buildStream(const st::WorkloadProfile &Profile, uint64_t Events,
                   uint64_t Seed, SpanLog *Log);

/// Untraced offline phase: each analysis's events per second through the
/// full pipeline (median over repeated runs, analyses interleaved, scaled
/// by \p Probe to the reference host speed), with every run checked.
void measureOffline(const Stream &S, double Seconds, HostProbe &Probe,
                    Report &R);

/// Traced offline phase: per-layer time of every analysis (decode,
/// engine, analysis, sink), peak footprints, ST-WDC case counts, and the
/// trace overhead against interleaved untraced runs.
void traceOffline(const Stream &S, double Seconds, Report &R, SpanLog &Log);

/// ST-WDC at 1, 2 and 4 variable shards through the same pipeline; checks
/// that sharded races equal the sequential run.
void traceSharded(const Stream &S, double Seconds, Report &R);

} // namespace perfbench

#endif // PERFBENCH_OFFLINE_H
