//===- perfbench/src/Serve.h - st-serve under open-loop load ----*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving path, end to end: an in-process Server on a unix socket,
/// driven from the same process by runLoadgen's open-loop generator. Each
/// request is one connection carrying an exponentially sized STB upload
/// of the workload's profile; its latency runs from the scheduled send to
/// the SUMMARY frame. Every served request is checked against a direct
/// Session run over the same buildRequestPayload() bytes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVE_H
#define PERFBENCH_SERVE_H

#include "Probes.h"
#include "Report.h"

#include <cstdint>
#include <string>

namespace perfbench {

struct ServeSetup {
  /// Workload profile name the request payloads are drawn from.
  std::string Profile;
  std::string SocketPath;
  /// The fixed offered rate of the latency phase, in events per second.
  double EventsPerSec = 0;
  /// Mean events per request (exponentially distributed).
  uint64_t MeanEvents = 0;
  unsigned Workers = 2;
  unsigned Connections = 2;
  uint64_t Seed = 0;
};

/// Untraced: request latency p50 (and, as a note, p99) at the fixed rate
/// for LatencySeconds, then achieved events per second in a phase offered
/// far above capacity (about CapacitySeconds long at the fixed rate's
/// capacity).
void measureServe(const ServeSetup &C, double LatencySeconds,
                  double CapacitySeconds, Report &R);

/// Traced: request latency p99, queueing versus service time, generator
/// lateness, and a layer-by-layer replay of served requests outside the
/// server.
void traceServe(const ServeSetup &C, double Seconds, Report &R, SpanLog &Log);

} // namespace perfbench

#endif // PERFBENCH_SERVE_H
