//===- perfbench/src/main.cpp - One benchmark run of one workload ---------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload once and prints one JSON object: metrics, race
/// counts, notes (host provenance), and the correctness ledger. run.py
/// builds this binary, passes the workload's parameters, and turns the
/// object into the benchmark's result line.
///
/// Untraced (--trace 0): set-up time, events per second of each analysis
/// through the offline pipeline, peak RSS, and served-request latency
/// and capacity. Traced (--trace 1): the per-layer numbers, from spans
/// recorded around every call into a layer, written to --spans.
///
//===----------------------------------------------------------------------===//

#include "Offline.h"
#include "Probes.h"
#include "Report.h"
#include "Serve.h"

#include "workload/Workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

/// Events in the offline stream: at tens of nanoseconds per event a
/// pipeline run takes tens to hundreds of milliseconds, long enough to
/// time and short enough for many interleaved runs.
constexpr uint64_t OfflineEvents = 1000000;

/// Set-ups per run; their median is setup_s.
constexpr unsigned SetupReps = 7;

/// Mean events per served request (exponentially distributed): large
/// requests are dominated by analysis, small ones by the connection.
constexpr uint64_t ServeMeanEvents = 2000;

/// Server workers, and load-generator connections, at most; together
/// they stay within the CPUs the process may run on.
constexpr unsigned MaxServeThreads = 2;

struct Args {
  std::string Profile;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  double ServeRate = 0;
  std::string Socket;
  std::string Spans;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --profile NAME --seed N --seconds S "
               "--trace 0|1 --serve-rate EVENTS/S\n"
               "                 --socket PATH [--spans PATH]\n",
               Msg);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    if (Flag == "--profile")
      A.Profile = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(V, nullptr);
    else if (Flag == "--trace")
      A.Trace = std::strcmp(V, "0") != 0;
    else if (Flag == "--serve-rate")
      A.ServeRate = std::strtod(V, nullptr);
    else if (Flag == "--socket")
      A.Socket = V;
    else if (Flag == "--spans")
      A.Spans = V;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (A.Profile.empty() || A.Seconds <= 0 || A.ServeRate <= 0 ||
      A.Socket.empty())
    usage("missing or invalid arguments");
  return A;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

unsigned affinityCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 0;
  return static_cast<unsigned>(CPU_COUNT(&Set));
}

double peakRssBytes() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) * 1024; // Linux reports KiB
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  // Timings from an unoptimized or assert-enabled build say nothing about
  // the analyses; refuse them outright.
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to run an assert-enabled build\n");
  return 3;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to run a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const st::WorkloadProfile *Profile = st::findProfile(A.Profile.c_str());
  if (!Profile)
    usage(("unknown profile " + A.Profile).c_str());

  Report R;
  R.note("nproc", std::to_string(affinityCpus()));
  R.note("hardware_concurrency",
         std::to_string(std::thread::hardware_concurrency()));
  R.note("cpu_model", cpuModel());
  R.note("compiler", PERFBENCH_COMPILER);
  R.note("build_type", PERFBENCH_BUILD_TYPE);

  // Set-up is repeated and its median reported, scaled to the reference
  // host speed like the offline rates; every repetition must produce the
  // same bytes.
  SpanLog Log;
  Stream S;
  HostProbe Probe;
  std::vector<double> SetupSeconds, ProbeNs;
  for (unsigned I = 0; I != SetupReps; ++I) {
    uint64_t T0 = nowNs();
    Stream Built = buildStream(*Profile, OfflineEvents, A.Seed,
                               A.Trace && I == 0 ? &Log : nullptr);
    SetupSeconds.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    ProbeNs.push_back(static_cast<double>(Probe.run()));
    if (I == 0)
      S = std::move(Built);
    else
      R.check(Built.Stb == S.Stb, "set-up is not deterministic");
  }
  R.note("offline.events", std::to_string(S.Events));

  ServeSetup C;
  C.Profile = A.Profile;
  C.SocketPath = A.Socket;
  C.EventsPerSec = A.ServeRate;
  C.MeanEvents = ServeMeanEvents;
  C.Workers = std::max(1u, std::min(MaxServeThreads, affinityCpus() / 2));
  C.Connections = C.Workers;
  C.Seed = A.Seed;
  R.note("serve.workers", std::to_string(C.Workers));
  R.note("serve.connections", std::to_string(C.Connections));

  if (!A.Trace) {
    R.metric("setup_s",
             median(SetupSeconds) * HostProbe::ReferenceNs / median(ProbeNs),
             "s");
    R.note("raw.setup_s", std::to_string(median(SetupSeconds)));
    measureOffline(S, A.Seconds * 0.55, Probe, R);
    // The offline runs set the peak the analyses' footprints explain; the
    // serve phase's per-thread allocator arenas would add noise to it.
    R.metric("peak_rss_bytes", peakRssBytes(), "bytes");
    measureServe(C, A.Seconds * 0.3, A.Seconds * 0.15, R);
  } else {
    R.metric("setup.generate_ns_per_event",
             static_cast<double>(S.GenerateNs) / static_cast<double>(S.Events),
             "ns");
    R.metric("setup.encode_ns_per_event",
             static_cast<double>(S.EncodeNs) / static_cast<double>(S.Events),
             "ns");
    traceOffline(S, A.Seconds * 0.4, R, Log);
    traceSharded(S, A.Seconds * 0.3, R);
    traceServe(C, A.Seconds * 0.2, R, Log);
    std::map<std::string, uint64_t> Self = Log.selfNsByName();
    for (const char *Name :
         {"generate", "encode", "pipeline", "engine", "decode", "analysis",
          "sink", "request", "replay", "session_setup", "lint"})
      R.metric(std::string("self_ms.") + Name,
               static_cast<double>(Self[Name]) / 1e6, "ms");
    if (!A.Spans.empty() && !Log.write(A.Spans))
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   A.Spans.c_str());
  }

  std::printf("%s\n", R.json().c_str());
  return R.failed() ? 1 : 0;
}
