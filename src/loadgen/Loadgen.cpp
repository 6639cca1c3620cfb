//===- loadgen/Loadgen.cpp - Open-loop load generator for st-serve --------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "loadgen/Loadgen.h"

#include "loadgen/ExpArrivals.h"
#include "serve/Client.h"
#include "support/Bytes.h"
#include "trace/Stb.h"
#include "workload/Workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

namespace st {

namespace {

using SteadyClock = std::chrono::steady_clock;

uint64_t elapsedNs(SteadyClock::time_point Since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now() - Since)
          .count());
}

/// What one worker accumulates; merged after join, so workers share
/// nothing while running.
struct WorkerState {
  LatencyHistogram Latency;
  LatencyHistogram Service;
  uint64_t Requests = 0;
  uint64_t Completed = 0;
  uint64_t Errors = 0;
  uint64_t LateSends = 0;
  uint64_t EventsSent = 0;
  uint64_t EventsCompleted = 0;
  uint64_t BytesSent = 0;
  uint64_t Races = 0;
};

void runWorker(const LoadgenOptions &Opts, const ServeAddress &Addr,
               unsigned Worker, SteadyClock::time_point Start,
               WorkerState &WS) {
  const uint64_t DurationNs =
      static_cast<uint64_t>(Opts.DurationSeconds * 1e9);
  ExpArrivals Arrivals(arrivalSeed(Opts.Seed, Worker),
                       meanArrivalGapNs(Opts));
  HelloOptions Hello;
  Hello.Analyses = Opts.Analyses;
  Hello.Shards = Opts.Shards;

  uint64_t NextNs = Arrivals.nextGapNs();
  for (uint64_t Request = 0; NextNs <= DurationNs;
       ++Request, NextNs += Arrivals.nextGapNs()) {
    // Everything that is generator cost — payload synthesis, connect,
    // handshake, reader-thread spawn — happens ahead of the scheduled
    // instant so it is never billed as server latency. If the worker is
    // already past the deadline, the request goes out late and the
    // lateness is charged to the measurement (open-loop correction).
    RequestPayload Payload = buildRequestPayload(Opts, Worker, Request);
    ++WS.Requests;
    WS.EventsSent += Payload.Events;

    RequestOutcome O;
    O.Events = Payload.Events;
    serve::Client::FrameHandler Capture;
    if (Opts.OnRequest)
      Capture = [&O](const Frame &F) {
        if (F.Type == FrameType::Race)
          O.RaceBytes += F.Payload;
        else if (F.Type == FrameType::Summary)
          O.SummaryBytes += F.Payload;
        else if (F.Type == FrameType::Error)
          O.ErrorBytes += F.Payload;
      };
    serve::Client Conn(std::move(Capture));
    bool Connected = Conn.connect(Addr, Opts.RecvTimeoutSeconds);
    if (Connected)
      Conn.sendHello(Hello);
    // Sleep to the scheduled instant; measure from it even when late. A
    // failed connect waits too, so against a dead server the schedule
    // stays open-loop instead of spinning through every request at once.
    uint64_t Now = elapsedNs(Start);
    if (Now < NextNs)
      std::this_thread::sleep_for(std::chrono::nanoseconds(NextNs - Now));
    else if (Connected && Now - NextNs > LateSendToleranceNs)
      ++WS.LateSends;
    if (Connected && Conn.sendEvents(Payload.Bytes, Opts.ChunkBytes))
      WS.BytesSent += Payload.Bytes.size();
    serve::ClientOutcome R = Conn.finish();

    O.Ok = R.completed();
    O.ServiceNs = R.ServiceNs;
    O.Races = R.TotalRaces;
    if (O.Ok) {
      uint64_t EndNs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(R.SummaryAt -
                                                               Start)
              .count());
      O.LatencyNs = EndNs > NextNs ? EndNs - NextNs : 0;
      ++WS.Completed;
      WS.EventsCompleted += Payload.Events;
      WS.Races += O.Races;
      WS.Latency.record(O.LatencyNs);
      if (O.ServiceNs)
        WS.Service.record(O.ServiceNs);
    } else {
      ++WS.Errors;
    }
    if (Opts.OnRequest)
      Opts.OnRequest(Worker, Request, O);
  }
}

} // namespace

uint64_t arrivalSeed(uint64_t Seed, unsigned Worker) {
  return mixSeed(mixSeed(Seed, 0xA221A11ull), Worker);
}

double meanArrivalGapNs(const LoadgenOptions &Opts) {
  double RequestsPerSec =
      Opts.EventsPerSec / static_cast<double>(Opts.EventsPerRequest) /
      static_cast<double>(Opts.Connections);
  return 1e9 / RequestsPerSec;
}

RequestPayload buildRequestPayload(const LoadgenOptions &Opts,
                                   unsigned Worker, uint64_t Request) {
  // Two decorrelated per-(worker, request) streams: one draws the event
  // count, one seeds the workload generator. Both are pure functions of
  // the top-level seed, which is the whole determinism story.
  uint64_t CountSeed =
      mixSeed(mixSeed(mixSeed(Opts.Seed, 0xC0517ull), Worker), Request);
  uint64_t GenSeed =
      mixSeed(mixSeed(mixSeed(Opts.Seed, 0x6E47ull), Worker), Request);

  uint64_t Mean = std::max<uint64_t>(1, Opts.EventsPerRequest);
  uint64_t Target = Mean;
  switch (Opts.Dist) {
  case EventCountDist::Fixed:
    break;
  case EventCountDist::Uniform: {
    Rng R(CountSeed);
    Target = R.nextInRange(std::max<uint64_t>(1, Mean / 2),
                           Mean + Mean / 2);
    break;
  }
  case EventCountDist::Exponential: {
    ExpArrivals E(CountSeed, static_cast<double>(Mean));
    Target = std::min<uint64_t>(std::max<uint64_t>(1, E.nextGapNs()),
                                8 * Mean);
    break;
  }
  }

  const WorkloadProfile *Profile = findProfile(Opts.Workload.c_str());
  RequestPayload P;
  if (!Profile)
    return P; // runLoadgen validates up front; unreachable in practice
  StringByteSink Sink(P.Bytes);
  StbWriter W(Sink);
  W.writeHeader();
  WorkloadGenerator Gen(*Profile, Target, GenSeed);
  Event E;
  while (Gen.next(E))
    W.writeEvent(E);
  P.Events = W.eventsWritten();
  return P;
}

bool runLoadgen(const LoadgenOptions &Opts, LoadgenReport &Out,
                std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (Opts.EventsPerSec <= 0)
    return Fail("events-per-sec must be positive");
  if (Opts.Connections == 0)
    return Fail("connections must be at least 1");
  if (Opts.DurationSeconds <= 0)
    return Fail("duration must be positive");
  if (Opts.EventsPerRequest == 0)
    return Fail("events-per-request must be at least 1");
  if (!findProfile(Opts.Workload.c_str()))
    return Fail("unknown workload profile: " + Opts.Workload);
  ServeAddress Addr;
  std::string AddrErr;
  if (!parseServeAddress(Opts.Connect, Addr, &AddrErr))
    return Fail(AddrErr);

  std::vector<WorkerState> States(Opts.Connections);
  SteadyClock::time_point Start = SteadyClock::now();
  {
    std::vector<std::thread> Workers;
    Workers.reserve(Opts.Connections);
    for (unsigned W = 0; W < Opts.Connections; ++W)
      Workers.emplace_back([&, W] {
        runWorker(Opts, Addr, W, Start, States[W]);
      });
    for (std::thread &T : Workers)
      T.join();
  }
  double Wall = static_cast<double>(elapsedNs(Start)) / 1e9;

  Out = LoadgenReport();
  for (const WorkerState &WS : States) {
    Out.Latency.merge(WS.Latency);
    Out.Service.merge(WS.Service);
    Out.Requests += WS.Requests;
    Out.Completed += WS.Completed;
    Out.Errors += WS.Errors;
    Out.LateSends += WS.LateSends;
    Out.EventsSent += WS.EventsSent;
    Out.EventsCompleted += WS.EventsCompleted;
    Out.BytesSent += WS.BytesSent;
    Out.Races += WS.Races;
  }
  Out.WallSeconds = Wall;
  Out.OfferedEventsPerSec = Opts.EventsPerSec;
  Out.AchievedEventsPerSec =
      Wall > 0 ? static_cast<double>(Out.EventsCompleted) / Wall : 0;
  return true;
}

} // namespace st
