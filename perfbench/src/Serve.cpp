//===- perfbench/src/Serve.cpp - st-serve under open-loop load ------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Serve.h"

#include "analysis/AnalysisRegistry.h"
#include "lint/Lint.h"
#include "lint/LintingEventSource.h"
#include "loadgen/ExpArrivals.h"
#include "loadgen/Loadgen.h"
#include "report/FrameSink.h"
#include "report/Session.h"
#include "serve/Server.h"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include <unistd.h>

namespace perfbench {

namespace {

/// Latency charged to a failed request — the load generator's receive
/// timeout — so a failure misses every latency limit.
constexpr double FailedLatencyNs = 30e9;

/// Offered load of the capacity phase as a multiple of the fixed rate.
/// The fixed rate sits near half of capacity, so this offers about twenty
/// times capacity: every request is due almost at once and every
/// connection sends back to back.
constexpr double CapacityOverload = 40;

/// Alternating latency and capacity phases of the untraced run.
constexpr unsigned ServeRepeats = 5;

/// Served requests replayed layer by layer in the traced run.
constexpr size_t MaxReplays = 200;

struct RequestRecord {
  uint64_t Request = 0;
  bool Ok = false;
  uint64_t LatencyNs = 0;
  uint64_t ServiceNs = 0;
  uint64_t Races = 0;
  uint64_t Events = 0;
  /// When the load generator handed the outcome back.
  uint64_t DoneNs = 0;
};

/// One runLoadgen() call and what each of its requests produced.
struct Phase {
  st::LoadgenOptions Opts;
  st::LoadgenReport Rep;
  bool Ran = false;
  std::string Err;
  uint64_t StartNs = 0;
  /// Per connection worker, in request order.
  std::vector<std::vector<RequestRecord>> ByWorker;
};

uint64_t requestId(unsigned Worker, uint64_t Request) {
  return (static_cast<uint64_t>(Worker) << 32) | Request;
}

Phase runPhase(const ServeSetup &C, double Rate, double Seconds) {
  Phase P;
  P.Opts.Connect = "unix:" + C.SocketPath;
  P.Opts.Connections = C.Connections;
  P.Opts.Seed = C.Seed;
  P.Opts.Workload = C.Profile;
  P.Opts.Analyses = {"ST-WDC"};
  P.Opts.EventsPerRequest = C.MeanEvents;
  P.Opts.Dist = st::EventCountDist::Exponential;
  P.Opts.EventsPerSec = Rate;
  P.Opts.DurationSeconds = Seconds;
  P.ByWorker.resize(C.Connections);
  // The hook runs on worker threads, never twice at once for one worker,
  // so each worker appends to its own vector.
  P.Opts.OnRequest = [&P](unsigned W, uint64_t Req,
                          const st::RequestOutcome &O) {
    P.ByWorker[W].push_back({Req, O.Ok, O.LatencyNs, O.ServiceNs, O.Races,
                             O.Events, nowNs()});
  };
  P.StartNs = nowNs();
  P.Ran = st::runLoadgen(P.Opts, P.Rep, &P.Err);
  P.Opts.OnRequest = nullptr;
  return P;
}

/// The server under test, listening on the set-up's unix socket; the
/// Server destructor stops it and joins its threads.
class LiveServer {
public:
  explicit LiveServer(const ServeSetup &C) : S(options(C)) {
    ::unlink(C.SocketPath.c_str()); // a stale socket from a killed run
    Up = S.addUnixListener(C.SocketPath, &Err) && S.start(&Err);
  }

  bool up() const { return Up; }
  const std::string &error() const { return Err; }
  st::Server &server() { return S; }

private:
  static st::ServerOptions options(const ServeSetup &C) {
    st::ServerOptions O;
    O.Workers = C.Workers;
    O.DefaultKinds = {st::AnalysisKind::STWDC};
    return O;
  }

  st::Server S;
  bool Up = false;
  std::string Err;
};

/// Direct Session run over one request's payload: the reference every
/// served request is checked against. Returns (events, races).
std::pair<uint64_t, uint64_t> directRun(const st::RequestPayload &Pay) {
  st::MemoryByteSource Bytes(Pay.Bytes);
  st::StbEventSource Decoder(Bytes);
  st::SessionOptions SO;
  SO.MaxStoredRaces = 0;
  st::Session Sess(SO);
  Sess.add(st::AnalysisKind::STWDC);
  st::RunReport Rep = Sess.run(Decoder);
  return {Rep.Stream.Events,
          Decoder.error() ? UINT64_MAX : Rep.TotalDynamicRaces};
}

/// Loadgen and server accounting, then every request against a direct
/// run. Payloads depend only on (seed, worker, request), so a request
/// several phases share is run directly once.
void checkPhases(Report &R, const std::vector<const Phase *> &Phases,
                 const st::ServerStats &Stats) {
  uint64_t Requests = 0;
  for (const Phase *P : Phases) {
    R.check(P->Ran, "load generator: " + P->Err);
    uint64_t Records = 0;
    for (const auto &W : P->ByWorker)
      Records += W.size();
    R.check(P->Rep.Completed + P->Rep.Errors == P->Rep.Requests &&
                Records == P->Rep.Requests,
            "load generator accounting: completed " +
                std::to_string(P->Rep.Completed) + " + errors " +
                std::to_string(P->Rep.Errors) + " != requests " +
                std::to_string(P->Rep.Requests));
    Requests += P->Rep.Requests;
  }
  R.check(Stats.Accepted == Stats.handled() &&
              Stats.handled() == Stats.Completed && Stats.Accepted == Requests,
          "server accounting: accepted " + std::to_string(Stats.Accepted) +
              ", handled " + std::to_string(Stats.handled()) +
              ", completed " + std::to_string(Stats.Completed) +
              ", requests " + std::to_string(Requests));

  std::map<std::pair<uint64_t, uint64_t>, std::pair<uint64_t, uint64_t>>
      Direct;
  for (const Phase *P : Phases) {
    for (unsigned W = 0; W != P->ByWorker.size(); ++W) {
      for (const RequestRecord &Rec : P->ByWorker[W]) {
        std::string Label = "request " + std::to_string(W) + "/" +
                            std::to_string(Rec.Request);
        if (!Rec.Ok) {
          R.check(false, Label + ": no SUMMARY or an ERROR frame");
          continue;
        }
        std::pair<uint64_t, uint64_t> Id(P->Opts.Seed,
                                         requestId(W, Rec.Request));
        auto It = Direct.find(Id);
        if (It == Direct.end())
          It = Direct
                   .emplace(Id, directRun(st::buildRequestPayload(
                                    P->Opts, W, Rec.Request)))
                   .first;
        R.check(It->second.first == Rec.Events &&
                    It->second.second == Rec.Races,
                Label + ": served " + std::to_string(Rec.Races) +
                    " races, direct run " + std::to_string(It->second.second));
      }
    }
  }
}

/// Latency of every attempted request in milliseconds, failures charged
/// FailedLatencyNs.
std::vector<double> latenciesMs(const Phase &P) {
  std::vector<double> Out;
  for (const auto &W : P.ByWorker)
    for (const RequestRecord &Rec : W)
      Out.push_back((Rec.Ok ? static_cast<double>(Rec.LatencyNs)
                            : FailedLatencyNs) /
                    1e6);
  return Out;
}

/// A lower bound on how late the generator sent a request, in ms: a
/// worker sends one request at a time, so request i cannot go out before
/// request i-1's outcome came back. Scheduled instants are recomputed from
/// the public arrival stream.
double maxLateMs(const Phase &P) {
  double Max = 0;
  for (unsigned W = 0; W != P.ByWorker.size(); ++W) {
    st::ExpArrivals Arrivals(st::arrivalSeed(P.Opts.Seed, W),
                             st::meanArrivalGapNs(P.Opts));
    uint64_t Scheduled = Arrivals.nextGapNs();
    const auto &Recs = P.ByWorker[W];
    for (size_t I = 1; I < Recs.size(); ++I) {
      Scheduled += Arrivals.nextGapNs();
      uint64_t Ready = Recs[I - 1].DoneNs - P.StartNs;
      if (Ready > Scheduled)
        Max = std::max(Max, static_cast<double>(Ready - Scheduled) / 1e6);
    }
  }
  return Max;
}

/// Layer times of one request replayed outside the server.
struct Replay {
  uint64_t SetupNs = 0;
  uint64_t DecodeNs = 0;
  uint64_t LintNs = 0;
  uint64_t AnalysisNs = 0;
  uint64_t SinkNs = 0;
  uint64_t SinkCalls = 0;
  uint64_t EngineNs = 0;
  uint64_t Events = 0;
  uint64_t Races = 0;
};

/// Replays one payload through the public stack a server connection
/// uses — Session set-up, STB decode, lint, ST-WDC, FrameSink — with a
/// span around each layer.
Replay replayRequest(const st::RequestPayload &Pay, uint64_t Id,
                     SpanLog &Log) {
  const size_t From = Log.spans().size();
  Replay Out;
  {
    Scope Root(Log, "replay", 0, Id);
    CountingByteSink Wire;
    st::FrameWriter Frames(Wire);
    st::FrameSink Races(Frames);
    TimedSink Sink(Races, Log, 0, Id);
    std::unique_ptr<st::Session> Sess;
    {
      Scope Setup(Log, "session_setup", 0, Id);
      st::SessionOptions SO;
      SO.MaxStoredRaces = 0;
      Sess = std::make_unique<st::Session>(SO);
      Sess->add(std::make_unique<TimedAnalysis>(
          st::createAnalysis(st::AnalysisKind::STWDC), Log, 0, Id));
      Sess->addSink(Sink);
    }
    st::MemoryByteSource Bytes(Pay.Bytes);
    st::StbEventSource Decoder(Bytes, /*Validate=*/false);
    TimedSource Decode(Decoder, Log, "decode", 0, Id);
    st::LintEngine Lint;
    st::addAllRules(Lint);
    st::LintingEventSource Linted(Decode, Lint, /*Reject=*/false);
    TimedSource LintTimed(Linted, Log, "lint", 0, Id);
    Scope Engine(Log, "engine", 0, Id);
    st::RunReport Rep = Sess->run(LintTimed);
    Out.Events = Rep.Stream.Events;
    Out.Races = Rep.TotalDynamicRaces;
  }
  for (const auto &[Key, T] : Log.totals(From)) {
    const std::string &Name = Key.first;
    if (Name == "session_setup")
      Out.SetupNs += T.TotalNs;
    else if (Name == "decode")
      Out.DecodeNs += T.TotalNs;
    else if (Name == "lint")
      Out.LintNs += T.SelfNs;
    else if (Name == "analysis")
      Out.AnalysisNs += T.SelfNs;
    else if (Name == "sink") {
      Out.SinkNs += T.TotalNs;
      Out.SinkCalls += T.Count;
    } else if (Name == "engine")
      Out.EngineNs += T.TotalNs;
  }
  return Out;
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0;
}

} // namespace

void measureServe(const ServeSetup &C, double LatencySeconds,
                  double CapacitySeconds, Report &R) {
  LiveServer Srv(C);
  R.check(Srv.up(), "server start: " + Srv.error());
  // Latency and capacity phases alternate in short repeats, each with its
  // own derived seed; the medians over repeats shrug off a single slow
  // patch of the host.
  std::vector<Phase> Phases;
  std::vector<double> P50, P99, Capacity;
  size_t Samples = 0;
  for (unsigned K = 0; Srv.up() && K != ServeRepeats; ++K) {
    ServeSetup Repeat = C;
    Repeat.Seed = st::mixSeed(C.Seed, K);
    Phases.push_back(
        runPhase(Repeat, C.EventsPerSec, LatencySeconds / ServeRepeats));
    std::vector<double> Ms = latenciesMs(Phases.back());
    Samples += Ms.size();
    P50.push_back(quantile(Ms, 0.50));
    P99.push_back(quantile(Ms, 0.99));
    // The work scheduled in this phase takes about its share of
    // CapacitySeconds at a capacity of twice the fixed rate.
    Phases.push_back(runPhase(Repeat, C.EventsPerSec * CapacityOverload,
                              CapacitySeconds * 2 / CapacityOverload /
                                  ServeRepeats));
    Capacity.push_back(Phases.back().Rep.AchievedEventsPerSec);
  }
  if (Srv.up()) {
    Srv.server().stop();
    std::vector<const Phase *> All;
    for (const Phase &P : Phases)
      All.push_back(&P);
    checkPhases(R, All, Srv.server().stats());
  }
  R.metric("serve.p50_ms", median(P50), "ms");
  // The tail is reported, not gated: stalls of a shared host move it by
  // up to 2x between runs (the traced run reports serve.p99_ms).
  R.note("serve.p99_ms", std::to_string(median(P99)));
  R.note("serve.latency_samples", std::to_string(Samples));
  // Unscaled: serving is bound by thread hand-offs and system calls more
  // than by memory, and scaling by HostProbe widened its spread.
  R.metric("serve.capacity_events_per_s", median(Capacity), "events/s");
}

void traceServe(const ServeSetup &C, double Seconds, Report &R,
                SpanLog &Log) {
  LiveServer Srv(C);
  R.check(Srv.up(), "server start: " + Srv.error());
  Phase P;
  if (Srv.up()) {
    P = runPhase(C, C.EventsPerSec, Seconds);
    Srv.server().stop();
    checkPhases(R, {&P}, Srv.server().stats());
  }

  std::vector<double> ServiceMs, QueueMs;
  std::vector<std::pair<unsigned, const RequestRecord *>> Served;
  for (unsigned W = 0; W != P.ByWorker.size(); ++W) {
    for (const RequestRecord &Rec : P.ByWorker[W]) {
      if (!Rec.Ok)
        continue;
      Served.emplace_back(W, &Rec);
      ServiceMs.push_back(static_cast<double>(Rec.ServiceNs) / 1e6);
      QueueMs.push_back(
          static_cast<double>(Rec.LatencyNs > Rec.ServiceNs
                                  ? Rec.LatencyNs - Rec.ServiceNs
                                  : 0) /
          1e6);
      Span S;
      S.Name = "request";
      S.StartNs = Rec.DoneNs - std::min(Rec.DoneNs, Rec.LatencyNs);
      S.EndNs = Rec.DoneNs;
      S.Request = requestId(W, Rec.Request);
      Log.add(S);
    }
  }
  R.metric("serve.p99_ms", quantile(latenciesMs(P), 0.99), "ms");
  R.metric("serve.service_p50_ms", quantile(ServiceMs, 0.50), "ms");
  R.metric("serve.queue_p50_ms", quantile(QueueMs, 0.50), "ms");
  R.metric("serve.queue_p99_ms", quantile(QueueMs, 0.99), "ms");
  R.metric("loadgen.late_sends", static_cast<double>(P.Rep.LateSends),
           "count");
  R.metric("loadgen.max_late_ms", maxLateMs(P), "ms");

  // Replay an even sample of the served requests outside the server.
  Replay Sum;
  std::vector<double> SetupUs, UnattributedMs;
  size_t Step = std::max<size_t>(1, Served.size() / MaxReplays);
  for (size_t I = 0; I < Served.size(); I += Step) {
    auto [W, Rec] = Served[I];
    uint64_t Id = requestId(W, Rec->Request);
    Replay One = replayRequest(st::buildRequestPayload(P.Opts, W, Rec->Request),
                               Id, Log);
    R.check(One.Races == Rec->Races && One.Events == Rec->Events,
            "replay of request " + std::to_string(W) + "/" +
                std::to_string(Rec->Request) + " differs from the server");
    SetupUs.push_back(static_cast<double>(One.SetupNs) / 1e3);
    // The server's service time covers the engine run without lint (the
    // load generator's HELLO asks for no validation).
    double ServerSideNs = static_cast<double>(One.EngineNs - One.LintNs);
    UnattributedMs.push_back(
        (static_cast<double>(Rec->ServiceNs) - ServerSideNs) / 1e6);
    Sum.DecodeNs += One.DecodeNs;
    Sum.LintNs += One.LintNs;
    Sum.AnalysisNs += One.AnalysisNs;
    Sum.SinkNs += One.SinkNs;
    Sum.SinkCalls += One.SinkCalls;
    Sum.Events += One.Events;
  }
  R.metric("serve.replay.session_setup_us", quantile(SetupUs, 0.5), "us");
  R.metric("serve.replay.decode_ns_per_event", ratio(Sum.DecodeNs, Sum.Events),
           "ns");
  R.metric("serve.replay.lint_ns_per_event", ratio(Sum.LintNs, Sum.Events),
           "ns");
  R.metric("serve.replay.analysis_ns_per_event",
           ratio(Sum.AnalysisNs, Sum.Events), "ns");
  R.metric("serve.replay.sink_ns_per_race", ratio(Sum.SinkNs, Sum.SinkCalls),
           "ns");
  R.metric("serve.unattributed_ms", quantile(UnattributedMs, 0.5), "ms");
}

} // namespace perfbench
