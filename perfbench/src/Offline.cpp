//===- perfbench/src/Offline.cpp - Trace bytes in, race report out --------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Offline.h"

#include "report/Session.h"
#include "trace/Stb.h"

#include <optional>

namespace perfbench {

namespace {

/// Events generated (then encoded) per set-up chunk.
constexpr size_t SetupChunkEvents = 1 << 16;

/// Runs \p Fn, recording a span when \p Log is given; returns its
/// duration in nanoseconds.
template <typename Fn>
uint64_t timed(SpanLog *Log, const char *Name, Fn &&F) {
  std::optional<Scope> S;
  if (Log)
    S.emplace(*Log, Name);
  uint64_t T0 = nowNs();
  F();
  return nowNs() - T0;
}

struct PipelineOptions {
  unsigned Shards = 1;
  bool SampleFootprint = false;
  /// Non-null for a traced run: every layer call is wrapped in a span
  /// tagged with Tag.
  SpanLog *Log = nullptr;
  uint32_t Tag = 0;
};

struct PipelineResult {
  bool DecodeOk = false;
  uint64_t Events = 0;
  uint64_t DynamicRaces = 0;
  uint64_t StaticRaces = 0;
  /// Event index of the first race; UINT64_MAX when race-free.
  uint64_t FirstRace = UINT64_MAX;
  uint64_t ReportLines = 0;
  uint64_t ReportBytes = 0;
  uint64_t Ns = 0;
  size_t PeakFootprintBytes = 0;
  st::CaseStats Cases;
  bool HasShardStats = false;
  st::ShardRunStats Shard;
};

/// One run of the full pipeline over \p S with analysis \p K.
PipelineResult runPipeline(const Stream &S, st::AnalysisKind K,
                           const PipelineOptions &O) {
  PipelineResult Out;
  uint64_t T0 = nowNs();
  {
    std::optional<Scope> Whole;
    if (O.Log)
      Whole.emplace(*O.Log, "pipeline", O.Tag);
    st::MemoryByteSource Bytes(S.Stb);
    st::StbEventSource Decoder(Bytes);
    CountingByteSink Discard;
    st::NdjsonSink Ndjson(Discard);
    st::SessionOptions SO;
    SO.MaxStoredRaces = 1; // only the first race is checked
    SO.Shards = O.Shards;
    SO.SampleFootprint = O.SampleFootprint;
    st::Session Sess(SO);

    st::RunReport Rep;
    if (O.Log) {
      Sess.add(std::make_unique<TimedAnalysis>(st::createAnalysis(K), *O.Log,
                                               O.Tag, NoRequest));
      TimedSink Sink(Ndjson, *O.Log, O.Tag, NoRequest);
      Sess.addSink(Sink);
      TimedSource Src(Decoder, *O.Log, "decode", O.Tag, NoRequest);
      Scope Engine(*O.Log, "engine", O.Tag);
      Rep = Sess.run(Src);
    } else {
      Sess.add(K);
      Sess.addSink(Ndjson);
      Rep = Sess.run(Decoder);
    }

    Out.DecodeOk = !Decoder.error() && Ndjson.ok() && Rep.Analyses.size() == 1;
    Out.Events = Rep.Stream.Events;
    Out.ReportLines = Discard.Lines;
    Out.ReportBytes = Discard.Bytes;
    if (!Rep.Analyses.empty()) {
      const st::AnalysisRunResult &A = Rep.Analyses.front();
      Out.DynamicRaces = A.DynamicRaces;
      Out.StaticRaces = A.StaticRaces;
      if (!A.Races.empty())
        Out.FirstRace = A.Races.front().EventIdx;
      Out.PeakFootprintBytes = A.PeakFootprintBytes;
      Out.Cases = A.Cases;
      Out.HasShardStats = A.HasShardStats;
      Out.Shard = A.ShardStats;
    }
  }
  Out.Ns = nowNs() - T0;
  return Out;
}

double eventsPerSec(const PipelineResult &P) {
  return static_cast<double>(P.Events) * 1e9 /
         static_cast<double>(P.Ns ? P.Ns : 1);
}

/// Checks one run against the stream and, when given, against the first
/// run of the same configuration (the pipeline is deterministic).
void checkRun(Report &R, const std::string &Label, const Stream &S,
              const PipelineResult &P, const PipelineResult *Reference) {
  std::string Why;
  if (!P.DecodeOk)
    Why = "decode or report error";
  else if (P.Events != S.Events)
    Why = "analyzed " + std::to_string(P.Events) + " of " +
          std::to_string(S.Events) + " events";
  else if (P.ReportLines != P.DynamicRaces)
    Why = std::to_string(P.ReportLines) + " NDJSON lines for " +
          std::to_string(P.DynamicRaces) + " races";
  else if (Reference && (P.DynamicRaces != Reference->DynamicRaces ||
                         P.StaticRaces != Reference->StaticRaces ||
                         P.FirstRace != Reference->FirstRace))
    Why = "races differ from the first run";
  R.check(Why.empty(), Label + ": " + Why);
}

/// Races of one run per offline kind, in offlineKinds() order.
using Column = std::vector<PipelineResult>;

const PipelineResult &byKey(const Column &C, const char *Key) {
  const auto &Kinds = offlineKinds();
  for (size_t I = 0; I != Kinds.size(); ++I)
    if (std::string(Kinds[I].Key) == Key)
      return C[I];
  return C.front();
}

/// Relations that hold for any input: FTO and ST compute the same
/// relation, so they agree on the first race, and every race of a
/// stronger relation is a race of each weaker one (HB, WCP, DC, WDC), so
/// first races never move later down the ladder.
void checkLadder(Report &R, const Column &First) {
  for (const char *Rel : {"wcp", "dc", "wdc"}) {
    std::string Fto = std::string("fto_") + Rel, St = std::string("st_") + Rel;
    R.check(byKey(First, Fto.c_str()).FirstRace ==
                byKey(First, St.c_str()).FirstRace,
            Fto + " and " + St + " disagree on the first race");
  }
  uint64_t Hb = byKey(First, "ft2").FirstRace;
  uint64_t Wcp = byKey(First, "st_wcp").FirstRace;
  uint64_t Dc = byKey(First, "st_dc").FirstRace;
  uint64_t Wdc = byKey(First, "st_wdc").FirstRace;
  R.check(Wdc <= Dc && Dc <= Wcp && Wcp <= Hb,
          "first races out of ladder order (WDC <= DC <= WCP <= HB)");
}

void reportRaces(Report &R, const Column &First) {
  const auto &Kinds = offlineKinds();
  for (size_t I = 0; I != Kinds.size(); ++I)
    R.races(Kinds[I].Key, First[I].DynamicRaces, First[I].StaticRaces);
}

double perEvent(uint64_t Ns, uint64_t Events) {
  return Events ? static_cast<double>(Ns) / static_cast<double>(Events) : 0;
}

} // namespace

const std::vector<KindInfo> &offlineKinds() {
  static const std::vector<KindInfo> Kinds = {
      {st::AnalysisKind::FT2, "ft2"},
      {st::AnalysisKind::FTOWCP, "fto_wcp"},
      {st::AnalysisKind::STWCP, "st_wcp"},
      {st::AnalysisKind::FTODC, "fto_dc"},
      {st::AnalysisKind::STDC, "st_dc"},
      {st::AnalysisKind::FTOWDC, "fto_wdc"},
      {st::AnalysisKind::STWDC, "st_wdc"},
  };
  return Kinds;
}

Stream buildStream(const st::WorkloadProfile &Profile, uint64_t Events,
                   uint64_t Seed, SpanLog *Log) {
  Stream Out;
  st::StringByteSink Sink(Out.Stb);
  st::StbWriter Writer(Sink);
  Writer.writeHeader();
  st::WorkloadGenerator Gen(Profile, Events, Seed);
  std::vector<st::Event> Chunk(SetupChunkEvents);
  for (size_t N = Chunk.size(); N == Chunk.size();) {
    N = 0;
    Out.GenerateNs += timed(Log, "generate", [&] {
      while (N != Chunk.size() && Gen.next(Chunk[N]))
        ++N;
    });
    Out.EncodeNs += timed(Log, "encode", [&] {
      for (size_t I = 0; I != N; ++I)
        Writer.writeEvent(Chunk[I]);
    });
  }
  Out.Events = Writer.eventsWritten();
  return Out;
}

void measureOffline(const Stream &S, double Seconds, HostProbe &Probe,
                    Report &R) {
  const auto &Kinds = offlineKinds();
  std::vector<std::vector<double>> Rates(Kinds.size());
  std::vector<double> ProbeNs;
  Column First;
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  // Analyses are interleaved round by round, so a slow patch of the host
  // lands on all of them instead of on one; the probe runs between them.
  for (unsigned Round = 0; Round < 2 || nowNs() < Deadline; ++Round) {
    for (size_t I = 0; I != Kinds.size(); ++I) {
      PipelineResult P = runPipeline(S, Kinds[I].Kind, PipelineOptions());
      ProbeNs.push_back(static_cast<double>(Probe.run()));
      checkRun(R, Kinds[I].Key, S, P, Round ? &First[I] : nullptr);
      if (!Round)
        First.push_back(P);
      Rates[I].push_back(eventsPerSec(P));
    }
  }
  checkLadder(R, First);
  reportRaces(R, First);
  // Each median rate is scaled by how much slower than its reference the
  // host ran the probe over the same stretch of time.
  const double HostSlowdown = median(ProbeNs) / HostProbe::ReferenceNs;
  R.note("host_probe_ms", std::to_string(median(ProbeNs) / 1e6));
  for (size_t I = 0; I != Kinds.size(); ++I) {
    R.metric(std::string(Kinds[I].Key) + ".events_per_s",
             median(Rates[I]) * HostSlowdown, "events/s");
    R.note(std::string("raw.") + Kinds[I].Key + ".events_per_s",
           std::to_string(median(Rates[I])));
  }
}

void traceOffline(const Stream &S, double Seconds, Report &R, SpanLog &Log) {
  const auto &Kinds = offlineKinds();
  const size_t SpansBefore = Log.spans().size();

  // Footprints and case counts come from an untraced, footprint-sampling
  // pass, so the wrappers' own accounting never shows in them.
  Column First;
  for (const KindInfo &K : Kinds) {
    PipelineOptions O;
    O.SampleFootprint = true;
    First.push_back(runPipeline(S, K.Kind, O));
    checkRun(R, K.Key, S, First.back(), nullptr);
  }
  checkLadder(R, First);
  reportRaces(R, First);

  // Traced and untraced runs alternate, so their ratio is the tracing
  // overhead under the same host conditions.
  uint64_t TracedNs = 0, UntracedNs = 0, TracedEvents = 0;
  std::vector<uint64_t> EventsByKind(Kinds.size(), 0);
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  for (unsigned Round = 0; Round < 1 || nowNs() < Deadline; ++Round) {
    for (size_t I = 0; I != Kinds.size(); ++I) {
      PipelineResult Plain = runPipeline(S, Kinds[I].Kind, PipelineOptions());
      PipelineOptions O;
      O.Log = &Log;
      O.Tag = static_cast<uint32_t>(I);
      PipelineResult Traced = runPipeline(S, Kinds[I].Kind, O);
      checkRun(R, std::string(Kinds[I].Key) + " (untraced)", S, Plain,
               &First[I]);
      checkRun(R, std::string(Kinds[I].Key) + " (traced)", S, Traced,
               &First[I]);
      UntracedNs += Plain.Ns;
      TracedNs += Traced.Ns;
      TracedEvents += Traced.Events;
      EventsByKind[I] += Traced.Events;
    }
  }

  auto Totals = Log.totals(SpansBefore);
  auto Get = [&](const char *Name, size_t Kind) {
    auto It = Totals.find({Name, static_cast<uint32_t>(Kind)});
    return It == Totals.end() ? SpanTotals() : It->second;
  };
  uint64_t DecodeNs = 0, EngineSelfNs = 0, SinkNs = 0, SinkCalls = 0;
  std::vector<double> AnalysisNsPerEvent(Kinds.size());
  for (size_t I = 0; I != Kinds.size(); ++I) {
    DecodeNs += Get("decode", I).TotalNs;
    EngineSelfNs += Get("engine", I).SelfNs;
    SinkNs += Get("sink", I).TotalNs;
    SinkCalls += Get("sink", I).Count;
    AnalysisNsPerEvent[I] =
        perEvent(Get("analysis", I).SelfNs, EventsByKind[I]);
    R.metric(std::string("analysis.") + Kinds[I].Key + ".ns_per_event",
             AnalysisNsPerEvent[I], "ns");
    R.metric(std::string("analysis.") + Kinds[I].Key + ".peak_footprint_bytes",
             static_cast<double>(First[I].PeakFootprintBytes), "bytes");
  }
  for (const char *Rel : {"wcp", "dc", "wdc"}) {
    double St = 0, Fto = 0;
    for (size_t I = 0; I != Kinds.size(); ++I) {
      if (std::string(Kinds[I].Key) == std::string("st_") + Rel)
        St = AnalysisNsPerEvent[I];
      if (std::string(Kinds[I].Key) == std::string("fto_") + Rel)
        Fto = AnalysisNsPerEvent[I];
    }
    R.metric(std::string("analysis.st_over_fto.") + Rel, Fto ? St / Fto : 0,
             "ratio");
  }
  R.metric("decode.ns_per_event", perEvent(DecodeNs, TracedEvents), "ns");
  R.metric("decode.bytes_per_event",
           static_cast<double>(S.Stb.size()) / static_cast<double>(S.Events),
           "bytes");
  R.metric("engine.self_ns_per_event", perEvent(EngineSelfNs, TracedEvents),
           "ns");

  uint64_t Races = 0, ReportBytes = 0;
  for (const PipelineResult &P : First) {
    Races += P.DynamicRaces;
    ReportBytes += P.ReportBytes;
  }
  R.metric("sink.ns_per_race", perEvent(SinkNs, SinkCalls), "ns");
  R.metric("sink.races", static_cast<double>(Races), "count");
  R.metric("sink.bytes_per_race",
           Races ? static_cast<double>(ReportBytes) / static_cast<double>(Races)
                 : 0,
           "bytes");

  const st::CaseStats &C = byKey(First, "st_wdc").Cases;
  uint64_t SameEpoch = C.ReadSameEpoch + C.SharedSameEpoch + C.WriteSameEpoch;
  uint64_t Owned = C.ReadOwned + C.ReadSharedOwned + C.WriteOwned;
  uint64_t Exclusive = C.ReadExclusive + C.WriteExclusive;
  uint64_t Shared = C.ReadShare + C.ReadShared + C.WriteShared;
  uint64_t All = SameEpoch + Owned + Exclusive + Shared;
  R.metric("case.same_epoch", static_cast<double>(SameEpoch), "count");
  R.metric("case.owned", static_cast<double>(Owned), "count");
  R.metric("case.exclusive", static_cast<double>(Exclusive), "count");
  R.metric("case.shared", static_cast<double>(Shared), "count");
  R.metric("fast_path_ratio",
           All ? static_cast<double>(SameEpoch) / static_cast<double>(All) : 0,
           "ratio");

  R.metric("trace_overhead_ratio",
           UntracedNs ? static_cast<double>(TracedNs) /
                            static_cast<double>(UntracedNs)
                      : 0,
           "ratio");
}

void traceSharded(const Stream &S, double Seconds, Report &R) {
  const unsigned ShardCounts[] = {1, 2, 4};
  std::vector<double> Rates[3];
  std::optional<PipelineResult> Sequential;
  st::ShardRunStats X4;
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  for (unsigned Round = 0; Round < 1 || nowNs() < Deadline; ++Round) {
    for (unsigned I = 0; I != 3; ++I) {
      PipelineOptions O;
      O.Shards = ShardCounts[I];
      PipelineResult P = runPipeline(S, st::AnalysisKind::STWDC, O);
      std::string Label = "st_wdc x" + std::to_string(ShardCounts[I]);
      checkRun(R, Label, S, P, Sequential ? &*Sequential : nullptr);
      if (!Sequential)
        Sequential = P;
      if (ShardCounts[I] == 4) {
        R.check(P.HasShardStats, Label + ": no shard statistics");
        X4 = P.Shard;
      }
      Rates[I].push_back(eventsPerSec(P));
    }
  }
  double Base = median(Rates[0]);
  for (unsigned I = 0; I != 3; ++I)
    R.metric("sharded.st_wdc.x" + std::to_string(ShardCounts[I]) +
                 ".events_per_s",
             median(Rates[I]), "events/s");
  R.metric("sharded.speedup_x4", Base ? median(Rates[2]) / Base : 0, "ratio");
  R.metric("sharded.deltas_published", static_cast<double>(X4.DeltasPublished),
           "count");
  R.metric("sharded.deltas_coalesced", static_cast<double>(X4.DeltasCoalesced),
           "count");
  R.metric("sharded.deltas_adopted", static_cast<double>(X4.DeltasAdopted),
           "count");
  R.metric("sharded.spin_wakeups", static_cast<double>(X4.SpinWakeups),
           "count");
  R.metric("sharded.park_wakeups", static_cast<double>(X4.ParkWakeups),
           "count");
}

} // namespace perfbench
