//===- perfbench/src/Probes.h - Spans and timed layer wrappers --*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark measures every layer from the outside. Each wrapper here
/// implements one public library interface (EventSource, Analysis,
/// RaceSink, ByteSink), forwards to the real implementation, and records
/// a span around the call. Nothing inside the library is instrumented, so
/// the traced run sees exactly the code the untraced run times.
///
/// Spans live in memory (SpanLog) and are written out once, when the run
/// ends. A layer's self time is its span's duration minus the time its
/// child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include "analysis/Analysis.h"
#include "analysis/Shardable.h"
#include "engine/EventSource.h"
#include "report/RaceSink.h"
#include "support/Bytes.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Request id of spans that belong to no served request.
inline constexpr uint64_t NoRequest = UINT64_MAX;

struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  /// Index of the enclosing span in the log, -1 for a root.
  int64_t Parent = -1;
  /// Analysis kind (offline pipelines) or 0.
  uint32_t Tag = 0;
  uint64_t Request = NoRequest;
};

/// Duration and self time summed over every span of one name and tag.
struct SpanTotals {
  uint64_t Count = 0;
  uint64_t TotalNs = 0;
  uint64_t SelfNs = 0;
};

/// Single-threaded in-memory span recorder. Nesting follows the call
/// stack: a span begun while another is open becomes its child.
class SpanLog {
public:
  int64_t begin(const char *Name, uint32_t Tag, uint64_t Request) {
    Span S;
    S.Name = Name;
    S.StartNs = nowNs();
    S.Parent = Open.empty() ? -1 : Open.back();
    S.Tag = Tag;
    S.Request = Request;
    Spans.push_back(S);
    Open.push_back(static_cast<int64_t>(Spans.size() - 1));
    return Open.back();
  }

  void end(int64_t Idx) {
    Spans[static_cast<size_t>(Idx)].EndNs = nowNs();
    Open.pop_back();
  }

  /// Records a span timed elsewhere (a served request, timed by the load
  /// generator's own clock).
  void add(const Span &S) { Spans.push_back(S); }

  const std::vector<Span> &spans() const { return Spans; }

  /// Totals keyed by (name, tag) over the spans recorded at or after
  /// index \p From (a span's children are always recorded after it).
  std::map<std::pair<std::string, uint32_t>, SpanTotals>
  totals(size_t From = 0) const;

  /// Self time summed per span name, in nanoseconds.
  std::map<std::string, uint64_t> selfNsByName() const;

  /// Writes every span as one JSON array; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int64_t> Open;
};

/// RAII span.
class Scope {
public:
  Scope(SpanLog &Log, const char *Name, uint32_t Tag = 0,
        uint64_t Request = NoRequest)
      : Log(Log), Idx(Log.begin(Name, Tag, Request)) {}
  ~Scope() { Log.end(Idx); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog &Log;
  int64_t Idx;
};

/// A fixed memory-bound loop that owes nothing to the library: random
/// read-modify-writes over a table larger than a core's private caches,
/// the access pattern of analysis metadata. On a machine shared with other
/// tenants the analyses' raw rates swing by 30-45% between runs with the
/// load on shared caches and memory, and this probe's time swings with
/// them; scaling a run's rates and set-up time by it cancels much of the
/// swing while a change to the library still moves them in full.
class HostProbe {
public:
  /// Time of one run on an unloaded host. Only ratios to it matter; it
  /// keeps scaled figures close to raw ones.
  static constexpr double ReferenceNs = 4.0e6;

  HostProbe() : Table(1 << 20) { run(); } // the first run faults pages in

  /// Runs the probe once; returns its wall time in nanoseconds.
  uint64_t run() {
    uint64_t X = State, Sum = 0;
    uint64_t T0 = nowNs();
    for (unsigned I = 0; I != 400000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      uint64_t &Slot = Table[X & (Table.size() - 1)];
      Slot += X;
      Sum += Slot;
    }
    uint64_t Ns = nowNs() - T0;
    State = X ^ Sum; // keeps the loop's work observable
    return Ns;
  }

private:
  std::vector<uint64_t> Table;
  uint64_t State = 88172645463325252ull;
};

/// Discarding byte sink that counts bytes and newline-terminated lines —
/// where the NDJSON race report goes.
class CountingByteSink final : public st::ByteSink {
public:
  bool write(const char *Buf, size_t N) override {
    Bytes += N;
    Lines += static_cast<uint64_t>(std::count(Buf, Buf + N, '\n'));
    return true;
  }

  uint64_t Bytes = 0;
  uint64_t Lines = 0;
};

/// Times every read() of an inner event source (the decode layer, or the
/// lint layer when the inner source is a LintingEventSource).
class TimedSource final : public st::EventSource {
public:
  TimedSource(st::EventSource &Inner, SpanLog &Log, const char *Name,
              uint32_t Tag, uint64_t Request)
      : Inner(Inner), Log(Log), Name(Name), Tag(Tag), Request(Request) {}

  size_t read(st::Event *Buf, size_t Max) override {
    Scope S(Log, Name, Tag, Request);
    return Inner.read(Buf, Max);
  }
  bool error(std::string *Msg = nullptr) const override {
    return Inner.error(Msg);
  }

private:
  st::EventSource &Inner;
  SpanLog &Log;
  const char *Name;
  uint32_t Tag;
  uint64_t Request;
};

/// Times every race report handed to an inner sink (the report layer).
class TimedSink final : public st::RaceSink {
public:
  TimedSink(st::RaceSink &Inner, SpanLog &Log, uint32_t Tag,
            uint64_t Request)
      : Inner(Inner), Log(Log), Tag(Tag), Request(Request) {}

  void onRace(const st::RaceReport &R) override {
    Scope S(Log, "sink", Tag, Request);
    Inner.onRace(R);
  }

private:
  st::RaceSink &Inner;
  SpanLog &Log;
  uint32_t Tag;
  uint64_t Request;
};

/// An Analysis that owns a registry analysis and times each
/// processBatch() call into it. Races the inner analysis reports are
/// forwarded through this analysis's own accounting and sink, so a
/// Session sees the same counts as with the bare analysis. Reports pushed
/// to sinks happen inside processBatch(), so sink spans nest under the
/// analysis span.
class TimedAnalysis final : public st::Analysis {
public:
  TimedAnalysis(std::unique_ptr<st::Analysis> Inner, SpanLog &Log,
                uint32_t Tag, uint64_t Request)
      : Inner(std::move(Inner)), Log(Log), Tag(Tag), Request(Request),
        Forward(*this) {
    this->Inner->setMaxStoredRaces(0);
    this->Inner->setRaceSink(&Forward);
  }

  void processBatch(const st::Event *Events, size_t N) override {
    {
      Scope S(Log, "analysis", Tag, Request);
      Inner->processBatch(Events, N);
    }
    advanceEventIndex(N);
  }

  const char *name() const override { return Inner->name(); }
  size_t metadataFootprintBytes() const override {
    return Inner->metadataFootprintBytes();
  }
  const st::CaseStats *caseStats() const override {
    return Inner->caseStats();
  }
  const st::ShardRunStats *shardRunStats() const override {
    return Inner->shardRunStats();
  }

private:
  class Forwarder final : public st::RaceSink {
  public:
    explicit Forwarder(TimedAnalysis &Outer) : Outer(Outer) {}
    void onRace(const st::RaceReport &R) override { Outer.forwardReport(R); }

  private:
    TimedAnalysis &Outer;
  };

  // processBatch() is overridden, so the per-event handlers never run.
  void onRead(const st::Event &) override {}
  void onWrite(const st::Event &) override {}
  void onAcquire(const st::Event &) override {}
  void onRelease(const st::Event &) override {}
  void onFork(const st::Event &) override {}
  void onJoin(const st::Event &) override {}
  void onVolRead(const st::Event &) override {}
  void onVolWrite(const st::Event &) override {}

  std::unique_ptr<st::Analysis> Inner;
  SpanLog &Log;
  uint32_t Tag;
  uint64_t Request;
  Forwarder Forward;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
