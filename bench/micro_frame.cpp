//===- bench/micro_frame.cpp - Wire framing overhead microbenchmarks ------===//
//
// Google-benchmark microbenchmarks for the st-serve frame layer: the same
// STB event stream decoded straight from memory versus re-framed into
// EVENTS frames and decoded through FrameReader + FramePayloadByteSource
// — i.e. exactly what a served connection adds on top of a local run.
// The claim under test: framing costs single-digit ns/event at realistic
// chunk sizes, so serving overhead is dominated by the socket, not the
// codec. Also measures the frame encode path (FrameWriter) the server's
// RACE/SUMMARY stream rides on.
//
//===----------------------------------------------------------------------===//

#include "engine/EventSource.h"
#include "engine/FrameEventSource.h"
#include "serve/Frame.h"
#include "trace/Stb.h"
#include "workload/RandomTrace.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace st;

namespace {

/// The micro_lint workload shape, so cross-bench numbers line up.
Trace benchTrace(uint64_t Events) {
  RandomTraceConfig C;
  C.Seed = 20200615;
  C.Threads = 8;
  C.Vars = 64;
  C.Locks = 8;
  C.Volatiles = 2;
  C.PVolatile = 0.02;
  C.Events = Events;
  C.MaxNesting = 2;
  C.PSync = 0.3;
  C.ForkJoin = true;
  return generateRandomTrace(C);
}

std::string encodeStb(const Trace &Tr) {
  std::string Stb;
  StringByteSink Sink(Stb);
  writeStbTrace(Tr, Sink);
  return Stb;
}

/// Frames \p Stb into EVENTS chunks of \p Chunk bytes plus EOS — the
/// upload st-analyze --connect produces.
std::string frameUpload(const std::string &Stb, size_t Chunk) {
  std::string Wire;
  StringByteSink Sink(Wire);
  FrameWriter W(Sink);
  for (size_t Off = 0; Off < Stb.size(); Off += Chunk)
    W.write(FrameType::Events,
            std::string_view(Stb).substr(Off, Chunk));
  W.write(FrameType::Eos, std::string_view());
  return Wire;
}

uint64_t drain(EventSource &Src) {
  Event Buf[256];
  uint64_t Total = 0;
  size_t N;
  while ((N = Src.read(Buf, 256)) > 0) {
    Total += N;
    benchmark::DoNotOptimize(Buf[0]);
  }
  return Total;
}

} // namespace

// Baseline: STB decode straight from memory, no framing anywhere.
static void BM_StbDecodePlain(benchmark::State &State) {
  Trace Tr = benchTrace(static_cast<uint64_t>(State.range(0)));
  std::string Stb = encodeStb(Tr);
  for (auto _ : State) {
    MemoryByteSource Mem(Stb);
    OpenedEventSource In = openEventSource(Mem, /*Validate=*/false);
    benchmark::DoNotOptimize(drain(*In.Events));
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          State.range(0));
}
BENCHMARK(BM_StbDecodePlain)->Arg(1 << 14)->Arg(1 << 17);

// Decode plus the hard well-formedness check, as the validating sources
// (and a served connection in ValidationMode::Off) run them. The delta
// against BM_StbDecodePlain is the check's per-event cost.
static void BM_StbDecodeValidated(benchmark::State &State) {
  Trace Tr = benchTrace(static_cast<uint64_t>(State.range(0)));
  std::string Stb = encodeStb(Tr);
  for (auto _ : State) {
    MemoryByteSource Mem(Stb);
    OpenedEventSource In = openEventSource(Mem, /*Validate=*/true);
    benchmark::DoNotOptimize(drain(*In.Events));
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          State.range(0));
}
BENCHMARK(BM_StbDecodeValidated)->Arg(1 << 14)->Arg(1 << 17);

namespace {

// The served path: FrameReader peels EVENTS frames, the payload source
// re-chunks them, and the same STB decoder consumes the result. The
// delta against BM_StbDecodePlain, divided by items_per_second, is the
// framing overhead per event.
void decodeFramed(benchmark::State &State, size_t Chunk) {
  Trace Tr = benchTrace(static_cast<uint64_t>(State.range(0)));
  std::string Wire = frameUpload(encodeStb(Tr), Chunk);
  for (auto _ : State) {
    MemoryByteSource Mem(Wire);
    FrameReader Frames(Mem);
    FrameEventSource Src(Frames, /*Validate=*/false);
    benchmark::DoNotOptimize(drain(Src));
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          State.range(0));
}

} // namespace

// 64KiB EVENTS frames: what st-analyze --connect sends.
static void BM_StbDecodeFramed64K(benchmark::State &State) {
  decodeFramed(State, 64 * 1024);
}
BENCHMARK(BM_StbDecodeFramed64K)->Arg(1 << 14)->Arg(1 << 17);

// Pathologically small 512-byte frames: per-frame overhead amplified
// 128x, bounding the worst client a server could meet.
static void BM_StbDecodeFramed512(benchmark::State &State) {
  decodeFramed(State, 512);
}
BENCHMARK(BM_StbDecodeFramed512)->Arg(1 << 14)->Arg(1 << 17);

// The server's outbound path: one RACE-line-sized frame per item.
static void BM_FrameEncodeRaceLines(benchmark::State &State) {
  const std::string Line =
      "{\"type\":\"race\",\"analysis\":\"ST-WDC\",\"event\":123456,"
      "\"kind\":\"write-write\",\"var\":\"x12\",\"thread\":\"T3\","
      "\"site\":\"s7\"}\n";
  std::string Out;
  Out.reserve(1 << 20);
  for (auto _ : State) {
    Out.clear();
    StringByteSink Sink(Out);
    FrameWriter W(Sink);
    for (int I = 0; I != 4096; ++I)
      W.write(FrameType::Race, Line);
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * 4096);
}
BENCHMARK(BM_FrameEncodeRaceLines);

BENCHMARK_MAIN();
