//===- tests/serve/ServeSoakTest.cpp - Long-stream serving soak -----------===//
//
// CI-only soak (CTest label "soak", built behind SMARTTRACK_SOAK_TESTS):
// a million-event STB stream served end to end — twice, so resident-set
// growth between two identical runs exposes any per-connection leak —
// while short-lived clients connect and vanish mid-stream without EOS.
// Asserts a flat RSS across the repeated run, a bounded RACE stream (the
// client's MaxRaceLines cap holds at scale), and that the eviction
// accounting closes exactly: every accepted connection, including the
// deserters, lands in one outcome bucket.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "trace/Stb.h"
#include "workload/RandomTrace.h"

#include "ServeTestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace st;
using namespace st::serve_test;

namespace {

/// VmRSS of this process in kilobytes (0 if /proc is unavailable, which
/// disables the flatness check rather than failing it).
long rssKb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  long Kb = 0;
  char Line[256];
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmRSS: %ld kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb;
}

TEST(ServeSoak, MillionEventStreamSurvivesDesertersWithFlatRss) {
  std::string Path = uniqueSocketPath("soak");
  ServerOptions SO;
  SO.Workers = 4;
  SO.TimeBudgetSeconds = 600; // safety net only; nothing should trip it
  Server Srv(SO);
  std::string Err;
  ASSERT_TRUE(Srv.addUnixListener(Path, &Err)) << Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  RandomTraceConfig C;
  C.Threads = 4;
  C.Vars = 6;
  C.Locks = 3;
  C.Events = 1000000;
  C.PSync = 0.3;
  C.Seed = 11;
  Trace Tr = generateRandomTrace(C);
  std::string Stb;
  {
    StringByteSink Sink(Stb);
    ASSERT_TRUE(writeStbTrace(Tr, Sink));
  }

  HelloOptions Hello;
  Hello.Analyses = {"ST-WDC"};
  Hello.MaxRaceLines = 1000; // the stream is the soak, not the race dump
  std::string Conv = buildConversation(Hello, Stb, /*Chunk=*/256 << 10);

  // The upload is several MB while the server streams races back live:
  // the client's reader drains concurrently with the upload, which is
  // what keeps this scale from deadlocking on full socket buffers.
  auto RunMainClient = [&](ClientResult &Out) {
    Out = runRawClient(Path, Conv, /*TimeoutSec=*/540);
  };

  // Warm-up pass: first-run allocations (arenas, session state, decode
  // buffers) land in the baseline, so the second pass measures leakage,
  // not lazy initialization.
  ClientResult Warm;
  RunMainClient(Warm);
  ASSERT_TRUE(Warm.ParseClean) << Warm.Error;
  long BaselineKb = rssKb();

  // Second full stream, with four deserters dropping mid-upload: HELLO
  // plus a 64KiB STB prefix, then a hard hang-up — no EOS, no drain.
  ClientResult Main;
  std::thread MainClient([&] { RunMainClient(Main); });
  std::vector<std::thread> Deserters;
  std::string Partial = frameBytes(FrameType::Hello, encodeHello(Hello));
  Partial += frameBytes(FrameType::Events,
                        std::string_view(Stb).substr(0, 64 << 10));
  std::atomic<int> DeserterFailures{0};
  for (int I = 0; I != 4; ++I)
    Deserters.emplace_back([&, I] {
      // Dropping the client before finish() is the hang-up.
      serve::Client Deserter;
      if (Deserter.connect(unixAddress(Path), /*TimeoutSeconds=*/60))
        Deserter.sendRaw(Partial);
      else
        ++DeserterFailures;
    });
  for (std::thread &T : Deserters)
    T.join();
  MainClient.join();
  EXPECT_EQ(DeserterFailures.load(), 0);

  // The main stream completed despite the churn: clean parse, no ERROR,
  // race cap held, and the stream summary saw the whole upload.
  ASSERT_TRUE(Main.ParseClean) << Main.Error;
  ASSERT_FALSE(Main.Frames.empty());
  EXPECT_EQ(Main.count(FrameType::Error), 0u);
  EXPECT_LE(Main.count(FrameType::Race), 1000u);
  ASSERT_EQ(Main.Frames.back().Type, FrameType::Summary);
  uint64_t Events = UINT64_MAX;
  serve::scanNdjsonUInt(Main.Frames.back().Payload, "\"events\":", Events);
  EXPECT_GE(Events, 900000u) << Main.Frames.back().Payload;
  EXPECT_NE(Main.payloads(FrameType::Summary).find("\"analysis\":\"ST-WDC\""),
            std::string::npos);

  long AfterKb = rssKb();
  if (BaselineKb > 0 && AfterKb > 0)
    EXPECT_LT(AfterKb - BaselineKb, 64 * 1024)
        << "RSS grew " << (AfterKb - BaselineKb)
        << " kB across an identical second run: per-connection leak";

  Srv.stop();
  ServerStats St = Srv.stats();
  // Warm-up + main + four deserters; the deserters' disconnect-before-
  // EOS is an input rejection, announced and accounted, never silent.
  EXPECT_EQ(St.Accepted, 6u);
  EXPECT_EQ(St.Completed, 2u);
  EXPECT_EQ(St.Rejected, 4u);
  EXPECT_EQ(St.Evicted, 0u);
  EXPECT_EQ(St.ProtocolErrors, 0u);
  EXPECT_EQ(St.handled(), St.Accepted);
}

} // namespace
