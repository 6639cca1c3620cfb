//===- tests/tools/ServeCliTest.cpp - st-serve + st-analyze --connect -----===//
//
// End-to-end tests of the serving CLIs: a real st-serve process on a
// unix socket (paths injected by CMake), a real st-analyze --connect
// uploading the checked-in sample traces, and assertions on the NDJSON
// the client relays plus its exit status — which must match the
// in-process exit-code contract (0 clean, 2 races, 1 error) so scripts
// cannot tell a served run from a local one. The in-process protocol and
// concurrency matrix lives in tests/serve; this suite only proves the
// binaries wire it together.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Output; // stdout + stderr, interleaved
};

/// Runs \p ShellCommand under `sh -c`, capturing stdout and stderr.
RunResult runCommand(const std::string &ShellCommand) {
  RunResult Result;
  std::string Wrapped = "{ " + ShellCommand + " ; } 2>&1";
  FILE *Pipe = popen(Wrapped.c_str(), "r");
  EXPECT_NE(Pipe, nullptr) << "popen failed for: " << Wrapped;
  if (!Pipe)
    return Result;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Result.Output.append(Buf, N);
  int Status = pclose(Pipe);
  Result.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return Result;
}

std::string serve() { return std::string("'") + ST_SERVE_PATH + "'"; }
std::string analyze() { return std::string("'") + ST_ANALYZE_PATH + "'"; }
std::string trace(const char *Name) {
  return std::string("'") + ST_TRACES_DIR + "/" + Name + "'";
}

/// One served round trip: st-serve (background, --max-conns=1 so it
/// exits by itself), a wait-for-socket loop, then \p ClientArgs against
/// it. The client's exit code is the command's.
std::string servedRun(const std::string &ClientArgs,
                      const std::string &ServeArgs = std::string()) {
  std::string Sock = "/tmp/st_cli_$$.sock";
  return "S=" + Sock + "; rm -f \"$S\"; " + serve() +
         " --listen=unix:\"$S\" --max-conns=1 " + ServeArgs +
         " 2>/dev/null & SP=$!; i=0; "
         "while [ ! -S \"$S\" ] && [ $i -lt 200 ]; do sleep 0.05; "
         "i=$((i+1)); done; " +
         analyze() + " --connect=unix:\"$S\" " + ClientArgs +
         "; rc=$?; wait $SP; rm -f \"$S\"; exit $rc";
}

TEST(ServeCli, RacyTraceStreamsRacesAndExitsTwo) {
  RunResult R = runCommand(servedRun(trace("racy.trace")));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("\"type\":\"race\""), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"type\":\"summary\""), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"total_dynamic_races\":"), std::string::npos)
      << R.Output;
}

/// The "type":"race" lines of \p Output, in order. The summary and
/// stream lines are left out: they differ between a served and a local
/// run in their timing fields and the served case_stats block.
std::string raceLines(const std::string &Output) {
  static const std::string Prefix = "{\"type\":\"race\"";
  std::string Lines;
  for (size_t P = 0; P < Output.size();) {
    size_t End = Output.find('\n', P);
    End = End == std::string::npos ? Output.size() : End + 1;
    if (Output.compare(P, Prefix.size(), Prefix) == 0)
      Lines.append(Output, P, End - P);
    P = End;
  }
  return Lines;
}

TEST(ServeCli, ConnectRaceLinesMatchLocalNdjson) {
  struct {
    const char *Trace;
    int ExitCode;
    size_t RaceLines;
  } Cases[] = {{"racy.trace", 2, 14},
               {"predictable.trace", 2, 11},
               {"race_free.trace", 0, 0}};
  for (const auto &C : Cases) {
    RunResult Local =
        runCommand(analyze() + " --all --format=ndjson " + trace(C.Trace));
    RunResult Served = runCommand(servedRun("--all " + trace(C.Trace)));
    std::string Races = raceLines(Local.Output);
    EXPECT_EQ(Local.ExitCode, C.ExitCode) << C.Trace << Local.Output;
    EXPECT_EQ(Served.ExitCode, Local.ExitCode) << C.Trace << Served.Output;
    EXPECT_EQ(static_cast<size_t>(
                  std::count(Races.begin(), Races.end(), '\n')),
              C.RaceLines)
        << C.Trace << Local.Output;
    EXPECT_EQ(raceLines(Served.Output), Races) << C.Trace;
  }
}

TEST(ServeCli, RaceFreeTraceExitsZero) {
  RunResult R =
      runCommand(servedRun("--all " + trace("race_free.trace")));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("\"total_dynamic_races\":0"), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("\"type\":\"race\""), std::string::npos) << R.Output;
}

TEST(ServeCli, StdinUploadWorksLikeAFile) {
  RunResult R = runCommand(servedRun("- < " + trace("racy.trace")));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("\"type\":\"race\""), std::string::npos) << R.Output;
}

TEST(ServeCli, StdinReadFailureNamesStdin) {
  // A directory opens for reading but every read fails (EISDIR).
  RunResult R = runCommand(servedRun("< /"));
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_EQ(R.Output.find("(null)"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("read failed: <stdin>"), std::string::npos)
      << R.Output;
}

TEST(ServeCli, StrictRejectionExitsOneWithDiagnostics) {
  RunResult R = runCommand(servedRun("--validate=strict " +
                                     trace("bad/err_multi.trace")));
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("\"type\":\"diag\""), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"code\":\"rejected\""), std::string::npos)
      << R.Output;
}

TEST(ServeCli, ConnectRefusesInProcessOnlyFlags) {
  RunResult R = runCommand(analyze() + " --connect=unix:/nowhere.sock "
                                       "--vindicate " +
                           trace("racy.trace"));
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("incompatible with --connect"), std::string::npos)
      << R.Output;
}

TEST(ServeCli, ConnectToMissingServerFailsLoudly) {
  RunResult R = runCommand(analyze() +
                           " --connect=unix:/tmp/st_cli_no_such_$$.sock " +
                           trace("racy.trace"));
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("error"), std::string::npos) << R.Output;
}

TEST(ServeCli, ServerReportsItsAccountingOnExit) {
  // Keep the server's stderr this time: the shutdown line carries the
  // outcome accounting.
  std::string Sock = "/tmp/st_cli_acct_$$.sock";
  RunResult R = runCommand(
      "S=" + Sock + "; rm -f \"$S\"; " + serve() +
      " --listen=unix:\"$S\" --max-conns=1 & SP=$!; i=0; "
      "while [ ! -S \"$S\" ] && [ $i -lt 200 ]; do sleep 0.05; "
      "i=$((i+1)); done; " +
      analyze() + " --connect=unix:\"$S\" --quiet " + trace("racy.trace") +
      "; wait $SP; rm -f \"$S\"");
  EXPECT_NE(R.Output.find("1 accepted, 1 completed, 0 evicted, 0 rejected, "
                          "0 protocol-error(s)"),
            std::string::npos)
      << R.Output;
}

} // namespace
