//===- tests/serve/ServeTestUtil.h - In-process serve test harness --------===//
//
// Shared plumbing for the st-serve test suite: unique socket paths, a
// recording client (serve::Client with every server frame kept), and
// conversation builders that frame a trace upload the way st-analyze
// --connect does. Uploads are raw bytes — the tests speak the wire
// protocol directly so they can also speak it wrongly.
//
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_TESTS_SERVE_SERVETESTUTIL_H
#define SMARTTRACK_TESTS_SERVE_SERVETESTUTIL_H

#include "serve/Client.h"

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

namespace st {
namespace serve_test {

/// A per-process, per-tag unix socket path under /tmp (short enough for
/// sun_path everywhere).
inline std::string uniqueSocketPath(const char *Tag) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "/tmp/st_%s_%d.sock", Tag,
                static_cast<int>(::getpid()));
  return Buf;
}

inline ServeAddress unixAddress(const std::string &Path) {
  ServeAddress Addr;
  Addr.IsUnix = true;
  Addr.Path = Path;
  return Addr;
}

/// One frame, serialized.
inline std::string frameBytes(FrameType T, std::string_view Payload) {
  std::string Out;
  StringByteSink Sink(Out);
  FrameWriter W(Sink);
  W.write(T, Payload);
  return Out;
}

/// A full client conversation: HELLO, the trace bytes chunked into
/// EVENTS frames (one frame when \p Chunk is 0), EOS.
inline std::string buildConversation(const HelloOptions &Hello,
                                     std::string_view TraceBytes,
                                     size_t Chunk = 0) {
  std::string Out = frameBytes(FrameType::Hello, encodeHello(Hello));
  if (Chunk == 0)
    Chunk = TraceBytes.empty() ? 1 : TraceBytes.size();
  for (size_t Off = 0; Off < TraceBytes.size(); Off += Chunk)
    Out += frameBytes(FrameType::Events, TraceBytes.substr(Off, Chunk));
  Out += frameBytes(FrameType::Eos, std::string_view());
  return Out;
}

/// Everything one recording client saw.
struct ClientResult {
  bool ConnectOk = false;
  /// The server's frame stream decoded to a clean end-of-stream (it is
  /// never allowed to emit malformed frames, whatever the client sent).
  bool ParseClean = false;
  std::vector<Frame> Frames;
  std::string Error;

  size_t count(FrameType T) const {
    size_t N = 0;
    for (const Frame &F : Frames)
      N += F.Type == T;
    return N;
  }

  /// Concatenated payloads of every frame of type \p T, in stream order.
  std::string payloads(FrameType T) const {
    std::string Out;
    for (const Frame &F : Frames)
      if (F.Type == T)
        Out += F.Payload;
    return Out;
  }
};

/// One conversation through a serve::Client that records every server
/// frame: connects with send/receive timeouts (a wedged server surfaces
/// as a failed assertion, not a hung test binary), lets \p Upload write
/// raw bytes while the client's reader drains concurrently (so multi-
/// megabyte uploads cannot deadlock on full socket buffers), then half-
/// closes and drains to end of stream. Send failures are tolerated: the
/// server may close on a protocol error while the client is still
/// talking, and the frames it already sent stay readable.
template <typename UploadFn>
ClientResult runClient(const ServeAddress &Addr, UploadFn Upload,
                       int TimeoutSec = 60) {
  ClientResult R;
  serve::Client C([&R](const Frame &F) { R.Frames.push_back(F); });
  R.ConnectOk = C.connect(Addr, TimeoutSec);
  if (R.ConnectOk)
    Upload(C);
  serve::ClientOutcome O = C.finish(/*SendEos=*/false);
  R.ParseClean = R.ConnectOk && O.Error.empty();
  R.Error = O.Error;
  return R;
}

/// runClient uploading \p Bytes verbatim to the unix socket \p Path.
inline ClientResult runRawClient(const std::string &Path,
                                 std::string_view Bytes,
                                 int TimeoutSec = 60) {
  return runClient(
      unixAddress(Path), [Bytes](serve::Client &C) { C.sendRaw(Bytes); },
      TimeoutSec);
}

} // namespace serve_test
} // namespace st

#endif // SMARTTRACK_TESTS_SERVE_SERVETESTUTIL_H
