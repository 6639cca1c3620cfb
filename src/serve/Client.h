//===- serve/Client.h - The STS1 client conversation ------------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one client side of an st-serve conversation, shared by
/// st-analyze --connect, the load generator and the serve tests:
///
///   connect  (optional send/receive timeout; starts the reader thread)
///   HELLO
///   EVENTS…  (the upload, chunked into frames of at most ChunkBytes)
///   finish   (EOS, half-close, drain to end of stream, join, close)
///
/// A dedicated reader thread drains server frames for the whole upload:
/// with both sides writing, neither may block on a full send buffer
/// waiting for the other to read, and races stream back live mid-upload
/// (docs/serving.md). Each frame goes to the caller's handler on that
/// thread, in stream order; finish() joins it, so whatever the handler
/// collected is safe to read afterwards.
///
/// The steps are separate calls so an open-loop caller can connect, send
/// HELLO and start reading ahead of a request's scheduled instant and
/// upload only at it (loadgen/Loadgen.h). sendRaw() exists for tests that
/// must speak the protocol wrongly.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_SERVE_CLIENT_H
#define SMARTTRACK_SERVE_CLIENT_H

#include "serve/Frame.h"
#include "serve/Socket.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

namespace st {
namespace serve {

/// Default EVENTS frame size: well under the protocol's payload cap.
inline constexpr size_t ClientChunkBytes = 64 * 1024;

/// Extracts the unsigned integer after \p Key (a quoted JSON key plus
/// colon, e.g. "\"events\":") in one NDJSON line; false when absent.
bool scanNdjsonUInt(std::string_view Line, std::string_view Key,
                    uint64_t &Out);

/// What one conversation produced.
struct ClientOutcome {
  /// Every frame and raw byte this client wrote went out.
  bool UploadOk = false;
  /// The server sent an ERROR frame.
  bool SawError = false;
  /// Connect failure, receive-side socket failure (timeout, reset), or
  /// a malformed server frame stream; empty when the server's stream
  /// decoded to a clean end. A socket failure takes precedence over the
  /// truncated frame it leaves behind.
  std::string Error;
  /// The final stream SUMMARY line (the one carrying
  /// "total_dynamic_races") arrived; the three fields below are its.
  bool SawStreamSummary = false;
  uint64_t TotalRaces = 0;
  /// The line's service_ns (0 when the server omitted it).
  uint64_t ServiceNs = 0;
  std::chrono::steady_clock::time_point SummaryAt;

  /// The request completed: uploaded whole, answered with a stream
  /// SUMMARY, no ERROR frame, no transport or parse failure.
  bool completed() const {
    return UploadOk && SawStreamSummary && !SawError && Error.empty();
  }
};

class Client {
public:
  using FrameHandler = std::function<void(const Frame &)>;

  /// \p OnFrame sees every server frame on the reader thread (may be
  /// empty: the outcome alone is then the result).
  explicit Client(FrameHandler OnFrame = FrameHandler())
      : OnFrame(std::move(OnFrame)) {}
  /// A client dropped before finish() hangs up hard: no EOS, both
  /// directions shut, the reader joined.
  ~Client();
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connects and starts the reader thread. A positive \p TimeoutSeconds
  /// bounds every send and receive, so a wedged server fails the
  /// conversation instead of hanging it. On failure the error text is in
  /// the outcome, and every later step is a no-op.
  bool connect(const ServeAddress &Addr, double TimeoutSeconds = 0);

  bool sendHello(const HelloOptions &Hello);
  /// Uploads \p TraceBytes as EVENTS frames of at most \p ChunkBytes.
  bool sendEvents(std::string_view TraceBytes,
                  size_t ChunkBytes = ClientChunkBytes);
  /// Writes \p Bytes verbatim (tests speaking the protocol wrongly).
  bool sendRaw(std::string_view Bytes);

  /// Sends EOS when \p SendEos and the upload is still intact, half-
  /// closes, drains the server's answer to end of stream and closes.
  ClientOutcome finish(bool SendEos = true);

private:
  bool sendFrame(FrameType T, std::string_view Payload);
  void readFrames();

  FrameHandler OnFrame;
  int Fd = -1;
  FdByteSink Sink{-1};
  std::thread Reader;
  /// The writer's fields are the calling thread's, the reader's fields
  /// the reader thread's until finish() joins it.
  ClientOutcome Out;
};

} // namespace serve
} // namespace st

#endif // SMARTTRACK_SERVE_CLIENT_H
