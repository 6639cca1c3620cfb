//===- serve/Client.cpp - The STS1 client conversation --------------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"

#include <sys/socket.h>

using namespace st;
using namespace st::serve;

bool st::serve::scanNdjsonUInt(std::string_view Line, std::string_view Key,
                               uint64_t &Out) {
  size_t P = Line.find(Key);
  if (P == std::string_view::npos)
    return false;
  P += Key.size();
  uint64_t V = 0;
  bool Any = false;
  while (P < Line.size() && Line[P] >= '0' && Line[P] <= '9') {
    V = V * 10 + static_cast<uint64_t>(Line[P] - '0');
    ++P;
    Any = true;
  }
  if (Any)
    Out = V;
  return Any;
}

Client::~Client() {
  if (Fd < 0)
    return;
  ::shutdown(Fd, SHUT_RDWR);
  Reader.join();
  closeFd(Fd);
}

bool Client::connect(const ServeAddress &Addr, double TimeoutSeconds) {
  Fd = connectServeAddress(Addr, &Out.Error);
  if (Fd < 0)
    return false;
  setSocketTimeout(Fd, SO_RCVTIMEO, TimeoutSeconds);
  setSocketTimeout(Fd, SO_SNDTIMEO, TimeoutSeconds);
  Sink = FdByteSink(Fd);
  Out.UploadOk = true;
  Reader = std::thread([this] { readFrames(); });
  return true;
}

bool Client::sendFrame(FrameType T, std::string_view Payload) {
  FrameWriter W(Sink);
  return Out.UploadOk = Out.UploadOk && W.write(T, Payload);
}

bool Client::sendHello(const HelloOptions &Hello) {
  return sendFrame(FrameType::Hello, encodeHello(Hello));
}

bool Client::sendEvents(std::string_view TraceBytes, size_t ChunkBytes) {
  for (size_t Off = 0; Out.UploadOk && Off < TraceBytes.size();
       Off += ChunkBytes)
    sendFrame(FrameType::Events, TraceBytes.substr(Off, ChunkBytes));
  return Out.UploadOk;
}

bool Client::sendRaw(std::string_view Bytes) {
  return Out.UploadOk =
             Out.UploadOk && Sink.write(Bytes.data(), Bytes.size());
}

ClientOutcome Client::finish(bool SendEos) {
  if (Fd < 0)
    return Out;
  if (SendEos)
    sendFrame(FrameType::Eos, std::string_view());
  // Half-close so the server sees a definite end of the upload even if
  // the EOS frame was lost to an earlier send failure.
  ::shutdown(Fd, SHUT_WR);
  Reader.join();
  closeFd(Fd);
  Fd = -1;
  return Out;
}

void Client::readFrames() {
  FdByteSource In(Fd);
  FrameReader Frames(In);
  Frame F;
  int Rc;
  while ((Rc = Frames.next(F)) > 0) {
    if (F.Type == FrameType::Summary &&
        scanNdjsonUInt(F.Payload, "\"total_dynamic_races\":",
                       Out.TotalRaces)) {
      // The final stream line closes a measurement window: stamp its
      // receipt before anything else touches it.
      Out.SummaryAt = std::chrono::steady_clock::now();
      Out.SawStreamSummary = true;
      scanNdjsonUInt(F.Payload, "\"service_ns\":", Out.ServiceNs);
    } else if (F.Type == FrameType::Error) {
      Out.SawError = true;
    }
    if (OnFrame)
      OnFrame(F);
  }
  if (!In.error(&Out.Error) && Rc < 0)
    Out.Error = Frames.error();
}
