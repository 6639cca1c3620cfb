//===- trace/Stb.h - Compact binary trace format (STB) ----------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// STB is the repo's compact binary trace format: a 4-byte magic, a varint
/// header carrying the (advisory) thread/var/lock/volatile/site/event
/// counts, then one variable-length record per event — an opcode byte
/// (kind, has-site, same-thread-as-previous flags) followed by LEB128
/// varints for the thread id (elided when unchanged), target, and site.
/// Typical events take 2-5 bytes versus ~10-14 in the text DSL, and both
/// the writer and reader are streaming: neither ever holds more than one
/// event. docs/trace-format.md is the normative spec.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_TRACE_STB_H
#define SMARTTRACK_TRACE_STB_H

#include "support/Bytes.h"
#include "support/Compiler.h"
#include "trace/Trace.h"

#include <string>

namespace st {

/// The STB file magic ("STB1").
inline constexpr char StbMagic[4] = {'S', 'T', 'B', '1'};

/// Fixed-size STB header. All counts are advisory sizing hints — a writer
/// streaming events it has not seen yet stores 0 ("unknown") — except
/// EventCount, which when nonzero is verified by the reader.
struct StbHeader {
  uint64_t NumThreads = 0;
  uint64_t NumVars = 0;
  uint64_t NumLocks = 0;
  uint64_t NumVolatiles = 0;
  uint64_t NumSites = 0;
  uint64_t EventCount = 0;
};

/// Streaming STB encoder. Usage: writeHeader once, then writeEvent per
/// event. The writer holds O(1) state (the previous thread id).
class StbWriter {
public:
  explicit StbWriter(ByteSink &Sink) : Sink(Sink) {}

  bool writeHeader(const StbHeader &H = StbHeader());
  bool writeEvent(const Event &E);

  uint64_t eventsWritten() const { return Count; }

private:
  ByteSink &Sink;
  ThreadId LastTid = InvalidId;
  uint64_t Count = 0;
};

/// Opcode byte layout (docs/trace-format.md).
namespace stb {
inline constexpr uint8_t KindMask = 0x07;
inline constexpr uint8_t HasSiteBit = 0x08;
inline constexpr uint8_t SameTidBit = 0x10;
inline constexpr uint8_t ReservedMask = 0xe0;

/// Largest record the fast tier decodes: the opcode plus three varints of
/// at most 5 bytes each (a 32-bit value's longest unpadded encoding).
inline constexpr size_t MaxFastRecordBytes = 1 + 3 * 5;

/// Decodes a varint of at most 5 bytes at \p P[N] whose value fits 32
/// bits, advancing \p N. False (N then meaningless) for anything longer
/// or larger; the caller leaves those to the byte-wise decoder.
ST_ALWAYS_INLINE bool decodeVarint32(const uint8_t *P, size_t &N,
                                     uint32_t &V) {
  uint32_t B = P[N++];
  uint32_t R = B & 0x7f;
  for (unsigned Shift = 7; Shift != 28; Shift += 7) {
    if (B < 0x80) {
      V = R;
      return true;
    }
    B = P[N++];
    R |= (B & 0x7f) << Shift;
  }
  if (B < 0x80) {
    V = R;
    return true;
  }
  B = P[N++];
  if (B > 0x0f) // a continuation bit, or bits above 2^32
    return false;
  V = R | B << 28;
  return true;
}
} // namespace stb

/// Streaming STB decoder: readHeader once, then next() per event.
///
/// Two tiers share one stream position. The fast tier decodes an ordinary
/// record in place from the ByteReader's window whenever a maximal record
/// (stb::MaxFastRecordBytes) is buffered, so its bounds checks hoist out
/// of the per-byte loop. It declines — consuming nothing — on anything
/// unusual: reserved opcode bits, a leading same-tid flag, a varint
/// longer than 5 bytes or above UINT32_MAX, a short window, the declared
/// EventCount reached, or an earlier failure. The byte-wise tier then
/// decodes that record, so every error message and byte offset comes
/// from it alone.
class StbReader {
public:
  /// \p BufBytes sizes the internal read-ahead buffer (ByteReader).
  explicit StbReader(ByteSource &Src,
                     size_t BufBytes = DefaultIoBufferBytes)
      : Src(Src), Bytes(Src, BufBytes) {}

  /// Validates the magic and decodes the header; on failure returns false
  /// with error() set.
  bool readHeader();

  const StbHeader &header() const { return Header; }

  /// Decodes the next event. Returns 1 on success, 0 at a clean end of
  /// stream, -1 on a malformed or truncated input (see error()).
  int next(Event &E) {
    if (Count != FastLimit && Bytes.buffered() >= stb::MaxFastRecordBytes &&
        decodeInWindow(E))
      return 1;
    return nextBytewise(E);
  }

  bool failed() const { return !ErrorMsg.empty(); }
  const std::string &error() const { return ErrorMsg; }

  /// Bytes of input consumed so far (the offset just past the most
  /// recently decoded record). Lint provenance for binary inputs.
  uint64_t bytesConsumed() const { return Bytes.bytesRead(); }

private:
  /// The fast tier; needs stb::MaxFastRecordBytes buffered.
  ST_ALWAYS_INLINE bool decodeInWindow(Event &E) {
    const uint8_t *P = Bytes.window();
    uint8_t Op = P[0];
    if (Op & stb::ReservedMask)
      return false;
    size_t N = 1;
    uint32_t Tid = LastTid, Target, Site = InvalidId;
    if (Op & stb::SameTidBit) {
      if (Tid == InvalidId)
        return false;
    } else if (!stb::decodeVarint32(P, N, Tid)) {
      return false;
    }
    if (!stb::decodeVarint32(P, N, Target))
      return false;
    if ((Op & stb::HasSiteBit) && !stb::decodeVarint32(P, N, Site))
      return false;
    E.Kind = static_cast<EventKind>(Op & stb::KindMask);
    E.Tid = Tid;
    E.Target = Target;
    E.Site = Site;
    LastTid = Tid;
    ++Count;
    Bytes.consume(N);
    return true;
  }

  int nextBytewise(Event &E);
  int fail(const std::string &Msg);

  ByteSource &Src;
  ByteReader Bytes;
  StbHeader Header;
  ThreadId LastTid = InvalidId;
  uint64_t Count = 0;
  /// Count at which the fast tier declines: 0 until the header is read,
  /// the declared EventCount (or never, when it is 0) afterwards, and the
  /// current Count once the stream failed.
  uint64_t FastLimit = 0;
  bool HeaderDone = false;
  std::string ErrorMsg;
};

/// Encodes a whole in-memory trace, filling the header counts from the
/// trace's statistics. Returns false on a sink write failure.
bool writeStbTrace(const Trace &Tr, ByteSink &Sink);

} // namespace st

#endif // SMARTTRACK_TRACE_STB_H
