//===- trace/Stb.cpp - Compact binary trace format (STB) ------------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Stb.h"

#include <cstring>
#include <unordered_set>

using namespace st;

using namespace st::stb;

bool StbWriter::writeHeader(const StbHeader &H) {
  char Buf[sizeof(StbMagic) + 6 * MaxVarintBytes];
  std::memcpy(Buf, StbMagic, sizeof(StbMagic));
  size_t N = sizeof(StbMagic);
  N += encodeVarint(H.NumThreads, Buf + N);
  N += encodeVarint(H.NumVars, Buf + N);
  N += encodeVarint(H.NumLocks, Buf + N);
  N += encodeVarint(H.NumVolatiles, Buf + N);
  N += encodeVarint(H.NumSites, Buf + N);
  N += encodeVarint(H.EventCount, Buf + N);
  return Sink.write(Buf, N);
}

bool StbWriter::writeEvent(const Event &E) {
  char Buf[1 + 3 * MaxVarintBytes];
  uint8_t Op = static_cast<uint8_t>(E.Kind) & KindMask;
  bool HasSite = E.Site != InvalidId;
  bool SameTid = E.Tid == LastTid;
  if (HasSite)
    Op |= HasSiteBit;
  if (SameTid)
    Op |= SameTidBit;
  Buf[0] = static_cast<char>(Op);
  size_t N = 1;
  if (!SameTid)
    N += encodeVarint(E.Tid, Buf + N);
  N += encodeVarint(E.Target, Buf + N);
  if (HasSite)
    N += encodeVarint(E.Site, Buf + N);
  LastTid = E.Tid;
  ++Count;
  return Sink.write(Buf, N);
}

int StbReader::fail(const std::string &Msg) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), " (at byte %llu)",
                static_cast<unsigned long long>(Bytes.bytesRead()));
  ErrorMsg = Msg + Buf;
  FastLimit = Count; // the fast tier never decodes past a failure
  return -1;
}

bool StbReader::readHeader() {
  char Magic[sizeof(StbMagic)];
  if (!Bytes.readExact(Magic, sizeof(Magic)) ||
      std::memcmp(Magic, StbMagic, sizeof(StbMagic)) != 0) {
    fail("not an STB trace (bad magic)");
    return false;
  }
  uint64_t *Fields[] = {&Header.NumThreads, &Header.NumVars,
                        &Header.NumLocks,   &Header.NumVolatiles,
                        &Header.NumSites,   &Header.EventCount};
  for (uint64_t *F : Fields)
    if (!Bytes.readVarint(*F)) {
      fail("truncated STB header");
      return false;
    }
  HeaderDone = true;
  FastLimit = Header.EventCount ? Header.EventCount : UINT64_MAX;
  return true;
}

int StbReader::nextBytewise(Event &E) {
  if (!ErrorMsg.empty())
    return -1;
  if (!HeaderDone && !readHeader())
    return -1;
  if (Header.EventCount && Count == Header.EventCount) {
    if (!Bytes.atEnd())
      return fail("trailing bytes after the declared event count");
    return 0;
  }
  uint8_t Op;
  if (!Bytes.readByte(Op)) {
    std::string Msg;
    if (Src.error(&Msg))
      return fail(Msg);
    if (Header.EventCount && Count < Header.EventCount)
      return fail("stream ended before the declared event count");
    return 0; // clean EOF at a record boundary
  }
  if (Op & ReservedMask)
    return fail("bad opcode byte (reserved bits set)");
  E.Kind = static_cast<EventKind>(Op & KindMask);
  uint64_t V;
  if (Op & SameTidBit) {
    if (LastTid == InvalidId)
      return fail("first event has no previous thread to repeat");
    E.Tid = LastTid;
  } else {
    if (!Bytes.readVarint(V) || V > UINT32_MAX)
      return fail("bad thread id varint");
    E.Tid = static_cast<ThreadId>(V);
  }
  if (!Bytes.readVarint(V) || V > UINT32_MAX)
    return fail("bad target varint");
  E.Target = static_cast<uint32_t>(V);
  if (Op & HasSiteBit) {
    if (!Bytes.readVarint(V) || V > UINT32_MAX)
      return fail("bad site varint");
    E.Site = static_cast<SiteId>(V);
  } else {
    E.Site = InvalidId;
  }
  LastTid = E.Tid;
  ++Count;
  return 1;
}

bool st::writeStbTrace(const Trace &Tr, ByteSink &Sink) {
  StbHeader H;
  H.NumThreads = Tr.numThreads();
  H.NumVars = Tr.numVars();
  H.NumLocks = Tr.numLocks();
  H.NumVolatiles = Tr.numVolatiles();
  H.EventCount = Tr.size();
  std::unordered_set<SiteId> Sites;
  for (const Event &E : Tr.events())
    if (E.Site != InvalidId)
      Sites.insert(E.Site);
  H.NumSites = Sites.size();
  StbWriter W(Sink);
  if (!W.writeHeader(H))
    return false;
  for (const Event &E : Tr.events())
    if (!W.writeEvent(E))
      return false;
  return true;
}
