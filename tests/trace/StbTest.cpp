//===- tests/trace/StbTest.cpp - STB binary format unit tests -------------===//
//
// Format-level checks of the STB encoding against docs/trace-format.md:
// header layout, opcode flags (has-site, same-tid), varint boundaries,
// compactness, and rejection of malformed inputs. The reader's two tiers
// are checked against each other: a 10-byte buffer can never hold the 16
// bytes the in-window fast tier needs, so decoding with BufferBytes=10 is
// a byte-wise-only reference for the default-buffer decode.
//
//===----------------------------------------------------------------------===//

#include "trace/Stb.h"

#include "engine/EventSource.h"
#include "support/Rng.h"
#include "trace/TraceText.h"
#include "workload/RandomTrace.h"

#include <gtest/gtest.h>

using namespace st;

namespace {

std::string encode(const Trace &Tr) {
  std::string Out;
  StringByteSink Sink(Out);
  EXPECT_TRUE(writeStbTrace(Tr, Sink));
  return Out;
}

std::vector<Event> decode(std::string_view Bytes, StbHeader *Header = nullptr,
                          std::string *Error = nullptr) {
  MemoryByteSource Src(Bytes);
  StbReader R(Src);
  std::vector<Event> Out;
  Event E;
  int Rc;
  while ((Rc = R.next(E)) > 0)
    Out.push_back(E);
  if (Header)
    *Header = R.header();
  if (Error)
    *Error = R.error();
  return Out;
}

TEST(StbTest, HeaderCarriesTraceCounts) {
  Trace Tr = traceFromText("T1: wr(x)\nT1: acq(m)\nT1: rel(m)\n"
                           "T1: vwr(f)\nT2: rd(x)\n");
  StbHeader H;
  std::string Error;
  std::vector<Event> Got = decode(encode(Tr), &H, &Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(H.NumThreads, 2u);
  EXPECT_EQ(H.NumVars, 1u);
  EXPECT_EQ(H.NumLocks, 1u);
  EXPECT_EQ(H.NumVolatiles, 1u);
  EXPECT_EQ(H.EventCount, 5u);
  EXPECT_EQ(H.NumSites, 3u) << "wr, vwr, rd lines carry sites";
  EXPECT_EQ(Got.size(), 5u);
}

TEST(StbTest, SameThreadRunsElideTheThreadId) {
  // 10 same-thread no-site events after the first: opcode + target = 2
  // bytes each.
  TraceBuilder B;
  for (int I = 0; I < 10; ++I)
    B.acq(0, 0).rel(0, 0);
  std::string Bytes = encode(B.build());
  // Magic 4 + header 6 varints (all small: 6 bytes) + first event 3 bytes
  // (opcode, tid, target) + 19 * 2.
  EXPECT_EQ(Bytes.size(), 4u + 6u + 3u + 19u * 2u);
}

TEST(StbTest, CompactVersusTextDsl) {
  TraceBuilder B;
  for (unsigned I = 0; I < 200; ++I) {
    B.write(I % 4, I % 8, /*Site=*/I % 16);
    B.read((I + 1) % 4, I % 8, /*Site=*/I % 16);
  }
  Trace Tr = B.build();
  std::string Stb = encode(Tr);
  std::string Text = printTraceText(Tr);
  EXPECT_LT(Stb.size(), Text.size() / 2)
      << "STB must be at least 2x smaller than the DSL";
  EXPECT_LE(Stb.size() / Tr.size(), 8u) << "<= 8 bytes/event";
}

TEST(StbTest, LargeIdsRoundTripThroughVarints) {
  // Ids straddling the 1- and 2-byte varint boundaries and a 5-byte one.
  std::vector<Event> Events = {
      Event(EventKind::Write, 0, 127, 127),
      Event(EventKind::Write, 0, 128, 128),
      Event(EventKind::Read, 1, 16383, 16384),
      Event(EventKind::Write, 2, 3000000000u, 4000000000u),
  };
  std::string Out;
  StringByteSink Sink(Out);
  StbWriter W(Sink);
  ASSERT_TRUE(W.writeHeader());
  for (const Event &E : Events)
    ASSERT_TRUE(W.writeEvent(E));
  std::string Error;
  std::vector<Event> Got = decode(Out, nullptr, &Error);
  EXPECT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Got.size(), Events.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    EXPECT_TRUE(Got[I] == Events[I]) << "event " << I;
    EXPECT_EQ(Got[I].Site, Events[I].Site) << "site " << I;
  }
}

TEST(StbTest, MissingSiteDecodesAsInvalidId) {
  TraceBuilder B;
  B.acq(0, 0).rel(0, 0);
  std::vector<Event> Got = decode(encode(B.build()));
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0].Site, InvalidId);
}

TEST(StbTest, RejectsBadMagic) {
  std::string Error;
  std::vector<Event> Got = decode("NOPE????", nullptr, &Error);
  EXPECT_TRUE(Got.empty());
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST(StbTest, RejectsReservedOpcodeBits) {
  std::string Bytes(StbMagic, sizeof(StbMagic));
  Bytes.append(6, '\0'); // empty header
  Bytes += '\xe0';       // reserved bits set
  std::string Error;
  decode(Bytes, nullptr, &Error);
  EXPECT_NE(Error.find("reserved"), std::string::npos) << Error;
}

TEST(StbTest, RejectsLeadingSameTidFlag) {
  std::string Bytes(StbMagic, sizeof(StbMagic));
  Bytes.append(6, '\0');
  Bytes += '\x10'; // same-tid on the very first event
  std::string Error;
  decode(Bytes, nullptr, &Error);
  EXPECT_NE(Error.find("previous thread"), std::string::npos) << Error;
}

TEST(StbTest, TruncationMidRecordIsAVarintError) {
  Trace Tr = traceFromText("T1: wr(x)\nT2: wr(x)\n");
  std::string Bytes = encode(Tr);
  std::string Error;
  decode(std::string_view(Bytes).substr(0, Bytes.size() - 1), nullptr,
         &Error);
  EXPECT_NE(Error.find("varint"), std::string::npos) << Error;
}

TEST(StbTest, ReportsEventCountMismatch) {
  // Header declares two events but only one record follows.
  std::string Out;
  StringByteSink Sink(Out);
  StbWriter W(Sink);
  StbHeader H;
  H.EventCount = 2;
  ASSERT_TRUE(W.writeHeader(H));
  ASSERT_TRUE(W.writeEvent(Event(EventKind::Write, 0, 0, 1)));
  std::string Error;
  decode(Out, nullptr, &Error);
  EXPECT_NE(Error.find("declared event count"), std::string::npos) << Error;
}

TEST(StbTest, ReportsTrailingBytesPastEventCount) {
  std::string Out;
  StringByteSink Sink(Out);
  StbWriter W(Sink);
  StbHeader H;
  H.EventCount = 1;
  ASSERT_TRUE(W.writeHeader(H));
  ASSERT_TRUE(W.writeEvent(Event(EventKind::Write, 0, 0, 1)));
  ASSERT_TRUE(W.writeEvent(Event(EventKind::Write, 1, 0, 2)));
  std::string Error;
  std::vector<Event> Got = decode(Out, nullptr, &Error);
  EXPECT_EQ(Got.size(), 1u);
  EXPECT_NE(Error.find("trailing bytes"), std::string::npos) << Error;
}

TEST(StbTest, UnknownCountsStreamToEof) {
  // A writer that streams events it has not counted stores zeros; the
  // reader then reads to end of stream.
  std::string Out;
  StringByteSink Sink(Out);
  StbWriter W(Sink);
  ASSERT_TRUE(W.writeHeader());
  ASSERT_TRUE(W.writeEvent(Event(EventKind::Write, 0, 0, 1)));
  ASSERT_TRUE(W.writeEvent(Event(EventKind::Write, 1, 0, 2)));
  std::string Error;
  StbHeader H;
  std::vector<Event> Got = decode(Out, &H, &Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(H.EventCount, 0u);
  EXPECT_EQ(Got.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Fast tier vs byte-wise tier
//===----------------------------------------------------------------------===//

/// A buffer too small for the fast tier (it needs a maximal 16-byte
/// record buffered), so every record is decoded byte-wise.
constexpr size_t BytewiseOnlyBuffer = 10;
static_assert(BytewiseOnlyBuffer < stb::MaxFastRecordBytes);

bool sameEvents(const std::vector<Event> &A, const std::vector<Event> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (!(A[I] == B[I]) || A[I].Site != B[I].Site)
      return false;
  return true;
}

/// Everything observable from one StbReader pass: each next()'s return
/// code and the offset after it, the events, and the final error text.
struct ReaderRun {
  std::vector<Event> Events;
  std::vector<std::pair<int, uint64_t>> Steps;
  std::string Error;
};

ReaderRun runReader(std::string_view Bytes, size_t BufferBytes) {
  MemoryByteSource Src(Bytes);
  StbReader R(Src, BufferBytes);
  ReaderRun Out;
  Event E;
  int Rc;
  do {
    Rc = R.next(E);
    Out.Steps.emplace_back(Rc, R.bytesConsumed());
    if (Rc > 0)
      Out.Events.push_back(E);
  } while (Rc > 0);
  Out.Error = R.error();
  return Out;
}

/// The same through a validating StbEventSource: each read()'s count,
/// the delivered events, and error() (decode or lint text, with byte
/// offsets).
struct SourceRun {
  std::vector<Event> Events;
  std::vector<size_t> Reads;
  bool Failed = false;
  std::string Error;
};

SourceRun runSource(std::string_view Bytes, size_t BufferBytes) {
  MemoryByteSource Src(Bytes);
  StbEventSource Events(Src, /*Validate=*/true, BufferBytes);
  SourceRun Out;
  Event Buf[37]; // odd chunk, so read boundaries wander over the records
  size_t N;
  do {
    N = Events.read(Buf, 37);
    Out.Reads.push_back(N);
    Out.Events.insert(Out.Events.end(), Buf, Buf + N);
  } while (N > 0);
  Out.Failed = Events.error(&Out.Error);
  return Out;
}

/// Decodes \p Bytes with the default buffer and byte-wise only, through
/// both the reader and a validating source, and requires identical
/// results. Returns the default-buffer reader run.
ReaderRun expectTiersAgree(std::string_view Bytes, const std::string &What) {
  ReaderRun Fast = runReader(Bytes, DefaultIoBufferBytes);
  ReaderRun Slow = runReader(Bytes, BytewiseOnlyBuffer);
  EXPECT_TRUE(sameEvents(Fast.Events, Slow.Events)) << What;
  EXPECT_EQ(Fast.Steps, Slow.Steps) << What;
  EXPECT_EQ(Fast.Error, Slow.Error) << What;

  SourceRun FastSrc = runSource(Bytes, DefaultIoBufferBytes);
  SourceRun SlowSrc = runSource(Bytes, BytewiseOnlyBuffer);
  EXPECT_TRUE(sameEvents(FastSrc.Events, SlowSrc.Events)) << What;
  EXPECT_EQ(FastSrc.Reads, SlowSrc.Reads) << What;
  EXPECT_EQ(FastSrc.Failed, SlowSrc.Failed) << What;
  EXPECT_EQ(FastSrc.Error, SlowSrc.Error) << What;
  return Fast;
}

/// STB magic plus a header whose counts are all zero but EventCount.
std::string rawHeader(uint64_t EventCount = 0) {
  StbHeader H;
  H.EventCount = EventCount;
  std::string Out;
  StringByteSink Sink(Out);
  StbWriter W(Sink);
  EXPECT_TRUE(W.writeHeader(H));
  return Out;
}

/// 24 bytes of `rd(x0)` records repeating the previous thread: enough
/// that the record in front of them is decoded with a full fast-tier
/// window.
const std::string SameTidTail = [] {
  std::string Tail;
  for (int I = 0; I != 12; ++I)
    Tail += std::string("\x10\x00", 2);
  return Tail;
}();

TEST(StbTiersTest, AgreeOnMutatedTraces) {
  // Large enough to span several 4096-byte refills; forks, joins, nested
  // locks and volatiles so every opcode shape appears.
  RandomTraceConfig C;
  C.Seed = 7;
  C.Threads = 6;
  C.Vars = 300;
  C.Locks = 5;
  C.Volatiles = 2;
  C.PVolatile = 0.05;
  C.Events = 3000;
  C.ForkJoin = true;
  const std::string Base = encode(generateRandomTrace(C));
  ASSERT_GT(Base.size(), 2 * DefaultIoBufferBytes);
  expectTiersAgree(Base, "unmutated");

  for (uint64_t Seed = 1; Seed <= 400; ++Seed) {
    Rng R(Seed);
    std::string Bytes = Base;
    unsigned Edits = 1 + static_cast<unsigned>(R.nextBelow(3));
    for (unsigned I = 0; I != Edits && !Bytes.empty(); ++I) {
      size_t At = R.nextBelow(Bytes.size());
      char B = static_cast<char>(R.nextBelow(256));
      switch (R.nextBelow(4)) {
      case 0: // flip
        Bytes[At] = static_cast<char>(Bytes[At] ^ (B | 1));
        break;
      case 1: // insert
        Bytes.insert(Bytes.begin() + static_cast<ptrdiff_t>(At), B);
        break;
      case 2: // delete
        Bytes.erase(At, 1);
        break;
      default: // truncate
        Bytes.resize(At);
        break;
      }
    }
    expectTiersAgree(Bytes, "seed " + std::to_string(Seed));
    if (HasFailure())
      break; // one diverging mutant is enough to debug
  }
}

/// \p Record between a lead `T0 rd(x0)` record and SameTidTail. The first
/// record is decoded byte-wise together with the header, so the lead puts
/// \p Record (event 1) within the fast tier's reach.
std::string withRecord(const std::string &Record) {
  return rawHeader() + std::string("\x00\x00\x00", 3) + Record + SameTidTail;
}

TEST(StbTiersTest, PaddedVarints) {
  // T1 rd(x0) with the target as a padded 5-byte varint: fast-tier
  // decodable.
  std::string Five = withRecord(std::string("\x00\x01\x80\x80\x80\x80\x00", 7));
  ReaderRun Run = expectTiersAgree(Five, "padded 5-byte");
  ASSERT_TRUE(Run.Error.empty()) << Run.Error;
  ASSERT_EQ(Run.Events.size(), 14u);
  EXPECT_EQ(Run.Events[1].Tid, 1u);
  EXPECT_EQ(Run.Events[1].Target, 0u);

  // The same padded to 6 bytes: still valid, but past the fast tier's
  // 5-byte limit, so only the byte-wise tier decodes it.
  std::string Six =
      withRecord(std::string("\x00\x01\x80\x80\x80\x80\x80\x00", 8));
  Run = expectTiersAgree(Six, "padded 6-byte");
  ASSERT_TRUE(Run.Error.empty()) << Run.Error;
  ASSERT_EQ(Run.Events.size(), 14u);
  EXPECT_EQ(Run.Events[1].Target, 0u);
  EXPECT_EQ(Run.Steps[1].second, Six.size() - SameTidTail.size());
}

TEST(StbTiersTest, Uint32MaxBoundary) {
  const std::string Max("\xff\xff\xff\xff\x0f", 5);  // UINT32_MAX
  const std::string Over("\x80\x80\x80\x80\x10", 5); // UINT32_MAX + 1
  // Opcode 0x08: rd with a site, explicit thread id.
  ReaderRun Run = expectTiersAgree(
      withRecord(std::string("\x08\x00\x01", 3) + Max), "site = UINT32_MAX");
  ASSERT_TRUE(Run.Error.empty()) << Run.Error;
  EXPECT_EQ(Run.Events[1].Site, UINT32_MAX);

  std::string TargetMax = withRecord(std::string("\x00\x00", 2) + Max);
  Run = expectTiersAgree(TargetMax, "target = UINT32_MAX");
  ASSERT_TRUE(Run.Error.empty()) << Run.Error;
  EXPECT_EQ(Run.Events[1].Target, UINT32_MAX);
  // Decodable, but ill-formed (STL007), which the validating source
  // reports at the record's end offset in both tiers.
  SourceRun Src = runSource(TargetMax, DefaultIoBufferBytes);
  EXPECT_TRUE(Src.Failed);
  EXPECT_NE(Src.Error.find("STL007"), std::string::npos) << Src.Error;
  EXPECT_NE(Src.Error.find("byte 20"), std::string::npos) << Src.Error;

  // A thread id of UINT32_MAX leaves no previous thread for a same-tid
  // record to repeat (it is the reader's "none" marker).
  Run = expectTiersAgree(withRecord(std::string("\x00", 1) + Max +
                                    std::string("\x00\x10\x00", 3)),
                         "same-tid after thread UINT32_MAX");
  EXPECT_EQ(Run.Events.size(), 2u);
  EXPECT_NE(Run.Error.find("no previous thread"), std::string::npos)
      << Run.Error;

  const struct {
    std::string Record;
    const char *Message;
  } Overflows[] = {
      {std::string("\x00", 1) + Over + "\x01", "bad thread id varint"},
      {std::string("\x00\x00", 2) + Over, "bad target varint"},
      {std::string("\x08\x00\x01", 3) + Over, "bad site varint"},
  };
  for (const auto &O : Overflows) {
    Run = expectTiersAgree(withRecord(O.Record), O.Message);
    EXPECT_EQ(Run.Events.size(), 1u);
    EXPECT_NE(Run.Error.find(O.Message), std::string::npos) << Run.Error;
  }
}

TEST(StbTiersTest, RecordStraddlingARefill) {
  // A maximal 16-byte record (three 5-byte varints) placed at every
  // offset around the first 4096-byte refill boundary.
  const Event Big(EventKind::Write, 300000000u, 300000001u, 300000002u);
  for (size_t Start = DefaultIoBufferBytes - 20;
       Start <= DefaultIoBufferBytes + 2; ++Start) {
    std::string Out;
    StringByteSink Sink(Out);
    StbWriter W(Sink);
    ASSERT_TRUE(W.writeHeader());
    std::vector<Event> Want;
    auto Put = [&](const Event &E) {
      ASSERT_TRUE(W.writeEvent(E));
      Want.push_back(E);
    };
    Put(Event(EventKind::Write, 0, 0)); // 3 bytes
    while (Start - Out.size() > 3)
      Put(Event(EventKind::Write, 0, 0)); // 2 bytes, same thread
    if (Start - Out.size() == 3)
      Put(Event(EventKind::Write, 0, 200)); // 3 bytes, same thread
    else
      Put(Event(EventKind::Write, 0, 0));
    ASSERT_EQ(Out.size(), Start);
    Put(Big);
    ASSERT_EQ(Out.size(), Start + stb::MaxFastRecordBytes);
    for (int I = 0; I != 4; ++I)
      Put(Event(EventKind::Read, 300000000u, 1, 2));
    ReaderRun Run = expectTiersAgree(Out, "start " + std::to_string(Start));
    EXPECT_TRUE(Run.Error.empty()) << Run.Error;
    EXPECT_TRUE(sameEvents(Run.Events, Want)) << "start " << Start;
  }
}

/// Encodes \p Count 2-byte `T0 wr(x0)` records (the first one 3 bytes)
/// under a header declaring \p Count events.
std::string countedStream(uint64_t Count) {
  std::string Body;
  StringByteSink Sink(Body);
  StbWriter W(Sink);
  for (uint64_t I = 0; I != Count; ++I)
    EXPECT_TRUE(W.writeEvent(Event(EventKind::Write, 0, 0)));
  return rawHeader(Count) + Body;
}

TEST(StbTiersTest, EventCountReachedAtABufferEnd) {
  // Header: magic 4 + five zero varints + a 2-byte count = 11 bytes, so
  // 2042 records (3 + 2041 * 2 bytes) end exactly at byte 4096.
  std::string Bytes = countedStream(2042);
  ASSERT_EQ(Bytes.size(), DefaultIoBufferBytes);
  ReaderRun Run = expectTiersAgree(Bytes, "count at buffer end");
  EXPECT_TRUE(Run.Error.empty()) << Run.Error;
  EXPECT_EQ(Run.Events.size(), 2042u);
  EXPECT_EQ(Run.Steps.back(), std::make_pair(0, uint64_t(4096)));

  // One record short: the stream ends before the declared count.
  std::string Short = Bytes.substr(0, Bytes.size() - 2);
  Run = expectTiersAgree(Short, "short at buffer end");
  EXPECT_NE(Run.Error.find("declared event count"), std::string::npos)
      << Run.Error;
}

TEST(StbTiersTest, TrailingBytesAfterTheDeclaredCount) {
  std::string Bytes = countedStream(2042) + SameTidTail;
  ReaderRun Run = expectTiersAgree(Bytes, "trailing at buffer end");
  EXPECT_EQ(Run.Events.size(), 2042u);
  EXPECT_NE(Run.Error.find("trailing bytes"), std::string::npos) << Run.Error;

  // And mid-buffer, where the fast tier would otherwise keep going.
  Bytes = countedStream(100) + SameTidTail + SameTidTail;
  Run = expectTiersAgree(Bytes, "trailing mid-buffer");
  EXPECT_EQ(Run.Events.size(), 100u);
  // Header 10 bytes + 3 + 99 * 2: the offset just past the last counted
  // record.
  EXPECT_EQ(Run.Error,
            "trailing bytes after the declared event count (at byte 211)");
}

} // namespace
