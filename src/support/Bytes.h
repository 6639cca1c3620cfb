//===- support/Bytes.h - Byte stream abstractions ---------------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal pull/push byte-stream interfaces underlying the streaming trace
/// pipeline: a ByteSource the parsers read chunks from (file, stdin, or an
/// in-memory buffer) and a ByteSink the trace writers append to. Also the
/// LEB128 varint helpers shared by the STB binary trace format.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_SUPPORT_BYTES_H
#define SMARTTRACK_SUPPORT_BYTES_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace st {

/// Abstract pull-based byte stream. read() never blocks waiting for "more
/// than one byte": any positive count is a valid return, so decoders must
/// tolerate arbitrarily small chunks.
class ByteSource {
public:
  virtual ~ByteSource() = default;

  /// Fills \p Buf with up to \p Max bytes; returns the count, 0 at end of
  /// stream (or on error; see error()).
  virtual size_t read(char *Buf, size_t Max) = 0;

  /// True when the stream terminated abnormally; \p Msg (if non-null)
  /// receives a description.
  virtual bool error(std::string *Msg = nullptr) const {
    (void)Msg;
    return false;
  }
};

/// ByteSource over an in-memory buffer (not owned).
class MemoryByteSource : public ByteSource {
public:
  explicit MemoryByteSource(std::string_view Data) : Data(Data) {}

  size_t read(char *Buf, size_t Max) override;

private:
  std::string_view Data;
  size_t Pos = 0;
};

/// ByteSource over a stdio stream. Does not own the FILE handle, so stdin
/// works the same as a file the caller opened (and closes).
class FileByteSource : public ByteSource {
public:
  explicit FileByteSource(std::FILE *Stream) : Stream(Stream) {}

  size_t read(char *Buf, size_t Max) override;
  bool error(std::string *Msg = nullptr) const override;

private:
  std::FILE *Stream;
  bool HadError = false;
};

/// Adapter adding bounded lookahead to any ByteSource, so a reader can
/// sniff a format magic and hand the full stream to the chosen decoder.
class PeekableByteSource : public ByteSource {
public:
  explicit PeekableByteSource(ByteSource &Inner) : Inner(Inner) {}

  /// Reads up to \p Max bytes of lookahead into \p Buf without consuming
  /// them; returns how many are available (short only at end of stream).
  size_t peek(char *Buf, size_t Max);

  size_t read(char *Buf, size_t Max) override;
  bool error(std::string *Msg = nullptr) const override;

private:
  ByteSource &Inner;
  std::string Pending; // peeked-but-unconsumed bytes
  size_t PendingPos = 0;
};

/// Abstract push-based byte stream.
class ByteSink {
public:
  virtual ~ByteSink() = default;

  /// Appends \p N bytes; returns false on write failure.
  virtual bool write(const char *Buf, size_t N) = 0;
};

/// ByteSink appending to a caller-owned std::string.
class StringByteSink : public ByteSink {
public:
  explicit StringByteSink(std::string &Out) : Out(Out) {}

  bool write(const char *Buf, size_t N) override {
    Out.append(Buf, N);
    return true;
  }

private:
  std::string &Out;
};

/// ByteSink over a stdio stream (not owned).
class FileByteSink : public ByteSink {
public:
  explicit FileByteSink(std::FILE *Stream) : Stream(Stream) {}

  bool write(const char *Buf, size_t N) override {
    return std::fwrite(Buf, 1, N, Stream) == N;
  }

private:
  std::FILE *Stream;
};

/// Maximum encoded size of a 64-bit LEB128 varint.
inline constexpr size_t MaxVarintBytes = 10;

/// Default chunk size of the buffered byte readers (ByteReader, the text
/// parser). Consumers with their own memory budgets — st-serve sizes
/// per-connection decode buffers against the connection budget — override
/// it through SessionOptions::IoBufferBytes rather than this constant.
inline constexpr size_t DefaultIoBufferBytes = 4096;

/// Encodes \p V as LEB128 into \p Buf (at least MaxVarintBytes); returns
/// the encoded length.
size_t encodeVarint(uint64_t V, char *Buf);

/// Buffered varint/byte reader over a ByteSource, shared by the binary
/// trace decoders.
class ByteReader {
public:
  /// \p BufBytes is the refill chunk size (clamped to at least one
  /// varint so readVarint never splits across an empty buffer).
  explicit ByteReader(ByteSource &Src,
                      size_t BufBytes = DefaultIoBufferBytes)
      : Src(Src), Buf(BufBytes < MaxVarintBytes ? MaxVarintBytes
                                                : BufBytes) {}

  /// Reads one byte; returns false at end of stream.
  bool readByte(uint8_t &B);

  /// Decodes one LEB128 varint; returns false at end of stream or on a
  /// malformed (overlong / truncated) encoding.
  bool readVarint(uint64_t &V);

  /// Reads exactly \p N bytes; returns false if the stream ends first.
  bool readExact(char *Buf, size_t N);

  /// True once the underlying stream is exhausted and the buffer is empty.
  bool atEnd();

  /// Total bytes consumed so far.
  uint64_t bytesRead() const { return Consumed; }

  /// The buffered, not yet consumed bytes: window()[0, buffered()). Lets
  /// a decoder parse a whole record in place, with one bounds check up
  /// front instead of one per byte. Never refills.
  const uint8_t *window() const {
    return reinterpret_cast<const uint8_t *>(Buf.data()) + Pos;
  }
  size_t buffered() const { return Len - Pos; }

  /// Consumes \p N bytes of the window (\p N <= buffered()).
  void consume(size_t N) {
    Pos += N;
    Consumed += N;
  }

private:
  bool refill();

  ByteSource &Src;
  std::vector<char> Buf;
  size_t Pos = 0;
  size_t Len = 0;
  uint64_t Consumed = 0;
};

} // namespace st

#endif // SMARTTRACK_SUPPORT_BYTES_H
