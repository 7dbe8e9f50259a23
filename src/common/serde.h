#ifndef PPC_COMMON_SERDE_H_
#define PPC_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ppc {

/// Append-only little-endian binary encoder used for protocol messages.
///
/// All protocol payloads in `src/core` are serialized through this writer so
/// that the network layer's byte accounting reflects exactly what a real
/// wire deployment would transfer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Pre-sizes the buffer for `additional` more bytes. The protocol's hot
  /// encoders know their payload size up front (matrix/vector payloads),
  /// so one reservation replaces the append-path's geometric regrowth.
  void Reserve(size_t additional) {
    buffer_.reserve(buffer_.size() + additional);
  }

  /// Appends a single byte.
  void WriteU8(uint8_t v) { buffer_.push_back(v); }

  /// Appends a 32-bit unsigned integer, little endian.
  void WriteU32(uint32_t v);

  /// Appends a 64-bit unsigned integer, little endian.
  void WriteU64(uint64_t v);

  /// Appends a 64-bit signed integer (two's complement, little endian).
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }

  /// Appends an IEEE-754 double by bit pattern.
  void WriteF64(double v);

  /// Appends a length-prefixed byte string (u32 length + raw bytes).
  void WriteBytes(const std::string& bytes);

  /// As `WriteBytes`, straight from a raw buffer — no intermediate
  /// std::string for callers whose bytes live in another container.
  void WriteBytes(const void* data, size_t length);

  /// Appends a length-prefixed vector of u64 values.
  void WriteU64Vector(const std::vector<uint64_t>& values);

  /// Appends a length-prefixed vector of doubles.
  void WriteF64Vector(const std::vector<double>& values);

  /// Appends a length-prefixed vector of length-prefixed byte strings.
  void WriteBytesVector(const std::vector<std::string>& values);

  /// The serialized bytes accumulated so far.
  const std::string& bytes() const { return buffer_; }

  /// Moves the accumulated bytes out of the writer.
  std::string TakeBytes() { return std::move(buffer_); }

  /// Number of bytes written so far.
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Sequential decoder matching `ByteWriter`'s encoding.
///
/// Every read checks remaining length and returns `kDataLoss` on truncated
/// or malformed input, so protocol parties can safely decode messages from
/// untrusted peers.
class ByteReader {
 public:
  /// Wraps `data`; the reader does not own the bytes, the caller must keep
  /// them alive for the reader's lifetime.
  explicit ByteReader(const std::string& data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadF64();
  Result<std::string> ReadBytes();

  /// Zero-copy variant of `ReadBytes`: the view aliases the reader's
  /// underlying buffer, valid only while that buffer outlives it. For
  /// decoders that inspect or compare a field without keeping it.
  Result<std::string_view> ReadBytesView();
  Result<std::vector<uint64_t>> ReadU64Vector();
  Result<std::vector<double>> ReadF64Vector();
  Result<std::vector<std::string>> ReadBytesVector();

  /// Number of bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }

  /// True iff every byte has been consumed.
  bool AtEnd() const { return remaining() == 0; }

  /// Returns kDataLoss unless the reader consumed the whole buffer.
  Status ExpectEnd() const;

 private:
  Status Need(size_t n) const;

  /// Reads a u64/f64 vector's length prefix and checks that its 8-byte
  /// elements are all present.
  Result<uint32_t> ReadWordVectorLength();

  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace ppc

#endif  // PPC_COMMON_SERDE_H_
