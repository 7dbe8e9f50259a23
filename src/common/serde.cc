#include "common/serde.h"

#include <bit>

namespace ppc {

namespace {
constexpr uint32_t kMaxVectorLength = 1u << 28;  // 256M elements: sanity cap.

// On little-endian hosts the wire encoding of a u64/f64 vector is the
// in-memory representation, so the bulk paths copy it whole; other hosts
// keep the per-element byte shifts.
constexpr bool kNativeLittleEndian =
    std::endian::native == std::endian::little;
}  // namespace

void ByteWriter::WriteU32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  buffer_.append(bytes, 4);
}

void ByteWriter::WriteU64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  buffer_.append(bytes, 8);
}

void ByteWriter::WriteF64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteBytes(const std::string& bytes) {
  WriteBytes(bytes.data(), bytes.size());
}

void ByteWriter::WriteBytes(const void* data, size_t length) {
  WriteU32(static_cast<uint32_t>(length));
  if (length > 0) {
    buffer_.append(static_cast<const char*>(data), length);
  }
}

void ByteWriter::WriteU64Vector(const std::vector<uint64_t>& values) {
  Reserve(4 + 8 * values.size());
  WriteU32(static_cast<uint32_t>(values.size()));
  if constexpr (kNativeLittleEndian) {
    if (!values.empty()) {
      buffer_.append(reinterpret_cast<const char*>(values.data()),
                     8 * values.size());
    }
  } else {
    for (uint64_t v : values) WriteU64(v);
  }
}

void ByteWriter::WriteF64Vector(const std::vector<double>& values) {
  Reserve(4 + 8 * values.size());
  WriteU32(static_cast<uint32_t>(values.size()));
  if constexpr (kNativeLittleEndian) {
    if (!values.empty()) {
      buffer_.append(reinterpret_cast<const char*>(values.data()),
                     8 * values.size());
    }
  } else {
    for (double v : values) WriteF64(v);
  }
}

void ByteWriter::WriteBytesVector(const std::vector<std::string>& values) {
  size_t total = 4;
  for (const std::string& v : values) total += 4 + v.size();
  Reserve(total);
  WriteU32(static_cast<uint32_t>(values.size()));
  for (const std::string& v : values) WriteBytes(v);
}

Status ByteReader::Need(size_t n) const {
  if (remaining() < n) {
    return Status::DataLoss("truncated message: need " + std::to_string(n) +
                            " bytes, have " + std::to_string(remaining()));
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::ReadU8() {
  PPC_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> ByteReader::ReadU32() {
  PPC_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  PPC_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::ReadI64() {
  PPC_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::ReadF64() {
  PPC_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> ByteReader::ReadBytes() {
  PPC_ASSIGN_OR_RETURN(std::string_view view, ReadBytesView());
  // Construct the result straight from the wire bytes — no intermediate
  // substring temporary.
  return std::string(view);
}

Result<std::string_view> ByteReader::ReadBytesView() {
  PPC_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  PPC_RETURN_IF_ERROR(Need(n));
  std::string_view view(data_.data() + pos_, n);
  pos_ += n;
  return view;
}

Result<uint32_t> ByteReader::ReadWordVectorLength() {
  PPC_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  if (n > kMaxVectorLength) {
    return Status::DataLoss("vector length " + std::to_string(n) +
                            " exceeds sanity cap");
  }
  // Checked before the caller allocates: the buffer a hostile length
  // prefix can make us allocate is bounded by the bytes actually received.
  PPC_RETURN_IF_ERROR(Need(size_t{n} * 8));
  return n;
}

Result<std::vector<uint64_t>> ByteReader::ReadU64Vector() {
  PPC_ASSIGN_OR_RETURN(uint32_t n, ReadWordVectorLength());
  std::vector<uint64_t> out(n);
  if constexpr (kNativeLittleEndian) {
    if (n > 0) std::memcpy(out.data(), data_.data() + pos_, size_t{n} * 8);
    pos_ += size_t{n} * 8;
  } else {
    for (uint64_t& v : out) v = ReadU64().value();
  }
  return out;
}

Result<std::vector<double>> ByteReader::ReadF64Vector() {
  PPC_ASSIGN_OR_RETURN(uint32_t n, ReadWordVectorLength());
  std::vector<double> out(n);
  if constexpr (kNativeLittleEndian) {
    if (n > 0) std::memcpy(out.data(), data_.data() + pos_, size_t{n} * 8);
    pos_ += size_t{n} * 8;
  } else {
    for (double& v : out) v = ReadF64().value();
  }
  return out;
}

Result<std::vector<std::string>> ByteReader::ReadBytesVector() {
  PPC_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  if (n > kMaxVectorLength) {
    return Status::DataLoss("vector length " + std::to_string(n) +
                            " exceeds sanity cap");
  }
  std::vector<std::string> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PPC_ASSIGN_OR_RETURN(std::string v, ReadBytes());
    out.push_back(std::move(v));
  }
  return out;
}

Status ByteReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::DataLoss("trailing bytes after message: " +
                            std::to_string(remaining()));
  }
  return Status::OK();
}

}  // namespace ppc
