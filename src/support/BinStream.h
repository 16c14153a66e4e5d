//===- support/BinStream.h - Endian-stable byte streams --------*- C++ -*-===//
///
/// \file
/// Minimal little-endian byte stream writer/reader used by the binary
/// serialization formats (profile/BinaryIO, trace/TraceIO). Values
/// are encoded byte-by-byte, so the encoding is identical on any host
/// regardless of its native endianness or struct layout.
///
/// The reader never trusts its input: every extraction is bounds-checked
/// and a single sticky failure flag poisons all subsequent reads, so
/// callers can decode a whole record and test ok() once at the end.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_SUPPORT_BINSTREAM_H
#define PPP_SUPPORT_BINSTREAM_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

namespace ppp {

/// FNV-1a over a byte range; the checksum used by the binary formats.
inline uint64_t fnv1a(const void *Data, size_t Size,
                      uint64_t Seed = 1469598103934665603ULL) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I < Size; ++I) {
    H ^= P[I];
    H *= 1099511628211ULL;
  }
  return H;
}

/// Appends little-endian fixed-width values to a std::string buffer.
class BinWriter {
public:
  explicit BinWriter(std::string &Out) : Out(Out) {}

  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }

  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }

  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }

  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V) { u64(std::bit_cast<uint64_t>(V)); }

  /// Length-prefixed string (u64 length + raw bytes).
  void str(const std::string &S) {
    u64(S.size());
    Out.append(S);
  }

private:
  std::string &Out;
};

/// Bounds-checked reader over a byte range with a sticky failure flag.
class BinReader {
public:
  BinReader(const void *Data, size_t Size)
      : P(static_cast<const unsigned char *>(Data)), End(P + Size) {}
  explicit BinReader(const std::string &S) : BinReader(S.data(), S.size()) {}

  bool ok() const { return !Failed; }
  size_t remaining() const { return static_cast<size_t>(End - P); }

  uint8_t u8() {
    if (!take(1))
      return 0;
    return P[-1];
  }

  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(P[I - 4]) << (8 * I);
    return V;
  }

  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(P[I - 8]) << (8 * I);
    return V;
  }

  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    uint64_t N = u64();
    if (N > remaining()) {
      Failed = true;
      return {};
    }
    std::string S(reinterpret_cast<const char *>(P), static_cast<size_t>(N));
    P += N;
    return S;
  }

private:
  bool take(size_t N) {
    if (Failed || remaining() < N) {
      Failed = true;
      return false;
    }
    P += N;
    return true;
  }

  const unsigned char *P;
  const unsigned char *End;
  bool Failed = false;
};

} // namespace ppp

#endif // PPP_SUPPORT_BINSTREAM_H
