//===- profile/BinaryIO.h - Binary module/profile serialization -*- C++ -*-===//
///
/// \file
/// Versioned, checksummed, endian-stable binary serialization for
/// modules and for edge/path profiles, and the frame every persisted
/// blob and streamed message shares.
///
/// Every blob is framed the same way:
///
///   u32 magic        ('bPPM' / 'bPPE' / 'bPPP')
///   u32 version      (BinaryFormatVersion)
///   u64 payload size
///   u64 FNV-1a checksum of the payload bytes
///   payload
///
/// Readers verify the frame (magic, version, size, checksum) before
/// touching the payload, then validate the decoded structure against
/// the module it is being attached to -- module reads run the verifier,
/// profile reads check shapes and edge chaining exactly like the text
/// readers. Any mismatch fails the read (returning false with an error
/// message); no partially-decoded state escapes.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_PROFILE_BINARYIO_H
#define PPP_PROFILE_BINARYIO_H

#include "ir/Module.h"
#include "profile/EdgeProfile.h"
#include "profile/PathProfile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ppp {

/// Bump on any change to the binary encodings below. Every frame
/// carries it and readers reject any other value, so a bump invalidates
/// every persisted artifact at once.
inline constexpr uint32_t BinaryFormatVersion = 1;

/// Wraps \p Payload in the common frame (magic, version, payload size,
/// FNV-1a checksum, payload). Every persisted blob and every streamed
/// message uses this one framing, so FrameReader below can carry any of
/// them.
std::string frameMessage(uint32_t Magic, const std::string &Payload);

/// Incremental decoder for a byte stream of frames, built for transports
/// that deliver data in arbitrary pieces (socket reads, pipes). Feed
/// bytes as they arrive; complete, checksum-verified frames come out via
/// next(). The reader either waits for more bytes or rejects the stream
/// -- it never decodes across a corrupt boundary:
///
///  - the version field is checked as soon as the 8th byte arrives;
///  - the payload size is checked against the constructor's cap before
///    any payload byte is buffered (a hostile length cannot force an
///    allocation);
///  - an optional magic allowlist rejects foreign streams at byte 4;
///  - the checksum is verified before a frame is surfaced.
///
/// Failure is sticky: after the first protocol error, feed() and next()
/// refuse further progress and error() describes the problem.
class FrameReader {
public:
  struct Frame {
    uint32_t Magic = 0;
    std::string Payload;
  };

  /// \p MaxPayloadBytes bounds any single frame's payload.
  explicit FrameReader(size_t MaxPayloadBytes = size_t(1) << 30);

  /// Restricts accepted frames to the listed magics (default: any).
  void setAllowedMagics(std::vector<uint32_t> Magics);

  /// Buffers \p Size bytes of stream data and validates as much of the
  /// current header as is available. Returns false iff the stream has
  /// already failed (the bytes are discarded).
  bool feed(const void *Data, size_t Size);

  /// Extracts the next complete frame into \p Out. Returns false when
  /// no complete frame is buffered (or the stream failed).
  bool next(Frame &Out);

  bool failed() const { return Failed; }
  const std::string &error() const { return Error; }

  /// True when the buffered stream sits exactly on a frame boundary --
  /// a connection that closes here ended cleanly, one that closes
  /// mid-frame was truncated.
  bool atBoundary() const { return !Failed && Buf.empty(); }

  /// Total stream bytes accepted so far (diagnostics / byte counters).
  uint64_t bytesConsumed() const { return BytesIn; }

private:
  bool fail(const std::string &Msg);
  /// Validates the buffered header prefix; returns false on failure.
  bool checkHeader();

  std::string Buf;    ///< Unconsumed stream bytes (at most one frame).
  size_t MaxPayload;
  std::vector<uint32_t> Allowed; ///< Empty = accept any magic.
  bool Failed = false;
  std::string Error;
  uint64_t BytesIn = 0;
};

/// Serializes \p M (functions, blocks, instructions, memory layout).
std::string writeModuleBinary(const Module &M);

/// Decodes \p Data into \p Out and verifies the result.
/// \returns true on success; otherwise false with \p Error set.
bool readModuleBinary(const std::string &Data, Module &Out,
                      std::string &Error);

/// Serializes \p EP (collected over \p M).
std::string writeEdgeProfileBinary(const Module &M, const EdgeProfile &EP);

/// Decodes \p Data into \p Out, validating shapes against \p M.
bool readEdgeProfileBinary(const Module &M, const std::string &Data,
                           EdgeProfile &Out, std::string &Error);

/// Serializes \p Profile (over \p M). Only path keys and frequencies
/// are stored; per-path attributes are recomputed from the CFG on read.
std::string writePathProfileBinary(const Module &M,
                                   const PathProfile &Profile);

/// Decodes \p Data into \p Out, validating edge chaining against \p M.
bool readPathProfileBinary(const Module &M, const std::string &Data,
                           PathProfile &Out, std::string &Error);

} // namespace ppp

#endif // PPP_PROFILE_BINARYIO_H
