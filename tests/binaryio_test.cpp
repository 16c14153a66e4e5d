//===- tests/binaryio_test.cpp - Binary serialization tests -------------------===//

#include "TestUtil.h"

#include "metrics/Metrics.h"
#include "profile/BinaryIO.h"

#include <string>

using namespace ppp;
using namespace ppp::testutil;

namespace {

TEST(ModuleBinary, RoundTripIsFieldIdenticalAndVerifierClean) {
  Module M = smallWorkload(601);
  std::string Blob = writeModuleBinary(M);
  Module Back;
  std::string Error;
  ASSERT_TRUE(readModuleBinary(Blob, Back, Error)) << Error;
  EXPECT_EQ(verifyModule(Back), "");
  EXPECT_TRUE(Back == M);
}

TEST(ModuleBinary, RoundTripsProfilingOpcodes) {
  // An instrumented module exercises the Prof* opcodes and the
  // register/immediate fields the clean workload never sets.
  Module M = smallWorkload(602);
  ProfiledRun Clean = profileModule(M);
  InstrumentationResult IR =
      instrumentModule(M, Clean.EP, ProfilerOptions::ppp());
  std::string Blob = writeModuleBinary(IR.Instrumented);
  Module Back;
  std::string Error;
  ASSERT_TRUE(readModuleBinary(Blob, Back, Error)) << Error;
  EXPECT_TRUE(Back == IR.Instrumented);
}

TEST(ModuleBinary, RejectsCorruptionEverywhere) {
  Module M = smallWorkload(603);
  std::string Blob = writeModuleBinary(M);
  Module Back;
  std::string Error;

  // Truncation at every frame boundary and inside the payload.
  for (size_t Cut : {size_t(0), size_t(3), size_t(12), size_t(23),
                     Blob.size() / 2, Blob.size() - 1}) {
    EXPECT_FALSE(readModuleBinary(Blob.substr(0, Cut), Back, Error))
        << "cut at " << Cut;
  }
  // A flipped byte anywhere in the payload breaks the checksum; in the
  // frame it breaks magic/version/size. Sample positions across the
  // blob rather than all of them to keep the test fast.
  for (size_t Pos = 0; Pos < Blob.size(); Pos += 37) {
    std::string Bad = Blob;
    Bad[Pos] = static_cast<char>(Bad[Pos] ^ 0x20);
    EXPECT_FALSE(readModuleBinary(Bad, Back, Error)) << "flip at " << Pos;
  }
  // Appended trailing garbage changes the payload size.
  EXPECT_FALSE(readModuleBinary(Blob + "x", Back, Error));
}

TEST(ModuleBinary, RejectsWrongFormatVersion) {
  Module M = smallWorkload(604);
  std::string Blob = writeModuleBinary(M);
  // The version is the little-endian u32 at offset 4.
  Blob[4] = static_cast<char>(BinaryFormatVersion + 1);
  Module Back;
  std::string Error;
  EXPECT_FALSE(readModuleBinary(Blob, Back, Error));
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(EdgeProfileBinary, RoundTripEquality) {
  Module M = smallWorkload(605);
  ProfiledRun Clean = profileModule(M);
  std::string Blob = writeEdgeProfileBinary(M, Clean.EP);
  EdgeProfile Back;
  std::string Error;
  ASSERT_TRUE(readEdgeProfileBinary(M, Blob, Back, Error)) << Error;
  EXPECT_TRUE(Back == Clean.EP);
}

TEST(EdgeProfileBinary, RejectsWrongModuleAndCorruption) {
  Module M = smallWorkload(606);
  Module Other = smallWorkload(607);
  ProfiledRun Clean = profileModule(M);
  std::string Blob = writeEdgeProfileBinary(M, Clean.EP);
  EdgeProfile Back;
  std::string Error;
  EXPECT_FALSE(readEdgeProfileBinary(Other, Blob, Back, Error));
  std::string Bad = Blob;
  Bad[Bad.size() / 2] = static_cast<char>(Bad[Bad.size() / 2] ^ 0xff);
  EXPECT_FALSE(readEdgeProfileBinary(M, Bad, Back, Error));
  EXPECT_FALSE(readEdgeProfileBinary(M, "", Back, Error));
  EXPECT_FALSE(readEdgeProfileBinary(M, "garbage\n" + Blob, Back, Error));
}

TEST(PathProfileBinary, RoundTripPreservesCountsAndAttributes) {
  Module M = smallWorkload(608);
  ProfiledRun Clean = profileModule(M);
  std::string Blob = writePathProfileBinary(M, Clean.Oracle);
  PathProfile Back(0);
  std::string Error;
  ASSERT_TRUE(readPathProfileBinary(M, Blob, Back, Error)) << Error;
  ASSERT_EQ(Back.Funcs.size(), Clean.Oracle.Funcs.size());
  EXPECT_EQ(Back.totalFreq(), Clean.Oracle.totalFreq());
  EXPECT_EQ(Back.totalFlow(FlowMetric::Branch),
            Clean.Oracle.totalFlow(FlowMetric::Branch));
  EXPECT_EQ(Back.distinctPaths(), Clean.Oracle.distinctPaths());
  for (size_t F = 0; F < Back.Funcs.size(); ++F) {
    for (const PathRecord &Rec : Clean.Oracle.Funcs[F].Paths) {
      const PathRecord *R = Back.Funcs[F].find(Rec.Key);
      ASSERT_NE(R, nullptr);
      EXPECT_EQ(R->Freq, Rec.Freq);
      EXPECT_EQ(R->Branches, Rec.Branches);
      EXPECT_EQ(R->Instrs, Rec.Instrs);
    }
  }
  // The read-back oracle is a perfect estimate of itself.
  EXPECT_DOUBLE_EQ(
      computeAccuracy(Clean.Oracle, Back, FlowMetric::Branch).Accuracy, 1.0);
}

TEST(PathProfileBinary, RejectsWrongModuleAndCorruption) {
  Module M = smallWorkload(609);
  Module Other = smallWorkload(610);
  ProfiledRun Clean = profileModule(M);
  std::string Blob = writePathProfileBinary(M, Clean.Oracle);
  PathProfile Back(0);
  std::string Error;
  EXPECT_FALSE(readPathProfileBinary(Other, Blob, Back, Error));
  for (size_t Pos = 24; Pos < Blob.size(); Pos += 53) {
    std::string Bad = Blob;
    Bad[Pos] = static_cast<char>(Bad[Pos] ^ 0x01);
    EXPECT_FALSE(readPathProfileBinary(M, Bad, Back, Error))
        << "flip at " << Pos;
  }

  // A well-framed blob whose path edges do not chain: the structure
  // check, not the checksum, must reject it.
  PathProfile Broken = Clean.Oracle;
  bool Mutated = false;
  for (size_t F = 0; F < Broken.Funcs.size() && !Mutated; ++F) {
    if (Broken.Funcs[F].Paths.empty())
      continue;
    PathKey &Key = Broken.Funcs[F].Paths.front().Key;
    CfgView Cfg(M.function(static_cast<FuncId>(F)));
    for (unsigned E = 0; E < Cfg.numEdges() && !Mutated; ++E)
      if (Cfg.edge(static_cast<int>(E)).Src != Key.First) {
        Key.EdgeIds = {static_cast<int>(E)};
        Mutated = true;
      }
  }
  ASSERT_TRUE(Mutated);
  EXPECT_FALSE(readPathProfileBinary(M, writePathProfileBinary(M, Broken),
                                     Back, Error));
  EXPECT_NE(Error.find("does not continue the path"), std::string::npos)
      << Error;
}

TEST(BinaryFrames, FormatsAreDistinguished) {
  // A module blob is not accepted by the profile readers and vice
  // versa: the magics differ even though the frames look alike.
  Module M = smallWorkload(611);
  ProfiledRun Clean = profileModule(M);
  std::string MBlob = writeModuleBinary(M);
  std::string EBlob = writeEdgeProfileBinary(M, Clean.EP);
  Module MBack;
  EdgeProfile EBack;
  PathProfile PBack(0);
  std::string Error;
  EXPECT_FALSE(readModuleBinary(EBlob, MBack, Error));
  EXPECT_FALSE(readEdgeProfileBinary(M, MBlob, EBack, Error));
  EXPECT_FALSE(readPathProfileBinary(M, EBlob, PBack, Error));
}

//===----------------------------------------------------------------------===//
// FrameReader: incremental framing must reject-or-wait at every byte
// boundary -- no chunking of the input may change what is decoded or
// where a corrupt stream is refused.
//===----------------------------------------------------------------------===//

constexpr uint32_t MagicA = 0x41545374; // arbitrary test magics
constexpr uint32_t MagicB = 0x42545374;
constexpr uint32_t MagicC = 0x43545374;

std::vector<FrameReader::Frame> testFrames() {
  return {{MagicA, "hello, frames"},
          {MagicB, ""}, // empty payload is a legal frame
          {MagicC, std::string(300, '\x5a')},
          {MagicA, std::string("\x00\x01\x02", 3)}};
}

std::string streamOf(const std::vector<FrameReader::Frame> &Frames) {
  std::string S;
  for (const FrameReader::Frame &F : Frames)
    S += frameMessage(F.Magic, F.Payload);
  return S;
}

FrameReader makeReader() {
  FrameReader R;
  R.setAllowedMagics({MagicA, MagicB, MagicC});
  return R;
}

/// Everything observable about one run of a reader over a chunking.
struct DrainResult {
  std::vector<FrameReader::Frame> Frames;
  bool Failed = false;
  std::string Error;
  bool AtBoundary = false;
};

/// Feeds \p Data split at the given chunk sizes, draining after every
/// feed (the transport never promises frame-aligned reads).
DrainResult drain(const std::string &Data,
                  const std::vector<size_t> &ChunkSizes) {
  FrameReader R = makeReader();
  DrainResult Out;
  size_t Pos = 0;
  for (size_t Chunk : ChunkSizes) {
    size_t N = std::min(Chunk, Data.size() - Pos);
    R.feed(Data.data() + Pos, N);
    Pos += N;
    FrameReader::Frame F;
    while (R.next(F))
      Out.Frames.push_back(F);
    if (R.failed())
      break;
  }
  Out.Failed = R.failed();
  Out.Error = R.error();
  Out.AtBoundary = R.atBoundary();
  return Out;
}

DrainResult drainBytewise(const std::string &Data) {
  return drain(Data, std::vector<size_t>(Data.size(), 1));
}

DrainResult drainOneShot(const std::string &Data) {
  return drain(Data, {Data.size()});
}

bool sameFrames(const std::vector<FrameReader::Frame> &A,
                const std::vector<FrameReader::Frame> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Magic != B[I].Magic || A[I].Payload != B[I].Payload)
      return false;
  return true;
}

TEST(FrameReader, EveryPrefixWaitsThenResumesExactly) {
  // Stop the stream at every byte boundary: the reader must never fail
  // on a prefix of a valid stream, must deliver exactly the frames the
  // prefix completes, and feeding the rest must deliver the remainder
  // unchanged.
  std::vector<FrameReader::Frame> Frames = testFrames();
  std::string Stream = streamOf(Frames);
  for (size_t Cut = 0; Cut <= Stream.size(); ++Cut) {
    FrameReader R = makeReader();
    ASSERT_TRUE(R.feed(Stream.data(), Cut)) << "prefix " << Cut;
    std::vector<FrameReader::Frame> Got;
    FrameReader::Frame F;
    while (R.next(F))
      Got.push_back(F);
    ASSERT_FALSE(R.failed()) << "prefix " << Cut << ": " << R.error();
    // A frame may be delivered only when all its bytes arrived, and
    // the reader sits on a boundary exactly at frame edges.
    size_t End = 0, Complete = 0;
    bool IsBoundary = Cut == 0;
    for (const FrameReader::Frame &TF : Frames) {
      End += 24 + TF.Payload.size();
      if (End <= Cut)
        ++Complete;
      IsBoundary |= End == Cut;
    }
    ASSERT_EQ(Got.size(), Complete) << "prefix " << Cut;
    EXPECT_EQ(R.atBoundary(), IsBoundary) << "prefix " << Cut;
    // Resume with the suffix: the tail frames must decode unchanged.
    ASSERT_TRUE(R.feed(Stream.data() + Cut, Stream.size() - Cut));
    while (R.next(F))
      Got.push_back(F);
    ASSERT_FALSE(R.failed()) << R.error();
    EXPECT_TRUE(sameFrames(Got, Frames)) << "prefix " << Cut;
    EXPECT_TRUE(R.atBoundary());
  }
}

TEST(FrameReader, ChunkingNeverChangesTheResult) {
  std::string Stream = streamOf(testFrames());
  DrainResult OneShot = drainOneShot(Stream);
  ASSERT_FALSE(OneShot.Failed) << OneShot.Error;
  ASSERT_TRUE(sameFrames(OneShot.Frames, testFrames()));
  EXPECT_TRUE(OneShot.AtBoundary);

  DrainResult Bytewise = drainBytewise(Stream);
  EXPECT_TRUE(sameFrames(Bytewise.Frames, OneShot.Frames));
  EXPECT_FALSE(Bytewise.Failed);
  EXPECT_TRUE(Bytewise.AtBoundary);

  // A few deterministic "random" chunkings (sizes cycle through a
  // pattern) must agree too.
  for (size_t Seed : {3u, 7u, 13u, 31u}) {
    std::vector<size_t> Chunks;
    size_t Left = Stream.size(), S = Seed;
    while (Left > 0) {
      S = S * 1103515245 + 12345;
      size_t N = 1 + (S >> 16) % 37;
      N = std::min(N, Left);
      Chunks.push_back(N);
      Left -= N;
    }
    DrainResult R = drain(Stream, Chunks);
    EXPECT_TRUE(sameFrames(R.Frames, OneShot.Frames)) << "seed " << Seed;
    EXPECT_FALSE(R.Failed);
    EXPECT_TRUE(R.AtBoundary);
  }
}

TEST(FrameReader, EverySingleByteFlipRejectsIdenticallyUnderAnyChunking) {
  // Flip each byte of the stream in turn. Whatever the reader does --
  // fail, or deliver only the frames untouched by the flip -- it must
  // do the *same thing* fed one byte at a time as fed in one block,
  // and it must never deliver a frame whose bytes changed.
  std::vector<FrameReader::Frame> Frames = testFrames();
  std::string Stream = streamOf(Frames);
  for (size_t Pos = 0; Pos < Stream.size(); ++Pos) {
    std::string Bad = Stream;
    Bad[Pos] = static_cast<char>(Bad[Pos] ^ 0x20);
    DrainResult OneShot = drainOneShot(Bad);
    DrainResult Bytewise = drainBytewise(Bad);
    EXPECT_EQ(OneShot.Failed, Bytewise.Failed) << "flip at " << Pos;
    EXPECT_EQ(OneShot.Error, Bytewise.Error) << "flip at " << Pos;
    EXPECT_TRUE(sameFrames(OneShot.Frames, Bytewise.Frames))
        << "flip at " << Pos;
    // Delivered frames must be an intact prefix-or-subset: every frame
    // handed out must byte-match one of the originals.
    for (const FrameReader::Frame &F : OneShot.Frames) {
      bool Intact = false;
      for (const FrameReader::Frame &TF : Frames)
        Intact |= F.Magic == TF.Magic && F.Payload == TF.Payload;
      EXPECT_TRUE(Intact) << "flip at " << Pos
                          << " delivered a corrupted frame";
    }
    // A flipped stream can never be accepted in full: the reader
    // either failed or is still waiting (and is missing frames).
    EXPECT_FALSE(!OneShot.Failed && OneShot.AtBoundary &&
                 OneShot.Frames.size() == Frames.size())
        << "flip at " << Pos << " was silently accepted";
  }
}

TEST(FrameReader, OversizePayloadIsRejectedBeforeItsBytesArrive) {
  FrameReader R(1024); // 1 KiB cap
  R.setAllowedMagics({MagicA});
  std::string Huge = frameMessage(MagicA, std::string(4096, 'x'));
  // Feed only the 16 header bytes that declare the size: the reader
  // must refuse right there, without waiting for (or buffering) the
  // payload.
  EXPECT_FALSE(R.feed(Huge.data(), 16));
  EXPECT_TRUE(R.failed());
  EXPECT_NE(R.error().find("cap"), std::string::npos) << R.error();
}

TEST(FrameReader, UnknownMagicRejectedAtFourBytes) {
  FrameReader R = makeReader();
  std::string Alien = frameMessage(0x7a7a7a7a, "payload");
  EXPECT_TRUE(R.feed(Alien.data(), 3)); // not enough to judge yet
  EXPECT_FALSE(R.feed(Alien.data() + 3, 1));
  EXPECT_TRUE(R.failed());
  EXPECT_NE(R.error().find("magic"), std::string::npos) << R.error();
}

TEST(FrameReader, WrongVersionRejectedAtEightBytes) {
  FrameReader R = makeReader();
  std::string Frame = frameMessage(MagicA, "payload");
  Frame[4] = static_cast<char>(BinaryFormatVersion + 1);
  EXPECT_TRUE(R.feed(Frame.data(), 7));
  EXPECT_FALSE(R.feed(Frame.data() + 7, 1));
  EXPECT_TRUE(R.failed());
  EXPECT_NE(R.error().find("version"), std::string::npos) << R.error();
}

TEST(FrameReader, BoundaryTracksFrameEdges) {
  FrameReader R = makeReader();
  EXPECT_TRUE(R.atBoundary()) << "an empty stream is a clean stream";
  std::string Frame = frameMessage(MagicB, "abc");
  ASSERT_TRUE(R.feed(Frame.data(), 10));
  EXPECT_FALSE(R.atBoundary()) << "mid-frame is not a boundary";
  ASSERT_TRUE(R.feed(Frame.data() + 10, Frame.size() - 10));
  FrameReader::Frame F;
  ASSERT_TRUE(R.next(F));
  EXPECT_EQ(F.Payload, "abc");
  EXPECT_TRUE(R.atBoundary()) << "after a whole frame the stream is clean";
  EXPECT_EQ(R.bytesConsumed(), Frame.size());
}

} // namespace
