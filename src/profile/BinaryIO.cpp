//===- profile/BinaryIO.cpp - Binary module/profile serialization ------------===//

#include "profile/BinaryIO.h"

#include "analysis/CfgView.h"
#include "ir/Verifier.h"
#include "support/BinStream.h"
#include "support/Format.h"

#include <algorithm>

using namespace ppp;

namespace {

constexpr uint32_t ModuleMagic = 0x4d505062;      // 'bPPM'
constexpr uint32_t EdgeProfileMagic = 0x45505062; // 'bPPE'
constexpr uint32_t PathProfileMagic = 0x50505062; // 'bPPP'

/// Verifies one whole frameMessage() blob in \p Data (magic \p Magic,
/// this build's format version, exact size, checksum) and points
/// \p Payload at its payload inside \p Data. On failure sets \p Error,
/// prefixed with \p What, and returns false.
bool unframe(uint32_t Magic, const char *What, const std::string &Data,
             BinReader &Payload, std::string &Error) {
  BinReader R(Data);
  uint32_t M = R.u32();
  uint32_t V = R.u32();
  uint64_t Size = R.u64();
  uint64_t Sum = R.u64();
  if (!R.ok() || M != Magic) {
    Error = formatString("%s: bad magic", What);
    return false;
  }
  if (V != BinaryFormatVersion) {
    Error = formatString("%s: format version %u, expected %u", What, V,
                         BinaryFormatVersion);
    return false;
  }
  if (Size != R.remaining()) {
    Error = formatString("%s: truncated (payload %llu of %llu bytes)", What,
                         (unsigned long long)R.remaining(),
                         (unsigned long long)Size);
    return false;
  }
  const char *Body = Data.data() + (Data.size() - Size);
  if (fnv1a(Body, static_cast<size_t>(Size)) != Sum) {
    Error = formatString("%s: checksum mismatch", What);
    return false;
  }
  Payload = BinReader(Body, static_cast<size_t>(Size));
  return true;
}

} // namespace

std::string ppp::frameMessage(uint32_t Magic, const std::string &Payload) {
  std::string Out;
  Out.reserve(Payload.size() + 24);
  BinWriter W(Out);
  W.u32(Magic);
  W.u32(BinaryFormatVersion);
  W.u64(Payload.size());
  W.u64(fnv1a(Payload.data(), Payload.size()));
  Out.append(Payload);
  return Out;
}

//===----------------------------------------------------------------------===//
// FrameReader
//===----------------------------------------------------------------------===//

/// Frame header size: magic (4) + version (4) + size (8) + checksum (8).
static constexpr size_t FrameHeaderBytes = 24;

FrameReader::FrameReader(size_t MaxPayloadBytes)
    : MaxPayload(MaxPayloadBytes) {}

void FrameReader::setAllowedMagics(std::vector<uint32_t> Magics) {
  Allowed = std::move(Magics);
}

bool FrameReader::fail(const std::string &Msg) {
  Failed = true;
  Error = Msg;
  Buf.clear();
  Buf.shrink_to_fit();
  return false;
}

bool FrameReader::checkHeader() {
  // Validate each header field the moment its bytes are present, so a
  // hostile stream is rejected at the earliest byte that proves it
  // hostile -- in particular before the size field can demand memory.
  BinReader R(Buf.data(), Buf.size());
  if (Buf.size() >= 4) {
    uint32_t Magic = R.u32();
    if (!Allowed.empty() &&
        std::find(Allowed.begin(), Allowed.end(), Magic) == Allowed.end())
      return fail(formatString("frame stream: unexpected magic 0x%08x",
                               Magic));
  }
  if (Buf.size() >= 8) {
    uint32_t V = R.u32();
    if (V != BinaryFormatVersion)
      return fail(formatString("frame stream: format version %u, expected %u",
                               V, BinaryFormatVersion));
  }
  if (Buf.size() >= 16) {
    uint64_t Size = R.u64();
    if (Size > MaxPayload)
      return fail(formatString(
          "frame stream: payload of %llu bytes exceeds the %llu-byte cap",
          (unsigned long long)Size, (unsigned long long)MaxPayload));
  }
  return true;
}

bool FrameReader::feed(const void *Data, size_t Size) {
  if (Failed)
    return false;
  Buf.append(static_cast<const char *>(Data), Size);
  BytesIn += Size;
  // Only the head frame's header is validated here; a frame queued
  // behind it is validated when consuming the head exposes it. The
  // normal feed/next drain loop therefore checks every header before
  // its payload can demand memory beyond what the transport delivered.
  return checkHeader();
}

bool FrameReader::next(Frame &Out) {
  if (Failed || Buf.size() < FrameHeaderBytes)
    return false;
  BinReader R(Buf.data(), Buf.size());
  uint32_t Magic = R.u32();
  R.u32(); // Version: already validated by checkHeader().
  uint64_t Size = R.u64();
  uint64_t Sum = R.u64();
  if (Buf.size() < FrameHeaderBytes + Size)
    return false;
  const char *Body = Buf.data() + FrameHeaderBytes;
  if (fnv1a(Body, static_cast<size_t>(Size)) != Sum) {
    fail("frame stream: checksum mismatch");
    return false;
  }
  Out.Magic = Magic;
  Out.Payload.assign(Body, static_cast<size_t>(Size));
  Buf.erase(0, FrameHeaderBytes + static_cast<size_t>(Size));
  // Surface the next queued frame's header problems immediately.
  checkHeader();
  return true;
}

std::string ppp::writeModuleBinary(const Module &M) {
  std::string Payload;
  BinWriter W(Payload);
  W.str(M.Name);
  W.u64(M.MemWords);
  W.i32(M.MainId);
  W.u32(M.numFunctions());
  for (const Function &F : M.Functions) {
    W.str(F.Name);
    W.u32(F.NumParams);
    W.u32(F.NumRegs);
    W.u32(F.numBlocks());
    for (const BasicBlock &BB : F.Blocks) {
      W.u32(static_cast<uint32_t>(BB.Instrs.size()));
      for (const Instr &I : BB.Instrs) {
        W.u8(static_cast<uint8_t>(I.Op));
        W.u8(I.NumArgs);
        W.i32(I.A);
        W.i32(I.B);
        W.i32(I.C);
        W.i64(I.Imm);
        W.i32(I.Callee);
        for (RegId A : I.Args)
          W.i32(A);
        W.u32(static_cast<uint32_t>(I.Targets.size()));
        for (BlockId T : I.Targets)
          W.i32(T);
      }
    }
  }
  return frameMessage(ModuleMagic, Payload);
}

bool ppp::readModuleBinary(const std::string &Data, Module &Out,
                           std::string &Error) {
  BinReader R(Data.data(), 0);
  if (!unframe(ModuleMagic, "module", Data, R, Error))
    return false;

  // Structural sanity caps: reject absurd counts before allocating.
  // Every count is additionally bounded by the payload bytes that are
  // actually left (divided by the minimum encoded size of one element),
  // so a structure-aware corruption with a freshly valid checksum can
  // at worst make us allocate proportionally to the frame it shipped,
  // never the multi-gigabyte vectors a bare 32-bit count can demand.
  constexpr uint32_t MaxCount = 1u << 24;
  // Function: name length (8) + params/regs/blocks (12). Block: instr
  // count (4). Instr: op/args (2) + A/B/C (12) + imm (8) + callee (4)
  // + arg regs (16) + target count (4). Target / edge id: 4.
  constexpr size_t MinFunctionBytes = 20;
  constexpr size_t MinBlockBytes = 4;
  constexpr size_t MinInstrBytes = 46;
  constexpr size_t MinTargetBytes = 4;

  Module M;
  M.Name = R.str();
  M.MemWords = R.u64();
  M.MainId = R.i32();
  uint32_t NumFuncs = R.u32();
  if (!R.ok() || NumFuncs > MaxCount ||
      NumFuncs > R.remaining() / MinFunctionBytes) {
    Error = "module: corrupt header";
    return false;
  }
  M.Functions.resize(NumFuncs);
  for (Function &F : M.Functions) {
    F.Name = R.str();
    F.NumParams = R.u32();
    F.NumRegs = R.u32();
    uint32_t NumBlocks = R.u32();
    if (!R.ok() || NumBlocks > MaxCount ||
        NumBlocks > R.remaining() / MinBlockBytes) {
      Error = "module: corrupt function header";
      return false;
    }
    F.Blocks.resize(NumBlocks);
    for (BasicBlock &BB : F.Blocks) {
      uint32_t NumInstrs = R.u32();
      if (!R.ok() || NumInstrs > MaxCount ||
          NumInstrs > R.remaining() / MinInstrBytes) {
        Error = "module: corrupt block header";
        return false;
      }
      BB.Instrs.resize(NumInstrs);
      for (Instr &I : BB.Instrs) {
        uint8_t Op = R.u8();
        if (Op > static_cast<uint8_t>(Opcode::ProfChainRetConst)) {
          Error = formatString("module: invalid opcode %u", Op);
          return false;
        }
        I.Op = static_cast<Opcode>(Op);
        I.NumArgs = R.u8();
        I.A = R.i32();
        I.B = R.i32();
        I.C = R.i32();
        I.Imm = R.i64();
        I.Callee = R.i32();
        for (RegId &A : I.Args)
          A = R.i32();
        uint32_t NumTargets = R.u32();
        if (!R.ok() || NumTargets > MaxCount ||
            NumTargets > R.remaining() / MinTargetBytes) {
          Error = "module: corrupt target list";
          return false;
        }
        I.Targets.resize(NumTargets);
        for (BlockId &T : I.Targets)
          T = R.i32();
      }
    }
  }
  if (!R.ok() || R.remaining() != 0) {
    Error = "module: payload size mismatch";
    return false;
  }
  if (std::string E = verifyModule(M); !E.empty()) {
    Error = "module: fails verification: " + E;
    return false;
  }
  Out = std::move(M);
  return true;
}

std::string ppp::writeEdgeProfileBinary(const Module &M,
                                        const EdgeProfile &EP) {
  std::string Payload;
  BinWriter W(Payload);
  W.str(M.Name);
  W.u32(M.numFunctions());
  for (unsigned F = 0; F < M.numFunctions(); ++F) {
    const FunctionEdgeProfile &FP = EP.func(static_cast<FuncId>(F));
    W.i64(FP.Invocations);
    W.u32(static_cast<uint32_t>(FP.EdgeFreq.size()));
    for (int64_t Freq : FP.EdgeFreq)
      W.i64(Freq);
  }
  return frameMessage(EdgeProfileMagic, Payload);
}

bool ppp::readEdgeProfileBinary(const Module &M, const std::string &Data,
                                EdgeProfile &Out, std::string &Error) {
  BinReader R(Data.data(), 0);
  if (!unframe(EdgeProfileMagic, "edge profile", Data, R, Error))
    return false;

  std::string Name = R.str();
  uint32_t NumFuncs = R.u32();
  if (!R.ok() || Name != M.Name || NumFuncs != M.numFunctions()) {
    Error = "edge profile: module mismatch";
    return false;
  }
  EdgeProfile EP;
  EP.Funcs.assign(NumFuncs, FunctionEdgeProfile());
  for (unsigned F = 0; F < NumFuncs; ++F) {
    FunctionEdgeProfile &FP = EP.Funcs[F];
    FP.Invocations = R.i64();
    uint32_t NumEdges = R.u32();
    CfgView Cfg(M.function(static_cast<FuncId>(F)));
    if (!R.ok() || FP.Invocations < 0 || NumEdges != Cfg.numEdges()) {
      Error = formatString(
          "edge profile: function %u does not match the module's CFG", F);
      return false;
    }
    FP.EdgeFreq.resize(NumEdges);
    for (int64_t &Freq : FP.EdgeFreq) {
      Freq = R.i64();
      if (Freq < 0) {
        Error = formatString("edge profile: negative count in function %u",
                             F);
        return false;
      }
    }
  }
  if (!R.ok() || R.remaining() != 0) {
    Error = "edge profile: payload size mismatch";
    return false;
  }
  Out = std::move(EP);
  return true;
}

std::string ppp::writePathProfileBinary(const Module &M,
                                        const PathProfile &Profile) {
  std::string Payload;
  BinWriter W(Payload);
  W.str(M.Name);
  W.u32(M.numFunctions());
  for (unsigned F = 0; F < M.numFunctions(); ++F) {
    const FunctionPathProfile &FP = Profile.Funcs[F];
    W.u32(static_cast<uint32_t>(FP.Paths.size()));
    for (const PathRecord &Rec : FP.Paths) {
      W.u64(Rec.Freq);
      W.i32(Rec.Key.First);
      W.i32(Rec.Key.StartCfgEdgeId);
      W.i32(Rec.Key.TermCfgEdgeId);
      W.u32(static_cast<uint32_t>(Rec.Key.EdgeIds.size()));
      for (int E : Rec.Key.EdgeIds)
        W.i32(E);
    }
  }
  return frameMessage(PathProfileMagic, Payload);
}

bool ppp::readPathProfileBinary(const Module &M, const std::string &Data,
                                PathProfile &Out, std::string &Error) {
  BinReader R(Data.data(), 0);
  if (!unframe(PathProfileMagic, "path profile", Data, R, Error))
    return false;

  std::string Name = R.str();
  uint32_t NumFuncs = R.u32();
  if (!R.ok() || Name != M.Name || NumFuncs != M.numFunctions()) {
    Error = "path profile: module mismatch";
    return false;
  }
  PathProfile P(NumFuncs);
  for (unsigned F = 0; F < NumFuncs; ++F) {
    uint32_t NumPaths = R.u32();
    // A record is at least freq (8) + first/start/term (12) + edge
    // count (4) bytes; more paths than that cannot be encoded in the
    // bytes that are left.
    if (!R.ok() || NumPaths > R.remaining() / 24) {
      Error = "path profile: truncated";
      return false;
    }
    CfgView Cfg(M.function(static_cast<FuncId>(F)));
    auto Fail = [&](const char *Msg) {
      Error = formatString("path profile: function %u: %s", F, Msg);
      return false;
    };
    for (uint32_t PI = 0; PI < NumPaths; ++PI) {
      uint64_t Freq = R.u64();
      PathKey Key;
      Key.First = R.i32();
      Key.StartCfgEdgeId = R.i32();
      Key.TermCfgEdgeId = R.i32();
      uint32_t Len = R.u32();
      if (!R.ok() || Len > R.remaining() / 4)
        return Fail("truncated path record");
      if (Key.First < 0 ||
          static_cast<unsigned>(Key.First) >= Cfg.numBlocks())
        return Fail("start block out of range");
      BlockId Cur = Key.First;
      Key.EdgeIds.reserve(Len);
      for (uint32_t E = 0; E < Len; ++E) {
        int EdgeId = R.i32();
        if (EdgeId < 0 || EdgeId >= static_cast<int>(Cfg.numEdges()))
          return Fail("edge id out of range");
        const CfgEdge &CE = Cfg.edge(EdgeId);
        if (CE.Src != Cur)
          return Fail("edge does not continue the path");
        Cur = CE.Dst;
        Key.EdgeIds.push_back(EdgeId);
      }
      if (Key.StartCfgEdgeId >= 0 &&
          (Key.StartCfgEdgeId >= static_cast<int>(Cfg.numEdges()) ||
           Cfg.edge(Key.StartCfgEdgeId).Dst != Key.First))
        return Fail("start edge does not enter the first block");
      if (Key.TermCfgEdgeId >= 0 &&
          (Key.TermCfgEdgeId >= static_cast<int>(Cfg.numEdges()) ||
           Cfg.edge(Key.TermCfgEdgeId).Src != Cur))
        return Fail("terminating edge does not leave the last block");
      P.Funcs[F].add(Cfg, Key, Freq);
    }
  }
  if (!R.ok() || R.remaining() != 0) {
    Error = "path profile: payload size mismatch";
    return false;
  }
  Out = std::move(P);
  return true;
}
