//===- perfbench/Spans.cpp - In-memory layer spans -------------------------===//

#include "Spans.h"

#include "Stats.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

using namespace pb;

namespace {

struct Record {
  const char *Name;
  uint64_t StartNs;
  uint64_t EndNs;
  int64_t Parent; ///< Index in the same buffer, or -1 for a root.
  uint64_t Unit;
};

struct Buffer {
  unsigned Tid = 0;
  std::vector<Record> Records;
  int64_t Open = -1; ///< Innermost open span.
  uint64_t Unit = 0;
};

std::atomic<bool> Enabled{false};

// Buffers are owned here, not by their threads, so spans recorded by a
// thread that has since exited are still written at exit.
std::mutex BuffersMu;
std::vector<std::unique_ptr<Buffer>> Buffers; // Guarded by BuffersMu.

Buffer &threadBuffer() {
  thread_local Buffer *Mine = nullptr;
  if (!Mine) {
    std::lock_guard<std::mutex> Lock(BuffersMu);
    Buffers.push_back(std::make_unique<Buffer>());
    Mine = Buffers.back().get();
    Mine->Tid = static_cast<unsigned>(Buffers.size());
  }
  return *Mine;
}

} // namespace

void pb::setTracing(bool On) { Enabled.store(On, std::memory_order_release); }

bool pb::tracing() { return Enabled.load(std::memory_order_acquire); }

void pb::setUnit(uint64_t Unit) {
  if (tracing())
    threadBuffer().Unit = Unit;
}

Span::Span(const char *Name) : StartNs(nowNs()) {
  if (!tracing())
    return;
  Buffer &B = threadBuffer();
  Index = static_cast<int64_t>(B.Records.size());
  B.Records.push_back({Name, StartNs, 0, B.Open, B.Unit});
  B.Open = Index;
}

double Span::end() {
  if (EndNs == 0) {
    EndNs = nowNs();
    if (Index >= 0) {
      Buffer &B = threadBuffer();
      Record &R = B.Records[static_cast<size_t>(Index)];
      R.EndNs = EndNs;
      B.Open = R.Parent;
    }
  }
  return msBetween(StartNs, EndNs);
}

std::map<std::string, double> pb::selfTimes() {
  std::map<std::string, double> Self;
  std::lock_guard<std::mutex> Lock(BuffersMu);
  for (const auto &B : Buffers) {
    std::vector<uint64_t> ChildNs(B->Records.size(), 0);
    for (const Record &R : B->Records)
      if (R.Parent >= 0)
        ChildNs[static_cast<size_t>(R.Parent)] += R.EndNs - R.StartNs;
    for (size_t I = 0; I < B->Records.size(); ++I) {
      const Record &R = B->Records[I];
      uint64_t Dur = R.EndNs - R.StartNs;
      uint64_t Own = Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
      Self[R.Name] += static_cast<double>(Own) / 1e6;
    }
  }
  return Self;
}

bool pb::writeChromeTrace(const std::string &Path) {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(BuffersMu);
  fputs("{\"traceEvents\":[\n", F);
  bool First = true;
  for (const auto &B : Buffers)
    for (size_t I = 0; I < B->Records.size(); ++I) {
      const Record &R = B->Records[I];
      fprintf(F,
              "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
              "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"unit\":%llu,"
              "\"span\":%zu,\"parent\":%lld}}",
              First ? "" : ",\n", R.Name, B->Tid,
              static_cast<double>(R.StartNs) / 1e3,
              static_cast<double>(R.EndNs - R.StartNs) / 1e3,
              static_cast<unsigned long long>(R.Unit), I,
              static_cast<long long>(R.Parent));
      First = false;
    }
  fputs("\n]}\n", F);
  return fclose(F) == 0;
}
