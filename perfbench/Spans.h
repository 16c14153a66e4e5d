//===- perfbench/Spans.h - In-memory layer spans ---------------*- C++ -*-===//
///
/// \file
/// The benchmark's own tracing: a Span wraps one call into a layer,
/// always measuring its wall time and, while tracing is on, recording
/// it (name, start, end, parent span, unit id) in a per-thread buffer.
/// Spans opened on one thread while another is open nest under it; all
/// spans of one profile cycle or one ingest round share the unit id set
/// with setUnit(). Buffers stay in memory until writeChromeTrace() at
/// exit; selfTimes() gives each span name's self time (duration minus
/// the part its child spans cover).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>

namespace pb {

/// Turns recording on or off for every thread (off by default).
void setTracing(bool On);
bool tracing();

/// Sets the calling thread's unit id for the spans it opens next (a
/// no-op while tracing is off, so untraced threads allocate nothing).
void setUnit(uint64_t Unit);

class Span {
public:
  /// \p Name must be a string literal (stored by pointer).
  explicit Span(const char *Name);
  ~Span() { end(); }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Closes the span (idempotent) and returns its wall time in ms.
  double end();

private:
  uint64_t StartNs;
  uint64_t EndNs = 0;
  int64_t Index = -1; ///< Record index in this thread's buffer, or -1.
};

/// Total self time in ms per span name over everything recorded.
std::map<std::string, double> selfTimes();

/// Writes every recorded span as a Chrome trace-event JSON file.
/// Returns false if the file cannot be written.
bool writeChromeTrace(const std::string &Path);

} // namespace pb

#endif // PERFBENCH_SPANS_H
