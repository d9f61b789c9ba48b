#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around its calls into each layer's
// public functions. A span has a name, start, end, the span that caused it
// (0 for a root) and a request id shared by every span of one query. Spans
// stay in memory and are written out once, when the run ends.
//
// A SpanLog is single-threaded; concurrent client threads each keep their
// own and the benchmark merges them (ids are unique across logs because each
// log draws from its own id range).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";  ///< string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Span ids start at (log_id << 40) + 1, so logs never collide.
  explicit SpanLog(uint64_t log_id = 0) : next_id_((log_id << 40) + 1) {}

  /// Opens a span as a child of the innermost open span.
  void Begin(const char* name, uint64_t request);
  /// Closes the innermost open span.
  void End();

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<size_t> open_;  // indexes into spans_ of the open spans
  std::vector<Span> spans_;
};

/// RAII span: Begin at construction, End at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request)
      : log_(log) {
    log_->Begin(name, request);
  }
  ~ScopedSpan() { log_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Self time per request and span name: each span's duration minus the
/// durations of its children (children of one span never overlap — they
/// are sequential calls on one thread), summed over the request's spans
/// of that name.
std::map<uint64_t, std::map<std::string, uint64_t>> SelfTimesByRequest(
    const std::vector<Span>& spans);

/// For each root span with children: the share of its duration that the
/// self times of its descendants account for (1.0: the root does nothing
/// outside its children).
std::vector<double> ChildCoverage(const std::vector<Span>& spans);

/// Writes one JSON object per span, one per line. False on an I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
