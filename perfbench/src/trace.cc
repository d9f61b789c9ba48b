#include "trace.h"

#include <cstdio>
#include <unordered_map>

#include "obs/metrics.h"

namespace perfbench {

void SpanLog::Begin(const char* name, uint64_t request) {
  Span s;
  s.id = next_id_++;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.request = request;
  s.name = name;
  s.start_ns = simddb::obs::NowNs();
  open_.push_back(spans_.size());
  spans_.push_back(s);
}

void SpanLog::End() {
  Span& s = spans_[open_.back()];
  s.end_ns = simddb::obs::NowNs();
  open_.pop_back();
}

namespace {

// Span id -> summed durations of its children.
std::unordered_map<uint64_t, uint64_t> ChildTime(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, uint64_t> child;
  for (const Span& s : spans) {
    if (s.parent != 0) child[s.parent] += s.end_ns - s.start_ns;
  }
  return child;
}

uint64_t SelfTime(const Span& s,
                  const std::unordered_map<uint64_t, uint64_t>& child) {
  const uint64_t dur = s.end_ns - s.start_ns;
  const auto it = child.find(s.id);
  const uint64_t kids = it == child.end() ? 0 : it->second;
  return dur > kids ? dur - kids : 0;
}

}  // namespace

std::map<uint64_t, std::map<std::string, uint64_t>> SelfTimesByRequest(
    const std::vector<Span>& spans) {
  const auto child = ChildTime(spans);
  std::map<uint64_t, std::map<std::string, uint64_t>> out;
  for (const Span& s : spans) out[s.request][s.name] += SelfTime(s, child);
  return out;
}

std::vector<double> ChildCoverage(const std::vector<Span>& spans) {
  const auto child = ChildTime(spans);
  std::vector<double> cover;
  for (const Span& s : spans) {
    if (s.parent != 0 || s.end_ns <= s.start_ns) continue;
    const auto it = child.find(s.id);
    if (it == child.end()) continue;  // a leaf root has no children to check
    cover.push_back(static_cast<double>(it->second) /
                    static_cast<double>(s.end_ns - s.start_ns));
  }
  return cover;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"span\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
