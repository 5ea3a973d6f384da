#include "trace.h"

#include <cstdio>

namespace perfbench {

Recorder Tracer::Durations(const std::string& name) const {
  Recorder out;
  for (const Span& s : spans_) {
    if (name == s.name) out.Add(s.end_ns - s.start_ns);
  }
  return out;
}

Recorder Tracer::SelfTimes(const std::string& name) const {
  std::vector<int64_t> self(spans_.size() + 1, 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i + 1] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent != 0) {
      self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  Recorder out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) out.Add(self[i + 1]);
  }
  return out;
}

bool Tracer::AppendTsv(const std::string& path,
                       const std::string& thread) const {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\t%zu\t%s\t%lld\t%lld\t%u\t%llu\n", thread.c_str(),
                 i + 1, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
