#ifndef CSC_PERFBENCH_TRACE_H_
#define CSC_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "recorder.h"

namespace perfbench {

/// In-memory span log for one client thread. A span is one call into a
/// layer, timed by the benchmark around the call: name, start, end, the span
/// it belongs to (0 for a root) and the request that caused it. Spans the
/// library hides inside a call (the backend lookup inside Engine::Query, the
/// §V maintenance inside ApplyUpdates) are measured by replaying the same
/// call on a copy the benchmark holds, right after the outer call, and are
/// recorded as children of the outer span; a span's self time is its
/// duration minus its children's.
///
/// Disabled tracers record nothing, so untraced runs pay one branch per
/// call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (ids start at 1; 0 when
  /// disabled or dropped). `name` must be a string literal.
  uint32_t Add(const char* name, uint32_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return 0;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return 0;
    }
    spans_.push_back({name, parent, request, start_ns, end_ns});
    return static_cast<uint32_t>(spans_.size());
  }

  /// Spans not recorded because the log was full.
  uint64_t dropped() const { return dropped_; }

  /// Durations of every span named `name`.
  Recorder Durations(const std::string& name) const;
  /// Self times (duration minus the summed durations of its children) of
  /// every span named `name`.
  Recorder SelfTimes(const std::string& name) const;

  /// Appends the spans as tab-separated lines
  /// `thread id name start_ns end_ns parent request`.
  bool AppendTsv(const std::string& path, const std::string& thread) const;

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };

  // Caps the log's memory at about 80 MB.
  static constexpr size_t kMaxSpans = 2'000'000;

  bool enabled_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // CSC_PERFBENCH_TRACE_H_
