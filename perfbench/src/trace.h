// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer: name, start, end, the span that
// caused it, and the id of the operation it belongs to (shared by every
// span of one operation). Spans stay in memory while the run measures and
// are written once, at exit, as Chrome trace-event JSON. When tracing is
// off, a Span reads the clock (its duration is still returned to the
// caller) but records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void trace_enable(bool on);

/// Start a new operation: spans opened on this thread until the next call
/// share its id.
void trace_new_op();

/// Write every recorded span to `path` as Chrome trace-event JSON.
void trace_write(const std::string& path);

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span now; returns its duration in milliseconds.
  double stop();

 private:
  const char* name_;
  Clock::time_point start_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  bool open_ = true;
  double ms_ = 0.0;
};

}  // namespace perfbench
