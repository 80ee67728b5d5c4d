// In-memory span recorder for the benchmark driver.
//
// One span per call into a library layer, recorded from the driver's own
// code around that call: name, start, end and parent. Spans are kept in a
// pre-reserved vector and written out only when the run ends, so recording
// costs two clock reads and no allocation. Self time is a span's duration
// minus the part of it its children cover (children of one parent never
// overlap: the driver is single-threaded).

#pragma once

#include <chrono>
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;
  std::ptrdiff_t parent = -1;  ///< index into the recorder, -1 for the root
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span whose parent is the innermost open span.
  std::size_t open(const char* name);
  /// Closes span `index` (the innermost open one) and returns its seconds.
  double close(std::size_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration_s(std::size_t index) const;
  [[nodiscard]] double self_s(std::size_t index) const;
  /// Duration of the first span called `name`; 0 when none was recorded.
  [[nodiscard]] double duration_s(const std::string& name) const;

  /// Writes every span as one JSON array: name, parent, start/end in
  /// seconds from the root's start, duration and self time.
  void write_json(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::ptrdiff_t current_ = -1;
};

/// Times one layer call: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name)
      : rec_{rec}, index_{rec.open(name)} {}
  ~ScopedSpan() { rec_.close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::size_t index_;
};

}  // namespace perfbench
