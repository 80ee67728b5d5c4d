#include "spans.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

SpanRecorder::SpanRecorder() { spans_.reserve(64); }

std::size_t SpanRecorder::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = current_;
  s.start = std::chrono::steady_clock::now();
  spans_.push_back(s);
  current_ = static_cast<std::ptrdiff_t>(spans_.size() - 1);
  return spans_.size() - 1;
}

double SpanRecorder::close(std::size_t index) {
  Span& s = spans_.at(index);
  s.end = std::chrono::steady_clock::now();
  if (current_ != static_cast<std::ptrdiff_t>(index)) {
    throw std::logic_error(std::string{"span closed out of order: "} + s.name);
  }
  current_ = s.parent;
  return seconds_between(s.start, s.end);
}

double SpanRecorder::duration_s(std::size_t index) const {
  const Span& s = spans_.at(index);
  return seconds_between(s.start, s.end);
}

double SpanRecorder::self_s(std::size_t index) const {
  double self = duration_s(index);
  for (std::size_t i = index + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == static_cast<std::ptrdiff_t>(index)) {
      self -= duration_s(i);
    }
  }
  return self;
}

double SpanRecorder::duration_s(const std::string& name) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) return duration_s(i);
  }
  return 0.0;
}

void SpanRecorder::write_json(std::ostream& os) const {
  if (spans_.empty()) {
    os << "[]";
    return;
  }
  const auto origin = spans_.front().start;
  char buf[256];
  os << '[';
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"parent\":%td,\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"duration_s\":%.9f,\"self_s\":%.9f}",
                  i == 0 ? "" : ",", s.name, s.parent,
                  seconds_between(origin, s.start),
                  seconds_between(origin, s.end), duration_s(i), self_s(i));
    os << buf;
  }
  os << ']';
}

}  // namespace perfbench
