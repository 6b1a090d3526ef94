// trace.hpp — in-memory spans around calls into the library's layers.
//
// Spans are recorded from the benchmark's own code, around calls into
// each layer's public functions; nothing inside the library is
// instrumented. Every call the benchmark makes comes from its one client
// thread, so the recorder is single-threaded: a span's parent is the span
// open on that thread when it started. Spans stay in memory and are
// written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: the layer call, e.g. "pcg"
  double start_us = 0.0;  ///< from the tracer's origin
  double end_us = 0.0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
  std::int64_t job = -1;     ///< served job index, -1 when not per job
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
std::vector<double> self_times_us(const std::vector<Span>& spans);

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// A disabled tracer records nothing and costs one branch per span.
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }
  /// Open a span under the innermost open one; returns its id (-1 when
  /// disabled).
  std::int32_t open(const char* name, std::int64_t job);
  void close(std::int32_t id);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Sum of self times of every span called `name`, in microseconds.
  double self_us(const char* name) const;
  /// Chrome trace-event JSON ("X" events; args carry the parent, the job
  /// and the self time).
  void write_json(const std::string& path) const;

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::int64_t job = -1)
      : t_(t), id_(t.open(name, job)) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

}  // namespace perfbench
