#include "trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "metrics.hpp"

namespace perfbench {

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    // Clip to the parent: a child cannot cover time its parent did not
    // spend.
    children[static_cast<std::size_t>(s.parent)].push_back(
        {std::max(s.start_us, p.start_us), std::min(s.end_us, p.end_us)});
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end_us - spans[i].start_us) -
              union_length(std::move(children[i]));
  }
  return self;
}

std::int32_t Tracer::open(const char* name, std::int64_t job) {
  if (!enabled_) return -1;
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_us(), 0.0, parent, job});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  // Spans close in LIFO order (they are scoped on one thread).
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double Tracer::self_us(const char* name) const {
  const std::vector<double> self = self_times_us(spans_);
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) sum += self[i];
  }
  return sum;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::vector<double> self = self_times_us(spans_);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << json_number(s.start_us)
        << ", \"dur\": " << json_number(s.end_us - s.start_us)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"job\": " << s.job << ", \"self_us\": " << json_number(self[i])
        << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
