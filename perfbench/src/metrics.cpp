#include "metrics.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

/// Nearest-rank percentile of an ascending sample (p in (0, 100]).
double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

Tail tail_percentile(std::vector<double> samples) {
  static constexpr double kLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0,
                                       99.5, 99.9, 99.95, 99.99};
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  const auto n = static_cast<double>(samples.size());
  for (double p : kLadder) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const std::size_t beyond = samples.size() - std::min(rank, samples.size());
    if (beyond < kTailBeyond && p != kLadder[0]) break;
    t.percentile = p;
    t.value = nearest_rank(samples, p);
    t.beyond = beyond;
    if (beyond < kTailBeyond) break;  // too few even for the median rung
  }
  return t;
}

double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  bool open = false;
  double lo = 0.0, hi = 0.0;
  for (const auto& [b, e] : intervals) {
    if (e <= b) continue;
    if (!open || b > hi) {
      if (open) total += hi - lo;
      lo = b;
      hi = e;
      open = true;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (open) total += hi - lo;
  return total;
}

std::vector<std::vector<std::size_t>> group_strips(
    const std::vector<DequeueRecord>& records, double tolerance_ms) {
  std::map<std::uint32_t, std::vector<std::size_t>> by_tenant;
  for (std::size_t i = 0; i < records.size(); ++i) {
    by_tenant[records[i].tenant].push_back(i);
  }
  std::vector<std::pair<double, std::vector<std::size_t>>> strips;
  for (auto& [tenant, idx] : by_tenant) {
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return records[a].dequeue_ms < records[b].dequeue_ms;
    });
    for (std::size_t i : idx) {
      const double t = records[i].dequeue_ms;
      if (strips.empty() || records[strips.back().second.front()].tenant != tenant ||
          t - strips.back().first > tolerance_ms) {
        strips.push_back({t, {}});
      }
      strips.back().second.push_back(i);
    }
  }
  std::stable_sort(strips.begin(), strips.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::vector<std::size_t>> out;
  out.reserve(strips.size());
  for (auto& [t, s] : strips) {
    std::sort(s.begin(), s.end());
    out.push_back(std::move(s));
  }
  return out;
}

double peak_rss_mb() {
  // VmHWM is this image's own high-water mark. getrusage's ru_maxrss is
  // not: Linux carries the launching process's peak across execve, so a
  // small benchmark would report its launcher's memory.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f)) {
      std::sscanf(line, "VmHWM: %ld kB", &kib);
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::pair<std::size_t, std::size_t> cache_sizes() {
  const auto size = [](int name) {
    const long v = sysconf(name);
    return v > 0 ? static_cast<std::size_t>(v) : std::size_t{0};
  };
  return {size(_SC_LEVEL2_CACHE_SIZE), size(_SC_LEVEL3_CACHE_SIZE)};
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
