// metrics.hpp — the arithmetic behind the benchmark's reported numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A tail percentile is reported only where the sample supports it: at
/// least this many samples must lie beyond it.
inline constexpr std::size_t kTailBeyond = 10;

/// Median of a sample (mean of the middle pair for even sizes); 0 when
/// empty.
double median(std::vector<double> v);

struct Tail {
  double percentile = 0.0;  ///< the rung chosen, e.g. 99.5
  double value = 0.0;       ///< the sample's value at that rung
  std::size_t beyond = 0;   ///< samples strictly past its rank
  std::size_t samples = 0;
};

/// The highest percentile of the fixed ladder {50, 75, 90, 95, 99, 99.5,
/// 99.9, 99.95, 99.99} whose nearest rank leaves at least kTailBeyond
/// samples beyond it. A fixed ladder keeps the rung stable across runs
/// whose sample counts differ slightly. Samples too few for even the
/// median rung to qualify report the median with the count they have.
Tail tail_percentile(std::vector<double> samples);

/// Length of the union of [begin, end] intervals: the time during which
/// at least one interval was open.
double union_length(std::vector<std::pair<double, double>> intervals);

/// One served job as the strip grouping sees it.
struct DequeueRecord {
  std::uint32_t tenant = 0;
  /// Client-side submit timestamp + JobResult::queue_ms.
  double dequeue_ms = 0.0;
};

/// Reconstruct the service's strips: the scheduler stamps every job of a
/// strip with one dequeue instant, and one tenant's consecutive strips
/// are at least one solve apart. Jobs of one tenant whose estimated
/// dequeue instants lie within `tolerance_ms` of the strip's first job
/// form a strip. Returns strips in dequeue order, each listing record
/// indices in ascending order.
std::vector<std::vector<std::size_t>> group_strips(
    const std::vector<DequeueRecord>& records, double tolerance_ms);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Per-core L2 and shared last-level cache sizes from sysfs, in bytes
/// (0 when unknown).
std::pair<std::size_t, std::size_t> cache_sizes();

/// Shortest decimal form that reads back to the same double (JSON).
std::string json_number(double v);

}  // namespace perfbench
