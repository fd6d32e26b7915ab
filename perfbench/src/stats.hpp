#pragma once
// Small statistics kit for the benchmark: medians, nearest-rank percentiles
// with a minimum-tail rule, the Wilson score interval for the oracle checks,
// and a record digest.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
[[nodiscard]] double median(std::vector<double> values);

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it — fewer makes the figure a handful of outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest value.  Empty
/// when fewer than kMinSamplesBeyond samples lie beyond that rank (so p99
/// needs n >= 1000 and p50 needs n >= 20).
[[nodiscard]] std::optional<double> nearest_rank(std::vector<double> values, double percentile);

/// Wilson score interval for `successes` out of `trials` at `z` standard
/// deviations.  trials == 0 gives the whole [0, 1].
struct Interval {
  double lo = 0.0;
  double hi = 1.0;
  [[nodiscard]] bool contains(double x) const { return lo <= x && x <= hi; }
};
[[nodiscard]] Interval wilson_interval(std::uint64_t successes, std::uint64_t trials, double z);

/// Order-sensitive 64-bit FNV-1a digest over a list of records (each record
/// terminated by '\n'), printed as 16 hex digits.
[[nodiscard]] std::string records_digest(const std::vector<std::string>& records);

}  // namespace perfbench
