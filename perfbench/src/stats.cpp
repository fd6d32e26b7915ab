#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(),
                                         values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

std::optional<double> nearest_rank(std::vector<double> values, double percentile) {
  const std::size_t n = values.size();
  if (n == 0 || percentile <= 0.0 || percentile > 100.0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(percentile / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

Interval wilson_interval(std::uint64_t successes, std::uint64_t trials, double z) {
  if (trials == 0) return {};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

std::string records_digest(const std::vector<std::string>& records) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  };
  for (const std::string& record : records) {
    for (const char c : record) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

}  // namespace perfbench
