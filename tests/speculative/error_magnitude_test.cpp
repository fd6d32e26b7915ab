#include "speculative/error_magnitude.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace vlcsa::spec {
namespace {

TEST(ErrorMagnitude, CountsMatchDirectEvaluation) {
  const ScsaConfig config{32, 6};
  arith::UniformUnsignedSource source(32);
  const auto stats = measure_error_magnitude(config, source, 50000, 13);
  EXPECT_EQ(stats.samples, 50000u);
  EXPECT_GT(stats.errors, 0u);
  // Histogram totals must equal the error count.
  std::uint64_t histogram_total = 0;
  for (const auto c : stats.magnitude_log2) histogram_total += c;
  EXPECT_EQ(histogram_total, stats.errors);
  EXPECT_GT(stats.error_rate(), 0.0);
  EXPECT_LE(stats.mean_relative_error, stats.max_relative_error);
}

TEST(ErrorMagnitude, ErrorsAreWindowWeightSized) {
  // Ch. 3.3: the absolute error is a (sum of) window-weight off-by-ones, so
  // log2 |error| always sits at a window boundary position.
  const ScsaConfig config{32, 8};
  arith::UniformUnsignedSource source(32);
  const auto stats = measure_error_magnitude(config, source, 200000, 17);
  ASSERT_GT(stats.errors, 0u);
  const WindowLayout layout(32, 8);
  for (int log2_mag = 0; log2_mag < 64; ++log2_mag) {
    if (stats.magnitude_log2[static_cast<std::size_t>(log2_mag)] == 0) continue;
    // A single wrong window at pos contributes exactly 2^pos; multiple
    // wrong windows can combine into runs ending just below a higher
    // boundary.  Either way the magnitude is >= the first non-zero window
    // boundary above bit 0.
    EXPECT_GE(log2_mag, layout.window(1).pos - 1) << "error of weight 2^" << log2_mag;
  }
}

TEST(ErrorMagnitude, MeanRelativeErrorIsSmallOnUniformInputs) {
  // The headline of Ch. 3.3: when the speculative adder errs on full-scale
  // uniform operands, the relative error is small (the paper's example is
  // 1/2^7).  Every Fig 3.6 point; the ratio is over the (n + 1)-bit sums,
  // so a wrapped n-bit exact sum cannot blow it up.
  for (const auto& [n, k] : {std::pair{32, 6}, {32, 8}, {64, 8}, {64, 10}, {128, 12}}) {
    arith::UniformUnsignedSource source(n);
    const auto stats = measure_error_magnitude(ScsaConfig{n, k}, source, 200000, 19);
    ASSERT_GT(stats.errors, 10u) << "n=" << n << " k=" << k;
    EXPECT_LT(stats.mean_relative_error, 0.05) << "n=" << n << " k=" << k;
  }
}

TEST(ErrorMagnitude, NoErrorsOnSingleWindow) {
  const ScsaConfig config{16, 16};
  arith::UniformUnsignedSource source(16);
  const auto stats = measure_error_magnitude(config, source, 10000, 23);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_relative_error, 0.0);
}

}  // namespace
}  // namespace vlcsa::spec
