// Registry-wide regression pin: golden ErrorRateResult counters for a sample
// of registry experiments at 20000 samples, seed 1.  Counters must stay
// bit-identical — at every lane width {1, 4, 8} (8 = the uniform source's
// canonical stream block) and thread count {1, 4}, on whatever planeops
// backend dispatch selected.  If one of these values ever moves, the RNG (or
// the engine's stream discipline) broke its identity contract, and every
// cached service record on disk is silently stale.
//
// The sample spans both VLCSA variants, VLSA, three distributions, and
// widths 64..256; fig6.2 (crypto workload) is deliberately NOT pinned — its
// internal seeding moved onto the shared seed_seq helper in the same PR that
// introduced BlockRng, which changes its stream by design.
//
// Golden provenance, by row:
//  * Uniform rows (table7.4, fig7.1, vlsa) and the fig6.1 histogram FNV:
//    re-recorded at the uniform-rng-v3 migration, when
//    UniformUnsignedSource moved from a sample-major stream (ApInt::random
//    per operand, transposed into planes) to a plane-order stream (each
//    512-sample block's a-planes, then b-planes, drawn by one
//    generate_block each; next() transposes back to rows).  That changes
//    every unsigned uniform sample by design; the matching service-cache
//    stream_version bump keeps pre-migration disk records from being served
//    (see docs/OPERATIONS.md).  The new values are identical at every lane
//    width and thread count above, and on the scalar path.
//  * Gaussian rows (table7.1, table7.2, eq5.2): re-recorded at the
//    gauss-rng-v2 migration, when GaussianUnsignedSource/GaussianTwosSource
//    moved from per-sample std::normal_distribution to the block ziggurat
//    (arith::GaussianBlockSampler).  They stayed bit-identical across the
//    uniform-rng-v3 migration — the evidence it touched only the unsigned
//    uniform stream — just as the uniform rows stayed put across
//    gauss-rng-v2.

#include <gtest/gtest.h>

#include <cstdint>

#include "arith/carry_chain.hpp"
#include "harness/experiments.hpp"
#include "harness/montecarlo.hpp"

namespace vlcsa::harness {
namespace {

struct GoldenCounters {
  const char* experiment;
  std::uint64_t actual_errors;
  std::uint64_t nominal_errors;
  std::uint64_t either_wrong;
  std::uint64_t total_cycles;
};

// samples=20000, seed=1; false_negatives and emitted_wrong were 0 everywhere
// (also asserted below as the model invariants they are).  Gaussian rows are
// gauss-rng-v2 values; uniform rows are uniform-rng-v3 values (see header).
constexpr GoldenCounters kGolden[] = {
    {"table7.1/n64", 5102, 5102, 1, 25102},
    {"table7.2/n128", 1, 1, 1, 20001},
    {"table7.4/n256-rate0.01", 3, 3, 0, 20003},
    {"fig7.1/n64-k8", 244, 278, 0, 20278},
    {"eq5.2/n64-gaussian-2c", 27, 61, 27, 20061},
    {"vlsa/n128", 0, 1, 0, 20001},
};

constexpr std::uint64_t kSamples = 20000;
constexpr std::uint64_t kSeed = 1;

ErrorRateResult run_pinned(const GoldenCounters& golden, const RunOptions& options,
                           EvalPath path) {
  const ErrorRateExperiment* experiment = find_error_rate_experiment(golden.experiment);
  if (experiment == nullptr) {
    ADD_FAILURE() << "unknown experiment " << golden.experiment;
    return {};
  }
  const auto source =
      arith::make_source(experiment->dist, experiment->width, experiment->params);
  switch (experiment->model) {
    case ModelKind::kVlcsa1:
      return run_vlcsa({experiment->width, experiment->window, spec::ScsaVariant::kScsa1},
                       *source, options, path);
    case ModelKind::kVlcsa2:
      return run_vlcsa({experiment->width, experiment->window, spec::ScsaVariant::kScsa2},
                       *source, options, path);
    case ModelKind::kVlsa:
      return run_vlsa({experiment->width, experiment->window}, *source, options, path);
  }
  return {};
}

void expect_golden(const ErrorRateResult& result, const GoldenCounters& golden) {
  EXPECT_EQ(result.samples, kSamples);
  EXPECT_EQ(result.actual_errors, golden.actual_errors);
  EXPECT_EQ(result.nominal_errors, golden.nominal_errors);
  EXPECT_EQ(result.either_wrong, golden.either_wrong);
  EXPECT_EQ(result.total_cycles, golden.total_cycles);
  EXPECT_EQ(result.false_negatives, 0u);
  EXPECT_EQ(result.emitted_wrong, 0u);
}

class RegistryPinTest
    : public ::testing::TestWithParam<std::tuple<GoldenCounters, int, int>> {};

TEST_P(RegistryPinTest, CountersMatchPreBlockRngBaseline) {
  const auto& [golden, lane_words, threads] = GetParam();
  RunOptions options;
  options.samples = kSamples;
  options.seed = kSeed;
  options.threads = threads;
  options.lane_words = lane_words;
  expect_golden(run_pinned(golden, options, EvalPath::kBatched), golden);
}

// The per-sample path sees the same streams (next() is the derived view of
// each source's batched stream), so it lands on the same golden counters.
TEST(RegistryPinTest, ScalarPathMatchesGoldenCounters) {
  for (const GoldenCounters& golden : kGolden) {
    SCOPED_TRACE(golden.experiment);
    expect_golden(run_pinned(golden, RunOptions{kSamples, kSeed, 4}, EvalPath::kScalar),
                  golden);
  }
}

std::string pin_name(
    const ::testing::TestParamInfo<std::tuple<GoldenCounters, int, int>>& info) {
  std::string name = std::get<0>(info.param).experiment;
  for (char& c : name) {
    if (c == '/' || c == '.' || c == '-') c = '_';
  }
  return name + "_w" + std::to_string(std::get<1>(info.param)) + "_t" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(GoldenByLaneWordsByThreads, RegistryPinTest,
                         ::testing::Combine(::testing::ValuesIn(kGolden),
                                            ::testing::Values(1, 4, 8),
                                            ::testing::Values(1, 4)),
                         pin_name);

// The chain-profile side of the registry, pinned the same way (fig6.1 runs
// the uniform source through the per-sample engine path; its histogram is a
// pure function of the shard streams).
TEST(RegistryPinTest, ChainProfileHistogramMatchesPreBlockRngBaseline) {
  const ChainProfileExperiment* experiment =
      find_chain_profile_experiment("fig6.1/uniform-unsigned");
  ASSERT_NE(experiment, nullptr);
  for (const int threads : {1, 4}) {
    const auto profile = run_experiment(*experiment, kSamples, kSeed, threads);
    EXPECT_EQ(profile.additions(), kSamples);
    std::uint64_t fnv = 1469598103934665603ULL;
    for (const std::uint64_t count : profile.counts()) {
      fnv ^= count;
      fnv *= 1099511628211ULL;
    }
    EXPECT_EQ(fnv, 17340686134405563113ULL) << "threads " << threads;
  }
}

}  // namespace
}  // namespace vlcsa::harness
