// Batch-vs-scalar differential tests: the bit-sliced evaluate_batch /
// step_batch paths must reproduce the scalar models' predicates lane for
// lane, at every lane width and on every planeops backend this host can
// run.  Coverage:
//  * exhaustive over ALL operand pairs and ALL window/chain sizes at small
//    widths (n <= 8 — 4^n pairs stays unit-test cheap there);
//  * exhaustive in one operand x deterministic-pseudorandom partner at
//    n in {10, 12}, again over all windows/chains;
//  * randomized at n in {32, 64, 65, 128, 512} x every registered operand
//    distribution x all four models (ScsaModel, VLCSA 1, VLCSA 2, VLSA), on
//    batches from the source's fill_batch (the Gaussian sign-extension
//    tail above n = 64 included);
//  * the backend/lane-width matrix: scalar vs SIMD backend x lane words
//    {1, 2, 3, 4, 8, 12, 16} x all four models, pinned bit-identical both
//    per-lane (direct batch loads) and through the sharded engine against
//    the scalar EvalPath.  The per-lane arm covers widths {63, 64, 65, 512},
//    SCSA windows whose first window is a remainder ((512, 17), (65, 63))
//    or the whole adder ((63, 63)), VLSA chains {1, 2, 21, n - 1, n}, tail
//    sizes {1, 63, 65, 127, 255, 257} plus a full batch, and two operand
//    families: uniform, and long propagate runs that make the speculative
//    results wrong and the detectors fire in most lanes.  The engine arm
//    runs Gaussian operands at n = 64 and, tail folded, at n = 512.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "arith/apint.hpp"
#include "arith/bitslice.hpp"
#include "arith/distributions.hpp"
#include "arith/planeops.hpp"
#include "harness/engine.hpp"
#include "harness/montecarlo.hpp"
#include "speculative/scsa.hpp"
#include "speculative/vlcsa.hpp"
#include "speculative/vlsa.hpp"

namespace vlcsa::spec {
namespace {

using arith::ApInt;
using arith::BitSlicedBatch;
namespace planeops = arith::planeops;

/// Bit j of lane-mask group `mask` (word j/64, bit j%64).
bool mask_lane(const planeops::PlaneVec& mask, std::size_t j) {
  return ((mask[j / 64] >> (j % 64)) & 1) != 0;
}

/// Compares every mask of a batch holding (a[j], b[j]) in lane j against
/// per-sample scalar evaluations.
void check_scsa_lanes(const ScsaModel& model, const BitSlicedBatch& batch,
                      const std::vector<ApInt>& a, const std::vector<ApInt>& b) {
  ScsaBatchEvaluation ev;
  model.evaluate_batch(batch, ev);
  ASSERT_EQ(ev.lane_words(), batch.lane_words());
  for (std::size_t j = 0; j < a.size(); ++j) {
    const auto scalar = model.evaluate(a[j], b[j]);
    const int w = static_cast<int>(j / 64);
    const auto lane = [&](const planeops::PlaneVec& mask) { return mask_lane(mask, j); };
    const auto lane_word = [&](std::uint64_t word) { return ((word >> (j % 64)) & 1) != 0; };
    ASSERT_EQ(lane(ev.spec0_wrong), !scalar.spec0_correct())
        << "spec0, n=" << model.config().width << " k=" << model.config().window
        << " a=" << a[j] << " b=" << b[j];
    ASSERT_EQ(lane(ev.spec1_wrong), !scalar.spec1_correct())
        << "spec1, n=" << model.config().width << " k=" << model.config().window
        << " a=" << a[j] << " b=" << b[j];
    ASSERT_EQ(lane(ev.err0), scalar.err0)
        << "err0, n=" << model.config().width << " k=" << model.config().window
        << " a=" << a[j] << " b=" << b[j];
    ASSERT_EQ(lane(ev.err1), scalar.err1)
        << "err1, n=" << model.config().width << " k=" << model.config().window
        << " a=" << a[j] << " b=" << b[j];
    ASSERT_EQ(lane_word(ev.either_wrong(w)), !scalar.either_correct());
    ASSERT_EQ(lane_word(ev.vlcsa2_selected_wrong(w)), !scalar.vlcsa2_selected_correct());
  }
}

void check_vlsa_lanes(const VlsaModel& model, const BitSlicedBatch& batch,
                      const std::vector<ApInt>& a, const std::vector<ApInt>& b) {
  VlsaBatchEvaluation ev;
  model.evaluate_batch(batch, ev);
  ASSERT_EQ(ev.lane_words(), batch.lane_words());
  for (std::size_t j = 0; j < a.size(); ++j) {
    const auto scalar = model.evaluate(a[j], b[j]);
    ASSERT_EQ(mask_lane(ev.spec_wrong, j), !scalar.spec_correct())
        << "n=" << model.config().width << " l=" << model.config().chain << " a=" << a[j]
        << " b=" << b[j];
    ASSERT_EQ(mask_lane(ev.err, j), scalar.err)
        << "n=" << model.config().width << " l=" << model.config().chain << " a=" << a[j]
        << " b=" << b[j];
  }
}

void check_vlcsa_lanes(const VlcsaModel& model, const BitSlicedBatch& batch,
                       const std::vector<ApInt>& a, const std::vector<ApInt>& b) {
  VlcsaBatchStep step;
  model.step_batch(batch, step);
  ASSERT_EQ(step.lane_words(), batch.lane_words());
  for (std::size_t j = 0; j < a.size(); ++j) {
    const auto scalar = model.step(a[j], b[j]);
    ASSERT_EQ(mask_lane(step.stalled, j), scalar.stalled)
        << to_string(model.config().variant) << " n=" << model.config().width
        << " k=" << model.config().window << " a=" << a[j] << " b=" << b[j];
    const bool scalar_emitted_wrong =
        scalar.result != scalar.eval.exact || scalar.cout != scalar.eval.exact_cout;
    ASSERT_EQ(mask_lane(step.emitted_wrong, j), scalar_emitted_wrong);
  }
}

/// The check_*_lanes comparisons on a batch loaded from (a, b), which
/// stores every plane.
BitSlicedBatch loaded_batch(int width, const std::vector<ApInt>& a, const std::vector<ApInt>& b,
                            int lane_words) {
  BitSlicedBatch batch(width, lane_words);
  batch.load(a, b);
  return batch;
}

void check_scsa_batch(const ScsaModel& model, const std::vector<ApInt>& a,
                      const std::vector<ApInt>& b, int lane_words = 1) {
  check_scsa_lanes(model, loaded_batch(model.config().width, a, b, lane_words), a, b);
}

void check_vlsa_batch(const VlsaModel& model, const std::vector<ApInt>& a,
                      const std::vector<ApInt>& b, int lane_words = 1) {
  check_vlsa_lanes(model, loaded_batch(model.config().width, a, b, lane_words), a, b);
}

void check_vlcsa_batch(const VlcsaModel& model, const std::vector<ApInt>& a,
                       const std::vector<ApInt>& b, int lane_words = 1) {
  check_vlcsa_lanes(model, loaded_batch(model.config().width, a, b, lane_words), a, b);
}

TEST(ScsaBatchDifferentialTest, ExhaustiveSmallWidthsAllWindows) {
  for (int n = 1; n <= 8; ++n) {
    for (int k = 1; k <= n; ++k) {
      const ScsaModel model(ScsaConfig{n, k});
      std::vector<ApInt> a, b;
      a.reserve(64);
      b.reserve(64);
      const std::uint64_t limit = std::uint64_t{1} << n;
      for (std::uint64_t va = 0; va < limit; ++va) {
        for (std::uint64_t vb = 0; vb < limit; ++vb) {
          a.push_back(ApInt::from_u64(n, va));
          b.push_back(ApInt::from_u64(n, vb));
          if (a.size() == 64) {
            check_scsa_batch(model, a, b);
            a.clear();
            b.clear();
          }
        }
      }
      if (!a.empty()) check_scsa_batch(model, a, b);
    }
  }
}

TEST(ScsaBatchDifferentialTest, ExhaustiveOperandAtMediumWidthsAllWindows) {
  // n in {10, 12}: one operand sweeps its full range, the partner is a
  // deterministic pseudorandom function of (value, window) — exhaustive in
  // `a` where the full cross product would be too slow for a unit test.
  for (const int n : {10, 12}) {
    for (int k = 1; k <= n; ++k) {
      const ScsaModel model(ScsaConfig{n, k});
      vlcsa::arith::BlockRng partner(static_cast<std::uint64_t>(n) * 1000 + static_cast<std::uint64_t>(k));
      std::vector<ApInt> a, b;
      const std::uint64_t limit = std::uint64_t{1} << n;
      for (std::uint64_t va = 0; va < limit; ++va) {
        a.push_back(ApInt::from_u64(n, va));
        b.push_back(ApInt::from_u64(n, partner()));
        if (a.size() == 64) {
          check_scsa_batch(model, a, b);
          a.clear();
          b.clear();
        }
      }
      if (!a.empty()) check_scsa_batch(model, a, b);
    }
  }
}

TEST(VlsaBatchDifferentialTest, ExhaustiveSmallWidthsAllChains) {
  for (int n = 1; n <= 8; ++n) {
    for (int l = 1; l <= n; ++l) {
      const VlsaModel model(VlsaConfig{n, l});
      std::vector<ApInt> a, b;
      const std::uint64_t limit = std::uint64_t{1} << n;
      for (std::uint64_t va = 0; va < limit; ++va) {
        for (std::uint64_t vb = 0; vb < limit; ++vb) {
          a.push_back(ApInt::from_u64(n, va));
          b.push_back(ApInt::from_u64(n, vb));
          if (a.size() == 64) {
            check_vlsa_batch(model, a, b);
            a.clear();
            b.clear();
          }
        }
      }
      if (!a.empty()) check_vlsa_batch(model, a, b);
    }
  }
}

TEST(VlsaBatchDifferentialTest, ExhaustiveOperandAtMediumWidthsAllChains) {
  for (const int n : {10, 12}) {
    for (int l = 1; l <= n; ++l) {
      const VlsaModel model(VlsaConfig{n, l});
      vlcsa::arith::BlockRng partner(static_cast<std::uint64_t>(n) * 2000 + static_cast<std::uint64_t>(l));
      std::vector<ApInt> a, b;
      const std::uint64_t limit = std::uint64_t{1} << n;
      for (std::uint64_t va = 0; va < limit; ++va) {
        a.push_back(ApInt::from_u64(n, va));
        b.push_back(ApInt::from_u64(n, partner()));
        if (a.size() == 64) {
          check_vlsa_batch(model, a, b);
          a.clear();
          b.clear();
        }
      }
      if (!a.empty()) check_vlsa_batch(model, a, b);
    }
  }
}

/// Randomized sweep: width x distribution, driven through all four models.
/// The batches come from the source's own fill_batch, so above n = 64 the
/// Gaussian ones store 64 (two's complement) or 65 (unsigned) planes and the
/// models fold the tail; the planes above hold poison.  The scalar side
/// evaluates the same samples drawn through next() (the fill_batch stream
/// contract).
class RandomizedBatchTest
    : public ::testing::TestWithParam<std::tuple<int, arith::InputDistribution>> {};

TEST_P(RandomizedBatchTest, AllFourModelsMatchScalar) {
  const auto [n, dist] = GetParam();
  const auto source = arith::make_source(dist, n);
  const auto scalar_source = source->clone();
  const std::uint64_t seed = static_cast<std::uint64_t>(n) * 31 + static_cast<int>(dist);
  vlcsa::arith::BlockRng rng(seed), scalar_rng(seed);
  BitSlicedBatch batch(n);

  // Window/chain choices: one small (frequent errors) and one realistic.
  for (const int k : {4, 11}) {
    const ScsaModel scsa(ScsaConfig{n, k});
    const VlcsaModel vlcsa1(VlcsaConfig{n, k, ScsaVariant::kScsa1});
    const VlcsaModel vlcsa2(VlcsaConfig{n, k, ScsaVariant::kScsa2});
    const VlsaModel vlsa(VlsaConfig{n, std::min(n, k + 2)});
    for (int round = 0; round < 4; ++round) {
      std::fill_n(batch.a(), n, ~std::uint64_t{0});
      std::fill_n(batch.b(), n, 0x5555555555555555ULL);
      source->fill_batch(rng, batch);
      std::vector<ApInt> a, b;
      for (int j = 0; j < batch.lanes(); ++j) {
        auto [x, y] = scalar_source->next(scalar_rng);
        a.push_back(std::move(x));
        b.push_back(std::move(y));
      }
      check_scsa_lanes(scsa, batch, a, b);
      check_vlcsa_lanes(vlcsa1, batch, a, b);
      check_vlcsa_lanes(vlcsa2, batch, a, b);
      check_vlsa_lanes(vlsa, batch, a, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthByDistribution, RandomizedBatchTest,
    ::testing::Combine(::testing::Values(32, 64, 65, 128, 512),
                       ::testing::Values(arith::InputDistribution::kUniformUnsigned,
                                         arith::InputDistribution::kUniformTwos,
                                         arith::InputDistribution::kGaussianUnsigned,
                                         arith::InputDistribution::kGaussianTwos)));

/// Short batches (tail shapes) still evaluate correctly: unused lanes are
/// zero-padded operands, which must not disturb the populated lanes.
TEST(ScsaBatchDifferentialTest, PartialBatchLanesMatch) {
  const ScsaModel model(ScsaConfig{64, 8});
  vlcsa::arith::BlockRng rng(77);
  for (const int count : {1, 7, 63}) {
    std::vector<ApInt> a, b;
    for (int j = 0; j < count; ++j) {
      a.push_back(ApInt::random(64, rng));
      b.push_back(ApInt::random(64, rng));
    }
    check_scsa_batch(model, a, b);
  }
}

// ---- backend x lane-width differential matrix -------------------------------

/// The matrix axes: (backend, lane_words).  Backends not available on this
/// host are skipped (the scalar column always runs).
class BackendLaneWidthTest
    : public ::testing::TestWithParam<std::tuple<planeops::Backend, int>> {
 protected:
  void SetUp() override {
    if (!planeops::backend_available(std::get<0>(GetParam()))) {
      GTEST_SKIP() << planeops::to_string(std::get<0>(GetParam()))
                   << " backend not supported on this host";
    }
    ASSERT_TRUE(planeops::set_backend(std::get<0>(GetParam())));
  }
  // Restore the pre-test backend (not "auto"): a process pinned via
  // VLCSA_FORCE_BACKEND must stay pinned for the tests that follow.
  void TearDown() override { planeops::set_backend(prev_); }

 private:
  planeops::Backend prev_ = planeops::active_backend();
};

/// One width of the per-lane matrix with the SCSA windows and VLSA chains
/// run at it.
struct MatrixShape {
  int width;
  std::vector<int> windows;
  std::vector<int> chains;
};

const MatrixShape kMatrixShapes[] = {
    {63, {6, 63}, {1, 2, 21, 62, 63}},      // (63, 63): a single window
    {64, {6}, {1, 2, 8, 21, 63, 64}},       // small window: frequent errors
    {65, {6, 63}, {1, 2, 21, 64, 65}},      // (65, 63): 2-bit first window
    {512, {17}, {1, 2, 21, 511, 512}},      // (512, 17): 2-bit first window
};

/// `count` operand pairs at width n: uniform, or (long_runs) pairs that
/// force long propagate runs — a generate at a random bit in the low
/// quarter and b = ~a above it with sparse random flips (each bit 1/32).
void make_operands(int n, int count, bool long_runs, vlcsa::arith::BlockRng& rng,
                   std::vector<ApInt>& a, std::vector<ApInt>& b) {
  a.clear();
  b.clear();
  for (int j = 0; j < count; ++j) {
    ApInt x = ApInt::random(n, rng);
    ApInt y = ApInt::random(n, rng);
    if (long_runs) {
      ApInt flips = ApInt::random(n, rng);
      for (int r = 0; r < 4; ++r) flips = flips & ApInt::random(n, rng);
      const ApInt run = ~x ^ flips;
      const int gen = static_cast<int>(rng() % static_cast<std::uint64_t>(n / 4 + 1));
      x.set_bit(gen, true);
      y.set_bit(gen, true);
      for (int i = gen + 1; i < n; ++i) y.set_bit(i, run.bit(i));
    }
    a.push_back(std::move(x));
    b.push_back(std::move(y));
  }
}

/// Direct batch loads at every tail size that fits the lane count, and a
/// full batch: each loaded lane must match the scalar model, for all four
/// models at every matrix shape and both operand families.
TEST_P(BackendLaneWidthTest, AllFourModelsMatchScalarPerLane) {
  const auto [backend, lane_words] = GetParam();
  (void)backend;
  vlcsa::arith::BlockRng rng(2024);
  std::vector<ApInt> a, b;
  for (const MatrixShape& shape : kMatrixShapes) {
    const int n = shape.width;
    for (const int count : {1, 63, 65, 127, 255, 257, 64 * lane_words}) {
      if (count > 64 * lane_words) continue;  // does not fit this lane width
      for (const bool long_runs : {false, true}) {
        make_operands(n, count, long_runs, rng, a, b);
        for (const int k : shape.windows) {
          check_scsa_batch(ScsaModel(ScsaConfig{n, k}), a, b, lane_words);
          check_vlcsa_batch(VlcsaModel(VlcsaConfig{n, k, ScsaVariant::kScsa1}), a, b,
                            lane_words);
          check_vlcsa_batch(VlcsaModel(VlcsaConfig{n, k, ScsaVariant::kScsa2}), a, b,
                            lane_words);
        }
        for (const int l : shape.chains) {
          check_vlsa_batch(VlsaModel(VlsaConfig{n, l}), a, b, lane_words);
        }
        if (HasFatalFailure()) return;
      }
    }
  }
}

/// Through the sharded engine: total sample counts with every tail shape
/// (count % (64 * lane_words) from "pure tail" to "one batch + 1") must
/// produce counters bit-identical to the scalar EvalPath — the same pinning
/// the service byte-identity contract rides on.
TEST_P(BackendLaneWidthTest, EngineCountersBitIdenticalToScalarPath) {
  const auto [backend, lane_words] = GetParam();
  (void)backend;
  // n = 512 batches store 64 (two's complement) or 65 (unsigned) planes.
  for (const auto& [dist, n] : {std::pair{arith::InputDistribution::kGaussianTwos, 64},
                                std::pair{arith::InputDistribution::kGaussianTwos, 512},
                                std::pair{arith::InputDistribution::kGaussianUnsigned, 512}}) {
    const auto source = arith::make_source(dist, n);
    for (const std::uint64_t samples : {1ull, 63ull, 65ull, 127ull, 255ull, 257ull}) {
      harness::RunOptions options;
      options.samples = samples;
      options.seed = 29;
      options.threads = 1;
      options.lane_words = lane_words;
      const spec::VlcsaConfig config1{n, 9, ScsaVariant::kScsa1};
      const spec::VlcsaConfig config2{n, 9, ScsaVariant::kScsa2};
      const spec::VlsaConfig vlsa_config{n, 11};
      const auto where = [&] {
        return ::testing::Message() << to_string(dist) << " n=" << n << " samples=" << samples
                                    << " W=" << lane_words;
      };
      const auto b1 = harness::run_vlcsa(config1, *source, options, harness::EvalPath::kBatched);
      const auto s1 = harness::run_vlcsa(config1, *source, options, harness::EvalPath::kScalar);
      EXPECT_EQ(b1, s1) << "VLCSA1 " << where();
      const auto b2 = harness::run_vlcsa(config2, *source, options, harness::EvalPath::kBatched);
      const auto s2 = harness::run_vlcsa(config2, *source, options, harness::EvalPath::kScalar);
      EXPECT_EQ(b2, s2) << "VLCSA2 " << where();
      const auto bv = harness::run_vlsa(vlsa_config, *source, options, harness::EvalPath::kBatched);
      const auto sv = harness::run_vlsa(vlsa_config, *source, options, harness::EvalPath::kScalar);
      EXPECT_EQ(bv, sv) << "VLSA " << where();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendByLaneWords, BackendLaneWidthTest,
    ::testing::Combine(::testing::Values(planeops::Backend::kScalar,
                                         planeops::Backend::kAvx2,
                                         planeops::Backend::kAvx512),
                       ::testing::Values(1, 2, 3, 4, 8, 12, 16)),
    [](const ::testing::TestParamInfo<std::tuple<planeops::Backend, int>>& info) {
      return std::string(planeops::to_string(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

/// The long-run family must do its job: the speculative results are wrong
/// and the detectors fire in most lanes, so the matrix above compares set
/// predicate bits, not only clear ones.
TEST(LongRunOperandsTest, SpeculationFailsAndDetectorsFireInMostLanes) {
  vlcsa::arith::BlockRng rng(7);
  std::vector<ApInt> a, b;
  for (const auto& [n, k, l] : {std::tuple{64, 6, 8}, std::tuple{512, 17, 21}}) {
    make_operands(n, 512, true, rng, a, b);
    BitSlicedBatch batch(n, 8);
    batch.load(a, b);
    ScsaBatchEvaluation scsa;
    ScsaModel(ScsaConfig{n, k}).evaluate_batch(batch, scsa);
    VlsaBatchEvaluation vlsa;
    VlsaModel(VlsaConfig{n, l}).evaluate_batch(batch, vlsa);
    const auto lanes = [](const planeops::PlaneVec& mask) {
      return planeops::popcount_sum(mask.data(), mask.size());
    };
    EXPECT_GT(lanes(scsa.spec0_wrong), 256u) << "n=" << n;
    EXPECT_GT(lanes(scsa.err0), 256u) << "n=" << n;
    EXPECT_GT(lanes(vlsa.spec_wrong), 256u) << "n=" << n;
    EXPECT_GT(lanes(vlsa.err), 256u) << "n=" << n;
  }
}

}  // namespace
}  // namespace vlcsa::spec
