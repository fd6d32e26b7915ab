// Tests for the bit-sliced batch layer: the 64x64 bit-matrix transpose, the
// ApInt <-> bit-plane conversions, the window and run sweeps checked against
// ApInt::add carries, and the OperandSource::fill_batch stream
// contract (a run of fill_batch calls must produce the same samples as the
// same number of next() calls and leave the RNG at the same block position —
// the foundation of the batched pipeline's bit-identical-counters
// guarantee).

#include "arith/bitslice.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arith/apint.hpp"
#include "arith/distributions.hpp"
#include "arith/planeops.hpp"

namespace vlcsa::arith {
namespace {

TEST(Transpose64x64Test, SingleBitLandsTransposed) {
  for (const auto& [r, c] : {std::pair{0, 0}, {0, 63}, {63, 0}, {3, 5}, {31, 32}, {40, 17}}) {
    std::uint64_t block[64] = {};
    block[r] = std::uint64_t{1} << c;
    transpose_64x64(block);
    for (int row = 0; row < 64; ++row) {
      EXPECT_EQ(block[row], row == c ? std::uint64_t{1} << r : 0)
          << "bit (" << r << "," << c << "), row " << row;
    }
  }
}

TEST(Transpose64x64Test, DoubleTransposeIsIdentity) {
  vlcsa::arith::BlockRng rng(1);
  std::uint64_t block[64], orig[64];
  for (int i = 0; i < 64; ++i) orig[i] = block[i] = rng();
  transpose_64x64(block);
  transpose_64x64(block);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(block[i], orig[i]);
}

TEST(Transpose64x64Test, MatchesNaiveBitGather) {
  vlcsa::arith::BlockRng rng(2);
  std::uint64_t block[64];
  for (auto& row : block) row = rng();
  std::uint64_t expected[64] = {};
  for (int r = 0; r < 64; ++r) {
    for (int c = 0; c < 64; ++c) {
      expected[c] |= ((block[r] >> c) & 1) << r;
    }
  }
  transpose_64x64(block);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(block[i], expected[i]);
}

class TransposeToPlanesTest : public ::testing::TestWithParam<int> {};

TEST_P(TransposeToPlanesTest, PlanesMatchSampleBits) {
  const int width = GetParam();
  vlcsa::arith::BlockRng rng(3);
  std::vector<ApInt> samples;
  for (int j = 0; j < 64; ++j) samples.push_back(ApInt::random(width, rng));
  std::vector<std::uint64_t> planes(static_cast<std::size_t>(width));
  transpose_to_planes(samples.data(), 64, width, planes.data());
  for (int bit = 0; bit < width; ++bit) {
    for (int j = 0; j < 64; ++j) {
      ASSERT_EQ((planes[static_cast<std::size_t>(bit)] >> j) & 1,
                static_cast<std::uint64_t>(samples[static_cast<std::size_t>(j)].bit(bit)))
          << "bit " << bit << " lane " << j;
    }
  }
}

TEST_P(TransposeToPlanesTest, ShortCountZeroPadsHighLanes) {
  const int width = GetParam();
  vlcsa::arith::BlockRng rng(4);
  std::vector<ApInt> samples;
  for (int j = 0; j < 10; ++j) samples.push_back(ApInt::random(width, rng));
  std::vector<std::uint64_t> planes(static_cast<std::size_t>(width), ~std::uint64_t{0});
  transpose_to_planes(samples.data(), 10, width, planes.data());
  for (int bit = 0; bit < width; ++bit) {
    EXPECT_EQ(planes[static_cast<std::size_t>(bit)] >> 10, 0u) << "bit " << bit;
  }
  EXPECT_EQ(plane_lane(planes.data(), width, 3), samples[3]);
}

INSTANTIATE_TEST_SUITE_P(Widths, TransposeToPlanesTest,
                         ::testing::Values(1, 13, 63, 64, 65, 128, 130));

TEST(BitSlicedBatchTest, LoadLaneRoundtrip) {
  const int width = 100;
  for (const int lane_words : {1, 2, 4}) {
    vlcsa::arith::BlockRng rng(5);
    std::vector<ApInt> a, b;
    for (int j = 0; j < 64 * lane_words; ++j) {
      a.push_back(ApInt::random(width, rng));
      b.push_back(ApInt::random(width, rng));
    }
    BitSlicedBatch batch(width, lane_words);
    ASSERT_EQ(batch.lanes(), 64 * lane_words);
    batch.load(a, b);
    for (int j = 0; j < batch.lanes(); ++j) {
      const auto [la, lb] = batch.lane(j);
      ASSERT_EQ(la, a[static_cast<std::size_t>(j)]) << "W " << lane_words << " lane " << j;
      ASSERT_EQ(lb, b[static_cast<std::size_t>(j)]) << "W " << lane_words << " lane " << j;
    }
  }
}

// The tail rule: planes >= stored_planes() repeat plane stored_planes() - 1,
// whatever their words hold.  lane() sign-extends from the last stored
// plane, load() stores every plane again, and the count stays in [1, width].
TEST(BitSlicedBatchTest, LaneReadsThroughTheStoredPlaneTail) {
  const int width = 130;
  BitSlicedBatch batch(width, 2);
  EXPECT_EQ(batch.stored_planes(), width);
  vlcsa::arith::BlockRng rng(6);
  std::vector<ApInt> a, b;
  for (int j = 0; j < batch.lanes(); ++j) {
    a.push_back(ApInt::random(width, rng));
    b.push_back(ApInt::random(width, rng));
  }
  for (const int stored : {1, 63, 64, 65, width}) {
    batch.load(a, b);
    EXPECT_EQ(batch.stored_planes(), width);
    batch.set_stored_planes(stored);
    const std::size_t tail = static_cast<std::size_t>(stored) * 2;
    std::fill(batch.a() + tail, batch.a() + width * 2, 0x0123456789ABCDEFULL);
    for (int j = 0; j < batch.lanes(); ++j) {
      const std::size_t i = static_cast<std::size_t>(j);
      const auto [la, lb] = batch.lane(j);
      ASSERT_EQ(la, a[i].zext(stored).sext(width)) << "stored " << stored << " lane " << j;
      ASSERT_EQ(lb, b[i].zext(stored).sext(width)) << "stored " << stored << " lane " << j;
    }
  }
  EXPECT_THROW(batch.set_stored_planes(0), std::invalid_argument);
  EXPECT_THROW(batch.set_stored_planes(width + 1), std::invalid_argument);
}

TEST(BitSlicedBatchTest, LaneAccessorRejectsOutOfRangeLanes) {
  BitSlicedBatch batch(8, 2);
  EXPECT_THROW((void)batch.lane(-1), std::invalid_argument);
  EXPECT_THROW((void)batch.lane(128), std::invalid_argument);
  EXPECT_NO_THROW((void)batch.lane(127));
}

TEST(BitSlicedBatchTest, PlaneStorageIsCacheLineAligned) {
  BitSlicedBatch batch(130, 4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(batch.a()) % planeops::kPlaneAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(batch.b()) % planeops::kPlaneAlignment, 0u);
}

TEST(BitSlicedBatchTest, PartialLoadZeroPadsHighLanes) {
  const int width = 40;
  vlcsa::arith::BlockRng rng(8);
  std::vector<ApInt> a, b;
  for (int j = 0; j < 70; ++j) {  // straddles the first lane-word boundary
    a.push_back(ApInt::random(width, rng));
    b.push_back(ApInt::random(width, rng));
  }
  BitSlicedBatch batch(width, 2);
  batch.load(a, b);
  for (int j = 0; j < 70; ++j) {
    ASSERT_EQ(batch.lane(j).first, a[static_cast<std::size_t>(j)]) << "lane " << j;
  }
  for (int j = 70; j < batch.lanes(); ++j) {
    ASSERT_EQ(batch.lane(j).first, ApInt(width)) << "lane " << j;
    ASSERT_EQ(batch.lane(j).second, ApInt(width)) << "lane " << j;
  }
  EXPECT_THROW(batch.load(std::vector<ApInt>(129, ApInt(width)),
                          std::vector<ApInt>(129, ApInt(width))),
               std::invalid_argument);
}

TEST(BitSlicedBatchTest, LoadRejectsMismatchedCounts) {
  BitSlicedBatch batch(8);
  std::vector<ApInt> a(3, ApInt(8)), b(2, ApInt(8));
  EXPECT_THROW(batch.load(a, b), std::invalid_argument);
}

// The structured sweeps against ApInt::add: operands loaded through
// BitSlicedBatch, expected lane masks built from each lane's exact carries.
// Odd lanes take b = ~a with sparse flips above a generate at bit 0, so long
// all-propagate runs with a carry entering them are common.
class SweepApIntTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void SetUp() override {
    const auto [width, lane_words] = GetParam();
    vlcsa::arith::BlockRng rng(6);
    for (int j = 0; j < 64 * lane_words; ++j) {
      ApInt aj = ApInt::random(width, rng);
      ApInt bj = ApInt::random(width, rng);
      if (j % 2 == 1) {
        ApInt flips = ApInt::random(width, rng);
        for (int r = 0; r < 4; ++r) flips = flips & ApInt::random(width, rng);
        bj = ~aj ^ flips;
        aj.set_bit(0, true);
        bj.set_bit(0, true);
      }
      // carry_out[i] = carry out of bit i == carry into bit i+1 ==
      // p(i+1) ^ sum(i+1); the top bit's carry-out is the reported one.
      const auto exact = ApInt::add(aj, bj);
      std::vector<bool> carry(static_cast<std::size_t>(width)), p(carry.size());
      for (int i = 0; i < width; ++i) {
        p[static_cast<std::size_t>(i)] = aj.bit(i) != bj.bit(i);
        carry[static_cast<std::size_t>(i)] =
            i == width - 1 ? exact.carry_out
                           : (aj.bit(i + 1) ^ bj.bit(i + 1) ^ exact.sum.bit(i + 1));
      }
      carry_out.push_back(std::move(carry));
      propagate.push_back(std::move(p));
      a.push_back(std::move(aj));
      b.push_back(std::move(bj));
    }
    batch = BitSlicedBatch(width, lane_words);
    batch.load(a, b);
  }

  static bool lane_bit(const planeops::PlaneVec& mask, int j) {
    return ((mask[static_cast<std::size_t>(j / kBatchLanes)] >> (j % kBatchLanes)) & 1) != 0;
  }

  std::vector<ApInt> a, b;
  std::vector<std::vector<bool>> carry_out, propagate;
  BitSlicedBatch batch{1};
};

TEST_P(SweepApIntTest, RunSweepMatchesApIntAddCarries) {
  const auto [width, lane_words] = GetParam();
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  int long_run_lanes = 0;
  for (const int chain : {1, 2, 5, 21, width - 1, width}) {
    if (chain < 1 || chain > width) continue;
    planeops::PlaneVec spec_wrong(lw), err(lw), scratch(static_cast<std::size_t>(chain) * lw);
    planeops::run_sweep(batch.a(), batch.b(), width, batch.stored_planes(), lane_words, chain,
                        spec_wrong.data(), err.data(), scratch.data());
    for (int j = 0; j < batch.lanes(); ++j) {
      const auto& p = propagate[static_cast<std::size_t>(j)];
      const auto& c = carry_out[static_cast<std::size_t>(j)];
      bool want_err = false, want_spec = false;
      int run = 0;  // propagate bits ending at bit i
      for (int i = 0; i < width; ++i) {
        run = p[static_cast<std::size_t>(i)] ? run + 1 : 0;
        if (run >= chain) {
          want_err = true;
          want_spec = want_spec || c[static_cast<std::size_t>(i)];
        }
      }
      if (want_spec && chain == std::min(width, 21)) ++long_run_lanes;
      ASSERT_EQ(lane_bit(err, j), want_err)
          << "width " << width << " W " << lane_words << " l " << chain << " lane " << j;
      ASSERT_EQ(lane_bit(spec_wrong, j), want_spec)
          << "width " << width << " W " << lane_words << " l " << chain << " lane " << j;
    }
  }
  if (width >= 64) {
    EXPECT_GT(long_run_lanes, batch.lanes() / 4) << "operands lack long runs";
  }
}

TEST_P(SweepApIntTest, WindowSweepMatchesApIntAddCarries) {
  const auto [width, lane_words] = GetParam();
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  for (const int k : {1, 2, 5, 17, width}) {
    if (k > width) continue;
    const int first = width - k * ((width - 1) / k);  // remainder first, as in WindowLayout
    planeops::PlaneVec spec0(lw), spec1(lw), err0(lw), err1(lw);
    planeops::window_sweep(batch.a(), batch.b(), width, batch.stored_planes(), lane_words,
                           first, k, spec0.data(), spec1.data(), err0.data(), err1.data());
    for (int j = 0; j < batch.lanes(); ++j) {
      const auto& p = propagate[static_cast<std::size_t>(j)];
      const auto& c = carry_out[static_cast<std::size_t>(j)];
      // Window i: G = its carry-out with carry-in 0, which is the exact
      // carry-out unless the whole window propagates (then G = 0).
      std::vector<bool> g, pw, cin;
      for (int pos = 0, size = first; pos < width; pos += size, size = k) {
        bool all_p = true;
        for (int i = pos; i < pos + size; ++i) all_p = all_p && p[static_cast<std::size_t>(i)];
        pw.push_back(all_p);
        g.push_back(!all_p && c[static_cast<std::size_t>(pos + size - 1)]);
        cin.push_back(pos > 0 && c[static_cast<std::size_t>(pos - 1)]);
      }
      bool want0 = false, want1 = false, want_e0 = false, want_e1 = false;
      for (std::size_t i = 1; i < g.size(); ++i) {
        const bool sel1 = i == 1 ? g[0] : (g[i - 1] || pw[i - 1]);
        want0 = want0 || g[i - 1] != cin[i];
        want1 = want1 || sel1 != cin[i];
        want_e0 = want_e0 || (g[i - 1] && pw[i]);
        want_e1 = want_e1 || (i >= 2 && pw[i - 1] && !pw[i]);
      }
      const auto where = [&] {
        return ::testing::Message() << "width " << width << " W " << lane_words << " k " << k
                                    << " lane " << j;
      };
      ASSERT_EQ(lane_bit(spec0, j), want0) << where();
      ASSERT_EQ(lane_bit(spec1, j), want1) << where();
      ASSERT_EQ(lane_bit(err0, j), want_e0) << where();
      ASSERT_EQ(lane_bit(err1, j), want_e1) << where();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WidthsByLaneWords, SweepApIntTest,
                         ::testing::Combine(::testing::Values(1, 2, 7, 64, 65, 130),
                                            ::testing::Values(1, 2, 4)));

// fill_batch contract: same samples, same RNG consumption as lanes() x next().
// The batch starts dirty and is filled twice, so every stored plane of each
// fill must overwrite what was there, and the lanes read through the
// Gaussian tail must ignore the dirty planes above it.  The next() sequence
// is drawn once on the scalar backend, the oracle, and the fills run on
// every available backend against it.
void expect_fill_matches_next(const OperandSource& proto, int lane_words) {
  // Restores the entry backend on every exit, failed assertions included.
  struct RestoreBackend {
    planeops::Backend prev = planeops::active_backend();
    ~RestoreBackend() { planeops::set_backend(prev); }
  } restore;
  constexpr int kFills = 2;
  const int width = proto.width();

  ASSERT_TRUE(planeops::set_backend(planeops::Backend::kScalar));
  vlcsa::arith::BlockRng rng_scalar(99);
  const auto scalar_source = proto.clone();
  std::vector<std::pair<ApInt, ApInt>> expected;
  for (int j = 0; j < kFills * kBatchLanes * lane_words; ++j) {
    expected.push_back(scalar_source->next(rng_scalar));
  }
  const std::uint64_t next_draw = rng_scalar();

  const std::size_t plane_words =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(lane_words);
  // Gaussian samples carry at most 64 bits: the fill stores the sign plane
  // 63 (two's complement) or a zero plane 64 (unsigned) last.
  const std::string name = proto.name();
  const int stored = name == "gaussian-twos-complement" ? std::min(width, 64)
                     : name == "gaussian-unsigned"      ? std::min(width, 65)
                                                        : width;
  for (const planeops::Backend backend :
       {planeops::Backend::kScalar, planeops::Backend::kAvx2, planeops::Backend::kAvx512,
        planeops::Backend::kNeon}) {
    if (!planeops::set_backend(backend)) continue;
    const auto where = [&] {
      return std::string(to_string(backend)) + " " + proto.name() + " width " +
             std::to_string(width) + " W " + std::to_string(lane_words);
    };
    vlcsa::arith::BlockRng rng_batch(99);
    BitSlicedBatch batch(width, lane_words);
    std::fill_n(batch.a(), plane_words, ~std::uint64_t{0});
    std::fill_n(batch.b(), plane_words, 0x5555555555555555ULL);
    const auto batch_source = proto.clone();
    for (int fill = 0; fill < kFills; ++fill) {
      batch_source->fill_batch(rng_batch, batch);
      ASSERT_EQ(batch.stored_planes(), stored) << where();
      for (int j = 0; j < batch.lanes(); ++j) {
        const auto& [a, b] = expected[static_cast<std::size_t>(fill * batch.lanes() + j)];
        const auto [la, lb] = batch.lane(j);
        ASSERT_EQ(la, a) << where() << " fill " << fill << " lane " << j;
        ASSERT_EQ(lb, b) << where() << " fill " << fill << " lane " << j;
      }
    }
    // Identical consumption: the next raw draw must agree.
    EXPECT_EQ(rng_batch(), next_draw) << where();
  }
}

class FillBatchTest
    : public ::testing::TestWithParam<std::tuple<InputDistribution, int, int>> {};

TEST_P(FillBatchTest, MatchesScalarStreamAndRngState) {
  const auto [dist, width, lane_words] = GetParam();
  expect_fill_matches_next(*make_source(dist, width), lane_words);
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsByWidthByLaneWords, FillBatchTest,
    ::testing::Combine(::testing::Values(InputDistribution::kUniformUnsigned,
                                         InputDistribution::kUniformTwos,
                                         InputDistribution::kGaussianUnsigned,
                                         InputDistribution::kGaussianTwos),
                       ::testing::Values(12, 32, 64, 128),
                       ::testing::Values(1, 2, 4, 8)));

// The Gaussian fill around the limb-0 boundary (63/65: one plane short of
// and past it), at the benchmark width, and at the widest lane group.
INSTANTIATE_TEST_SUITE_P(
    GaussianByWidthByLaneWords, FillBatchTest,
    ::testing::Combine(::testing::Values(InputDistribution::kGaussianUnsigned,
                                         InputDistribution::kGaussianTwos),
                       ::testing::Values(63, 65, 512), ::testing::Values(1, 8, 16)));

// The Gaussian fill with params where the affine step rounds (3.5, 1000.3),
// lands on ties (0.5, 0.5) and saturates (sigma = 2^62, the second one
// centred on the negative end), at widths 1 and 31 besides the limb-0
// boundary and the benchmark width, with a lane width that leaves columns
// over for narrower SIMD bodies.  The last parameter indexes kFillParams.
const GaussianParams kFillParams[] = {
    {3.5, 1000.3}, {0.5, 0.5}, {0.0, 0x1p62}, {-0x1p62, 0x1p62}};

class GaussianParamsFillBatchTest
    : public ::testing::TestWithParam<std::tuple<InputDistribution, int, int, int>> {};

TEST_P(GaussianParamsFillBatchTest, MatchesScalarStreamAndRngState) {
  const auto [dist, width, lane_words, params] = GetParam();
  expect_fill_matches_next(*make_source(dist, width, kFillParams[params]), lane_words);
}

INSTANTIATE_TEST_SUITE_P(
    ParamsByWidthByLaneWords, GaussianParamsFillBatchTest,
    ::testing::Combine(::testing::Values(InputDistribution::kGaussianUnsigned,
                                         InputDistribution::kGaussianTwos),
                       ::testing::Values(1, 31, 64, 65, 512), ::testing::Values(1, 3, 8),
                       ::testing::Range(0, 4)));

// The uniform source's plane-order stream at every lane width: whole runs
// of batches reproduce the next() sequence sample for sample, across
// canonical-block boundaries (3072 samples, six blocks, per case).
class UniformStreamTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UniformStreamTest, BatchRunMatchesNextSequence) {
  const auto [width, lane_words] = GetParam();
  UniformUnsignedSource batch_source(width), scalar_source(width);
  BlockRng rng_batch(17), rng_scalar(17);
  BitSlicedBatch batch(width, lane_words);
  const int batches = 3072 / batch.lanes();
  for (int k = 0; k < batches; ++k) {
    batch_source.fill_batch(rng_batch, batch);
    for (int j = 0; j < batch.lanes(); ++j) {
      const auto [a, b] = scalar_source.next(rng_scalar);
      const auto [la, lb] = batch.lane(j);
      ASSERT_EQ(la, a) << "width " << width << " W " << lane_words << " batch " << k
                       << " lane " << j;
      ASSERT_EQ(lb, b) << "width " << width << " W " << lane_words << " batch " << k
                       << " lane " << j;
    }
  }
  EXPECT_EQ(rng_batch.words_drawn(), rng_scalar.words_drawn());
  EXPECT_EQ(rng_batch(), rng_scalar());
}

INSTANTIATE_TEST_SUITE_P(WidthsByLaneWords, UniformStreamTest,
                         ::testing::Combine(::testing::Values(1, 31, 64, 65, 100, 512),
                                            ::testing::Values(1, 2, 4, 8, 16)));

// The discard rule: after k next() calls, fill_batch starts at the next
// 64-sample column boundary, i.e. at stream sample ceil(k / 64) * 64.
TEST(UniformStreamTest, FillBatchAfterPartialColumnDiscardsItsRest) {
  constexpr int kWidth = 65;
  for (const int lane_words : {1, 4, 8}) {
    for (const int k : {0, 1, 63, 64, 65, 200, 511, 512, 513}) {
      UniformUnsignedSource mixed(kWidth), reference(kWidth);
      BlockRng rng_mixed(23), rng_reference(23);
      std::vector<std::pair<ApInt, ApInt>> stream;
      const int start = (k + kBatchLanes - 1) / kBatchLanes * kBatchLanes;
      for (int i = 0; i < start + 64 * lane_words; ++i) {
        stream.push_back(reference.next(rng_reference));
      }
      for (int i = 0; i < k; ++i) {
        ASSERT_EQ(mixed.next(rng_mixed), stream[static_cast<std::size_t>(i)]) << "k " << k;
      }
      BitSlicedBatch batch(kWidth, lane_words);
      mixed.fill_batch(rng_mixed, batch);
      for (int j = 0; j < batch.lanes(); ++j) {
        ASSERT_EQ(batch.lane(j), stream[static_cast<std::size_t>(start + j)])
            << "W " << lane_words << " k " << k << " lane " << j;
      }
      // next() resumes right after the batch.
      ASSERT_EQ(mixed.next(rng_mixed), reference.next(rng_reference))
          << "W " << lane_words << " k " << k;
    }
  }
}

}  // namespace
}  // namespace vlcsa::arith
