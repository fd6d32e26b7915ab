// Tests for the bit-sliced batch layer: the 64x64 bit-matrix transpose, the
// ApInt <-> bit-plane conversions, the word-level Kogge-Stone prefix, and
// the OperandSource::fill_batch stream contract (a run of fill_batch calls
// must produce the same samples as the same number of next() calls and
// leave the RNG at the same block position — the foundation of the batched
// pipeline's bit-identical-counters guarantee).

#include "arith/bitslice.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>

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

class KoggeStoneTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KoggeStoneTest, LaneCarriesMatchApIntAdd) {
  const auto [width, lane_words] = GetParam();
  vlcsa::arith::BlockRng rng(6);
  std::vector<ApInt> a, b;
  for (int j = 0; j < 64 * lane_words; ++j) {
    a.push_back(ApInt::random(width, rng));
    b.push_back(ApInt::random(width, rng));
  }
  BitSlicedBatch batch(width, lane_words);
  batch.load(a, b);
  const std::size_t planes =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(lane_words);
  planeops::PlaneVec g(planes), p(planes), carry(planes), scratch;
  planeops::bulk_gp(batch.a(), batch.b(), g.data(), p.data(), planes);
  kogge_stone_carries(g.data(), p.data(), width, lane_words, carry.data(), scratch);
  for (int j = 0; j < batch.lanes(); ++j) {
    const auto exact = ApInt::add(a[static_cast<std::size_t>(j)], b[static_cast<std::size_t>(j)]);
    const ApInt& aj = a[static_cast<std::size_t>(j)];
    const ApInt& bj = b[static_cast<std::size_t>(j)];
    const int lane_word = j / kBatchLanes;
    const int lane_bit = j % kBatchLanes;
    for (int i = 0; i < width; ++i) {
      // Carry out of bit i == carry into bit i+1 == p(i+1) ^ sum(i+1); the
      // top bit's carry-out is the reported carry_out.
      const bool expected =
          i == width - 1 ? exact.carry_out
                         : (aj.bit(i + 1) ^ bj.bit(i + 1) ^ exact.sum.bit(i + 1));
      const std::uint64_t word =
          carry[static_cast<std::size_t>(i) * static_cast<std::size_t>(lane_words) +
                static_cast<std::size_t>(lane_word)];
      ASSERT_EQ((word >> lane_bit) & 1, static_cast<std::uint64_t>(expected))
          << "width " << width << " W " << lane_words << " lane " << j << " bit " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WidthsByLaneWords, KoggeStoneTest,
                         ::testing::Combine(::testing::Values(1, 2, 7, 64, 65, 130),
                                            ::testing::Values(1, 2, 4)));

// fill_batch contract: same samples, same RNG consumption as lanes() x next().
// The batch starts dirty and is filled twice, so every plane of each fill
// (the Gaussian sources' batch-level high planes included) must overwrite
// what was there.
class FillBatchTest
    : public ::testing::TestWithParam<std::tuple<InputDistribution, int, int>> {};

TEST_P(FillBatchTest, MatchesScalarStreamAndRngState) {
  const auto [dist, width, lane_words] = GetParam();
  const auto proto = make_source(dist, width);

  vlcsa::arith::BlockRng rng_batch(99), rng_scalar(99);
  BitSlicedBatch batch(width, lane_words);
  const std::size_t plane_words =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(lane_words);
  std::fill_n(batch.a(), plane_words, ~std::uint64_t{0});
  std::fill_n(batch.b(), plane_words, 0x5555555555555555ULL);
  const auto batch_source = proto->clone();
  const auto scalar_source = proto->clone();
  for (int fill = 0; fill < 2; ++fill) {
    batch_source->fill_batch(rng_batch, batch);
    for (int j = 0; j < batch.lanes(); ++j) {
      const auto [a, b] = scalar_source->next(rng_scalar);
      const auto [la, lb] = batch.lane(j);
      ASSERT_EQ(la, a) << proto->name() << " width " << width << " fill " << fill << " lane "
                       << j;
      ASSERT_EQ(lb, b) << proto->name() << " width " << width << " fill " << fill << " lane "
                       << j;
    }
  }
  // Identical consumption: the next raw draw must agree.
  EXPECT_EQ(rng_batch(), rng_scalar())
      << proto->name() << " width " << width << " W " << lane_words;
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
