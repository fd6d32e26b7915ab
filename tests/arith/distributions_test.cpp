#include "arith/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "arith/bitslice.hpp"

namespace vlcsa::arith {
namespace {

TEST(Distributions, FactoryProducesAllKinds) {
  for (const auto dist :
       {InputDistribution::kUniformUnsigned, InputDistribution::kUniformTwos,
        InputDistribution::kGaussianUnsigned, InputDistribution::kGaussianTwos}) {
    const auto source = make_source(dist, 64);
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(source->width(), 64);
    EXPECT_EQ(source->name(), to_string(dist));
  }
}

TEST(Distributions, SameSeedSameStream) {
  for (const auto dist :
       {InputDistribution::kUniformUnsigned, InputDistribution::kUniformTwos,
        InputDistribution::kGaussianUnsigned, InputDistribution::kGaussianTwos}) {
    const auto s1 = make_source(dist, 64);
    const auto s2 = make_source(dist, 64);
    vlcsa::arith::BlockRng r1(99), r2(99);
    for (int i = 0; i < 20; ++i) {
      const auto [a1, b1] = s1->next(r1);
      const auto [a2, b2] = s2->next(r2);
      EXPECT_EQ(a1, a2);
      EXPECT_EQ(b1, b2);
    }
  }
}

TEST(Distributions, OperandsHaveRequestedWidth) {
  const auto source = make_source(InputDistribution::kGaussianTwos, 512);
  vlcsa::arith::BlockRng rng(3);
  const auto [a, b] = source->next(rng);
  EXPECT_EQ(a.width(), 512);
  EXPECT_EQ(b.width(), 512);
}

TEST(Distributions, UniformTwosCoversBothSigns) {
  UniformTwosSource source(64);
  vlcsa::arith::BlockRng rng(5);
  int negatives = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto [a, b] = source.next(rng);
    if (a.sign_bit()) ++negatives;
    if (b.sign_bit()) ++negatives;
  }
  // Roughly half of 2n operands should be negative.
  EXPECT_GT(negatives, n * 2 * 2 / 10);
  EXPECT_LT(negatives, n * 2 * 8 / 10);
}

TEST(Distributions, GaussianTwosIsSignExtendedSmallMagnitude) {
  // sigma = 2^32 on a 512-bit datapath: operands must be sign extensions of
  // ~33-bit values, i.e. bits far above 48 all equal the sign bit.
  GaussianTwosSource source(512, GaussianParams{0.0, std::ldexp(1.0, 32)});
  vlcsa::arith::BlockRng rng(7);
  for (int i = 0; i < 100; ++i) {
    const auto [a, b] = source.next(rng);
    for (const auto& v : {a, b}) {
      const bool sign = v.sign_bit();
      for (int bit = 64; bit < 512; bit += 37) {
        EXPECT_EQ(v.bit(bit), sign);
      }
    }
  }
}

TEST(Distributions, GaussianUnsignedNeverSetsFarHighBits) {
  GaussianUnsignedSource source(512, GaussianParams{0.0, std::ldexp(1.0, 32)});
  vlcsa::arith::BlockRng rng(11);
  for (int i = 0; i < 100; ++i) {
    const auto [a, b] = source.next(rng);
    EXPECT_LT(a.highest_set_bit(), 48);
    EXPECT_LT(b.highest_set_bit(), 48);
  }
}

TEST(Distributions, EncodeSignedSampleClampsSmallWidths) {
  EXPECT_EQ(encode_signed_sample(8, 1000.0).to_i64(), 127);
  EXPECT_EQ(encode_signed_sample(8, -1000.0).to_i64(), -128);
  EXPECT_EQ(encode_signed_sample(8, 3.4).to_i64(), 3);
  EXPECT_EQ(encode_signed_sample(8, -2.6).to_i64(), -3);
}

TEST(Distributions, EncodeUnsignedSampleTakesMagnitude) {
  EXPECT_EQ(encode_unsigned_sample(8, -5.0).to_u64(), 5u);
  EXPECT_EQ(encode_unsigned_sample(8, 300.0).to_u64(), 255u);
  EXPECT_EQ(encode_unsigned_sample(8, 0.4).to_u64(), 0u);
}

// Reference encodes: std::nearbyint, then the clamp decided against the
// exact power-of-two bound 2^e and applied in integer arithmetic
// (e = min(width, 64) - 1 for two's complement, min(width, 64) unsigned).
ApInt reference_signed(int width, double x) {
  const double r = std::nearbyint(x);
  const int e = std::min(width, 64) - 1;
  const double bound = std::ldexp(1.0, e);
  const auto top = static_cast<std::int64_t>((std::uint64_t{1} << e) - 1);
  if (r >= bound) return ApInt::from_i64(width, top);
  if (r <= -bound) return ApInt::from_i64(width, -top - 1);
  return ApInt::from_i64(width, static_cast<std::int64_t>(r));
}

ApInt reference_unsigned(int width, double x) {
  const double r = std::fabs(std::nearbyint(x));
  const int e = std::min(width, 64);
  if (r >= std::ldexp(1.0, e)) {
    return ApInt::from_u64(width, e == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << e) - 1);
  }
  return ApInt::from_u64(width, static_cast<std::uint64_t>(r));
}

TEST(Distributions, EncodersRoundLikeNearbyintAndClampAtEveryWidth) {
  const double p51 = std::ldexp(1.0, 51);
  const double p53 = std::ldexp(1.0, 53);
  std::vector<double> values = {0.0,      -0.0,      0.4,      0.5,      1.5,     2.5,
                                3.5,      0.49999999999999994,   1e6 + 0.5,         1e30,
                                p51 - 1,  p51 - 0.5, p51,      p51 + 0.5, p51 + 1, p53 - 1,
                                p53,      p53 + 2,   std::ldexp(1.0, 62) - 512.0,
                                std::ldexp(1.0, 63), std::ldexp(1.0, 64), INFINITY};
  const std::size_t positives = values.size();
  for (std::size_t i = 0; i < positives; ++i) values.push_back(-values[i]);
  for (const int width : {1, 2, 8, 31, 53, 54, 63, 64, 65, 128}) {
    for (const double x : values) {
      EXPECT_EQ(encode_signed_sample(width, x), reference_signed(width, x))
          << "width " << width << " x " << x;
      EXPECT_EQ(encode_unsigned_sample(width, x), reference_unsigned(width, x))
          << "width " << width << " x " << x;
    }
  }
}

TEST(Distributions, EncodersSaturateInsteadOfOverflowingTheCast) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(encode_signed_sample(64, 1e30).to_i64(), kMax);
  EXPECT_EQ(encode_signed_sample(64, -1e30).to_i64(), kMin);
  EXPECT_EQ(encode_signed_sample(128, 1e30), ApInt::from_i64(128, kMax));
  EXPECT_EQ(encode_signed_sample(128, -1e30), ApInt::from_i64(128, kMin));
  EXPECT_EQ(encode_unsigned_sample(64, 1e30).to_u64(), ~std::uint64_t{0});
  EXPECT_EQ(encode_unsigned_sample(128, -1e30), ApInt::from_u64(128, ~std::uint64_t{0}));
  // Width 63: the top of the range, 2^62 - 1, is not a double; it must not
  // round up to 2^62 and wrap to the most negative value.
  EXPECT_EQ(encode_signed_sample(63, 1e30).to_i64(), (std::int64_t{1} << 62) - 1);
  EXPECT_EQ(encode_signed_sample(63, -1e30).to_i64(), -(std::int64_t{1} << 62));
  // NaN encodes the bottom of the signed range and the top of the unsigned.
  EXPECT_EQ(encode_signed_sample(8, NAN).to_i64(), -128);
  EXPECT_EQ(encode_signed_sample(64, NAN).to_i64(), kMin);
  EXPECT_EQ(encode_unsigned_sample(8, NAN).to_u64(), 255u);
  EXPECT_EQ(encode_unsigned_sample(64, NAN).to_u64(), ~std::uint64_t{0});
}

TEST(Distributions, GaussianTwosSignBalance) {
  GaussianTwosSource source(64, GaussianParams{0.0, std::ldexp(1.0, 20)});
  vlcsa::arith::BlockRng rng(13);
  int negatives = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto [a, b] = source.next(rng);
    if (a.sign_bit()) ++negatives;
    if (b.sign_bit()) ++negatives;
  }
  EXPECT_GT(negatives, n * 2 * 3 / 10);
  EXPECT_LT(negatives, n * 2 * 7 / 10);
}

// ---- UniformUnsignedSource plane-order stream (uniform-rng-v3) -----------

TEST(UniformUnsignedStream, ConsumesTwoWordsPerBitPer64Samples) {
  for (const int width : {1, 31, 64, 100, 512}) {
    const std::uint64_t per_column = 2 * static_cast<std::uint64_t>(width);
    for (const int lane_words : {1, 2, 4, 8, 16}) {
      UniformUnsignedSource source(width);
      BlockRng rng(5);
      BitSlicedBatch batch(width, lane_words);
      for (int samples = 0; samples < 1024; samples += batch.lanes()) {
        source.fill_batch(rng, batch);
      }
      EXPECT_EQ(rng.words_drawn(), 16 * per_column) << "width " << width << " W " << lane_words;
    }
    // next() draws whole canonical blocks (8 columns) as it needs them.
    UniformUnsignedSource source(width);
    BlockRng rng(5);
    (void)source.next(rng);
    EXPECT_EQ(rng.words_drawn(), 8 * per_column) << "width " << width;
    for (int i = 1; i < 512; ++i) (void)source.next(rng);
    EXPECT_EQ(rng.words_drawn(), 8 * per_column) << "width " << width;
    (void)source.next(rng);
    EXPECT_EQ(rng.words_drawn(), 16 * per_column) << "width " << width;
  }
}

TEST(UniformUnsignedStream, CloneDropsBufferedState) {
  constexpr int kWidth = 100;
  UniformUnsignedSource used(kWidth);
  BlockRng warm(3);
  for (int i = 0; i < 70; ++i) (void)used.next(warm);  // a block and a partial column
  const auto clone = used.clone();
  UniformUnsignedSource fresh(kWidth);
  BlockRng rng_clone(4), rng_fresh(4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(clone->next(rng_clone), fresh.next(rng_fresh)) << "sample " << i;
  }
  // The same holds for a clone taken with a partly consumed block and then
  // filled at a non-canonical width.
  BitSlicedBatch partial(kWidth, 2);
  used.fill_batch(warm, partial);
  const auto batch_clone = used.clone();
  BlockRng rng_a(6), rng_b(6);
  BitSlicedBatch from_clone(kWidth, 4), from_fresh(kWidth, 4);
  batch_clone->fill_batch(rng_a, from_clone);
  UniformUnsignedSource(kWidth).fill_batch(rng_b, from_fresh);
  EXPECT_TRUE(std::equal(from_clone.a(), from_clone.a() + kWidth * 4, from_fresh.a()));
  EXPECT_TRUE(std::equal(from_clone.b(), from_clone.b() + kWidth * 4, from_fresh.b()));
}

// Every a and b bit-plane is filled, and with fresh bits: the ones-fraction
// of each plane, and the agreement fraction of each plane with its
// neighbour and with the other operand's plane, all lie within 5 sigma of
// 1/2.  An unfilled plane (batch zeroed before every fill) or a plane
// duplicated from another fails the bound.
TEST(UniformUnsignedStream, EveryPlaneIsFilledWithFreshUniformBits) {
  for (const int width : {1, 65, 512}) {
    for (const int lane_words : {4, 8, 16}) {
      UniformUnsignedSource source(width);
      BlockRng rng(11);
      BitSlicedBatch batch(width, lane_words);
      const std::size_t words = static_cast<std::size_t>(width) * lane_words;
      const int batches = 8192 / batch.lanes();
      std::vector<std::uint64_t> ones(2 * static_cast<std::size_t>(width));
      std::vector<std::uint64_t> differs(2 * static_cast<std::size_t>(width));
      const auto popcount = [&](const std::uint64_t* x, const std::uint64_t* y) {
        std::uint64_t count = 0;
        for (int w = 0; w < lane_words; ++w) {
          count += static_cast<std::uint64_t>(std::popcount(x[w] ^ (y ? y[w] : 0)));
        }
        return count;
      };
      for (int k = 0; k < batches; ++k) {
        std::fill(batch.a(), batch.a() + words, 0);
        std::fill(batch.b(), batch.b() + words, 0);
        source.fill_batch(rng, batch);
        for (int bit = 0; bit < width; ++bit) {
          const std::uint64_t* a = batch.a() + static_cast<std::size_t>(bit) * lane_words;
          const std::uint64_t* b = batch.b() + static_cast<std::size_t>(bit) * lane_words;
          const std::size_t i = static_cast<std::size_t>(bit);
          ones[2 * i] += popcount(a, nullptr);
          ones[2 * i + 1] += popcount(b, nullptr);
          differs[2 * i] += popcount(a, b);
          // Neighbouring plane (wrapping to bit 0 on the top plane).
          differs[2 * i + 1] +=
              popcount(a, batch.a() + static_cast<std::size_t>((bit + 1) % width) * lane_words);
        }
      }
      const double trials = 8192.0;
      const double bound = 5.0 * std::sqrt(trials * 0.25);
      for (std::size_t i = 0; i < ones.size(); ++i) {
        EXPECT_LE(std::fabs(static_cast<double>(ones[i]) - trials / 2), bound)
            << "width " << width << " W " << lane_words << " plane " << i / 2
            << (i % 2 == 0 ? " (a)" : " (b)");
        if (width == 1 && i % 2 == 1) continue;  // a single plane is its own neighbour
        EXPECT_LE(std::fabs(static_cast<double>(differs[i]) - trials / 2), bound)
            << "width " << width << " W " << lane_words << " plane " << i / 2
            << (i % 2 == 0 ? " vs b" : " vs next a plane");
      }
    }
  }
}

TEST(Distributions, ToStringIsStable) {
  EXPECT_STREQ(to_string(InputDistribution::kUniformUnsigned).c_str(), "uniform-unsigned");
  EXPECT_STREQ(to_string(InputDistribution::kGaussianTwos).c_str(),
               "gaussian-twos-complement");
}

TEST(Distributions, ParseDistributionRoundTripsEveryValue) {
  // Exhaustive over the enum: parse must be the exact inverse of to_string.
  for (const auto dist :
       {InputDistribution::kUniformUnsigned, InputDistribution::kUniformTwos,
        InputDistribution::kGaussianUnsigned, InputDistribution::kGaussianTwos}) {
    InputDistribution parsed = InputDistribution::kUniformUnsigned;
    ASSERT_TRUE(parse_distribution(to_string(dist), parsed)) << to_string(dist);
    EXPECT_EQ(parsed, dist);
  }
}

TEST(Distributions, ParseDistributionRejectsUnknownText) {
  InputDistribution parsed = InputDistribution::kGaussianTwos;
  EXPECT_FALSE(parse_distribution("uniform", parsed));
  EXPECT_FALSE(parse_distribution("Uniform-Unsigned", parsed));  // case-sensitive
  EXPECT_FALSE(parse_distribution("", parsed));
  EXPECT_FALSE(parse_distribution("uniform-unsigned ", parsed));  // full-string match
  EXPECT_EQ(parsed, InputDistribution::kGaussianTwos);  // untouched on failure
}

}  // namespace
}  // namespace vlcsa::arith
