#include "arith/distributions.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

namespace vlcsa::arith {

void OperandSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != width()) {
    throw std::invalid_argument("OperandSource::fill_batch: batch width mismatch");
  }
  // One 64-sample group per lane word, in sample order, so the RNG stream is
  // exactly out.lanes() next() calls.
  out.set_stored_planes(width());
  ApInt a[kBatchLanes], b[kBatchLanes];
  for (int w = 0; w < out.lane_words(); ++w) {
    for (int j = 0; j < kBatchLanes; ++j) {
      auto [aj, bj] = next(rng);
      a[j] = std::move(aj);
      b[j] = std::move(bj);
    }
    transpose_to_planes(a, kBatchLanes, width(), out.a(), out.lane_words(), w);
    transpose_to_planes(b, kBatchLanes, width(), out.b(), out.lane_words(), w);
  }
}

void UniformUnsignedSource::refill_block(BlockRng& rng) {
  const std::size_t words = static_cast<std::size_t>(2 * kBlockLaneWords) *
                            static_cast<std::size_t>(width());
  block_.resize(words);
  rng.generate_block(block_.data(), words);
  block_column_ = 0;
}

std::pair<ApInt, ApInt> UniformUnsignedSource::next(BlockRng& rng) {
  const int n = width();
  const int limbs = (n + ApInt::kLimbBits - 1) / ApInt::kLimbBits;
  if (column_lane_ == kBatchLanes) {
    // Transpose the block's next 64-sample column back to rows, one 64x64
    // block per (operand, limb); bit rows beyond the width stay zero.
    if (block_column_ == kBlockLaneWords) refill_block(rng);
    column_.resize(static_cast<std::size_t>(2 * kBatchLanes * limbs));
    const std::size_t op_words = static_cast<std::size_t>(kBlockLaneWords) * n;
    for (int op = 0; op < 2; ++op) {
      const std::uint64_t* planes = block_.data() + op * op_words;
      for (int limb = 0; limb < limbs; ++limb) {
        std::uint64_t rows[kBatchLanes] = {};
        const int base = limb * ApInt::kLimbBits;
        const int top = std::min(n - base, ApInt::kLimbBits);
        for (int bit = 0; bit < top; ++bit) {
          rows[bit] = planes[static_cast<std::size_t>(base + bit) * kBlockLaneWords +
                             static_cast<std::size_t>(block_column_)];
        }
        transpose_64x64(rows);
        for (int lane = 0; lane < kBatchLanes; ++lane) {
          column_[static_cast<std::size_t>((op * kBatchLanes + lane) * limbs + limb)] =
              rows[lane];
        }
      }
    }
    ++block_column_;
    column_lane_ = 0;
  }
  const std::size_t lane = static_cast<std::size_t>(column_lane_++);
  const std::size_t limb_count = static_cast<std::size_t>(limbs);
  const std::span<const std::uint64_t> rows(column_);
  return {ApInt::from_limbs(n, rows.subspan(lane * limb_count, limb_count)),
          ApInt::from_limbs(n, rows.subspan((kBatchLanes + lane) * limb_count, limb_count))};
}

void UniformUnsignedSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != width()) {
    throw std::invalid_argument("UniformUnsignedSource::fill_batch: batch width mismatch");
  }
  column_lane_ = kBatchLanes;  // the stream contract's discard rule
  out.set_stored_planes(width());
  const int n = width();
  const int lane_words = out.lane_words();
  const std::size_t op_words = static_cast<std::size_t>(kBlockLaneWords) * n;
  if (lane_words == kBlockLaneWords && block_column_ == kBlockLaneWords) {
    // The canonical block is the batch's own plane layout: no copy at all.
    rng.generate_block(out.a(), op_words);
    rng.generate_block(out.b(), op_words);
    return;
  }
  for (int w = 0; w < lane_words;) {
    if (block_column_ == kBlockLaneWords) refill_block(rng);
    const int run = std::min(lane_words - w, kBlockLaneWords - block_column_);
    for (int op = 0; op < 2; ++op) {
      const std::uint64_t* src = block_.data() + op * op_words + block_column_;
      std::uint64_t* dst = (op == 0 ? out.a() : out.b()) + w;
      for (int bit = 0; bit < n; ++bit) {
        std::copy_n(src + static_cast<std::size_t>(bit) * kBlockLaneWords, run,
                    dst + static_cast<std::size_t>(bit) * lane_words);
      }
    }
    w += run;
    block_column_ += run;
  }
}

namespace {

ApInt random_signed_magnitude(int width, BlockRng& rng) {
  // Uniform magnitude in [0, 2^(width-1)) with a random sign bit.
  ApInt mag = ApInt::random(width, rng);
  mag.set_bit(width - 1, false);
  const bool negative = (rng() & 1) != 0;
  return negative ? mag.negated() : mag;
}

}  // namespace

std::pair<ApInt, ApInt> UniformTwosSource::next(BlockRng& rng) {
  return {random_signed_magnitude(width(), rng), random_signed_magnitude(width(), rng)};
}

namespace {

// The one fill_batch body of both Gaussian sources, mirroring out.lanes() x
// next(): per lane word, 128 variates a0 b0 a1 b1 ... from the shared block
// sampler (so the RNG stream is exactly next()'s), then per operand the
// kernel pipeline encode (every other variate) -> 64x64 transpose -> copy
// into its planes.  Samples carry at most 64 bits, so the batch stores at
// most 64 planes for two's complement (plane 63 is the sign the tail
// repeats) and 65 for unsigned (plane 64 is zero); the planes above are not
// written (bitslice.hpp).
void fill_gaussian_batch(bool twos, const GaussianParams& params, GaussianBlockSampler& sampler,
                         BlockRng& rng, BitSlicedBatch& out) {
  const int n = out.width();
  const int lane_words = out.lane_words();
  std::uint64_t* planes[2] = {out.a(), out.b()};
  for (int w = 0; w < lane_words; ++w) {
    double variates[2 * kBatchLanes];
    sampler.fill(rng, variates, 2 * kBatchLanes);
    for (int op = 0; op < 2; ++op) {
      alignas(planeops::kPlaneAlignment) std::uint64_t rows[kBatchLanes];
      planeops::encode_samples(variates + op, 2, kBatchLanes, params.mean, params.sigma, n, twos,
                               rows);
      transpose_64x64(rows);
      block_to_planes(rows, 0, n, planes[op], lane_words, w);
    }
  }
  const int stored = std::min(n, twos ? 64 : 65);
  if (stored == 65) {
    for (std::uint64_t* op_planes : planes) {
      std::fill_n(op_planes + 64 * lane_words, lane_words, 0);
    }
  }
  out.set_stored_planes(stored);
}

// Draws a (a, b) variate pair and encodes it as raw words, like one lane of
// fill_gaussian_batch.
std::pair<std::uint64_t, std::uint64_t> next_gaussian_words(bool twos, int width,
                                                            const GaussianParams& params,
                                                            GaussianBlockSampler& sampler,
                                                            BlockRng& rng) {
  const double variates[2] = {sampler(rng), sampler(rng)};
  std::uint64_t words[2];
  planeops::encode_samples(variates, 1, 2, params.mean, params.sigma, width, twos, words);
  return {words[0], words[1]};
}

}  // namespace

// 0 + 1 * sample is sample itself (a -0.0 becomes +0.0, which encodes alike).
ApInt encode_signed_sample(int width, double sample) {
  std::uint64_t word;
  planeops::encode_samples(&sample, 1, 1, 0.0, 1.0, width, true, &word);
  return ApInt::from_i64(width, static_cast<std::int64_t>(word));
}

ApInt encode_unsigned_sample(int width, double sample) {
  std::uint64_t word;
  planeops::encode_samples(&sample, 1, 1, 0.0, 1.0, width, false, &word);
  return ApInt::from_u64(width, word);
}

std::pair<ApInt, ApInt> GaussianUnsignedSource::next(BlockRng& rng) {
  const auto [a, b] = next_gaussian_words(false, width(), params_, sampler_, rng);
  return {ApInt::from_u64(width(), a), ApInt::from_u64(width(), b)};
}

std::pair<ApInt, ApInt> GaussianTwosSource::next(BlockRng& rng) {
  const auto [a, b] = next_gaussian_words(true, width(), params_, sampler_, rng);
  return {ApInt::from_i64(width(), static_cast<std::int64_t>(a)),
          ApInt::from_i64(width(), static_cast<std::int64_t>(b))};
}

void GaussianUnsignedSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != width()) {
    throw std::invalid_argument("GaussianUnsignedSource::fill_batch: batch width mismatch");
  }
  fill_gaussian_batch(false, params_, sampler_, rng, out);
}

void GaussianTwosSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != width()) {
    throw std::invalid_argument("GaussianTwosSource::fill_batch: batch width mismatch");
  }
  fill_gaussian_batch(true, params_, sampler_, rng, out);
}

std::string to_string(InputDistribution dist) {
  switch (dist) {
    case InputDistribution::kUniformUnsigned:
      return "uniform-unsigned";
    case InputDistribution::kUniformTwos:
      return "uniform-twos-complement";
    case InputDistribution::kGaussianUnsigned:
      return "gaussian-unsigned";
    case InputDistribution::kGaussianTwos:
      return "gaussian-twos-complement";
  }
  throw std::logic_error("unknown InputDistribution");
}

bool parse_distribution(std::string_view text, InputDistribution& out) {
  for (const InputDistribution dist :
       {InputDistribution::kUniformUnsigned, InputDistribution::kUniformTwos,
        InputDistribution::kGaussianUnsigned, InputDistribution::kGaussianTwos}) {
    if (text == to_string(dist)) {
      out = dist;
      return true;
    }
  }
  return false;
}

std::unique_ptr<OperandSource> make_source(InputDistribution dist, int width,
                                           GaussianParams params) {
  switch (dist) {
    case InputDistribution::kUniformUnsigned:
      return std::make_unique<UniformUnsignedSource>(width);
    case InputDistribution::kUniformTwos:
      return std::make_unique<UniformTwosSource>(width);
    case InputDistribution::kGaussianUnsigned:
      return std::make_unique<GaussianUnsignedSource>(width, params);
    case InputDistribution::kGaussianTwos:
      return std::make_unique<GaussianTwosSource>(width, params);
  }
  throw std::logic_error("unknown InputDistribution");
}

}  // namespace vlcsa::arith
