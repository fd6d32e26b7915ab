#include "arith/distributions.hpp"

#include <algorithm>
#include <cmath>
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

// Round half to even — equal to std::nearbyint under the default rounding
// mode.  For |x| < 2^51, x + 1.5 * 2^52 lies in [2^52, 2^53), where doubles
// are spaced exactly 1 apart, so the addition itself rounds x to an
// integer.  Larger magnitudes (and NaN) take the libm call.  The one
// difference, +0.0 where nearbyint keeps a -0.0, vanishes in the integer
// encodings below.
inline double round_to_integer(double x) {
  constexpr double kShift = 0x1.8p52;
  if (std::fabs(x) < 0x1p51) [[likely]] return (x + kShift) - kShift;
  return std::nearbyint(x);
}

// The encode body shared by the ApInt wrappers and the direct-to-plane
// Gaussian fill: the raw 64-bit word of round(x), clamped to
// [-2^(w-1), 2^(w-1) - 1] in two's complement (kTwos) or |round(x)| clamped
// to [0, 2^w - 1], with w = min(width, 64).  The bounds are computed once
// per encoder and every float-to-integer cast is in range, so values past
// the range (including past int64/uint64 at widths >= 64) saturate.
template <bool kTwos>
class SampleEncoder {
 public:
  explicit SampleEncoder(int width)
      : bits_(std::min(width, 64) - (kTwos ? 1 : 0)),
        limit_(std::ldexp(1.0, bits_)),
        max_(bits_ == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits_) - 1) {}

  std::uint64_t operator()(double x) const {
    const double r = round_to_integer(x);
    if constexpr (kTwos) {
      const double low = r > -limit_ ? r : -limit_;  // NaN saturates low
      return low < limit_ ? static_cast<std::uint64_t>(static_cast<std::int64_t>(low)) : max_;
    }
    const double mag = std::fabs(r);
    return mag < limit_ ? static_cast<std::uint64_t>(mag) : max_;  // NaN saturates high
  }

 private:
  int bits_;
  double limit_;       // 2^bits_, one past the top of the range
  std::uint64_t max_;  // 2^bits_ - 1
};

// The one fill_batch body of both Gaussian sources, mirroring out.lanes() x
// next(): variates a0 b0 a1 b1 ... from the shared block sampler (so the RNG
// stream is exactly next()'s), encoded to raw limb-0 rows and transposed
// one 64x64 block per (operand, lane word).  Samples carry at most 64 bits,
// so every bit-plane >= 64 is constant per lane — zero for unsigned, the
// lane-wise sign mask for two's complement — and those planes are written
// once per batch, after the limb-0 planes.
template <bool kTwos>
void fill_gaussian_batch(const GaussianParams& params, GaussianBlockSampler& sampler,
                         BlockRng& rng, BitSlicedBatch& out) {
  const int n = out.width();
  const int lane_words = out.lane_words();
  const SampleEncoder<kTwos> encode(n);
  std::uint64_t* planes[2] = {out.a(), out.b()};
  std::uint64_t sign[2][kMaxLaneWords] = {};
  for (int w = 0; w < lane_words; ++w) {
    double variates[2 * kBatchLanes];
    sampler.fill(rng, variates, 2 * kBatchLanes);
    std::uint64_t rows[2][kBatchLanes];
    std::uint64_t neg[2] = {0, 0};
    for (int j = 0; j < kBatchLanes; ++j) {
      for (int op = 0; op < 2; ++op) {
        const std::uint64_t v = encode(params.mean + params.sigma * variates[2 * j + op]);
        rows[op][j] = v;
        if constexpr (kTwos) neg[op] |= (v >> 63) << j;
      }
    }
    for (int op = 0; op < 2; ++op) {
      sign[op][w] = neg[op];
      transpose_64x64(rows[op]);
      block_to_planes(rows[op], 0, n, planes[op], lane_words, w);
    }
  }
  // Every plane >= 64 of an operand repeats one lane_words run (its sign
  // masks, or zero): write the run once, then double the written prefix, so
  // the region takes log2(n - 64) contiguous copies.
  if (n <= 64) return;
  const std::size_t run = static_cast<std::size_t>(lane_words);
  const std::size_t high_words = static_cast<std::size_t>(n - 64) * run;
  for (int op = 0; op < 2; ++op) {
    std::uint64_t* high = planes[op] + 64 * run;
    std::copy_n(sign[op], run, high);
    for (std::size_t done = run; done < high_words; done *= 2) {
      std::copy_n(high, std::min(done, high_words - done), high + done);
    }
  }
}

}  // namespace

ApInt encode_signed_sample(int width, double sample) {
  return ApInt::from_i64(width, static_cast<std::int64_t>(SampleEncoder<true>(width)(sample)));
}

ApInt encode_unsigned_sample(int width, double sample) {
  return ApInt::from_u64(width, SampleEncoder<false>(width)(sample));
}

std::pair<ApInt, ApInt> GaussianUnsignedSource::next(BlockRng& rng) {
  const double a = params_.mean + params_.sigma * sampler_(rng);
  const double b = params_.mean + params_.sigma * sampler_(rng);
  return {encode_unsigned_sample(width(), a), encode_unsigned_sample(width(), b)};
}

std::pair<ApInt, ApInt> GaussianTwosSource::next(BlockRng& rng) {
  const double a = params_.mean + params_.sigma * sampler_(rng);
  const double b = params_.mean + params_.sigma * sampler_(rng);
  return {encode_signed_sample(width(), a), encode_signed_sample(width(), b)};
}

void GaussianUnsignedSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != width()) {
    throw std::invalid_argument("GaussianUnsignedSource::fill_batch: batch width mismatch");
  }
  fill_gaussian_batch<false>(params_, sampler_, rng, out);
}

void GaussianTwosSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != width()) {
    throw std::invalid_argument("GaussianTwosSource::fill_batch: batch width mismatch");
  }
  fill_gaussian_batch<true>(params_, sampler_, rng, out);
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
