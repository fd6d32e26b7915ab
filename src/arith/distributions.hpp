#pragma once
// Operand-pair sources for the four input classes studied in the paper
// (Ch. 3 and Ch. 6): unsigned uniform, two's-complement uniform, unsigned
// Gaussian and two's-complement Gaussian (the practical-input proxy), plus a
// common interface so the Monte Carlo harness can run any of them.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "arith/apint.hpp"
#include "arith/bitslice.hpp"
#include "arith/rng.hpp"

namespace vlcsa::arith {

/// A stream of operand pairs for an n-bit adder.
class OperandSource {
 public:
  explicit OperandSource(int width) : width_(width) {}
  virtual ~OperandSource() = default;

  OperandSource(const OperandSource&) = delete;
  OperandSource& operator=(const OperandSource&) = delete;

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] virtual std::string name() const = 0;

  /// Draws the next operand pair.
  virtual std::pair<ApInt, ApInt> next(BlockRng& rng) = 0;

  /// Draws the next out.lanes() (= 64 * lane_words) operand pairs into
  /// bit-planes (lane j = the j-th pair).  CONTRACT, at block granularity:
  /// whole fill_batch() calls at any lane width, followed by any number of
  /// next() calls, yield exactly the samples of the same number of next()
  /// calls alone and leave the RNG at the same position.  Sources may draw
  /// ahead in whole blocks (the Gaussian ziggurat buffers 624 words, the
  /// uniform source one 512-sample block), so the RNG position tracks
  /// blocks, not samples.  This is what keeps the batched Monte Carlo path
  /// bit-identical to the scalar one at every lane width and thread count.
  /// A source whose next() serves a 64-sample column at a time
  /// (UniformUnsignedSource) adds one rule: a fill_batch() that follows a
  /// partly consumed next() column discards the rest of that column.  Each
  /// fill sets out.stored_planes(): the lanes are the samples read through
  /// the tail (BitSlicedBatch::lane).  The default implementation calls
  /// next() lanes() times and stores every plane.
  virtual void fill_batch(BlockRng& rng, BitSlicedBatch& out);

  /// Fresh source of the same distribution with pristine stream state (any
  /// cached variates are discarded).  Must be safe to call concurrently from
  /// multiple threads — the parallel engine clones one source per shard.
  [[nodiscard]] virtual std::unique_ptr<OperandSource> clone() const = 0;

 private:
  int width_;
};

/// Uniformly random n-bit patterns ("unsigned random inputs", Ch. 3).
///
/// The RNG stream is defined in bit-plane order (stream version
/// uniform-rng-v3).  Its unit is one canonical block of 512 samples: the
/// 8 * n words of a's bit-planes, laid out [bit][8] exactly like the a()
/// planes of an 8-lane-word BitSlicedBatch, then the 8 * n words of b's
/// planes, drawn by generate_block().  Every bit of every word is an
/// independent uniform bit, so each operand is uniform over [0, 2^n), and
/// the RNG consumes exactly 2 * n words per 64 samples at any width.
///
///  * fill_batch() at 8 lane words (the avx512 default) is two
///    generate_block() calls written directly into out.a() and out.b().
///  * fill_batch() at other lane widths copies contiguous [bit] runs of
///    lane words out of one buffered block (16 * n words).
///  * next() is the derived view: once per 64 samples it transposes the
///    next column of the buffered block back to rows, then serves one row
///    per call.
///
/// The buffer is allocated only when next() or a non-canonical lane width
/// needs it.
class UniformUnsignedSource final : public OperandSource {
 public:
  explicit UniformUnsignedSource(int width) : OperandSource(width) {}
  [[nodiscard]] std::string name() const override { return "uniform-unsigned"; }
  std::pair<ApInt, ApInt> next(BlockRng& rng) override;
  void fill_batch(BlockRng& rng, BitSlicedBatch& out) override;
  /// Pristine stream state: the clone's buffered block and column are empty.
  [[nodiscard]] std::unique_ptr<OperandSource> clone() const override {
    return std::make_unique<UniformUnsignedSource>(width());
  }

 private:
  static constexpr int kBlockLaneWords = 8;  // lane words per stream block (512 samples)

  void refill_block(BlockRng& rng);

  std::vector<std::uint64_t> block_;  // buffered block: a planes [bit][8], then b planes
  int block_column_ = kBlockLaneWords;  // next unread lane word of block_ (8 = none)
  std::vector<std::uint64_t> column_;   // next(): current column as rows, [op][lane][limb]
  int column_lane_ = kBatchLanes;       // next unserved lane of column_ (64 = none)
};

/// Two's-complement uniform inputs (Fig 6.3): a uniformly random magnitude
/// in [0, 2^(n-1)) with a random sign, encoded in two's complement.  This
/// differs from a uniform bit pattern in that negative values carry explicit
/// sign-extension structure, matching the paper's separate treatment of the
/// two cases.
class UniformTwosSource final : public OperandSource {
 public:
  explicit UniformTwosSource(int width) : OperandSource(width) {}
  [[nodiscard]] std::string name() const override { return "uniform-twos-complement"; }
  std::pair<ApInt, ApInt> next(BlockRng& rng) override;
  [[nodiscard]] std::unique_ptr<OperandSource> clone() const override {
    return std::make_unique<UniformTwosSource>(width());
  }
};

/// Parameters of the Gaussian operand model (Ch. 7 uses mu = 0, sigma = 2^32).
struct GaussianParams {
  double mean = 0.0;
  double sigma = 4294967296.0;  // 2^32
};

/// |round(N(mu, sigma))| encoded as an unsigned n-bit value (Fig 6.4).
/// Variates come from the block ziggurat (GaussianBlockSampler); next() and
/// fill_batch() share the sampler state, so the scalar and batched Monte
/// Carlo paths consume one identical stream.
class GaussianUnsignedSource final : public OperandSource {
 public:
  GaussianUnsignedSource(int width, GaussianParams params)
      : OperandSource(width), params_(params) {}
  [[nodiscard]] std::string name() const override { return "gaussian-unsigned"; }
  std::pair<ApInt, ApInt> next(BlockRng& rng) override;
  /// Fast path: bulk ziggurat variates through the planeops encode and
  /// transpose kernels — samples are at most 64 bits of magnitude, so only
  /// the limb-0 block is transposed, and above n = 64 the batch stores one
  /// zero plane 64 that the unwritten planes repeat (stored_planes() =
  /// min(n, 65)).
  void fill_batch(BlockRng& rng, BitSlicedBatch& out) override;
  [[nodiscard]] std::unique_ptr<OperandSource> clone() const override {
    return std::make_unique<GaussianUnsignedSource>(width(), params_);
  }

 private:
  GaussianParams params_;
  GaussianBlockSampler sampler_;
};

/// round(N(mu, sigma)) encoded in n-bit two's complement (Fig 6.5, Ch. 7).
/// Small-magnitude negatives produce the long sign-extension carry chains
/// that motivate VLCSA 2.  Same block-ziggurat sampling discipline as
/// GaussianUnsignedSource.
class GaussianTwosSource final : public OperandSource {
 public:
  GaussianTwosSource(int width, GaussianParams params)
      : OperandSource(width), params_(params) {}
  [[nodiscard]] std::string name() const override { return "gaussian-twos-complement"; }
  std::pair<ApInt, ApInt> next(BlockRng& rng) override;
  /// Fast path: the same shared fill as GaussianUnsignedSource::fill_batch;
  /// sign extension costs nothing — the batch stores the limb-0 planes only
  /// (stored_planes() = min(n, 64)), and every plane above repeats plane 63,
  /// the lane-wise sign mask.
  void fill_batch(BlockRng& rng, BitSlicedBatch& out) override;
  [[nodiscard]] std::unique_ptr<OperandSource> clone() const override {
    return std::make_unique<GaussianTwosSource>(width(), params_);
  }

 private:
  GaussianParams params_;
  GaussianBlockSampler sampler_;
};

enum class InputDistribution {
  kUniformUnsigned,
  kUniformTwos,
  kGaussianUnsigned,
  kGaussianTwos,
};

[[nodiscard]] std::string to_string(InputDistribution dist);

/// Inverse of to_string(InputDistribution) ("uniform-unsigned", ... — the
/// names experiment records and the service protocol carry).  Returns false
/// on unknown text without touching `out`.
[[nodiscard]] bool parse_distribution(std::string_view text, InputDistribution& out);

/// Factory used by the harness and benches.
[[nodiscard]] std::unique_ptr<OperandSource> make_source(InputDistribution dist, int width,
                                                         GaussianParams params = {});

/// Rounds a double sample to the nearest integer (ties to even, as
/// std::nearbyint), clamps it to the representable signed range of `width`
/// bits and encodes it in two's complement.  Widths >= 64 saturate to the
/// int64 range [-2^63, 2^63 - 1]; NaN encodes the range minimum.  One
/// sample through planeops::encode_samples, the encoder every Gaussian path
/// shares.  Exposed for testing.
[[nodiscard]] ApInt encode_signed_sample(int width, double sample);

/// Rounds a double sample like encode_signed_sample and clamps its magnitude
/// to the unsigned range of `width` bits.  Widths >= 64 saturate to
/// 2^64 - 1; NaN encodes the range maximum.  Exposed for testing.
[[nodiscard]] ApInt encode_unsigned_sample(int width, double sample);

}  // namespace vlcsa::arith
