// BlockRng: seeding, the block refill and generate_block.  The MT19937-64
// twist and temper are one body each (rng_kernels.inc) over the per-ISA
// vector ops of vector_ops.hpp, compiled for scalar, AVX2 and AVX-512 and
// dispatched off the planeops backend.

#include "arith/rng.hpp"

#include <algorithm>
#include <cmath>

#include "arith/planeops.hpp"
#include "arith/vector_ops.hpp"

namespace vlcsa::arith {

namespace {

// MT19937-64 constants ([rand.eng.mers] mersenne_twister_engine<uint64, 64,
// 312, 156, 31, A, 29, D, 17, B, 37, C, 43, F>).
constexpr std::size_t kN = BlockRng::kStateWords;  // 312
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kLowerMask = 0x7FFFFFFFULL;        // low r = 31 bits
constexpr std::uint64_t kUpperMask = ~kLowerMask;          // high w - r bits
constexpr std::uint64_t kTemperD = 0x5555555555555555ULL;  // u = 29
constexpr std::uint64_t kTemperB = 0x71D67FFFEDA60000ULL;  // s = 17
constexpr std::uint64_t kTemperC = 0xFFF7EEE000000000ULL;  // t = 37
constexpr std::uint64_t kSeedF = 6364136223846793005ULL;

// The twist runs in three spans of i, each a (end, lo, feed) offset
// triple for twist_span: [0, n - m) reads the old mt[i + m]; [n - m, n - 1)
// feeds back the *new* mt[i + m - n], written in the first span; and the
// last word wraps its lower half around to mt[0].
struct TwistSpan {
  std::size_t end;
  std::ptrdiff_t lo;
  std::ptrdiff_t feed;
};

constexpr std::ptrdiff_t kSignedN = kN;
constexpr std::ptrdiff_t kSignedM = kM;
constexpr TwistSpan kTwistSpans[] = {
    {kN - kM, 1, kSignedM},
    {kN - 1, 1, kSignedM - kSignedN},
    {kN, 1 - kSignedN, kSignedM - kSignedN},
};

// ---- the twist and temper bodies, once per ISA ------------------------------
//
// rng_kernels.inc holds one body each over the ops set of its namespace
// (vector_ops.hpp), compiled per ISA like the planeops kernels.

namespace scalar {
using namespace simd::scalar;
#include "arith/rng_kernels.inc"
}  // namespace scalar

#if VLCSA_HAVE_X86_BACKENDS
VLCSA_TARGET_PUSH(VLCSA_AVX2_TARGET)
namespace avx2 {
using namespace simd::avx2;
#include "arith/rng_kernels.inc"
}  // namespace avx2
VLCSA_TARGET_POP

VLCSA_TARGET_PUSH(VLCSA_AVX512_TARGET)
namespace avx512 {
using namespace simd::avx512;
#include "arith/rng_kernels.inc"
}  // namespace avx512
VLCSA_TARGET_POP
#endif

// ---- dispatch --------------------------------------------------------------
//
// The RNG rides the planeops dispatch state rather than keeping its own:
// VLCSA_FORCE_BACKEND and planeops::set_backend select the twist/temper
// implementation too, so one switch covers the whole bit-parallel stack.

struct RngKernels {
  void (*twist)(std::uint64_t*);
  void (*temper)(const std::uint64_t*, std::uint64_t*);
};

constexpr RngKernels kScalarRng = {scalar::twist<>, scalar::temper};
#if VLCSA_HAVE_X86_BACKENDS
constexpr RngKernels kAvx2Rng = {avx2::twist<scalar::twist_span>, avx2::temper};
constexpr RngKernels kAvx512Rng = {avx512::twist<avx2::twist_span, scalar::twist_span>,
                                   avx512::temper};
#endif

RngKernels active_kernels() {
#if VLCSA_HAVE_X86_BACKENDS
  switch (planeops::active_backend()) {
    case planeops::Backend::kAvx512: return kAvx512Rng;
    case planeops::Backend::kAvx2: return kAvx2Rng;
    case planeops::Backend::kScalar: break;
  }
#endif
  return kScalarRng;
}

}  // namespace

void BlockRng::seed(result_type value) {
  state_[0] = value;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    state_[i] = kSeedF * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
  }
  index_ = kStateWords;
  twists_ = 0;
}

void BlockRng::refill() {
  const RngKernels k = active_kernels();
  k.twist(state_);
  k.temper(state_, out_);
  index_ = 0;
  ++twists_;
}

void BlockRng::generate_block(std::uint64_t* dst, std::size_t n) {
  std::size_t produced = 0;
  // Drain whatever the per-call path left buffered, preserving draw order.
  if (index_ < kStateWords) {
    const std::size_t take = std::min(kStateWords - index_, n);
    std::copy(out_ + index_, out_ + index_ + take, dst);
    index_ += take;
    produced = take;
  }
  const RngKernels k = active_kernels();
  // Full blocks: twist and temper straight into the destination, never
  // touching the out_ buffer.
  while (n - produced >= kStateWords) {
    k.twist(state_);
    k.temper(state_, dst + produced);
    produced += kStateWords;
    ++twists_;
  }
  // Partial trailing block: regenerate out_ and hand out its head, leaving
  // the rest buffered for subsequent draws.
  if (produced < n) {
    k.twist(state_);
    k.temper(state_, out_);
    const std::size_t take = n - produced;
    std::copy(out_, out_ + take, dst + produced);
    index_ = take;
    ++twists_;
  }
}

void BlockRng::discard(unsigned long long z) {
  // Drain what the current block has buffered, then twist (without
  // tempering) any block skipped in full — tempering is a pure per-word
  // map, so dropping it cannot desynchronize the stream.
  const std::size_t buffered = kStateWords - index_;
  if (z <= buffered) {
    index_ += static_cast<std::size_t>(z);
    return;
  }
  z -= buffered;
  const RngKernels k = active_kernels();
  while (z >= kStateWords) {
    k.twist(state_);
    z -= kStateWords;
    ++twists_;
  }
  k.twist(state_);
  k.temper(state_, out_);
  index_ = static_cast<std::size_t>(z);
  ++twists_;
}

// ---- GaussianBlockSampler ---------------------------------------------------
//
// 256-layer ziggurat for the standard normal (Marsaglia & Tsang 2000,
// widened from the classic 32-bit draw to one 64-bit word per attempt):
// the low 8 bits pick the layer, the top 55 bits form a signed mantissa hz
// with |hz| < 2^54, and the fast path accepts when |hz| < kn[iz], returning
// x = hz * wn[iz].  Layer boundaries x_i solve the standard recurrence with
// strip area V and base boundary R; kn/wn are pre-scaled by m = 2^54 so the
// fast path is one integer compare and one multiply.

namespace {

constexpr double kZigR = 3.6541528853610088;   // base strip boundary
constexpr double kZigV = 4.92867323399e-3;     // per-strip area
constexpr double kZigM = 18014398509481984.0;  // 2^54, the |hz| scale

struct ZigguratTables {
  std::uint64_t kn[256];  // acceptance thresholds, in hz units
  double wn[256];         // hz -> x scale per layer
  double fn[256];         // exp(-x_i^2 / 2) at the layer boundaries
};

const ZigguratTables& ziggurat_tables() {
  static const ZigguratTables tables = [] {
    ZigguratTables t{};
    double dn = kZigR;
    double tn = kZigR;
    const double q = kZigV / std::exp(-0.5 * dn * dn);
    t.kn[0] = static_cast<std::uint64_t>((dn / q) * kZigM);
    t.kn[1] = 0;
    t.wn[0] = q / kZigM;
    t.wn[255] = dn / kZigM;
    t.fn[0] = 1.0;
    t.fn[255] = std::exp(-0.5 * dn * dn);
    for (int i = 254; i >= 1; --i) {
      dn = std::sqrt(-2.0 * std::log(kZigV / dn + std::exp(-0.5 * dn * dn)));
      t.kn[i + 1] = static_cast<std::uint64_t>((dn / tn) * kZigM);
      tn = dn;
      t.fn[i] = std::exp(-0.5 * dn * dn);
      t.wn[i] = dn / kZigM;
    }
    return t;
  }();
  return tables;
}

// (0, 1] uniform from a raw word: 53 high bits, offset so log() never sees 0.
inline double u01_from_word(std::uint64_t w) {
  return (static_cast<double>(w >> 11) + 1.0) * 0x1p-53;
}

}  // namespace

double GaussianBlockSampler::operator()(BlockRng& rng) {
  const ZigguratTables& t = ziggurat_tables();
  for (;;) {
    const std::uint64_t w = next_word(rng);
    const std::size_t iz = w & 0xFF;
    const std::int64_t hz = static_cast<std::int64_t>(w) >> 9;
    const std::uint64_t mag = static_cast<std::uint64_t>(hz < 0 ? -hz : hz);
    if (mag < t.kn[iz]) return static_cast<double>(hz) * t.wn[iz];
    if (iz == 0) {
      // Tail beyond R, Marsaglia's exponential-majorant rejection.
      double x;
      double y;
      do {
        x = -std::log(u01_from_word(next_word(rng))) * (1.0 / kZigR);
        y = -std::log(u01_from_word(next_word(rng)));
      } while (y + y < x * x);
      return hz < 0 ? -(kZigR + x) : kZigR + x;
    }
    // Wedge between layer iz and iz-1.
    const double x = static_cast<double>(hz) * t.wn[iz];
    if (t.fn[iz] + u01_from_word(next_word(rng)) * (t.fn[iz - 1] - t.fn[iz]) <
        std::exp(-0.5 * x * x)) {
      return x;
    }
  }
}

void GaussianBlockSampler::fill(BlockRng& rng, double* dst, std::size_t n) {
  // Run loop: accept words straight out of the buffer while the fast path
  // holds.  A rejecting word is left unread (pos_ points at it) and handed
  // to operator(), which re-reads it and runs the wedge/tail path — so the
  // variate and word streams are exactly those of n operator() calls.
  const ZigguratTables& t = ziggurat_tables();
  std::size_t i = 0;
  while (i < n) {
    if (pos_ == kBufferWords) {
      rng.generate_block(buffer_, kBufferWords);
      pos_ = 0;
    }
    const std::size_t end = std::min(kBufferWords, pos_ + (n - i));
    std::size_t p = pos_;
    for (; p < end; ++p) {
      const std::uint64_t w = buffer_[p];
      const std::size_t iz = w & 0xFF;
      const std::int64_t hz = static_cast<std::int64_t>(w) >> 9;
      const std::uint64_t mag = static_cast<std::uint64_t>(hz < 0 ? -hz : hz);
      if (mag >= t.kn[iz]) break;
      dst[i++] = static_cast<double>(hz) * t.wn[iz];
    }
    pos_ = p;
    if (p < end) dst[i++] = (*this)(rng);
  }
}

BlockRng make_stream_rng(std::uint64_t seed, std::uint64_t stream) {
  // Identical construction to the engine's historical make_shard_rng: all
  // 128 bits of (seed, stream) feed the seed_seq, so distinct streams and
  // distinct seeds never collide.
  std::seed_seq sequence{
      static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
      static_cast<std::uint32_t>(stream), static_cast<std::uint32_t>(stream >> 32)};
  return BlockRng(sequence);
}

}  // namespace vlcsa::arith
