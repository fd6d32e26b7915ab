#include "arith/planeops.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "arith/vector_ops.hpp"

namespace vlcsa::arith::planeops {

namespace {

inline bool aligned64(const void* p) {
  return (reinterpret_cast<std::uintptr_t>(p) % kPlaneAlignment) == 0;
}

// The tail rules the sweep bodies share (planeops.hpp).  A window at `pos`
// of `size` bits reads its stored planes, or plane stored - 1 once when it
// lies wholly above them; the bodies step their plane pointers through the
// stored planes and point them back at plane stored - 1 for such windows.
inline int window_reads(int pos, int size, int stored) {
  return pos < stored ? std::min(size, stored - pos) : 1;
}

// True after window i at `pos` when window i - 1 lay wholly at or above plane
// stored - 1 and i >= 2 (window 1's S*,1 select is its own): every later
// window repeats window i's fold.
inline bool window_tail_done(int i, int pos, int k, int stored) {
  return i >= 2 && pos - k >= stored - 1;
}

// Bits the run sweep walks: from bit stored - 2 + chain on, runs(j) = P and
// the carry is constant, so the last of them stands for the rest.
inline int run_bits(int n, int stored, int chain) { return std::min(n, stored - 1 + chain); }

// The transpose's block-swap stage at distance j (a power of two <= 32)
// keeps the low j columns of every 2j: 0x5555... at j = 1 up to
// 0x00000000FFFFFFFF at j = 32.
inline std::uint64_t block_swap_mask(int j) {
  constexpr std::uint64_t kMasks[] = {0x5555555555555555ULL, 0x3333333333333333ULL,
                                      0x0F0F0F0F0F0F0F0FULL, 0x00FF00FF00FF00FFULL,
                                      0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL};
  return kMasks[std::countr_zero(static_cast<unsigned>(j))];
}

// ---- the kernel bodies, once per ISA ----------------------------------------
//
// planeops_kernels.inc holds one body per kernel over the ops set of its
// namespace (vector_ops.hpp).  The scalar instantiation is the oracle the
// tests pin to naive references; the x86 ones are compiled for their ISA in
// the stock build, and runtime dispatch picks them on capable hosts.

namespace scalar {
using namespace simd::scalar;
#include "arith/planeops_kernels.inc"
}  // namespace scalar

#if VLCSA_HAVE_X86_BACKENDS
VLCSA_TARGET_PUSH(VLCSA_AVX2_TARGET)
namespace avx2 {
using namespace simd::avx2;
#include "arith/planeops_kernels.inc"
}  // namespace avx2
VLCSA_TARGET_POP

VLCSA_TARGET_PUSH(VLCSA_AVX512_TARGET)
namespace avx512 {
using namespace simd::avx512;
#include "arith/planeops_kernels.inc"
}  // namespace avx512
VLCSA_TARGET_POP
#endif

// The range of one encode_samples call, computed once per call: with
// bits = min(width, 64) - (twos ? 1 : 0), limit = 2^bits is one past the top
// of the range and max = 2^bits - 1 its saturated word.  Every
// float-to-integer conversion the bodies make is of a value inside the
// range, so nothing overflows a cast.
struct EncodeBounds {
  bool twos;
  double limit;
  std::uint64_t max;
};

// Round half to even, equal to std::nearbyint under the default rounding
// mode.  For |x| < 2^51, x + 1.5 * 2^52 lies in [2^52, 2^53), where doubles
// are spaced exactly 1 apart, so the addition itself rounds x to an
// integer.  Larger magnitudes (and NaN) take the libm call.  The one
// difference, +0.0 where nearbyint keeps a -0.0, vanishes in the integer
// encodings.
inline double round_to_integer(double x) {
  constexpr double kShift = 0x1.8p52;
  if (std::fabs(x) < 0x1p51) [[likely]] return (x + kShift) - kShift;
  return std::nearbyint(x);
}

template <bool kTwos>
void encode_scalar_body(const double* x, std::size_t stride, std::size_t count, double mean,
                        double sigma, const EncodeBounds& e, std::uint64_t* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const double r = round_to_integer(mean + sigma * x[i * stride]);
    if constexpr (kTwos) {
      const double low = r > -e.limit ? r : -e.limit;  // NaN saturates low
      out[i] = low < e.limit ? static_cast<std::uint64_t>(static_cast<std::int64_t>(low)) : e.max;
    } else {
      const double mag = std::fabs(r);
      out[i] = mag < e.limit ? static_cast<std::uint64_t>(mag) : e.max;  // NaN saturates high
    }
  }
}

void encode_scalar(const double* x, std::size_t stride, std::size_t count, double mean,
                   double sigma, const EncodeBounds& e, std::uint64_t* out) {
  if (e.twos) {
    encode_scalar_body<true>(x, stride, count, mean, sigma, e, out);
  } else {
    encode_scalar_body<false>(x, stride, count, mean, sigma, e, out);
  }
}

// ---- AVX-512 kernels that are their own algorithms -------------------------
//
// The vpopcntq reduction, the GFNI transpose and the sample encoder have no
// narrower counterpart built from the shared ops, so they carry their own
// per-function target attributes.  The avx512 backend needs avx512f+bw+dq;
// vpopcntdq, gfni and avx512vbmi together pick the Ice Lake-class row, so
// Skylake-class parts still get the 512-bit sweeps and encode, with the
// AVX2 popcount loop and transpose.

#if VLCSA_HAVE_X86_BACKENDS

// The GCC bug 105593 false positive vector_ops.hpp describes, silenced for
// this section only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f,avx512vpopcntdq"))) std::uint64_t popcount_avx512(
    const std::uint64_t* x, std::size_t m) {
  // Single-instruction per-word popcount (vpopcntq) with a vector accumulator;
  // the horizontal reduce happens once at the end.
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_loadu_si512(x + i)));
  }
  std::uint64_t sum = static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < m; ++i) {
    sum += static_cast<std::uint64_t>(__builtin_popcountll(x[i]));
  }
  return sum;
}

// The transpose in registers, as 8x8 tiles of 8x8 bits: register r holds
// rows 8r .. 8r + 7, and its qword c (after the first vpermb) the tile of
// column bits 8c .. 8c + 7, one byte per row.
//  1. vpermb gathers byte c of every row into qword c, rows in reverse
//     order (byte i = row 7 - i): vgf2p8affineqb reads its matrix rows
//     high byte first, and the reversal cancels that.
//  2. An 8x8 qword transpose across the registers (three block-swap stages
//     of vpermt2q) brings the tiles of column group c into register c.
//  3. vgf2p8affineqb with the identity operand 0x8040201008040201
//     transposes each tile: byte k of tile (r, c) becomes column bit
//     8c + k of rows 8r .. 8r + 7, i.e. byte r of output row 8c + k.
//  4. vpermb gathers byte r of every tile into qword k, so register c is
//     output rows 8c .. 8c + 7.
struct GfniTables {
  std::uint8_t tile_rows[64];   // step 1: byte 8c + i <- byte 8(7 - i) + c
  std::uint8_t tile_cols[64];   // step 4: byte 8k + r <- byte 8r + k
  std::uint64_t swap_lo[3][8];  // step 2, stages d = 4, 2, 1: the low register
  std::uint64_t swap_hi[3][8];  // and the high register of each pair
};

constexpr GfniTables make_gfni_tables() {
  GfniTables t{};
  for (int c = 0; c < 8; ++c) {
    for (int i = 0; i < 8; ++i) {
      t.tile_rows[8 * c + i] = static_cast<std::uint8_t>(8 * (7 - i) + c);
      t.tile_cols[8 * c + i] = static_cast<std::uint8_t>(8 * i + c);
    }
  }
  // Block swap at distance d: qword q of the low register takes the high
  // register's qword q - d where q has bit d set, and the high register
  // takes the low one's q + d where q has it clear (vpermt2q indices >= 8
  // select the second source).
  for (int s = 0, d = 4; s < 3; ++s, d >>= 1) {
    for (int q = 0; q < 8; ++q) {
      t.swap_lo[s][q] = static_cast<std::uint64_t>((q & d) != 0 ? 8 + (q ^ d) : q);
      t.swap_hi[s][q] = static_cast<std::uint64_t>((q & d) != 0 ? 8 + q : q ^ d);
    }
  }
  return t;
}

alignas(64) constexpr GfniTables kGfniTables = make_gfni_tables();

__attribute__((target("avx512f,avx512bw,avx512vbmi,gfni"))) void transpose_gfni(
    std::uint64_t block[64]) {
  const __m512i tile_rows = _mm512_loadu_si512(kGfniTables.tile_rows);
  __m512i v[8];
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) {
    v[r] = _mm512_permutexvar_epi8(tile_rows, _mm512_loadu_si512(block + 8 * r));
  }
#pragma GCC unroll 3
  for (int s = 0, d = 4; s < 3; ++s, d >>= 1) {
    const __m512i lo_index = _mm512_loadu_si512(kGfniTables.swap_lo[s]);
    const __m512i hi_index = _mm512_loadu_si512(kGfniTables.swap_hi[s]);
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r) {
      if ((r & d) != 0) continue;
      const __m512i lo = v[r];
      const __m512i hi = v[r + d];
      v[r] = _mm512_permutex2var_epi64(lo, lo_index, hi);
      v[r + d] = _mm512_permutex2var_epi64(lo, hi_index, hi);
    }
  }
  const __m512i identity = _mm512_set1_epi64(0x8040201008040201LL);
  const __m512i tile_cols = _mm512_loadu_si512(kGfniTables.tile_cols);
#pragma GCC unroll 8
  for (int c = 0; c < 8; ++c) {
    _mm512_storeu_si512(block + 8 * c,
                        _mm512_permutexvar_epi8(
                            tile_cols, _mm512_gf2p8affine_epi64_epi8(identity, v[c], 0)));
  }
}

// Eight samples per zmm: whole vectors at stride 2 (the Gaussian fill's
// interleaved operands) are two loads and a vpermt2pd, the second load
// masked to stop at the last sample read, x[i * stride + 14]; everything
// else is a gather, masked along with the store for the last count % 8.  The _round forms of the multiply
// and add are the scalar body's two roundings (a plain _mm512_mul_pd /
// _mm512_add_pd pair is a generic vector expression GCC may contract into an
// FMA); vroundscalepd rounds half to even like round_to_integer; vmaxpd(r,
// low) is exactly r > low ? r : low, NaN included; and the conversions only
// ever see in-range values, the rest blending to max.
__attribute__((target("avx512f,avx512dq"))) void encode_avx512(
    const double* x, std::size_t stride, std::size_t count, double mean, double sigma,
    const EncodeBounds& e, std::uint64_t* out) {
  constexpr int kNearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
  const __m512d vmean = _mm512_set1_pd(mean);
  const __m512d vsigma = _mm512_set1_pd(sigma);
  const __m512d limit = _mm512_set1_pd(e.limit);
  const __m512d low = _mm512_set1_pd(-e.limit);
  const __m512i max = _mm512_set1_epi64(static_cast<long long>(e.max));
  const __m512i index = _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                                           _mm512_set1_epi64(static_cast<long long>(stride)));
  const __m512i evens = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
  for (std::size_t i = 0; i < count; i += 8) {
    const bool full = count - i >= 8;
    const __mmask8 live = full ? __mmask8{0xFF} : static_cast<__mmask8>((1u << (count - i)) - 1);
    const double* src = x + i * stride;
    const __m512d v =
        stride == 2 && full
            ? _mm512_permutex2var_pd(_mm512_loadu_pd(src), evens,
                                     _mm512_maskz_loadu_pd(0x7F, src + 8))
            : _mm512_mask_i64gather_pd(_mm512_setzero_pd(), live, index, src, 8);
    const __m512d r = _mm512_roundscale_pd(
        _mm512_add_round_pd(_mm512_mul_round_pd(v, vsigma, kNearest), vmean, kNearest),
        kNearest);
    __m512i word;
    if (e.twos) {
      const __m512d clamped = _mm512_max_pd(r, low);
      word = _mm512_mask_blend_epi64(_mm512_cmp_pd_mask(clamped, limit, _CMP_LT_OQ), max,
                                     _mm512_cvttpd_epi64(clamped));
    } else {
      const __m512d mag = _mm512_abs_pd(r);
      word = _mm512_mask_blend_epi64(_mm512_cmp_pd_mask(mag, limit, _CMP_LT_OQ), max,
                                     _mm512_cvttpd_epu64(mag));
    }
    _mm512_mask_storeu_epi64(out + i, live, word);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // VLCSA_HAVE_X86_BACKENDS

// ---- dispatch --------------------------------------------------------------

struct Kernels {
  Backend backend;
  std::uint64_t (*popcount)(const std::uint64_t*, std::size_t);
  void (*window)(const std::uint64_t*, const std::uint64_t*, int, int, int, int, int,
                 std::uint64_t*, std::uint64_t*, std::uint64_t*, std::uint64_t*);
  void (*run)(const std::uint64_t*, const std::uint64_t*, int, int, int, int, std::uint64_t*,
              std::uint64_t*, std::uint64_t*);
  void (*transpose)(std::uint64_t*);
  void (*encode)(const double*, std::size_t, std::size_t, double, double, const EncodeBounds&,
                 std::uint64_t*);
};

constexpr Kernels kScalarKernels = {
    Backend::kScalar,
    scalar::popcount,
    scalar::window_row<>,
    scalar::run_row<>,
    scalar::transpose_row<>,
    encode_scalar,
};

#if VLCSA_HAVE_X86_BACKENDS
constexpr Kernels kAvx2Kernels = {
    Backend::kAvx2,
    avx2::popcount,
    avx2::window_row<scalar::window>,
    avx2::run_row<scalar::run>,
    avx2::transpose_row<scalar::transpose_stages>,
    encode_scalar,
};

// Ice Lake-class row (Zen 4 too): avx512f+bw+dq plus vpopcntdq, gfni and
// avx512vbmi.
constexpr Kernels kAvx512Kernels = {
    Backend::kAvx512,
    popcount_avx512,
    avx512::window_row<avx2::window, scalar::window>,
    avx512::run_row<avx2::run, scalar::run>,
    transpose_gfni,
    encode_avx512,
};
// Skylake-class row: avx512f+bw+dq without the later extensions keeps the
// 512-bit sweeps and encode, but reduces with the AVX2 popcount loop and
// transposes with the AVX2 stages.
constexpr Kernels kAvx512KernelsSkylake = {
    Backend::kAvx512,
    avx2::popcount,
    kAvx512Kernels.window,
    kAvx512Kernels.run,
    kAvx2Kernels.transpose,
    encode_avx512,
};
#endif

const Kernels* kernels_for(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return &kScalarKernels;
    case Backend::kAvx2:
#if VLCSA_HAVE_X86_BACKENDS
      if (__builtin_cpu_supports("avx2")) return &kAvx2Kernels;
#endif
      return nullptr;
    case Backend::kAvx512:
#if VLCSA_HAVE_X86_BACKENDS
      if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
          __builtin_cpu_supports("avx512dq")) {
        return __builtin_cpu_supports("avx512vpopcntdq") && __builtin_cpu_supports("gfni") &&
                       __builtin_cpu_supports("avx512vbmi")
                   ? &kAvx512Kernels
                   : &kAvx512KernelsSkylake;
      }
#endif
      return nullptr;
  }
  return nullptr;
}

const Kernels* best_kernels() {
  if (const Kernels* k = kernels_for(Backend::kAvx512)) return k;
  if (const Kernels* k = kernels_for(Backend::kAvx2)) return k;
  return &kScalarKernels;
}

const Kernels* resolve_initial() {
  const char* forced = std::getenv("VLCSA_FORCE_BACKEND");
  if (forced == nullptr || std::string_view(forced) == "auto") return best_kernels();
  const std::string_view name(forced);
  Backend backend;
  if (name == "scalar") {
    backend = Backend::kScalar;
  } else if (name == "avx2") {
    backend = Backend::kAvx2;
  } else if (name == "avx512") {
    backend = Backend::kAvx512;
  } else {
    std::fprintf(stderr,
                 "vlcsa: VLCSA_FORCE_BACKEND=%s is not scalar/avx2/avx512/auto; "
                 "using auto dispatch\n",
                 forced);
    return best_kernels();
  }
  if (const Kernels* k = kernels_for(backend)) return k;
  std::fprintf(stderr,
               "vlcsa: VLCSA_FORCE_BACKEND=%s is unsupported on this CPU/build; "
               "falling back to scalar\n",
               forced);
  return &kScalarKernels;
}

std::atomic<const Kernels*>& active_slot() {
  // Function-local so the env override resolves exactly once, on first use,
  // regardless of static-initialization order.
  static std::atomic<const Kernels*> slot{resolve_initial()};
  return slot;
}

inline const Kernels& active() {
  return *active_slot().load(std::memory_order_relaxed);
}

}  // namespace

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kAvx512: return "avx512";
  }
  return "?";
}

Backend active_backend() { return active().backend; }

bool backend_available(Backend backend) { return kernels_for(backend) != nullptr; }

bool set_backend(Backend backend) {
  const Kernels* k = kernels_for(backend);
  if (k == nullptr) return false;
  active_slot().store(k, std::memory_order_relaxed);
  return true;
}

bool set_backend(std::string_view name) {
  if (name == "auto") {
    active_slot().store(best_kernels(), std::memory_order_relaxed);
    return true;
  }
  if (name == "scalar") return set_backend(Backend::kScalar);
  if (name == "avx2") return set_backend(Backend::kAvx2);
  if (name == "avx512") return set_backend(Backend::kAvx512);
  return false;
}

std::uint64_t popcount_sum(const std::uint64_t* x, std::size_t m) {
  return active().popcount(x, m);
}

void window_sweep(const std::uint64_t* a, const std::uint64_t* b, int n, int stored,
                  int lane_words, int first, int k, std::uint64_t* spec0_wrong,
                  std::uint64_t* spec1_wrong, std::uint64_t* err0, std::uint64_t* err1) {
  assert(n >= 1 && stored >= 1 && stored <= n && lane_words >= 1 && k >= 1 && first >= 1 &&
         first <= n && (n - first) % k == 0);
  // Whole-plane kernel: bases must sit on the PlaneVec alignment contract.
  assert(aligned64(a) && aligned64(b));
  (void)aligned64;
  active().window(a, b, n, stored, lane_words, first, k, spec0_wrong, spec1_wrong, err0, err1);
}

void run_sweep(const std::uint64_t* a, const std::uint64_t* b, int n, int stored,
               int lane_words, int chain, std::uint64_t* spec_wrong, std::uint64_t* err,
               std::uint64_t* scratch) {
  assert(n >= 1 && stored >= 1 && stored <= n && lane_words >= 1 && chain >= 1 && chain <= n);
  assert(aligned64(a) && aligned64(b));
  active().run(a, b, n, stored, lane_words, chain, spec_wrong, err, scratch);
}

void transpose_64x64(std::uint64_t block[64]) { active().transpose(block); }

void encode_samples(const double* x, std::size_t stride, std::size_t count, double mean,
                    double sigma, int width, bool twos, std::uint64_t* out) {
  assert(width >= 1 && stride >= 1);
  const int bits = std::min(width, 64) - (twos ? 1 : 0);
  // 2^bits built from its exponent field (bits <= 64, far from overflow).
  const EncodeBounds bounds = {
      twos, std::bit_cast<double>(static_cast<std::uint64_t>(1023 + bits) << 52),
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1};
  active().encode(x, stride, count, mean, sigma, bounds, out);
}

}  // namespace vlcsa::arith::planeops
