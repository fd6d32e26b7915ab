#include "arith/planeops.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VLCSA_HAVE_AVX2_BACKEND 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define VLCSA_HAVE_NEON_BACKEND 1
#endif

namespace vlcsa::arith::planeops {

namespace {

inline bool aligned64(const void* p) {
  return (reinterpret_cast<std::uintptr_t>(p) % kPlaneAlignment) == 0;
}

// ---- scalar backend (the oracle every other backend is pinned to) ----------

std::uint64_t popcount_scalar(const std::uint64_t* x, std::size_t m) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < m; ++i) {
    sum += static_cast<std::uint64_t>(std::popcount(x[i]));
  }
  return sum;
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

// The scalar sweeps walk lane-word columns col .. lane_words - 1 one at a
// time, every signal in a register.  The SIMD bodies hand them the columns
// left over after their last whole vector.

void window_scalar(const std::uint64_t* a, const std::uint64_t* b, int n, int stored,
                   int lane_words, int first, int k, int col, std::uint64_t* spec0_wrong,
                   std::uint64_t* spec1_wrong, std::uint64_t* err0, std::uint64_t* err1) {
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  const std::size_t last = static_cast<std::size_t>(stored - 1) * lw;
  for (std::size_t w = static_cast<std::size_t>(col); w < lw; ++w) {
    const std::uint64_t* pa = a + w;
    const std::uint64_t* pb = b + w;
    std::uint64_t prev_g = 0, prev_p = 0, carry = 0, s0 = 0, s1 = 0, e0 = 0, e1 = 0;
    for (int i = 0, pos = 0, size = first; pos < n; ++i, pos += size, size = k) {
      if (pos >= stored) {
        pa = a + last + w;
        pb = b + last + w;
      }
      std::uint64_t g = 0, p = ~std::uint64_t{0};
      const int reads = window_reads(pos, size, stored);
      for (int bit = 0; bit < reads; ++bit, pa += lw, pb += lw) {
        g = (*pa & *pb) | ((*pa | *pb) & g);  // maj(a, b, g)
        p &= *pa ^ *pb;
      }
      if (i > 0) {
        // `carry` is the exact carry into window i.
        s0 |= prev_g ^ carry;
        s1 |= (i == 1 ? prev_g : prev_g | prev_p) ^ carry;
        e0 |= prev_g & p;
        if (i >= 2) e1 |= prev_p & ~p;
      }
      carry = g | (p & carry);
      prev_g = g;
      prev_p = p;
      if (window_tail_done(i, pos, k, stored)) break;
    }
    spec0_wrong[w] = s0;
    spec1_wrong[w] = s1;
    err0[w] = e0;
    err1[w] = e1;
  }
}

// The run sweep's sliding window, blocked van Herk/Gil-Werman style: bits
// are cut into chain-bit blocks, and the window ending at offset t of a block
// is the suffix of the previous block from offset t + 1 joined with the
// prefix of this block up to t.  suffix[t] holds that previous-block suffix
// AND (all ones at t = chain - 1, where the window is this whole block); it
// is read once at offset t, then overwritten with this block's propagate
// word, and at the block end one backward pass turns those words into the
// next block's suffixes.  Before block 0 every suffix but the empty one is
// 0, so windows that would reach below bit 0 are never runs.  A block's
// bits at or above `stored` (the tail) all read plane stored - 1.
//
// run_bit is one bit on plane words x, y: the carry out of the bit, the
// block's running prefix AND and the run folds; `slot` holds the suffix AND
// for this offset and takes this bit's propagate word.
inline void run_bit(std::uint64_t x, std::uint64_t y, std::uint64_t& slot, std::uint64_t& carry,
                    std::uint64_t& prefix, std::uint64_t& sw, std::uint64_t& e) {
  const std::uint64_t p = x ^ y;
  carry = (x & y) | (p & carry);  // carry out of this bit
  prefix &= p;
  const std::uint64_t runs = slot & prefix;
  slot = p;
  sw |= runs & carry;
  e |= runs;
}

void run_scalar(const std::uint64_t* a, const std::uint64_t* b, int n, int stored,
                int lane_words, int chain, int col, std::uint64_t* spec_wrong,
                std::uint64_t* err, std::uint64_t* suffix) {
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  const int bits = run_bits(n, stored, chain);
  const std::size_t last = static_cast<std::size_t>(stored - 1) * lw;
  for (std::size_t w = static_cast<std::size_t>(col); w < lw; ++w) {
    for (int t = 0; t < chain; ++t) suffix[t] = t == chain - 1 ? ~std::uint64_t{0} : 0;
    const std::uint64_t* pa = a + w;
    const std::uint64_t* pb = b + w;
    const std::uint64_t tail_a = a[last + w], tail_b = b[last + w];
    std::uint64_t carry = 0, sw = 0, e = 0;
    for (int base = 0; base < bits; base += chain) {
      const int len = std::min(chain, bits - base);
      const int fresh = std::clamp(stored - base, 0, len);
      std::uint64_t prefix = ~std::uint64_t{0};
      int t = 0;
      for (; t < fresh; ++t, pa += lw, pb += lw) run_bit(*pa, *pb, suffix[t], carry, prefix, sw, e);
      for (; t < len; ++t) run_bit(tail_a, tail_b, suffix[t], carry, prefix, sw, e);
      if (base + chain < bits) {
        std::uint64_t acc = ~std::uint64_t{0};
        for (int t = chain - 1; t >= 0; --t) {
          const std::uint64_t p = suffix[t];
          suffix[t] = acc;
          acc &= p;
        }
      }
    }
    spec_wrong[w] = sw;
    err[w] = e;
  }
}

void transpose_scalar(std::uint64_t block[64]) {
  // Recursive block swap (Hacker's Delight 7-3 style, oriented for a true
  // main-diagonal transpose): at each level, swap the high-column half of
  // the upper row group with the low-column half of the lower row group,
  // for sub-block sizes 32, 16, ..., 1.
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((block[k] >> j) ^ block[k | j]) & m;
      block[k] ^= t << j;
      block[k | j] ^= t;
    }
  }
}

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

// ---- AVX2 backend ----------------------------------------------------------
//
// Built with per-function target attributes so the stock (non -march=native)
// build still carries the AVX2 code paths and runtime dispatch picks them on
// capable hosts.  All memory accesses are unaligned-safe loadu/storeu.

#if VLCSA_HAVE_AVX2_BACKEND

__attribute__((target("avx2,popcnt"))) std::uint64_t popcount_avx2(const std::uint64_t* x,
                                                                   std::size_t m) {
  // Lane masks are short (a handful of words); the hardware popcnt loop beats
  // a pshufb reduction until far larger m than the accumulators ever pass.
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < m; ++i) {
    sum += static_cast<std::uint64_t>(__builtin_popcountll(x[i]));
  }
  return sum;
}

// The AVX2 sweeps take four lane-word columns per ymm from column `col` on,
// with the same algebra and block scheme as the scalar bodies, which finish
// the leftover columns.  The AVX-512 bodies hand their leftovers to these.
__attribute__((target("avx2"))) void window_avx2(
    const std::uint64_t* a, const std::uint64_t* b, int n, int stored, int lane_words,
    int first, int k, int col, std::uint64_t* spec0_wrong, std::uint64_t* spec1_wrong,
    std::uint64_t* err0, std::uint64_t* err1) {
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi64x(-1);
  const std::size_t last = static_cast<std::size_t>(stored - 1) * lw;
  for (; col + 4 <= lane_words; col += 4) {
    const std::uint64_t* pa = a + col;
    const std::uint64_t* pb = b + col;
    __m256i prev_g = zero, prev_p = zero, carry = zero, s0 = zero, s1 = zero, e0 = zero,
            e1 = zero;
    for (int i = 0, pos = 0, size = first; pos < n; ++i, pos += size, size = k) {
      if (pos >= stored) {
        pa = a + last + col;
        pb = b + last + col;
      }
      __m256i g = zero, p = ones;
      const int reads = window_reads(pos, size, stored);
      for (int bit = 0; bit < reads; ++bit, pa += lw, pb += lw) {
        const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa));
        const __m256i y = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb));
        g = _mm256_or_si256(_mm256_and_si256(x, y), _mm256_and_si256(_mm256_or_si256(x, y), g));
        p = _mm256_and_si256(p, _mm256_xor_si256(x, y));
      }
      if (i > 0) {
        const __m256i sel1 = i == 1 ? prev_g : _mm256_or_si256(prev_g, prev_p);
        s0 = _mm256_or_si256(s0, _mm256_xor_si256(prev_g, carry));
        s1 = _mm256_or_si256(s1, _mm256_xor_si256(sel1, carry));
        e0 = _mm256_or_si256(e0, _mm256_and_si256(prev_g, p));
        // _mm256_andnot_si256(a, b) = ~a & b.
        if (i >= 2) e1 = _mm256_or_si256(e1, _mm256_andnot_si256(p, prev_p));
      }
      carry = _mm256_or_si256(g, _mm256_and_si256(p, carry));
      prev_g = g;
      prev_p = p;
      if (window_tail_done(i, pos, k, stored)) break;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec0_wrong + col), s0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec1_wrong + col), s1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(err0 + col), e0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(err1 + col), e1);
  }
  window_scalar(a, b, n, stored, lane_words, first, k, col, spec0_wrong, spec1_wrong, err0,
                err1);
}

__attribute__((target("avx2"), always_inline)) inline void run_bit_avx2(
    __m256i x, __m256i y, __m256i* slot, __m256i& carry, __m256i& prefix, __m256i& sw,
    __m256i& e) {
  const __m256i p = _mm256_xor_si256(x, y);
  carry = _mm256_or_si256(_mm256_and_si256(x, y), _mm256_and_si256(p, carry));
  prefix = _mm256_and_si256(prefix, p);
  const __m256i runs = _mm256_and_si256(_mm256_loadu_si256(slot), prefix);
  _mm256_storeu_si256(slot, p);
  sw = _mm256_or_si256(sw, _mm256_and_si256(runs, carry));
  e = _mm256_or_si256(e, runs);
}

__attribute__((target("avx2"))) void run_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                              int n, int stored, int lane_words, int chain,
                                              int col, std::uint64_t* spec_wrong,
                                              std::uint64_t* err, std::uint64_t* scratch) {
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  const int bits = run_bits(n, stored, chain);
  const std::size_t last = static_cast<std::size_t>(stored - 1) * lw;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi64x(-1);
  __m256i* suffix = reinterpret_cast<__m256i*>(scratch);
  for (; col + 4 <= lane_words; col += 4) {
    for (int t = 0; t < chain; ++t) {
      _mm256_storeu_si256(suffix + t, t == chain - 1 ? ones : zero);
    }
    const std::uint64_t* pa = a + col;
    const std::uint64_t* pb = b + col;
    const __m256i tail_a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + last + col));
    const __m256i tail_b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + last + col));
    __m256i carry = zero, sw = zero, e = zero;
    for (int base = 0; base < bits; base += chain) {
      const int len = std::min(chain, bits - base);
      const int fresh = std::clamp(stored - base, 0, len);
      __m256i prefix = ones;
      int t = 0;
      for (; t < fresh; ++t, pa += lw, pb += lw) {
        run_bit_avx2(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa)),
                     _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb)), suffix + t, carry,
                     prefix, sw, e);
      }
      for (; t < len; ++t) run_bit_avx2(tail_a, tail_b, suffix + t, carry, prefix, sw, e);
      if (base + chain < bits) {
        __m256i acc = ones;
        for (int t = chain - 1; t >= 0; --t) {
          const __m256i p = _mm256_loadu_si256(suffix + t);
          _mm256_storeu_si256(suffix + t, acc);
          acc = _mm256_and_si256(acc, p);
        }
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec_wrong + col), sw);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(err + col), e);
  }
  run_scalar(a, b, n, stored, lane_words, chain, col, spec_wrong, err, scratch);
}


// Same recursive block swap as the scalar transpose; sub-block sizes >= 4
// handle four rows per vector op (runs of consecutive k with bit j clear have
// length j, a multiple of 4 there), sizes 2 and 1 finish scalar.
__attribute__((target("avx2"))) void transpose_avx2(std::uint64_t block[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  int j = 32;
  for (; j >= 4; m ^= m << (j >>= 1)) {
    const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
    for (int base = 0; base < 64; base += 2 * j) {
      for (int k = base; k < base + j; k += 4) {
        const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + k));
        const __m256i hi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + k + j));
        const __m256i t =
            _mm256_and_si256(_mm256_xor_si256(_mm256_srli_epi64(lo, j), hi), vm);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + k),
                            _mm256_xor_si256(lo, _mm256_slli_epi64(t, j)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + k + j),
                            _mm256_xor_si256(hi, t));
      }
    }
  }
  for (; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((block[k] >> j) ^ block[k | j]) & m;
      block[k] ^= t << j;
      block[k | j] ^= t;
    }
  }
}

#endif  // VLCSA_HAVE_AVX2_BACKEND

// ---- AVX-512 backend -------------------------------------------------------
//
// Same per-function target-attribute scheme as AVX2 (stock builds carry the
// bodies, runtime cpuid picks them), at twice the width: 8 plane words per
// vector.  Requires avx512f+bw+dq.  The vpopcntdq popcount and the
// gfni+vbmi transpose make up a second dispatch row, so Skylake-class parts
// still get the 512-bit sweeps and encode, with the hardware-popcnt
// reduction and the AVX2 transpose.

#if VLCSA_HAVE_AVX2_BACKEND  // same toolchain gate: x86-64 gcc/clang
#define VLCSA_HAVE_AVX512_BACKEND 1

// GCC's avx512fintrin.h expands the unmasked intrinsics through their masked
// forms with an undefined pass-through operand, which -Wmaybe-uninitialized
// flags at every inline site (GCC bug 105593).  The operand is dead under a
// full mask, so silence the false positive for this section only.
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

// The AVX-512 sweeps take eight lane-word columns per zmm, with the same
// algebra and block scheme as the scalar bodies.  Leftover columns go to the
// AVX2 bodies (avx512f implies avx2), which leave the last 0-3 to the scalar
// ones.  vpternlog
// immediates: 0xE8 = maj(x, y, z), 0x60 = x & (y ^ z), 0xF8 = x | (y & z),
// 0xF6 = x | (y ^ z), 0xF4 = x | (y & ~z).
__attribute__((target("avx512f,avx512bw"))) void window_avx512(
    const std::uint64_t* a, const std::uint64_t* b, int n, int stored, int lane_words,
    int first, int k, int col, std::uint64_t* spec0_wrong, std::uint64_t* spec1_wrong,
    std::uint64_t* err0, std::uint64_t* err1) {
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i ones = _mm512_set1_epi64(-1);
  const std::size_t last = static_cast<std::size_t>(stored - 1) * lw;
  for (; col + 8 <= lane_words; col += 8) {
    const std::uint64_t* pa = a + col;
    const std::uint64_t* pb = b + col;
    __m512i prev_g = zero, prev_p = zero, carry = zero, s0 = zero, s1 = zero, e0 = zero,
            e1 = zero;
    for (int i = 0, pos = 0, size = first; pos < n; ++i, pos += size, size = k) {
      if (pos >= stored) {
        pa = a + last + col;
        pb = b + last + col;
      }
      __m512i g = zero, p = ones;
      const int reads = window_reads(pos, size, stored);
      for (int bit = 0; bit < reads; ++bit, pa += lw, pb += lw) {
        const __m512i x = _mm512_loadu_si512(pa);
        const __m512i y = _mm512_loadu_si512(pb);
        g = _mm512_ternarylogic_epi64(x, y, g, 0xE8);
        p = _mm512_ternarylogic_epi64(p, x, y, 0x60);
      }
      if (i > 0) {
        const __m512i sel1 = i == 1 ? prev_g : _mm512_or_si512(prev_g, prev_p);
        s0 = _mm512_ternarylogic_epi64(s0, prev_g, carry, 0xF6);
        s1 = _mm512_ternarylogic_epi64(s1, sel1, carry, 0xF6);
        e0 = _mm512_ternarylogic_epi64(e0, prev_g, p, 0xF8);
        if (i >= 2) e1 = _mm512_ternarylogic_epi64(e1, prev_p, p, 0xF4);
      }
      carry = _mm512_ternarylogic_epi64(g, p, carry, 0xF8);
      prev_g = g;
      prev_p = p;
      if (window_tail_done(i, pos, k, stored)) break;
    }
    _mm512_storeu_si512(spec0_wrong + col, s0);
    _mm512_storeu_si512(spec1_wrong + col, s1);
    _mm512_storeu_si512(err0 + col, e0);
    _mm512_storeu_si512(err1 + col, e1);
  }
  window_avx2(a, b, n, stored, lane_words, first, k, col, spec0_wrong, spec1_wrong, err0,
              err1);
}

__attribute__((target("avx512f,avx512bw"), always_inline)) inline void run_bit_avx512(
    __m512i x, __m512i y, std::uint64_t* slot, __m512i& carry, __m512i& prefix, __m512i& sw,
    __m512i& e) {
  const __m512i p = _mm512_xor_si512(x, y);
  carry = _mm512_ternarylogic_epi64(x, y, carry, 0xE8);
  prefix = _mm512_and_si512(prefix, p);
  const __m512i runs = _mm512_and_si512(_mm512_loadu_si512(slot), prefix);
  _mm512_storeu_si512(slot, p);
  sw = _mm512_ternarylogic_epi64(sw, runs, carry, 0xF8);
  e = _mm512_or_si512(e, runs);
}

__attribute__((target("avx512f,avx512bw"))) void run_avx512(
    const std::uint64_t* a, const std::uint64_t* b, int n, int stored, int lane_words,
    int chain, int col, std::uint64_t* spec_wrong, std::uint64_t* err, std::uint64_t* scratch) {
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  const int bits = run_bits(n, stored, chain);
  const std::size_t last = static_cast<std::size_t>(stored - 1) * lw;
  const __m512i zero = _mm512_setzero_si512();
  const __m512i ones = _mm512_set1_epi64(-1);
  for (; col + 8 <= lane_words; col += 8) {
    for (int t = 0; t < chain; ++t) {
      _mm512_storeu_si512(scratch + 8 * t, t == chain - 1 ? ones : zero);
    }
    const std::uint64_t* pa = a + col;
    const std::uint64_t* pb = b + col;
    const __m512i tail_a = _mm512_loadu_si512(a + last + col);
    const __m512i tail_b = _mm512_loadu_si512(b + last + col);
    __m512i carry = zero, sw = zero, e = zero;
    for (int base = 0; base < bits; base += chain) {
      const int len = std::min(chain, bits - base);
      const int fresh = std::clamp(stored - base, 0, len);
      __m512i prefix = ones;
      int t = 0;
      for (; t < fresh; ++t, pa += lw, pb += lw) {
        run_bit_avx512(_mm512_loadu_si512(pa), _mm512_loadu_si512(pb), scratch + 8 * t, carry,
                       prefix, sw, e);
      }
      for (; t < len; ++t) run_bit_avx512(tail_a, tail_b, scratch + 8 * t, carry, prefix, sw, e);
      if (base + chain < bits) {
        __m512i acc = ones;
        for (int t = chain - 1; t >= 0; --t) {
          const __m512i p = _mm512_loadu_si512(scratch + 8 * t);
          _mm512_storeu_si512(scratch + 8 * t, acc);
          acc = _mm512_and_si512(acc, p);
        }
      }
    }
    _mm512_storeu_si512(spec_wrong + col, sw);
    _mm512_storeu_si512(err + col, e);
  }
  run_avx2(a, b, n, stored, lane_words, chain, col, spec_wrong, err, scratch);
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

#endif  // VLCSA_HAVE_AVX512_BACKEND

// ---- dispatch --------------------------------------------------------------

// The sweeps take the first lane-word column to process, so each body can
// hand its leftover columns to a narrower one; the public entry points pass 0.
struct Kernels {
  Backend backend;
  std::uint64_t (*popcount)(const std::uint64_t*, std::size_t);
  void (*window)(const std::uint64_t*, const std::uint64_t*, int, int, int, int, int, int,
                 std::uint64_t*, std::uint64_t*, std::uint64_t*, std::uint64_t*);
  void (*run)(const std::uint64_t*, const std::uint64_t*, int, int, int, int, int,
              std::uint64_t*, std::uint64_t*, std::uint64_t*);
  void (*transpose)(std::uint64_t*);
  void (*encode)(const double*, std::size_t, std::size_t, double, double, const EncodeBounds&,
                 std::uint64_t*);
};

constexpr Kernels kScalarKernels = {
    Backend::kScalar, popcount_scalar, window_scalar, run_scalar, transpose_scalar,
    encode_scalar,
};

#if VLCSA_HAVE_AVX2_BACKEND
constexpr Kernels kAvx2Kernels = {
    Backend::kAvx2, popcount_avx2, window_avx2, run_avx2, transpose_avx2, encode_scalar,
};
#endif

#if VLCSA_HAVE_AVX512_BACKEND
// Ice Lake-class row (Zen 4 too): avx512f+bw+dq plus vpopcntdq, gfni and
// avx512vbmi.
constexpr Kernels kAvx512Kernels = {
    Backend::kAvx512, popcount_avx512, window_avx512, run_avx512, transpose_gfni,
    encode_avx512,
};
// Skylake-class row: avx512f+bw+dq without the later extensions keeps the
// 512-bit sweeps and encode, but reduces with the hardware-popcnt loop and
// transposes with the AVX2 body.
constexpr Kernels kAvx512KernelsSkylake = {
    Backend::kAvx512, popcount_avx2, window_avx512, run_avx512, transpose_avx2, encode_avx512,
};
#endif

#if VLCSA_HAVE_NEON_BACKEND
// No NEON bodies remain: every kernel is the scalar one, kept as its own
// row so the backend still names itself.
constexpr Kernels kNeonKernels = {
    Backend::kNeon, popcount_scalar, window_scalar, run_scalar, transpose_scalar, encode_scalar,
};
#endif

const Kernels* kernels_for(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return &kScalarKernels;
    case Backend::kAvx2:
#if VLCSA_HAVE_AVX2_BACKEND
      if (__builtin_cpu_supports("avx2")) return &kAvx2Kernels;
#endif
      return nullptr;
    case Backend::kAvx512:
#if VLCSA_HAVE_AVX512_BACKEND
      if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
          __builtin_cpu_supports("avx512dq")) {
        return __builtin_cpu_supports("avx512vpopcntdq") && __builtin_cpu_supports("gfni") &&
                       __builtin_cpu_supports("avx512vbmi")
                   ? &kAvx512Kernels
                   : &kAvx512KernelsSkylake;
      }
#endif
      return nullptr;
    case Backend::kNeon:
#if VLCSA_HAVE_NEON_BACKEND
      return &kNeonKernels;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const Kernels* best_kernels() {
  if (const Kernels* k = kernels_for(Backend::kAvx512)) return k;
  if (const Kernels* k = kernels_for(Backend::kAvx2)) return k;
  if (const Kernels* k = kernels_for(Backend::kNeon)) return k;
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
  } else if (name == "neon") {
    backend = Backend::kNeon;
  } else {
    std::fprintf(stderr,
                 "vlcsa: VLCSA_FORCE_BACKEND=%s is not scalar/avx2/avx512/neon/auto; "
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
    case Backend::kNeon: return "neon";
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
  if (name == "neon") return set_backend(Backend::kNeon);
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
  active().window(a, b, n, stored, lane_words, first, k, 0, spec0_wrong, spec1_wrong, err0,
                  err1);
}

void run_sweep(const std::uint64_t* a, const std::uint64_t* b, int n, int stored,
               int lane_words, int chain, std::uint64_t* spec_wrong, std::uint64_t* err,
               std::uint64_t* scratch) {
  assert(n >= 1 && stored >= 1 && stored <= n && lane_words >= 1 && chain >= 1 && chain <= n);
  assert(aligned64(a) && aligned64(b));
  active().run(a, b, n, stored, lane_words, chain, 0, spec_wrong, err, scratch);
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
