#pragma once
// Per-ISA vector-ops sets.  The bit-parallel kernels (the planeops sweeps,
// block-swap transpose and popcount loop, the MT19937-64 twist and temper)
// are each written once, as a body over these ops, and that body is
// compiled once per ISA namespace that includes it (planeops_kernels.inc,
// rng_kernels.inc).  An ops set is a namespace holding
//   V, kWords      the vector type, kWords 64-bit words wide (scalar: one
//                  uint64_t);
//   load / store   kWords consecutive words, unaligned-safe;
//   set1 / zero / ones, and_ / or_ / xor_ / sub (per 64-bit word);
//   shl / shr      shift every word by `bits`;
//   maj(x, y, z)   the bitwise majority.  The sweeps pass their running
//                  carry or generate as x: vpternlogq overwrites its first
//                  operand, and the scalar and AVX2 sets spell it
//                  (y & z) | ((y ^ z) & x), sharing the propagate y ^ z;
//   and_xor = x & (y ^ z), or_and = x | (y & z), or_xor = x | (y ^ z),
//   or_andnot = x | (y & ~z)   the fused folds the sweeps accumulate with.
// The AVX-512 set spells maj and the fused folds as one vpternlogq each:
// GCC 12 fuses neither the operator nor the intrinsic compositions.
//
// VLCSA_TARGET_PUSH("isa") ... VLCSA_TARGET_POP compiles every function
// defined between them for that ISA (GCC push_options/target, clang
// attribute push), so a stock build carries every body and runtime
// dispatch picks one.  Nothing in such a region may pass vectors through a
// lambda: GCC 12 does not give lambdas the region's target (-Wpsabi).

#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VLCSA_HAVE_X86_BACKENDS 1
#include <immintrin.h>
#endif

#define VLCSA_PRAGMA(tokens) _Pragma(#tokens)
#if defined(__clang__)
#define VLCSA_TARGET_PUSH(isa) \
  VLCSA_PRAGMA(clang attribute push(__attribute__((target(isa))), apply_to = function))
#define VLCSA_TARGET_POP VLCSA_PRAGMA(clang attribute pop)
#else
// GCC's avx512fintrin.h expands the unmasked intrinsics through their masked
// forms with an undefined pass-through operand, which -Wmaybe-uninitialized
// flags at every inline site (GCC bug 105593).  The operand is dead under a
// full mask, so the regions silence that false positive.
#define VLCSA_TARGET_PUSH(isa)                                                \
  VLCSA_PRAGMA(GCC push_options) VLCSA_PRAGMA(GCC target(isa))                \
  VLCSA_PRAGMA(GCC diagnostic push) VLCSA_PRAGMA(GCC diagnostic ignored "-Wuninitialized") \
  VLCSA_PRAGMA(GCC diagnostic ignored "-Wmaybe-uninitialized")
#define VLCSA_TARGET_POP VLCSA_PRAGMA(GCC diagnostic pop) VLCSA_PRAGMA(GCC pop_options)
#endif

// The ISA strings of the regions.  Each includes the narrower one (avx512f
// implies avx2), so narrower bodies inline into wider ones; popcnt comes
// with every avx2 part, so dispatch checks avx2 and avx512f+bw+dq only.
#define VLCSA_AVX2_TARGET "avx2,popcnt"
#define VLCSA_AVX512_TARGET "avx512f,avx512bw,popcnt"

namespace vlcsa::arith::simd {

namespace scalar {

using V = std::uint64_t;
inline constexpr int kWords = 1;

inline V load(const std::uint64_t* p) { return *p; }
inline void store(std::uint64_t* p, V v) { *p = v; }
inline V set1(std::uint64_t x) { return x; }
inline V zero() { return 0; }
inline V ones() { return ~V{0}; }
inline V and_(V x, V y) { return x & y; }
inline V or_(V x, V y) { return x | y; }
inline V xor_(V x, V y) { return x ^ y; }
inline V sub(V x, V y) { return x - y; }
inline V shl(V x, int bits) { return x << bits; }
inline V shr(V x, int bits) { return x >> bits; }
inline V maj(V x, V y, V z) { return (y & z) | ((y ^ z) & x); }
inline V and_xor(V x, V y, V z) { return x & (y ^ z); }
inline V or_and(V x, V y, V z) { return x | (y & z); }
inline V or_xor(V x, V y, V z) { return x | (y ^ z); }
inline V or_andnot(V x, V y, V z) { return x | (y & ~z); }

}  // namespace scalar

#if VLCSA_HAVE_X86_BACKENDS

VLCSA_TARGET_PUSH(VLCSA_AVX2_TARGET)
namespace avx2 {

using V = __m256i;
inline constexpr int kWords = 4;

inline V load(const std::uint64_t* p) { return _mm256_loadu_si256(reinterpret_cast<const V*>(p)); }
inline void store(std::uint64_t* p, V v) { _mm256_storeu_si256(reinterpret_cast<V*>(p), v); }
inline V set1(std::uint64_t x) { return _mm256_set1_epi64x(static_cast<long long>(x)); }
inline V zero() { return _mm256_setzero_si256(); }
inline V ones() { return _mm256_set1_epi64x(-1); }
inline V and_(V x, V y) { return _mm256_and_si256(x, y); }
inline V or_(V x, V y) { return _mm256_or_si256(x, y); }
inline V xor_(V x, V y) { return _mm256_xor_si256(x, y); }
inline V sub(V x, V y) { return _mm256_sub_epi64(x, y); }
inline V shl(V x, int bits) { return _mm256_slli_epi64(x, bits); }
inline V shr(V x, int bits) { return _mm256_srli_epi64(x, bits); }
inline V maj(V x, V y, V z) { return or_(and_(y, z), and_(xor_(y, z), x)); }
inline V and_xor(V x, V y, V z) { return and_(x, xor_(y, z)); }
inline V or_and(V x, V y, V z) { return or_(x, and_(y, z)); }
inline V or_xor(V x, V y, V z) { return or_(x, xor_(y, z)); }
// _mm256_andnot_si256(z, y) = ~z & y.
inline V or_andnot(V x, V y, V z) { return or_(x, _mm256_andnot_si256(z, y)); }

}  // namespace avx2
VLCSA_TARGET_POP

VLCSA_TARGET_PUSH(VLCSA_AVX512_TARGET)
namespace avx512 {

using V = __m512i;
inline constexpr int kWords = 8;

inline V load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
inline void store(std::uint64_t* p, V v) { _mm512_storeu_si512(p, v); }
inline V set1(std::uint64_t x) { return _mm512_set1_epi64(static_cast<long long>(x)); }
inline V zero() { return _mm512_setzero_si512(); }
inline V ones() { return _mm512_set1_epi64(-1); }
inline V and_(V x, V y) { return _mm512_and_si512(x, y); }
inline V or_(V x, V y) { return _mm512_or_si512(x, y); }
inline V xor_(V x, V y) { return _mm512_xor_si512(x, y); }
inline V sub(V x, V y) { return _mm512_sub_epi64(x, y); }
inline V shl(V x, int bits) { return _mm512_slli_epi64(x, static_cast<unsigned>(bits)); }
inline V shr(V x, int bits) { return _mm512_srli_epi64(x, static_cast<unsigned>(bits)); }
// vpternlogq immediates: the truth table of f(x, y, z) over x = 0xF0,
// y = 0xCC, z = 0xAA.
inline V maj(V x, V y, V z) { return _mm512_ternarylogic_epi64(x, y, z, 0xE8); }
inline V and_xor(V x, V y, V z) { return _mm512_ternarylogic_epi64(x, y, z, 0x60); }
inline V or_and(V x, V y, V z) { return _mm512_ternarylogic_epi64(x, y, z, 0xF8); }
inline V or_xor(V x, V y, V z) { return _mm512_ternarylogic_epi64(x, y, z, 0xF6); }
inline V or_andnot(V x, V y, V z) { return _mm512_ternarylogic_epi64(x, y, z, 0xF4); }

}  // namespace avx512
VLCSA_TARGET_POP

#endif  // VLCSA_HAVE_X86_BACKENDS

}  // namespace vlcsa::arith::simd
