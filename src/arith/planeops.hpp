#pragma once
// Plane-kernel layer: the word-parallel primitives every bit-sliced
// evaluation path is built from, each with a scalar backend and (on x86-64)
// AVX2 and AVX-512 backends — the NEON row runs the scalar bodies —
// selected once at startup by runtime CPU dispatch.
//
// A "plane array" is a flat sequence of 64-bit words; callers lay their
// planes out bit-major with `lane_words` words per bit (bitslice.hpp), but
// the reduction and transpose kernels are layout-agnostic.  The structured
// kernels — the SCSA window sweep and the VLSA run sweep — take the
// (n, lane_words) shape explicitly.
//
// Contracts:
//  * Every backend computes bit-identical results — the scalar backend is
//    the oracle and tests/arith/planeops_test.cpp pins the others to it.
//  * Backend selection: VLCSA_FORCE_BACKEND=scalar|avx2|avx512|neon|auto in the
//    environment wins (unsupported forced backends fall back to scalar with
//    a one-time stderr note); otherwise the best supported backend is used.
//    set_backend() switches at runtime for tests/benches; it must not race
//    in-flight kernels (switch between runs, not during).
//  * Plane storage should be 64-byte aligned (PlaneVec below guarantees it);
//    kernels that receive whole plane arrays assert the base alignment so a
//    stray unaligned buffer is caught in debug builds.  Loads/stores inside
//    the SIMD backends are unaligned-safe, so alignment is a performance
//    contract, not a correctness one.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace vlcsa::arith::planeops {

/// Alignment of plane storage: one cache line (and ≥ any SIMD vector we use).
inline constexpr std::size_t kPlaneAlignment = 64;

/// Minimal aligned allocator so plane arrays (and scratch buffers) start on
/// a cache-line boundary without a custom container.
///
/// It over-allocates one alignment unit from plain operator new and aligns
/// by hand, keeping the raw pointer in the word below the block.  The
/// aligned operator new would route through glibc's memalign, which carves
/// small remainder chunks off each block; those pin the freed planes apart,
/// so the engine's per-shard batches could not reuse them and each worker's
/// heap crept upward shard after shard.  Equal-size plain allocations reuse
/// freed blocks exactly.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    // operator new's result is at least pointer-aligned, so the aligned
    // block starts 8..64 bytes in and the raw-pointer slot below it is in
    // range.
    void* raw = ::operator new(n * sizeof(T) + kPlaneAlignment);
    const std::uintptr_t aligned = (reinterpret_cast<std::uintptr_t>(raw) + kPlaneAlignment) &
                                   ~std::uintptr_t{kPlaneAlignment - 1};
    reinterpret_cast<void**>(aligned)[-1] = raw;
    return reinterpret_cast<T*>(aligned);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }

  template <typename U>
  [[nodiscard]] bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// The standard container for plane arrays and lane-mask groups: a
/// uint64_t vector whose data() is 64-byte aligned.
using PlaneVec = std::vector<std::uint64_t, AlignedAllocator<std::uint64_t>>;

enum class Backend {
  kScalar,
  kAvx2,
  kAvx512,  // needs avx512f+bw+dq; vpopcntdq+gfni+vbmi picked up together when present
  kNeon,
};

[[nodiscard]] const char* to_string(Backend backend);

/// The backend the kernels below currently dispatch to.
[[nodiscard]] Backend active_backend();

/// True when this CPU/build can run `backend`.
[[nodiscard]] bool backend_available(Backend backend);

/// Switches the dispatch table; returns false (and leaves the active backend
/// unchanged) when the backend is not available.  Not safe to call while
/// kernels are executing on other threads.
bool set_backend(Backend backend);

/// Parses "scalar" / "avx2" / "avx512" / "neon" / "auto" ("auto" = best
/// available) and switches; returns false on unknown names and unavailable
/// backends (an avx512 request on a CPU without the ISA fails, it does not
/// degrade to auto).
bool set_backend(std::string_view name);

/// Sum of popcounts over m words — the mask-popcount reduction the Monte
/// Carlo accumulators fold lane masks with.
[[nodiscard]] std::uint64_t popcount_sum(const std::uint64_t* x, std::size_t m);

// --- Streaming sweeps over bit-major operand planes.  Both take the operand
// --- planes a/b of an n-bit batch (bit i's group at [i * lane_words,
// --- (i + 1) * lane_words)) of which the first `stored` (1 <= stored <= n)
// --- are read: every plane at or above `stored` repeats plane stored - 1
// --- (BitSlicedBatch::stored_planes), so its words are never touched.  They
// --- walk the bits once from the LSB up with their state in registers (plus
// --- the run sweep's suffix scratch), fold the constant tail in closed form,
// --- and write lane-mask groups of lane_words words.  Lane-word columns are
// --- independent, so SIMD bodies take whole vectors of columns and leave the
// --- rest to narrower bodies, down to the scalar one.
//
// The tail is constant per lane (a = A, b = B), so its bits generate
// G = A & B and propagate P = A ^ B with G & P = 0, and the carry
// c' = G | (P & c) is idempotent there.

/// The SCSA window sweep (ScsaModel::evaluate_batch).  The windows are
/// [0, first) and then `k`-bit windows up to n (first + k * (m - 1) == n).
/// Per window it ripples the group generate G = maj(a, b, G) and ANDs the
/// group propagate P &= a ^ b; at each window boundary it compares the
/// speculative carry-in selects with the exact carry into the window
/// (threaded as c' = G | (P & c)) and folds the detectors:
///   spec0_wrong: some window's S*,0 select G_{i-1} != exact carry-in;
///   spec1_wrong: the same for S*,1 (select G_0 into window 1, and
///                G_{i-1} | P_{i-1} beyond);
///   err0: some pair G_{i-1} & P_i (i >= 1);
///   err1: some pair P_{i-1} & ~P_i (i >= 2).
/// Tail: a repeated plane leaves a window's G and P alone, so a window reads
/// its stored planes (plane stored - 1 once if it has none).  Windows wholly
/// at or above plane stored - 1 all yield (G, P) and leave the carry
/// unchanged after the first, so from window 2 on, once the previous window
/// lay there too, every later window repeats the same fold and the sweep
/// stops.
void window_sweep(const std::uint64_t* a, const std::uint64_t* b, int n, int stored,
                  int lane_words, int first, int k, std::uint64_t* spec0_wrong,
                  std::uint64_t* spec1_wrong, std::uint64_t* err0, std::uint64_t* err1);

/// The VLSA propagate-run sweep (VlsaModel::evaluate_batch) for speculative
/// chain length `chain` (1 <= chain <= n).  Ripples the exact carry
/// c = maj(a, b, c) and tracks runs(j) = "bits j-chain+1 .. j all
/// propagate" with a van Herk/Gil-Werman sliding AND (the suffix ANDs of the
/// previous chain-bit block against a running prefix AND of the current
/// one), then folds
///   err        |= runs(j),
///   spec_wrong |= runs(j) & carry-out(j).
/// The second fold is the speculative-carry error "run ending at j and a
/// carry entering it": a carry crosses an all-propagate run unchanged, so the
/// carry into the run's low bit equals the carry out of its top bit.
/// Tail: the carry is constant from bit stored - 1 on and runs(j) = P from
/// j = stored - 2 + chain on, so the sweep stops after bit
/// min(n, stored - 1 + chain) - 1, reading plane stored - 1 for the bits
/// above it.  `scratch` must hold chain * lane_words words (clobbered).
void run_sweep(const std::uint64_t* a, const std::uint64_t* b, int n, int stored,
               int lane_words, int chain, std::uint64_t* spec_wrong, std::uint64_t* err,
               std::uint64_t* scratch);

/// In-place transpose of a 64x64 bit matrix; block[i] is row i.
void transpose_64x64(std::uint64_t block[64]);

/// Encodes real samples as raw operand words: for i < count, out[i] is
/// r = round(mean + sigma * x[i * stride]), rounded half to even (as
/// std::nearbyint), with the multiply and the add each rounded once (never
/// fused).  With w = min(width, 64):
///  * twos:     r clamped to [-2^(w-1), 2^(w-1) - 1], as the 64-bit two's-
///              complement word (sign-extended above bit w - 1); NaN
///              encodes the range minimum.
///  * unsigned: |r| clamped to [0, 2^w - 1]; NaN encodes the maximum.
/// Values past the range, including past int64/uint64 at widths >= 64,
/// saturate.  Requires width >= 1 and stride >= 1.
void encode_samples(const double* x, std::size_t stride, std::size_t count, double mean,
                    double sigma, int width, bool twos, std::uint64_t* out);

}  // namespace vlcsa::arith::planeops
