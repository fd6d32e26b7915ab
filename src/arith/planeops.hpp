#pragma once
// Plane-kernel layer: the bulk word-parallel primitives every bit-sliced
// evaluation path is built from, each with a scalar backend and (on x86-64)
// AVX2 and AVX-512 backends — plus NEON where the translation is trivial —
// selected once at startup by runtime CPU dispatch.
//
// A "plane array" is a flat sequence of 64-bit words; callers lay their
// planes out bit-major with `lane_words` words per bit (bitslice.hpp), but
// the elementwise kernels below are layout-agnostic: they just stream over
// `m` words.  The only structured kernel is the Kogge-Stone prefix, which
// takes the (n, lane_words) shape explicitly.
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
  kAvx512,  // needs avx512f+avx512bw; vpopcntdq picked up separately when present
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

// --- Bulk boolean kernels over m words (dst may alias x and/or y; all
// --- pointers may be interior, but whole-plane callers pass aligned bases).
void bulk_and(const std::uint64_t* x, const std::uint64_t* y, std::uint64_t* dst,
              std::size_t m);
void bulk_or(const std::uint64_t* x, const std::uint64_t* y, std::uint64_t* dst,
             std::size_t m);
void bulk_xor(const std::uint64_t* x, const std::uint64_t* y, std::uint64_t* dst,
              std::size_t m);
/// dst = x & ~y.
void bulk_andnot(const std::uint64_t* x, const std::uint64_t* y, std::uint64_t* dst,
                 std::size_t m);
/// dst = (mask & t) | (~mask & f) — per-bit select.
void bulk_select(const std::uint64_t* mask, const std::uint64_t* t, const std::uint64_t* f,
                 std::uint64_t* dst, std::size_t m);
/// g = a & b, p = a ^ b in one pass (the generate/propagate plane fill).
/// Unlike the single-output kernels above, g and p must NOT alias a, b, or
/// each other — the two outputs are interleaved per element, so an aliased
/// input would be clobbered mid-pass (and differently per backend).
void bulk_gp(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* g,
             std::uint64_t* p, std::size_t m);

/// Sum of popcounts over m words — the mask-popcount reduction the Monte
/// Carlo accumulators fold lane masks with.
[[nodiscard]] std::uint64_t popcount_sum(const std::uint64_t* x, std::size_t m);

/// Word-level Kogge-Stone carry prefix over bit-major plane arrays with
/// `lane_words` words per bit: carry[i] = carry out of bit i with carry-in 0,
/// independently in each of the n*lane_words*64 lanes.  `carry` and `pp`
/// must each hold n*lane_words words, be 64-byte aligned, and not alias
/// g/p/each other.  `pp` is clobbered scratch.
void kogge_stone(const std::uint64_t* g, const std::uint64_t* p, int n, int lane_words,
                 std::uint64_t* carry, std::uint64_t* pp);

/// In-place groupwise x[i] &= x[i - step] for i = n-1 .. step, then zeroes
/// groups [0, step) — one doubling step of a sliding all-ones window (the
/// VLSA propagate-run sweep).  Group = lane_words words.
void shifted_self_and(std::uint64_t* x, int n, int lane_words, int step);

/// In-place transpose of a 64x64 bit matrix; block[i] is row i.
void transpose_64x64(std::uint64_t block[64]);

}  // namespace vlcsa::arith::planeops
