// Plane-kernel layer tests: every available backend (scalar always; AVX2 /
// AVX-512 when the host supports them) must compute bit-identical results
// to the scalar oracle on every kernel, including ragged tails and the
// shape-sensitive window and run sweeps at lane widths that leave leftover
// columns for the narrower instantiations, and the sweeps' sign-extension
// tail fold against materialized planes.  The backends share one body per
// kernel, so the independent references carry the weight: the scalar
// sweeps are pinned to naive per-bit references, every transpose to a
// naive bit gather, and the sample encoder to a nearbyint reference.  Also
// covers the dispatch surface: backend naming, availability, and the
// set_backend contract.

#include "arith/planeops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

namespace vlcsa::arith::planeops {
namespace {

/// Restores whatever backend was active when the test started (so a process
/// pinned via VLCSA_FORCE_BACKEND stays pinned for the tests that follow).
class BackendGuard {
 public:
  BackendGuard() : prev_(active_backend()) {}
  ~BackendGuard() { set_backend(prev_); }

 private:
  Backend prev_;
};

/// Every Backend enum value — keep in sync with planeops.hpp (the exhaustive
/// round-trip test below fails to compile a new value into coverage, but a
/// value missing from this list would silently skip it).
const Backend kAllBackends[] = {Backend::kScalar, Backend::kAvx2, Backend::kAvx512};

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (const Backend b : kAllBackends) {
    if (backend_available(b)) out.push_back(b);
  }
  return out;
}

PlaneVec random_words(std::mt19937_64& rng, std::size_t m) {
  PlaneVec out(m);
  for (auto& word : out) word = rng();
  return out;
}

const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5, 7, 8, 13, 64, 257};

TEST(PlaneOpsDispatchTest, ScalarAlwaysAvailableAndNamed) {
  EXPECT_TRUE(backend_available(Backend::kScalar));
  EXPECT_STREQ(to_string(Backend::kScalar), "scalar");
  EXPECT_STREQ(to_string(Backend::kAvx2), "avx2");
  EXPECT_STREQ(to_string(Backend::kAvx512), "avx512");
}

// Exhaustive enum <-> name round trip: every Backend value must parse back
// from its to_string name.  On hosts without the ISA the named switch must be
// *rejected cleanly* — returning false with dispatch untouched — never
// silently mapped to auto/scalar (the env-var path's fallback is a separate,
// deliberately loud behavior).
TEST(PlaneOpsDispatchTest, EveryBackendNameRoundTripsOrIsRejectedCleanly) {
  BackendGuard guard;
  for (const Backend b : kAllBackends) {
    const std::string_view name = to_string(b);
    EXPECT_NE(name, "?") << static_cast<int>(b);
    if (backend_available(b)) {
      ASSERT_TRUE(set_backend(name)) << name;
      EXPECT_EQ(active_backend(), b) << name;
      ASSERT_TRUE(set_backend(b)) << name;
      EXPECT_EQ(active_backend(), b) << name;
    } else {
      ASSERT_TRUE(set_backend(Backend::kScalar));
      EXPECT_FALSE(set_backend(name)) << name << " must be rejected, not mapped to auto";
      EXPECT_EQ(active_backend(), Backend::kScalar) << name;
      EXPECT_FALSE(set_backend(b)) << name;
      EXPECT_EQ(active_backend(), Backend::kScalar) << name;
    }
  }
}

TEST(PlaneOpsDispatchTest, SetBackendRoundTripsAndRejectsUnknown) {
  BackendGuard guard;
  for (const Backend b : available_backends()) {
    ASSERT_TRUE(set_backend(b)) << to_string(b);
    EXPECT_EQ(active_backend(), b);
    ASSERT_TRUE(set_backend(std::string_view(to_string(b)))) << to_string(b);
    EXPECT_EQ(active_backend(), b);
  }
  const Backend before = active_backend();
  EXPECT_FALSE(set_backend("sse9000"));
  EXPECT_EQ(active_backend(), before);  // failed switches leave dispatch alone
  EXPECT_TRUE(set_backend("auto"));
}

TEST(PlaneOpsDispatchTest, UnavailableBackendIsRejected) {
  BackendGuard guard;
  for (const Backend b : {Backend::kAvx2, Backend::kAvx512}) {
    if (!backend_available(b)) {
      const Backend before = active_backend();
      EXPECT_FALSE(set_backend(b)) << to_string(b);
      EXPECT_EQ(active_backend(), before);
    }
  }
}

class PlaneOpsBackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (!backend_available(GetParam())) {
      GTEST_SKIP() << to_string(GetParam()) << " backend not supported on this host";
    }
    ASSERT_TRUE(set_backend(GetParam()));
  }
  void TearDown() override { set_backend(prev_); }

 private:
  Backend prev_ = active_backend();  // captured before SetUp switches
};

TEST_P(PlaneOpsBackendTest, PopcountSumMatchesPerWordPopcount) {
  std::mt19937_64 rng(2);
  for (const std::size_t m : kSizes) {
    const PlaneVec x = random_words(rng, m);
    std::uint64_t expected = 0;
    for (const std::uint64_t word : x) {
      expected += static_cast<std::uint64_t>(std::popcount(word));
    }
    EXPECT_EQ(popcount_sum(x.data(), m), expected) << "m=" << m;
  }
  const PlaneVec ones(9, ~std::uint64_t{0});
  EXPECT_EQ(popcount_sum(ones.data(), ones.size()), 9u * 64u);
}

/// Operand planes for an n-bit batch: uniform random words, or (long_runs)
/// b = ~a with sparse random flips above a generate at bit 0, so most lanes
/// carry a long all-propagate run with a carry entering it.
std::pair<PlaneVec, PlaneVec> sweep_operands(std::mt19937_64& rng, int n, int lane_words,
                                             bool long_runs) {
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  PlaneVec a = random_words(rng, static_cast<std::size_t>(n) * lw);
  PlaneVec b = random_words(rng, a.size());
  if (long_runs) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::uint64_t flips = rng() & rng() & rng() & rng() & rng();
      b[i] = i < lw ? a[i] : ~a[i] ^ flips;
    }
  }
  return {std::move(a), std::move(b)};
}

struct WindowOut {
  PlaneVec spec0_wrong, spec1_wrong, err0, err1;
  bool operator==(const WindowOut&) const = default;
};

WindowOut run_window(const PlaneVec& a, const PlaneVec& b, int n, int lane_words, int first,
                     int k, int stored = 0) {
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  WindowOut out{PlaneVec(lw), PlaneVec(lw), PlaneVec(lw), PlaneVec(lw)};
  window_sweep(a.data(), b.data(), n, stored == 0 ? n : stored, lane_words, first, k,
               out.spec0_wrong.data(), out.spec1_wrong.data(), out.err0.data(),
               out.err1.data());
  return out;
}

/// Naive window sweep: per-window G/P from the per-bit carry recurrence,
/// then the select/detect algebra of window_sweep's contract.
WindowOut naive_window(const PlaneVec& a, const PlaneVec& b, int n, int lane_words, int first,
                       int k) {
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  WindowOut out{PlaneVec(lw), PlaneVec(lw), PlaneVec(lw), PlaneVec(lw)};
  for (std::size_t w = 0; w < lw; ++w) {
    std::vector<std::uint64_t> g, p;
    for (int pos = 0, size = first; pos < n; pos += size, size = k) {
      std::uint64_t wg = 0, wp = ~std::uint64_t{0};
      for (int bit = pos; bit < pos + size; ++bit) {
        const std::size_t idx = static_cast<std::size_t>(bit) * lw + w;
        wg = (a[idx] & b[idx]) | ((a[idx] ^ b[idx]) & wg);
        wp &= a[idx] ^ b[idx];
      }
      g.push_back(wg);
      p.push_back(wp);
    }
    std::uint64_t carry = g[0];
    for (std::size_t i = 1; i < g.size(); ++i) {
      const std::uint64_t sel1 = i == 1 ? g[0] : g[i - 1] | p[i - 1];
      out.spec0_wrong[w] |= g[i - 1] ^ carry;
      out.spec1_wrong[w] |= sel1 ^ carry;
      out.err0[w] |= g[i - 1] & p[i];
      if (i >= 2) out.err1[w] |= p[i - 1] & ~p[i];
      carry = g[i] | (p[i] & carry);
    }
  }
  return out;
}

using RunOut = std::pair<PlaneVec, PlaneVec>;  // (spec_wrong, err)

RunOut run_runs(const PlaneVec& a, const PlaneVec& b, int n, int lane_words, int chain,
                int stored = 0) {
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  RunOut out{PlaneVec(lw), PlaneVec(lw)};
  PlaneVec scratch(static_cast<std::size_t>(chain) * lw);
  run_sweep(a.data(), b.data(), n, stored == 0 ? n : stored, lane_words, chain,
            out.first.data(), out.second.data(), scratch.data());
  return out;
}

/// Naive run sweep: each chain-bit window ANDed out in full (O(n * chain)).
RunOut naive_runs(const PlaneVec& a, const PlaneVec& b, int n, int lane_words, int chain) {
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  RunOut out{PlaneVec(lw), PlaneVec(lw)};
  for (std::size_t w = 0; w < lw; ++w) {
    std::uint64_t carry = 0;
    for (int j = 0; j < n; ++j) {
      const std::size_t idx = static_cast<std::size_t>(j) * lw + w;
      carry = (a[idx] & b[idx]) | ((a[idx] ^ b[idx]) & carry);
      if (j < chain - 1) continue;
      std::uint64_t runs = ~std::uint64_t{0};
      for (int i = j - chain + 1; i <= j; ++i) {
        const std::size_t at = static_cast<std::size_t>(i) * lw + w;
        runs &= a[at] ^ b[at];
      }
      out.first[w] |= runs & carry;
      out.second[w] |= runs;
    }
  }
  return out;
}

// Lane widths: below, at and above one 8-word vector, with leftover columns
// for a 4-word vector (12), the scalar body (3) or both (13) to finish.
const int kSweepLaneWords[] = {1, 3, 8, 12, 13, 16};

TEST_P(PlaneOpsBackendTest, WindowSweepMatchesScalar) {
  std::mt19937_64 rng(3);
  // (n, k); the first window takes the remainder, as in WindowLayout.
  const std::pair<int, int> shapes[] = {{1, 1},   {5, 2},   {63, 63},  {64, 6},
                                        {65, 63}, {130, 17}, {512, 17}, {512, 32}};
  for (const auto& [n, k] : shapes) {
    const int first = n - k * ((n - 1) / k);
    for (const int lane_words : kSweepLaneWords) {
      for (const bool long_runs : {false, true}) {
        const auto [a, b] = sweep_operands(rng, n, lane_words, long_runs);
        const WindowOut got = run_window(a, b, n, lane_words, first, k);
        ASSERT_TRUE(set_backend(Backend::kScalar));
        const WindowOut scalar = run_window(a, b, n, lane_words, first, k);
        ASSERT_TRUE(set_backend(GetParam()));
        ASSERT_TRUE(got == scalar) << "n=" << n << " k=" << k << " W=" << lane_words;
        ASSERT_TRUE(scalar == naive_window(a, b, n, lane_words, first, k))
            << "n=" << n << " k=" << k << " W=" << lane_words;
      }
    }
  }
}

TEST_P(PlaneOpsBackendTest, RunSweepMatchesScalar) {
  std::mt19937_64 rng(4);
  for (const int n : {1, 5, 64, 65, 130, 512}) {
    for (const int chain : {1, 2, 21, n - 1, n}) {
      if (chain < 1 || chain > n) continue;
      for (const int lane_words : kSweepLaneWords) {
        for (const bool long_runs : {false, true}) {
          const auto [a, b] = sweep_operands(rng, n, lane_words, long_runs);
          const RunOut got = run_runs(a, b, n, lane_words, chain);
          ASSERT_TRUE(set_backend(Backend::kScalar));
          const RunOut scalar = run_runs(a, b, n, lane_words, chain);
          ASSERT_TRUE(set_backend(GetParam()));
          ASSERT_TRUE(got == scalar) << "n=" << n << " l=" << chain << " W=" << lane_words;
          ASSERT_TRUE(scalar == naive_runs(a, b, n, lane_words, chain))
              << "n=" << n << " l=" << chain << " W=" << lane_words;
        }
      }
    }
  }
}

// ---- the sign-extension tail: planes >= stored repeat plane stored - 1 ----

/// `planes` with every plane >= stored overwritten by plane stored - 1: the
/// planes the tail rule stands for, which only tests ever write out.
PlaneVec materialize(const PlaneVec& planes, int stored, int lane_words) {
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  PlaneVec out = planes;
  for (std::size_t i = static_cast<std::size_t>(stored) * lw; i < out.size(); ++i) {
    out[i] = out[i - lw];
  }
  return out;
}

/// Window sizes around the tail at (n, stored): short windows, windows that
/// start at or just past plane stored - 1 (k >= n - stored puts the only
/// boundary there), first windows that end past it, one window (k = n),
/// and a one-bit first window (k = n - 1).
std::vector<int> tail_window_sizes(int n, int stored) {
  std::vector<int> out;
  for (const int k : {1, 2, 5, 17, stored, n - stored, n - stored + 1, n - 1, n}) {
    if (k >= 1 && k <= n && std::find(out.begin(), out.end(), k) == out.end()) out.push_back(k);
  }
  return out;
}

// Each backend's sweeps, given `stored`, against the scalar body given the
// materialized planes, across n in {64, 65, 128, 512} and stored in
// {1, 2, 63, 64, 65, n}.  The planes at and above `stored` hold fresh random
// words (poison), so a sweep that read one would disagree with the
// materialized result.  Long-run operands carry propagate runs and carries
// through the tail.
TEST_P(PlaneOpsBackendTest, SweepsFoldTheTailLikeMaterializedPlanes) {
  std::mt19937_64 rng(6);
  for (const int n : {64, 65, 128, 512}) {
    for (const int stored : {1, 2, 63, 64, 65, n}) {
      if (stored > n) continue;
      for (const int lane_words : {1, 3, 8, 16}) {
        for (const bool long_runs : {false, true}) {
          const auto [a, b] = sweep_operands(rng, n, lane_words, long_runs);
          const PlaneVec full_a = materialize(a, stored, lane_words);
          const PlaneVec full_b = materialize(b, stored, lane_words);
          const auto where = [&] {
            return ::testing::Message() << "n=" << n << " stored=" << stored
                                        << " W=" << lane_words << " long=" << long_runs;
          };
          for (const int k : tail_window_sizes(n, stored)) {
            const int first = n - k * ((n - 1) / k);
            const WindowOut got = run_window(a, b, n, lane_words, first, k, stored);
            ASSERT_TRUE(set_backend(Backend::kScalar));
            const WindowOut want = run_window(full_a, full_b, n, lane_words, first, k);
            ASSERT_TRUE(set_backend(GetParam()));
            ASSERT_TRUE(got == want) << where() << " k=" << k;
          }
          for (const int chain : {1, 2, 21, stored, n}) {
            if (chain > n) continue;
            const RunOut got = run_runs(a, b, n, lane_words, chain, stored);
            ASSERT_TRUE(set_backend(Backend::kScalar));
            const RunOut want = run_runs(full_a, full_b, n, lane_words, chain);
            ASSERT_TRUE(set_backend(GetParam()));
            ASSERT_TRUE(got == want) << where() << " l=" << chain;
          }
        }
      }
    }
  }
}

// 1000 random blocks against a naive bit gather, half of them at an
// interior pointer 8 bytes off the cache line (the bodies use unaligned
// loads and stores), and the transpose as an involution.
TEST_P(PlaneOpsBackendTest, TransposeMatchesNaiveBitGather) {
  std::mt19937_64 rng(5);
  PlaneVec storage(65);
  for (int trial = 0; trial < 1000; ++trial) {
    std::uint64_t* block = storage.data() + trial % 2;
    for (int r = 0; r < 64; ++r) block[r] = rng();
    // Sparse and dense blocks too, so single bits and holes cross every tile.
    if (trial % 5 == 1) for (int r = 0; r < 64; ++r) block[r] &= rng() & rng();
    if (trial % 5 == 2) for (int r = 0; r < 64; ++r) block[r] |= rng() | rng();
    const std::vector<std::uint64_t> original(block, block + 64);
    std::uint64_t expected[64] = {};
    for (int r = 0; r < 64; ++r) {
      for (int c = 0; c < 64; ++c) {
        expected[c] |= ((original[r] >> c) & 1) << r;
      }
    }
    transpose_64x64(block);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(block[i], expected[i]) << "trial " << trial << " row " << i;
    }
    transpose_64x64(block);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(block[i], original[i]) << "trial " << trial << " row " << i;
    }
  }
}

// The encode contract written out with std::nearbyint: the product rounds
// on its own before the add (the volatile keeps this file's compiler from
// fusing them), then the clamp of planeops.hpp.
std::uint64_t reference_encode(double x, double mean, double sigma, int width, bool twos) {
  const volatile double product = sigma * x;
  const double r = std::nearbyint(product + mean);
  const int w = std::min(width, 64);
  if (twos) {
    const double top = std::ldexp(1.0, w - 1);
    const std::uint64_t low = ~std::uint64_t{0} << (w - 1);  // -2^(w-1), sign-extended
    if (std::isnan(r) || r <= -top) return low;
    if (r >= top) return ~low;
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(r));
  }
  const double mag = std::fabs(r);
  const std::uint64_t max = w == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
  if (std::isnan(mag) || mag >= std::ldexp(1.0, w)) return max;
  return static_cast<std::uint64_t>(mag);
}

// The encoder's edge cases: signed zeros, ties to even, the 2^51 / 2^52
// rounding boundaries, every tested width's range ends and one past them,
// the int64/uint64 ends, infinities, NaN, and random values of every
// magnitude.
std::vector<double> encode_edge_values() {
  std::vector<double> v = {0.0, 0.5, 1.5, 2.5, 3.5, 1e6 + 0.5, 0x1p50 + 0.5, 0x1p50 + 1.5,
                           0.49999999999999994, 1e30, INFINITY};
  for (const double p : {0x1p51, 0x1p52, 0x1p63, 0x1p64}) {
    v.insert(v.end(), {p, std::nextafter(p, 0.0), std::nextafter(p, INFINITY)});
  }
  for (const int width : {1, 2, 8, 32, 63, 64, 65, 512}) {
    for (const int bits : {std::min(width, 64) - 1, std::min(width, 64)}) {
      const double limit = std::ldexp(1.0, bits);
      v.insert(v.end(), {limit, limit - 1, limit + 1});
    }
  }
  std::mt19937_64 rng(11);
  std::normal_distribution<double> normal;
  for (int i = 0; i < 200; ++i) {
    v.push_back(std::ldexp(normal(rng), static_cast<int>(rng() % 140) - 20));
  }
  const std::size_t positives = v.size();
  for (std::size_t i = 0; i < positives; ++i) v.push_back(-v[i]);
  v.push_back(std::numeric_limits<double>::quiet_NaN());
  return v;
}

// Backend vs the scalar body vs the reference, over both encodings, the
// affine params the fill tests use, strides 1 and 2, and counts that leave
// a masked tail; words past `count` must stay untouched.
TEST_P(PlaneOpsBackendTest, EncodeSamplesMatchesScalar) {
  const std::vector<double> values = encode_edge_values();
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {3.5, 1000.3}, {0.5, 0.5}, {0.0, 0x1p62}, {-0x1p62, 0x1p62}};
  constexpr std::uint64_t kSentinel = 0xA5A5A5A5A5A5A5A5ULL;
  for (const int width : {1, 2, 8, 32, 63, 64, 65, 512}) {
    for (const bool twos : {false, true}) {
      for (const auto& [mean, sigma] : params) {
        for (const std::size_t stride : {1u, 2u}) {
          const std::size_t all = values.size() / stride;
          for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                          std::size_t{8}, std::size_t{13}, all}) {
            // The input ends at the last sample read, so a sanitizer build
            // catches any load past it.
            const std::size_t span = count == 0 ? 0 : (count - 1) * stride + 1;
            const std::vector<double> input(values.begin(),
                                            values.begin() + static_cast<std::ptrdiff_t>(span));
            std::vector<std::uint64_t> got(count + 8, kSentinel), scalar(count + 8, kSentinel);
            ASSERT_TRUE(set_backend(GetParam()));
            encode_samples(input.data(), stride, count, mean, sigma, width, twos, got.data());
            ASSERT_TRUE(set_backend(Backend::kScalar));
            encode_samples(input.data(), stride, count, mean, sigma, width, twos, scalar.data());
            for (std::size_t i = 0; i < count; ++i) {
              const double x = input[i * stride];
              ASSERT_EQ(scalar[i], reference_encode(x, mean, sigma, width, twos))
                  << "scalar width " << width << " twos " << twos << " (" << mean << ", "
                  << sigma << ") x " << x;
              ASSERT_EQ(got[i], scalar[i])
                  << to_string(GetParam()) << " width " << width << " twos " << twos << " ("
                  << mean << ", " << sigma << ") stride " << stride << " count " << count
                  << " x " << x;
            }
            for (std::size_t i = count; i < count + 8; ++i) {
              ASSERT_EQ(got[i], kSentinel) << to_string(GetParam()) << " count " << count;
              ASSERT_EQ(scalar[i], kSentinel) << "scalar count " << count;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PlaneOpsBackendTest,
                         ::testing::Values(Backend::kScalar, Backend::kAvx2,
                                           Backend::kAvx512),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return std::string(to_string(info.param));
                         });

TEST(PlaneVecTest, StorageIsCacheLineAligned) {
  for (const std::size_t m : {1u, 3u, 64u, 1000u}) {
    const PlaneVec v(m, 0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kPlaneAlignment, 0u) << m;
  }
}

}  // namespace
}  // namespace vlcsa::arith::planeops
