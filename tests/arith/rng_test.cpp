// BlockRng sequence-identity suite: the repo-owned block-generating
// MT19937-64 must be bit-identical to std::mt19937_64 under every
// construction path (value seed, default seed, std::seed_seq, degenerate
// all-zero sequences), through both the per-call and generate_block APIs at
// every block-boundary alignment, and on every planeops backend (the SIMD
// twist is pinned to the std engine directly, not just to the scalar twist).
// This identity is what lets the whole repo swap draw sites onto BlockRng
// without moving a single Monte Carlo counter.

#include "arith/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "arith/planeops.hpp"

namespace vlcsa::arith {
namespace {

std::vector<planeops::Backend> available_backends() {
  std::vector<planeops::Backend> out;
  for (const auto b :
       {planeops::Backend::kScalar, planeops::Backend::kAvx2, planeops::Backend::kAvx512}) {
    if (planeops::backend_available(b)) out.push_back(b);
  }
  return out;
}

/// Runs the test body on every available backend (the RNG twist/temper ride
/// the planeops dispatch), restoring the entry backend afterwards.
class RngBackendTest : public ::testing::TestWithParam<planeops::Backend> {
 protected:
  void SetUp() override {
    if (!planeops::backend_available(GetParam())) {
      GTEST_SKIP() << planeops::to_string(GetParam())
                   << " backend not supported on this host";
    }
    ASSERT_TRUE(planeops::set_backend(GetParam()));
  }
  void TearDown() override { planeops::set_backend(prev_); }

 private:
  planeops::Backend prev_ = planeops::active_backend();
};

TEST_P(RngBackendTest, FirstMillionDrawsMatchStdEngineAcrossSeeds) {
  for (const std::uint64_t seed :
       {std::uint64_t{5489}, std::uint64_t{0}, std::uint64_t{1},
        std::uint64_t{0x9E3779B97F4A7C15ULL}}) {
    std::mt19937_64 ref(seed);
    BlockRng rng(seed);
    for (int i = 0; i < 1000000; ++i) {
      ASSERT_EQ(rng(), ref()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST_P(RngBackendTest, DefaultConstructionMatchesStdEngine) {
  std::mt19937_64 ref;
  BlockRng rng;
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(rng(), ref()) << "draw " << i;
}

TEST_P(RngBackendTest, SeedSeqConstructionMatchesStdEngine) {
  {
    std::seed_seq ref_seq{1u, 2u, 3u, 4u};
    std::seed_seq our_seq{1u, 2u, 3u, 4u};
    std::mt19937_64 ref(ref_seq);
    BlockRng rng(our_seq);
    for (int i = 0; i < 100000; ++i) ASSERT_EQ(rng(), ref()) << "draw " << i;
  }
  {
    // Empty seed_seq: generate() falls back to its fixed pattern.
    std::seed_seq ref_seq;
    std::seed_seq our_seq;
    std::mt19937_64 ref(ref_seq);
    BlockRng rng(our_seq);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng(), ref()) << "draw " << i;
  }
}

TEST_P(RngBackendTest, MakeStreamRngMatchesStdEngineUnderSameSeedSeq) {
  // make_stream_rng is the one shared seeding helper (make_shard_rng
  // delegates to it): its stream must equal a std engine built from the
  // identical seed_seq, for several (seed, stream) pairs including ones
  // that exercise the high halves.
  const std::uint64_t seeds[] = {1, 42, 0xFFFFFFFF00000001ULL};
  const std::uint64_t streams[] = {0, 1, 7, 0x100000000ULL};
  for (const std::uint64_t seed : seeds) {
    for (const std::uint64_t stream : streams) {
      std::seed_seq sequence{
          static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
          static_cast<std::uint32_t>(stream), static_cast<std::uint32_t>(stream >> 32)};
      std::mt19937_64 ref(sequence);
      BlockRng rng = make_stream_rng(seed, stream);
      for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(rng(), ref()) << "seed " << seed << " stream " << stream << " draw " << i;
      }
    }
  }
}

/// Seed sequence yielding all-zero words: exercises the [rand.eng.mers]
/// degenerate-state fixup (state word 0 pinned to 2^63).  std::seed_seq can
/// never produce this, so a hand-rolled sequence drives both engines.
struct ZeroSeedSeq {
  using result_type = std::uint32_t;
  template <typename It>
  void generate(It first, It last) {
    for (; first != last; ++first) *first = 0;
  }
};

TEST_P(RngBackendTest, AllZeroSeedSequenceFixupMatchesStdEngine) {
  ZeroSeedSeq ref_seq, our_seq;
  std::mt19937_64 ref(ref_seq);
  BlockRng rng(our_seq);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng(), ref()) << "draw " << i;
}

TEST_P(RngBackendTest, GenerateBlockStraddlesBlockBoundaries) {
  // Counts around the 312-word state size, plus 624 (exactly two blocks)
  // and a couple of odd sizes; after each bulk pull the per-call stream
  // must still be aligned with the std engine (interleaving contract).
  for (const std::size_t count : {std::size_t{311}, std::size_t{312}, std::size_t{313},
                                  std::size_t{624}, std::size_t{1}, std::size_t{1000}}) {
    for (const std::size_t warmup : {std::size_t{0}, std::size_t{5}, std::size_t{311}}) {
      std::mt19937_64 ref(99);
      BlockRng rng(99);
      for (std::size_t i = 0; i < warmup; ++i) ASSERT_EQ(rng(), ref());
      std::vector<std::uint64_t> buf(count);
      rng.generate_block(buf.data(), count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(buf[i], ref()) << "count " << count << " warmup " << warmup
                                 << " word " << i;
      }
      for (int i = 0; i < 700; ++i) {
        ASSERT_EQ(rng(), ref()) << "post-block draw " << i;
      }
    }
  }
}

TEST_P(RngBackendTest, GenerateBlockZeroCountIsANoOp) {
  std::mt19937_64 ref(3);
  BlockRng rng(3);
  rng.generate_block(nullptr, 0);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(rng(), ref());
}

TEST_P(RngBackendTest, DiscardMatchesStdEngine) {
  for (const unsigned long long skip : {1ull, 311ull, 312ull, 313ull, 12345ull}) {
    std::mt19937_64 ref(17);
    BlockRng rng(17);
    ref.discard(skip);
    rng.discard(skip);
    for (int i = 0; i < 100; ++i) ASSERT_EQ(rng(), ref()) << "skip " << skip;
  }
}

TEST_P(RngBackendTest, ReseedingResetsTheStream) {
  BlockRng rng(1);
  for (int i = 0; i < 500; ++i) (void)rng();
  rng.seed(123);
  std::mt19937_64 ref(123);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng(), ref()) << "draw " << i;
}

TEST_P(RngBackendTest, FeedsStdDistributionsLikeTheStdEngine) {
  // The Gaussian sources hand BlockRng to std::normal_distribution; equal
  // engines must induce equal variates (identical consumption pattern).
  std::mt19937_64 ref(2026);
  BlockRng rng(2026);
  std::normal_distribution<double> ref_dist(0.0, 4294967296.0);
  std::normal_distribution<double> our_dist(0.0, 4294967296.0);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(our_dist(rng), ref_dist(ref)) << "variate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, RngBackendTest,
                         ::testing::ValuesIn(available_backends()),
                         [](const ::testing::TestParamInfo<planeops::Backend>& info) {
                           return std::string(planeops::to_string(info.param));
                         });

TEST(RngAccountingTest, WordsDrawnCountsEveryConsumptionPath) {
  BlockRng rng(11);
  EXPECT_EQ(rng.words_drawn(), 0u);
  for (int i = 0; i < 7; ++i) (void)rng();
  EXPECT_EQ(rng.words_drawn(), 7u);

  // generate_block consumes exactly its word count, at any alignment
  // (including spans crossing the 312-word block boundary).
  std::vector<std::uint64_t> buf(500);
  rng.generate_block(buf.data(), buf.size());
  EXPECT_EQ(rng.words_drawn(), 507u);

  // discard counts too — the skipped words are consumed stream positions.
  rng.discard(1000);
  EXPECT_EQ(rng.words_drawn(), 1507u);
  (void)rng();
  EXPECT_EQ(rng.words_drawn(), 1508u);

  // Reseeding resets the account along with the stream.
  rng.seed(11);
  EXPECT_EQ(rng.words_drawn(), 0u);
}

// GaussianBlockSampler stream identity: fill(n) is exactly n operator()
// calls, whatever the chunking.  A variate whose first word fails the
// ziggurat fast path consumes further words, so the variate after it no
// longer matches a fresh sampler started one word later — which locates a
// slow-path word in the stream without reaching into the sampler.
bool takes_slow_path(std::uint64_t seed, std::uint64_t position) {
  BlockRng from(seed), later(seed);
  from.discard(position);
  later.discard(position + 1);
  GaussianBlockSampler sampler, reference;
  (void)sampler(from);
  return sampler(from) != reference(later);
}

TEST(GaussianSamplerTest, FillMatchesPerVariateCallsAtEveryChunkSize) {
  constexpr std::uint64_t kSeed = 41;
  constexpr std::uint64_t kBuffer = 2 * BlockRng::kStateWords;  // sampler refill size
  // Position the stream so that a slow-path word sits in the last slot of
  // the sampler's first buffer: the run loop then breaks on that slot and
  // operator() must re-read it before refilling.
  std::uint64_t slow = kBuffer - 1;
  while (!takes_slow_path(kSeed, slow)) ++slow;
  const std::uint64_t skip = slow - (kBuffer - 1);
  {
    // That word must start a variate of the positioned stream (not be an
    // extra word of an earlier slow-path variate): the positioned variates
    // then run into those of a fresh sampler started at the word.
    BlockRng positioned(kSeed), at_word(kSeed);
    positioned.discard(skip);
    at_word.discard(slow);
    GaussianBlockSampler from_skip, from_word;
    std::vector<double> head(kBuffer);
    for (double& x : head) x = from_skip(positioned);
    const double first = from_word(at_word);
    const double second = from_word(at_word);
    bool found = false;
    for (std::size_t k = 0; k + 1 < head.size(); ++k) {
      found = found || (head[k] == first && head[k + 1] == second);
    }
    ASSERT_TRUE(found) << "slow-path word " << slow << " is not a variate start";
  }

  for (const std::size_t chunk : {1, 3, 127, 128, 623, 624, 625, 5000}) {
    BlockRng rng_fill(kSeed), rng_call(kSeed);
    rng_fill.discard(skip);
    rng_call.discard(skip);
    GaussianBlockSampler bulk, single;
    std::vector<double> got, expected;
    // fill(chunk) and single operator() calls alternate, so both entry
    // points start mid-buffer and hand the buffer to each other.
    while (got.size() < 6000) {
      std::vector<double> part(chunk);
      bulk.fill(rng_fill, part.data(), part.size());
      got.insert(got.end(), part.begin(), part.end());
      got.push_back(bulk(rng_fill));
    }
    for (std::size_t i = 0; i < got.size(); ++i) expected.push_back(single(rng_call));
    ASSERT_EQ(got, expected) << "chunk " << chunk;
    EXPECT_EQ(rng_fill.words_drawn(), rng_call.words_drawn()) << "chunk " << chunk;
    EXPECT_EQ(bulk(rng_fill), single(rng_call)) << "chunk " << chunk;
  }
}

TEST(RngCopySemanticsTest, CopyConstructionSnapshotsTheStream) {
  // Copying from a non-const generator must pick the copy constructor (as
  // it does for std::mt19937_64), not the SeedSeq template — both copies
  // then continue the identical stream from the snapshot point.
  BlockRng original(31);
  for (int i = 0; i < 500; ++i) (void)original();
  BlockRng copy(original);
  BlockRng assigned;
  assigned = original;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t expected = original();
    ASSERT_EQ(copy(), expected) << "draw " << i;
    ASSERT_EQ(assigned(), expected) << "draw " << i;
  }
}

TEST(RngCrossBackendTest, ScalarAndSimdTwistProduceIdenticalStreams) {
  // Direct backend-vs-backend pin (independent of the std engine), with a
  // backend switch mid-stream: a live generator must continue the exact
  // sequence when dispatch changes under it.
  const auto backends = available_backends();
  planeops::Backend prev = planeops::active_backend();
  ASSERT_TRUE(planeops::set_backend(planeops::Backend::kScalar));
  BlockRng oracle(7);
  std::vector<std::uint64_t> expected(5000);
  oracle.generate_block(expected.data(), expected.size());
  for (const auto backend : backends) {
    ASSERT_TRUE(planeops::set_backend(backend));
    BlockRng rng(7);
    std::vector<std::uint64_t> got(expected.size());
    rng.generate_block(got.data(), got.size());
    EXPECT_EQ(got, expected) << planeops::to_string(backend);
  }
  if (backends.size() > 1) {
    ASSERT_TRUE(planeops::set_backend(planeops::Backend::kScalar));
    BlockRng rng(7);
    std::vector<std::uint64_t> head(1000), tail(4000);
    rng.generate_block(head.data(), head.size());
    ASSERT_TRUE(planeops::set_backend(backends.back()));
    rng.generate_block(tail.data(), tail.size());
    for (std::size_t i = 0; i < head.size(); ++i) ASSERT_EQ(head[i], expected[i]);
    for (std::size_t i = 0; i < tail.size(); ++i) {
      ASSERT_EQ(tail[i], expected[head.size() + i]) << "post-switch word " << i;
    }
  }
  planeops::set_backend(prev);
}

}  // namespace
}  // namespace vlcsa::arith
