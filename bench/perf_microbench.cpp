// Google-benchmark microbenches for the library's hot paths: big-integer
// addition, behavioral SCSA/VLSA evaluation (scalar and bit-sliced at
// several lane widths), the plane-kernel layer per backend, bit-sliced
// netlist simulation, the optimizer, and static timing — the costs that
// bound every Monte Carlo and synthesis experiment above.
//
// Backend-sensitive rows take a 0/1 argument (the scalar backend / the one
// active at startup: auto dispatch or the VLCSA_FORCE_BACKEND pin) and
// label themselves with the backend they ran on, so one
// google-benchmark JSON output (--benchmark_out=FILE
// --benchmark_out_format=json) is the machine-readable perf record: CI
// uploads it as the BENCH_batch.json artifact.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "adders/adders.hpp"
#include "arith/apint.hpp"
#include "arith/bitslice.hpp"
#include "arith/distributions.hpp"
#include "arith/planeops.hpp"
#include "harness/montecarlo.hpp"
#include "netlist/opt.hpp"
#include "netlist/simulator.hpp"
#include "netlist/timing.hpp"
#include "service/service.hpp"
#include "speculative/error_model.hpp"
#include "speculative/scsa.hpp"
#include "speculative/vlsa.hpp"

namespace {

using namespace vlcsa;
using arith::ApInt;
namespace planeops = arith::planeops;

void BM_ApIntAdd(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  vlcsa::arith::BlockRng rng(1);
  const ApInt a = ApInt::random(width, rng);
  const ApInt b = ApInt::random(width, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApInt::add(a, b));
  }
}
BENCHMARK(BM_ApIntAdd)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_ScsaEvaluate(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const spec::ScsaModel model(
      spec::ScsaConfig{width, spec::min_window_for_error_rate(width, 1e-4)});
  vlcsa::arith::BlockRng rng(2);
  const ApInt a = ApInt::random(width, rng);
  const ApInt b = ApInt::random(width, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScsaEvaluate)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// The bit-sliced counterpart: one pass evaluates 64 * lane_words samples, so
// items/sec is directly comparable with BM_ScsaEvaluate.  Args: (width,
// lane_words); runs on whatever planeops backend dispatch selected.
void BM_ScsaEvaluateBatch(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int lane_words = static_cast<int>(state.range(1));
  const spec::ScsaModel model(
      spec::ScsaConfig{width, spec::min_window_for_error_rate(width, 1e-4)});
  vlcsa::arith::BlockRng rng(2);
  arith::BitSlicedBatch batch(width, lane_words);
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, width);
  source->fill_batch(rng, batch);
  spec::ScsaBatchEvaluation ev;
  for (auto _ : state) {
    model.evaluate_batch(batch, ev);
    benchmark::DoNotOptimize(ev.spec0_wrong.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * lane_words);
}
BENCHMARK(BM_ScsaEvaluateBatch)
    ->Args({64, 1})->Args({64, 4})->Args({64, 8})->Args({128, 4})->Args({256, 4})
    ->Args({512, 1})->Args({512, 4})->Args({512, 8});

void BM_VlsaEvaluate(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const spec::VlsaModel model(
      spec::VlsaConfig{width, spec::vlsa_published_chain_length(width)});
  vlcsa::arith::BlockRng rng(3);
  const ApInt a = ApInt::random(width, rng);
  const ApInt b = ApInt::random(width, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VlsaEvaluate)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_VlsaEvaluateBatch(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int lane_words = static_cast<int>(state.range(1));
  const spec::VlsaModel model(
      spec::VlsaConfig{width, spec::vlsa_published_chain_length(width)});
  vlcsa::arith::BlockRng rng(3);
  arith::BitSlicedBatch batch(width, lane_words);
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, width);
  source->fill_batch(rng, batch);
  spec::VlsaBatchEvaluation ev;
  for (auto _ : state) {
    model.evaluate_batch(batch, ev);
    benchmark::DoNotOptimize(ev.spec_wrong.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * lane_words);
}
BENCHMARK(BM_VlsaEvaluateBatch)
    ->Args({64, 1})->Args({64, 4})->Args({64, 8})->Args({512, 1})->Args({512, 4})
    ->Args({512, 8});

// ---- plane-kernel layer, per backend ---------------------------------------
// The backend arg of the rows below: 0 = the scalar backend, 1 = the backend
// active at startup, i.e. auto dispatch's best or the VLCSA_FORCE_BACKEND
// pin, so `VLCSA_FORCE_BACKEND=avx2` times the AVX2 kernels on any host that
// has them.  Each bench pins its backend for its own run and restores
// dispatch on exit, so orderings never leak between benches.

const planeops::Backend kStartupBackend = planeops::active_backend();

class BackendScope {
 public:
  explicit BackendScope(bool startup) : prev_(planeops::active_backend()) {
    planeops::set_backend(startup ? kStartupBackend : planeops::Backend::kScalar);
  }
  ~BackendScope() { planeops::set_backend(prev_); }

 private:
  planeops::Backend prev_;
};

// The two plane sweeps on uniform operand planes.  Args: (n, lane_words,
// backend, stored planes); the VLSA chain is the published l for n, the
// SCSA window the 1e-4 sizing.  The 512/8/1/64 rows are the Gaussian shape:
// 64 stored planes and a folded tail.
void BM_PlaneWindowSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int lane_words = static_cast<int>(state.range(1));
  const BackendScope scope(state.range(2) != 0);
  const int stored = static_cast<int>(state.range(3));
  const spec::WindowLayout layout(n, spec::min_window_for_error_rate(n, 1e-4));
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  vlcsa::arith::BlockRng rng(7);
  planeops::PlaneVec a(static_cast<std::size_t>(n) * lw), b(a.size());
  for (auto& word : a) word = rng();
  for (auto& word : b) word = rng();
  planeops::PlaneVec s0(lw), s1(lw), e0(lw), e1(lw);
  for (auto _ : state) {
    planeops::window_sweep(a.data(), b.data(), n, stored, lane_words, layout.window(0).size,
                           std::min(layout.window_size(), n), s0.data(), s1.data(), e0.data(),
                           e1.data());
    benchmark::DoNotOptimize(s0.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * lane_words);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_PlaneWindowSweep)
    ->Args({64, 8, 0, 64})->Args({64, 8, 1, 64})->Args({512, 8, 0, 512})
    ->Args({512, 8, 1, 512})->Args({512, 8, 1, 64});

void BM_PlaneRunSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int lane_words = static_cast<int>(state.range(1));
  const BackendScope scope(state.range(2) != 0);
  const int stored = static_cast<int>(state.range(3));
  const int chain = spec::vlsa_published_chain_length(n);
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  vlcsa::arith::BlockRng rng(8);
  planeops::PlaneVec a(static_cast<std::size_t>(n) * lw), b(a.size());
  for (auto& word : a) word = rng();
  for (auto& word : b) word = rng();
  planeops::PlaneVec spec_wrong(lw), err(lw), scratch(static_cast<std::size_t>(chain) * lw);
  for (auto _ : state) {
    planeops::run_sweep(a.data(), b.data(), n, stored, lane_words, chain, spec_wrong.data(),
                        err.data(), scratch.data());
    benchmark::DoNotOptimize(spec_wrong.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * lane_words);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_PlaneRunSweep)
    ->Args({64, 8, 0, 64})->Args({64, 8, 1, 64})->Args({512, 8, 0, 512})
    ->Args({512, 8, 1, 512})->Args({512, 8, 1, 64});

void BM_PlaneTranspose64x64(benchmark::State& state) {
  const BackendScope scope(state.range(0) != 0);
  vlcsa::arith::BlockRng rng(9);
  alignas(64) std::uint64_t block[64];
  for (auto& row : block) row = rng();
  for (auto _ : state) {
    planeops::transpose_64x64(block);
    benchmark::DoNotOptimize(&block[0]);
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_PlaneTranspose64x64)->Arg(0)->Arg(1);

// The sample encoder as the Gaussian fill calls it: 1024 ziggurat variates
// read at stride 2 (one operand of interleaved pairs), Ch. 7 params, n = 64
// two's complement.  Arg: backend.
void BM_PlaneEncodeSamples(benchmark::State& state) {
  const BackendScope scope(state.range(0) != 0);
  constexpr std::size_t kCount = 1024;
  arith::GaussianBlockSampler sampler;
  arith::BlockRng rng(29);
  std::vector<double> variates(2 * kCount);
  sampler.fill(rng, variates.data(), variates.size());
  std::vector<std::uint64_t> words(kCount);
  for (auto _ : state) {
    planeops::encode_samples(variates.data(), 2, kCount, 0.0, 0x1p32, 64, true, words.data());
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kCount));
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_PlaneEncodeSamples)->Arg(0)->Arg(1);

void BM_PlanePopcountSum(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const BackendScope scope(state.range(1) != 0);
  vlcsa::arith::BlockRng rng(10);
  planeops::PlaneVec x(m);
  for (auto& word : x) word = rng();
  for (auto _ : state) {
    benchmark::DoNotOptimize(planeops::popcount_sum(x.data(), m));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m) * 64);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_PlanePopcountSum)->Args({4, 0})->Args({4, 1})->Args({2048, 0})->Args({2048, 1});

// The batch accumulators alone: one evaluated 512-sample batch (n = 64,
// 8 lane words, uniform operands) folded into the error-rate counters.
// Args: (0 = VLCSA 1 / 1 = VLSA, backend); the lane counts go through
// popcount_sum, so the backend picks the popcount.
void BM_AccumulateBatch(benchmark::State& state) {
  constexpr int kWidth = 64;
  constexpr int kLaneWords = 8;
  const bool vlsa = state.range(0) != 0;
  const BackendScope scope(state.range(1) != 0);
  arith::BlockRng rng(23);
  arith::BitSlicedBatch batch(kWidth, kLaneWords);
  arith::UniformUnsignedSource(kWidth).fill_batch(rng, batch);
  const spec::VlcsaModel vlcsa(spec::VlcsaConfig{
      kWidth, spec::min_window_for_error_rate(kWidth, 1e-4), spec::ScsaVariant::kScsa1});
  const spec::VlsaModel vlsa_model(
      spec::VlsaConfig{kWidth, spec::vlsa_published_chain_length(kWidth)});
  spec::VlcsaBatchStep step;
  spec::VlsaBatchEvaluation ev;
  vlcsa.step_batch(batch, step);
  vlsa_model.evaluate_batch(batch, ev);
  harness::ErrorRateResult out;
  for (auto _ : state) {
    if (vlsa) {
      harness::accumulate_vlsa_batch(ev, out);
    } else {
      harness::accumulate_vlcsa_batch(step, spec::ScsaVariant::kScsa1, out);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 64 * kLaneWords);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_AccumulateBatch)->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1});

// ---- RNG subsystem ---------------------------------------------------------
// The block-generating MT19937-64 vs the std engine it is sequence-identical
// to: per-call draws, bulk generate_block, and the uniform operand fill it
// feeds.  The backend arg, where present, comes last.

void BM_RngStdMt19937Draws(benchmark::State& state) {
  std::mt19937_64 rng(1);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) sum += rng();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RngStdMt19937Draws);

void BM_RngBlockRngDraws(benchmark::State& state) {
  const BackendScope scope(state.range(0) != 0);
  arith::BlockRng rng(1);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) sum += rng();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_RngBlockRngDraws)->Arg(0)->Arg(1);

void BM_RngGenerateBlock(benchmark::State& state) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  const BackendScope scope(state.range(1) != 0);
  arith::BlockRng rng(1);
  std::vector<std::uint64_t> buf(words);
  for (auto _ : state) {
    rng.generate_block(buf.data(), words);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(words));
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_RngGenerateBlock)
    ->Args({312, 0})->Args({312, 1})->Args({4096, 0})->Args({4096, 1});

// One shard's seeding: make_stream_rng (the seed-sequence expansion and the
// state fold) plus the first draw, which twists and tempers the first
// block — the fixed cost run_sharded_blocks pays once per shard.
void BM_RngMakeStreamRng(benchmark::State& state) {
  std::uint64_t stream = 0;
  for (auto _ : state) {
    arith::BlockRng rng = arith::make_stream_rng(1, stream++);
    benchmark::DoNotOptimize(rng());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_RngMakeStreamRng);

// The uniform operand fill the block RNG accelerates end to end: one batch
// of 64 * lane_words operand pairs into bit-planes.  Args: (width,
// lane_words, backend).  At 8 lane words the batch is the source's canonical
// stream block, generated straight into the planes (the zero-copy rows);
// other widths copy plane runs out of a buffered block.
void BM_RngFillBatch(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int lane_words = static_cast<int>(state.range(1));
  const BackendScope scope(state.range(2) != 0);
  arith::UniformUnsignedSource source(width);
  arith::BitSlicedBatch batch(width, lane_words);
  arith::BlockRng rng(5);
  for (auto _ : state) {
    source.fill_batch(rng, batch);
    benchmark::DoNotOptimize(batch.a());
  }
  state.SetItemsProcessed(state.iterations() * 64 * lane_words);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_RngFillBatch)
    ->Args({64, 4, 0})->Args({64, 4, 1})->Args({512, 4, 0})->Args({512, 4, 1})
    ->Args({64, 8, 1})->Args({512, 8, 1});

// Bulk ziggurat variates from the block sampler — the per-variate floor of
// every Gaussian workload.  Arg: 0 = scalar backend / 1 = auto-dispatched
// (the backend moves the generate_block refills under the ziggurat).
void BM_RngGaussianBlock(benchmark::State& state) {
  const BackendScope scope(state.range(0) != 0);
  arith::GaussianBlockSampler sampler;
  arith::BlockRng rng(19);
  std::vector<double> variates(4096);
  for (auto _ : state) {
    sampler.fill(rng, variates.data(), variates.size());
    benchmark::DoNotOptimize(variates.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_RngGaussianBlock)->Arg(0)->Arg(1);

// The Gaussian sources' fill_batch at the dispatch-aware default lane width
// (the width the engine runs): block ziggurat variates, then per (operand,
// lane word) the encode_samples and transpose_64x64 kernels and the limb-0
// plane copy, and the batch-level copies of plane 63 (twos) or zero planes
// (unsigned) above bit 63.  Args: (width, 1 = two's complement / 0 =
// unsigned).
void BM_GaussianFillBatch(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const bool twos = state.range(1) != 0;
  auto source = arith::make_source(twos ? arith::InputDistribution::kGaussianTwos
                                        : arith::InputDistribution::kGaussianUnsigned,
                                   width);
  arith::BitSlicedBatch batch(width, arith::default_lane_words());
  arith::BlockRng rng(23);
  for (auto _ : state) {
    source->fill_batch(rng, batch);
    benchmark::DoNotOptimize(batch.a());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch.lanes());
  state.SetLabel(twos ? "twos" : "unsigned");
}
BENCHMARK(BM_GaussianFillBatch)->Args({64, 1})->Args({64, 0})->Args({512, 1})->Args({512, 0});

void BM_NetlistSimulate64Vectors(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const auto nl =
      netlist::optimize(adders::build_adder_netlist(adders::AdderKind::kKoggeStone, width));
  netlist::Simulator sim(nl);
  vlcsa::arith::BlockRng rng(4);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) sim.set_input(i, rng());
  for (auto _ : state) {
    sim.run();
    benchmark::DoNotOptimize(sim.value(nl.outputs().back().signal));
  }
  state.SetItemsProcessed(state.iterations() * 64);  // vectors per pass
}
BENCHMARK(BM_NetlistSimulate64Vectors)->Arg(64)->Arg(256);

void BM_OptimizeKoggeStone(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const auto nl = adders::build_adder_netlist(adders::AdderKind::kKoggeStone, width);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist::optimize(nl));
  }
}
BENCHMARK(BM_OptimizeKoggeStone)->Arg(64)->Arg(256);

void BM_StaticTiming(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const auto nl =
      netlist::optimize(adders::build_adder_netlist(adders::AdderKind::kKoggeStone, width));
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist::analyze_timing(nl));
  }
}
BENCHMARK(BM_StaticTiming)->Arg(64)->Arg(256);

// The acceptance benchmark for the batch pipeline: the full error-rate
// sampling loop (operand generation + model + counters), one body for all
// four distribution x eval-path variants.  Batched args: (width, lane_words,
// backend) — (W=1, scalar backend) is the batched pipeline without SIMD,
// (kDefaultLaneWords, startup backend) the default, and the items/sec ratio
// between them is the SIMD layer's end-to-end delta.
// Scalar-path args: (width) only.  `window` 0 = sized for 0.01%.
// Each iteration is one 8192-sample shard, so it pays one shard seed
// (make_stream_rng, BM_RngMakeStreamRng) on top of the per-sample work.
void error_rate_samples(benchmark::State& state, arith::InputDistribution dist, int window,
                        std::uint64_t seed, harness::EvalPath path) {
  const int width = static_cast<int>(state.range(0));
  const bool batched = path == harness::EvalPath::kBatched;
  std::optional<BackendScope> scope;
  if (batched) scope.emplace(state.range(2) != 0);
  auto source = arith::make_source(dist, width);
  const spec::VlcsaConfig config{
      width, window > 0 ? window : spec::min_window_for_error_rate(width, 1e-4),
      spec::ScsaVariant::kScsa2};
  constexpr std::uint64_t kSamples = 1 << 13;
  harness::RunOptions options;
  options.samples = kSamples;
  options.threads = 1;
  options.lane_words = batched ? static_cast<int>(state.range(1)) : 0;
  for (auto _ : state) {
    options.seed = seed++;
    benchmark::DoNotOptimize(harness::run_vlcsa(config, *source, options, path));
  }
  state.SetItemsProcessed(state.iterations() * kSamples);
  if (batched) state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK_CAPTURE(error_rate_samples, Batched, arith::InputDistribution::kUniformUnsigned, 0,
                  5, harness::EvalPath::kBatched)
    ->Name("BM_ErrorRateSamplesBatched")
    ->Args({64, 1, 0})->Args({64, 4, 1})->Args({512, 1, 0})->Args({512, 4, 1});
BENCHMARK_CAPTURE(error_rate_samples, Scalar, arith::InputDistribution::kUniformUnsigned, 0,
                  5, harness::EvalPath::kScalar)
    ->Name("BM_ErrorRateSamplesScalar")->Arg(64)->Arg(512);
// Same comparison on the Ch. 7 workload (Gaussian two's-complement
// operands), where sample generation is the larger share of the cost.
BENCHMARK_CAPTURE(error_rate_samples, GaussBatched, arith::InputDistribution::kGaussianTwos,
                  13, 6, harness::EvalPath::kBatched)
    ->Name("BM_ErrorRateSamplesGaussBatched")
    ->Args({64, 1, 0})->Args({64, 4, 1})->Args({512, 1, 0})->Args({512, 4, 1});
BENCHMARK_CAPTURE(error_rate_samples, GaussScalar, arith::InputDistribution::kGaussianTwos,
                  13, 6, harness::EvalPath::kScalar)
    ->Name("BM_ErrorRateSamplesGaussScalar")->Arg(64)->Arg(512);

// Default run_vlcsa at 1000 samples per iteration: one shard, so each
// iteration pays one shard seed (BM_RngMakeStreamRng) on top of its
// samples.  One 512-sample batch runs; the 488-sample scalar tail
// dominates the row.
void BM_MonteCarloVlcsa(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, width);
  const spec::VlcsaConfig config{width, spec::min_window_for_error_rate(width, 1e-4),
                                 spec::ScsaVariant::kScsa2};
  std::uint64_t seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::run_vlcsa(config, *source, 1000, seed++, 1));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MonteCarloVlcsa)->Arg(64)->Arg(512);

// The sharded engine end to end: 64k samples per iteration, thread count as
// the sweep axis — wall-clock should drop near-linearly while the merged
// result stays bit-identical (tests/harness/engine_test.cpp enforces that).
void BM_MonteCarloVlcsaParallel(benchmark::State& state) {
  const int width = 64;
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, width);
  const spec::VlcsaConfig config{width, spec::min_window_for_error_rate(width, 1e-4),
                                 spec::ScsaVariant::kScsa2};
  const int threads = static_cast<int>(state.range(0));
  constexpr std::uint64_t kSamples = 1 << 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::run_vlcsa(config, *source, kSamples, 7, threads));
  }
  state.SetItemsProcessed(state.iterations() * kSamples);
}
BENCHMARK(BM_MonteCarloVlcsaParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->MeasureProcessCPUTime()->UseRealTime();

// The service daemon's cached-hit path (parse -> memory-tier hit -> render),
// the latency every repeated table/figure reproduction sees.  Arg 0 runs with
// observability off — the shape the determinism/overhead contract pins: a
// request line without "trace" in it must pay exactly one substring scan and
// one disabled-branch per stage, nothing else.  Arg 1 runs the same requests
// with --trace-log enabled (span collection + one JSONL line per request),
// which prices what an operator buys when they turn tracing on.
void BM_ServiceCachedHit(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  service::ServiceConfig config;
  config.threads = 1;
  std::filesystem::path trace_path;
  if (traced) {
    trace_path = std::filesystem::temp_directory_path() / "vlcsa_bench_trace.jsonl";
    config.trace_log = trace_path.string();
  }
  service::ExperimentService service(config);
  const std::string line =
      "{\"request\": \"run\", \"experiment\": \"table7.1/n64\", \"samples\": 4096, \"seed\": 3}";
  if (!service.handle_line(line).ok) {  // warm the memory tier
    state.SkipWithError("warm-up run failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.handle_line(line));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(traced ? "traced" : "untraced");
  if (traced) {
    std::error_code ec;  // best-effort cleanup
    std::filesystem::remove(trace_path, ec);
    std::filesystem::remove(trace_path.string() + ".1", ec);
  }
}
BENCHMARK(BM_ServiceCachedHit)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
