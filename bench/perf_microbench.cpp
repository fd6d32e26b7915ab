// Google-benchmark microbenches for the library's hot paths: big-integer
// addition, behavioral SCSA/VLSA evaluation (scalar and bit-sliced at
// several lane widths), the plane-kernel layer per backend, bit-sliced
// netlist simulation, the optimizer, and static timing — the costs that
// bound every Monte Carlo and synthesis experiment above.
//
// --json=FILE switches to the machine-readable perf record instead of the
// google-benchmark run: a curated suite timing each plane kernel (scalar vs
// the best dispatched backend), the RNG subsystem (std engine vs block
// generation, and the direct-to-plane uniform operand fill), the Gaussian
// sampling subsystem (block ziggurat, operand fill, and the table7.1-style
// error-rate loop), the end-to-end batched sampling loop against the PR 2
// baseline (single lane word, scalar backend), and the service daemon's
// cached-hit request path (observability off vs trace log on), written as
// one JSON object (schema vlcsa-perf-6; every record names the planeops
// backend it was measured on).  CI uploads this as the
// BENCH_batch.json artifact so the perf trajectory is tracked across PRs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
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
#include "harness/report.hpp"
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
// Args: (plane words, 0 = scalar backend / 1 = auto-dispatched best).  Each
// bench pins the requested backend for its own run and restores dispatch on
// exit, so orderings never leak between benches.

class BackendScope {
 public:
  explicit BackendScope(const char* name) : prev_(planeops::active_backend()) {
    planeops::set_backend(name);
  }
  explicit BackendScope(bool best) : BackendScope(best ? "auto" : "scalar") {}
  // Restore the pre-bench backend, so a VLCSA_FORCE_BACKEND pin survives.
  ~BackendScope() { planeops::set_backend(prev_); }

 private:
  planeops::Backend prev_;
};

// The two plane sweeps on uniform operand planes.  Args: (n, lane_words,
// 0 = scalar backend / 1 = auto-dispatched best); the VLSA chain is the
// published l for n, the SCSA window the 1e-4 sizing.
void BM_PlaneWindowSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int lane_words = static_cast<int>(state.range(1));
  const BackendScope scope(state.range(2) != 0);
  const spec::WindowLayout layout(n, spec::min_window_for_error_rate(n, 1e-4));
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  vlcsa::arith::BlockRng rng(7);
  planeops::PlaneVec a(static_cast<std::size_t>(n) * lw), b(a.size());
  for (auto& word : a) word = rng();
  for (auto& word : b) word = rng();
  planeops::PlaneVec s0(lw), s1(lw), e0(lw), e1(lw);
  for (auto _ : state) {
    planeops::window_sweep(a.data(), b.data(), n, lane_words, layout.window(0).size,
                           std::min(layout.window_size(), n), s0.data(), s1.data(), e0.data(),
                           e1.data());
    benchmark::DoNotOptimize(s0.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * lane_words);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_PlaneWindowSweep)
    ->Args({64, 8, 0})->Args({64, 8, 1})->Args({512, 8, 0})->Args({512, 8, 1});

void BM_PlaneRunSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int lane_words = static_cast<int>(state.range(1));
  const BackendScope scope(state.range(2) != 0);
  const int chain = spec::vlsa_published_chain_length(n);
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  vlcsa::arith::BlockRng rng(8);
  planeops::PlaneVec a(static_cast<std::size_t>(n) * lw), b(a.size());
  for (auto& word : a) word = rng();
  for (auto& word : b) word = rng();
  planeops::PlaneVec spec_wrong(lw), err(lw), scratch(static_cast<std::size_t>(chain) * lw);
  for (auto _ : state) {
    planeops::run_sweep(a.data(), b.data(), n, lane_words, chain, spec_wrong.data(), err.data(),
                        scratch.data());
    benchmark::DoNotOptimize(spec_wrong.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * lane_words);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_PlaneRunSweep)
    ->Args({64, 8, 0})->Args({64, 8, 1})->Args({512, 8, 0})->Args({512, 8, 1});

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
// two's complement.  Arg: 0 = scalar backend / 1 = auto-dispatched best.
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

// ---- RNG subsystem ---------------------------------------------------------
// The block-generating MT19937-64 vs the std engine it is sequence-identical
// to: per-call draws, bulk generate_block, and the uniform operand fill it
// feeds.  Args where present: (0 = scalar backend / 1 = auto-dispatched).

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
// backend: 0 scalar / 1 auto) — (W=1, scalar backend) is how PR 2 ran the
// batched pipeline, (kDefaultLaneWords, auto) is the current default, and
// the items/sec ratio between them is the SIMD layer's end-to-end delta.
// Scalar-path args: (width) only.  `window` 0 = sized for 0.01%.
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

// ---- --json=FILE: the machine-readable perf record --------------------------

/// Wall-clock of `body` amortized over enough repetitions to cross ~60 ms,
/// reported as nanoseconds per inner item.
template <typename Body>
double time_ns_per_item(std::uint64_t items_per_rep, const Body& body) {
  using clock = std::chrono::steady_clock;
  body();  // warm-up (allocations, dispatch resolution, caches)
  std::uint64_t reps = 1;
  for (;;) {
    const auto start = clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) body();
    const double elapsed =
        std::chrono::duration<double, std::nano>(clock::now() - start).count();
    if (elapsed >= 6e7 || reps > (1u << 24)) {
      return elapsed / (static_cast<double>(reps) * static_cast<double>(items_per_rep));
    }
    reps *= 4;
  }
}

harness::JsonObject kernel_record(const std::string& name, double scalar_ns,
                                  double best_ns, const char* best_backend) {
  harness::JsonObject record;
  record.add("kernel", name);
  record.add("scalar_ns_per_sample", scalar_ns);
  record.add("best_ns_per_sample", best_ns);
  record.add("backend", best_backend);
  record.add("speedup_vs_scalar", best_ns > 0 ? scalar_ns / best_ns : 0.0);
  return record;
}

/// ns/sample of the full batched error-rate loop on `dist` operands at one
/// configuration.  `lane_words` 0 = the dispatch-aware default
/// (arith::default_lane_words() resolved inside the run, under `backend`).
double end_to_end_ns(int width, arith::InputDistribution dist, int lane_words,
                     const char* backend) {
  auto source = arith::make_source(dist, width);
  const BackendScope scope(backend);
  const spec::VlcsaConfig config{width, spec::min_window_for_error_rate(width, 1e-4),
                                 spec::ScsaVariant::kScsa2};
  constexpr std::uint64_t kSamples = 1 << 13;
  harness::RunOptions options;
  options.samples = kSamples;
  options.threads = 1;
  options.lane_words = lane_words;
  std::uint64_t seed = 11;
  return time_ns_per_item(kSamples, [&] {
    options.seed = seed++;
    benchmark::DoNotOptimize(
        harness::run_vlcsa(config, *source, options, harness::EvalPath::kBatched));
  });
}

int write_perf_json(const std::string& path) {
  // The record's "best" rows are always measured under auto dispatch (that
  // is the comparison the artifact tracks), so label them with what auto
  // resolves to — not with a VLCSA_FORCE_BACKEND pin, which the scopes
  // below deliberately step around and then restore.
  const char* best = nullptr;
  int now_w = 0;  // dispatch-aware default lane width under auto (8 on avx512)
  {
    const BackendScope scope("auto");
    best = to_string(planeops::active_backend());
    now_w = arith::default_lane_words();
  }
  std::string kernels;
  {
    // Per-kernel scalar-vs-best at the hot shape: n=512 planes, 8 lane words
    // (one zmm per bit), the uniform-workload sizings of both sweeps.
    constexpr int kN = 512;
    constexpr int kW = 8;
    constexpr std::size_t kM = static_cast<std::size_t>(kN) * kW;
    constexpr std::uint64_t kSamplesPerPass = 64 * kW;
    vlcsa::arith::BlockRng rng(13);
    planeops::PlaneVec a(kM), b(kM), s0(kW), s1(kW), e0(kW), e1(kW);
    for (auto& word : a) word = rng();
    for (auto& word : b) word = rng();
    const spec::WindowLayout layout(kN, spec::min_window_for_error_rate(kN, 1e-4));
    const int chain = spec::vlsa_published_chain_length(kN);
    planeops::PlaneVec scratch(static_cast<std::size_t>(chain) * kW);
    struct Kernel {
      const char* name;
      std::function<void()> body;
      std::uint64_t items;
    };
    alignas(64) std::uint64_t block[64];
    for (auto& row : block) row = rng();
    // The encoder's BM_PlaneEncodeSamples shape: 1024 variates at stride 2.
    arith::GaussianBlockSampler sampler;
    std::vector<double> variates(2048);
    sampler.fill(rng, variates.data(), variates.size());
    std::vector<std::uint64_t> words(1024);
    const std::vector<Kernel> suite = {
        {"window_sweep_n512_w8",
         [&] {
           planeops::window_sweep(a.data(), b.data(), kN, kW, layout.window(0).size,
                                  layout.window_size(), s0.data(), s1.data(), e0.data(),
                                  e1.data());
         },
         kSamplesPerPass},
        {"run_sweep_n512_w8",
         [&] {
           planeops::run_sweep(a.data(), b.data(), kN, kW, chain, s0.data(), e0.data(),
                               scratch.data());
         },
         kSamplesPerPass},
        // 2048 words = n=512 planes x 4 lane words, per 256 samples as before.
        {"popcount_sum_2048",
         [&] { benchmark::DoNotOptimize(planeops::popcount_sum(a.data(), 2048)); },
         256},
        {"transpose_64x64", [&] { planeops::transpose_64x64(block); }, 64},
        {"encode_samples_1024",
         [&] {
           planeops::encode_samples(variates.data(), 2, words.size(), 0.0, 0x1p32, 64, true,
                                    words.data());
         },
         1024},
    };
    bool first = true;
    for (const auto& kernel : suite) {
      double scalar_ns = 0, best_ns = 0;
      {
        const BackendScope scope("scalar");
        scalar_ns = time_ns_per_item(kernel.items, kernel.body);
      }
      {
        const BackendScope scope("auto");
        best_ns = time_ns_per_item(kernel.items, kernel.body);
      }
      if (!first) kernels += ", ";
      kernels += kernel_record(kernel.name, scalar_ns, best_ns, best).render_line();
      first = false;
    }
  }

  // The RNG subsystem: per-word generation cost of the std engine, the
  // block RNG's per-call path, and bulk generate_block, plus the uniform
  // operand fill (generate_block direct-to-plane).
  std::string rng_section;
  {
    constexpr std::size_t kWords = 1 << 14;
    std::vector<std::uint64_t> buf(kWords);
    std::mt19937_64 std_rng(13);
    arith::BlockRng block_rng(13);
    const double std_ns = time_ns_per_item(kWords, [&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < kWords; ++i) sum += std_rng();
      benchmark::DoNotOptimize(sum);
    });
    const double percall_ns = time_ns_per_item(kWords, [&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < kWords; ++i) sum += block_rng();
      benchmark::DoNotOptimize(sum);
    });
    const auto block_ns_for = [&](const char* backend) {
      const BackendScope scope(backend);
      return time_ns_per_item(kWords, [&] {
        block_rng.generate_block(buf.data(), kWords);
        benchmark::DoNotOptimize(buf.data());
      });
    };
    const double block_scalar_ns = block_ns_for("scalar");
    const double block_best_ns = block_ns_for("auto");
    harness::JsonObject generation;
    generation.add("std_mt19937_64_ns_per_word", std_ns);
    generation.add("blockrng_percall_ns_per_word", percall_ns);
    generation.add("blockrng_block_scalar_ns_per_word", block_scalar_ns);
    generation.add("blockrng_block_ns_per_word", block_best_ns);
    generation.add("backend", best);
    generation.add("speedup_vs_std", block_best_ns > 0 ? std_ns / block_best_ns : 0.0);

    std::string fills;
    bool first = true;
    for (const int width : {64, 512}) {
      arith::UniformUnsignedSource source(width);
      arith::BitSlicedBatch batch(width, now_w);
      arith::BlockRng fill_rng(5);
      const std::uint64_t lanes = static_cast<std::uint64_t>(batch.lanes());
      const BackendScope scope("auto");  // record labels the auto-dispatched backend
      const double fill_ns = time_ns_per_item(lanes, [&] {
        source.fill_batch(fill_rng, batch);
        benchmark::DoNotOptimize(batch.a());
      });
      harness::JsonObject record;
      record.add("workload", "uniform-fill-batch-n" + std::to_string(width));
      record.add("ns_per_sample", fill_ns);
      record.add("backend", best);
      record.add("lane_words", now_w);
      if (!first) fills += ", ";
      fills += record.render_line();
      first = false;
    }
    harness::JsonObject rng_record;
    rng_record.add_json("generation", generation.render_line());
    rng_record.add_json("fill_batch", "[" + fills + "]");
    rng_section = rng_record.render_line();
  }

  // The batched model evaluation alone (no operand generation): this is the
  // layer the SIMD plane kernels accelerate, compared against the single
  // lane word + scalar backend configuration (how PR 2 evaluated batches).
  std::string model_eval;
  double model_speedup_n512 = 0.0;
  {
    bool first = true;
    for (const int width : {64, 512}) {
      const spec::ScsaModel model(
          spec::ScsaConfig{width, spec::min_window_for_error_rate(width, 1e-4)});
      vlcsa::arith::BlockRng rng(17);
      auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, width);
      spec::ScsaBatchEvaluation ev;
      const auto time_model = [&](int lane_words, const char* backend) {
        const BackendScope scope(backend);
        arith::BitSlicedBatch batch(width, lane_words);
        source->fill_batch(rng, batch);
        return time_ns_per_item(static_cast<std::uint64_t>(batch.lanes()), [&] {
          model.evaluate_batch(batch, ev);
          benchmark::DoNotOptimize(ev.err0.data());
        });
      };
      const double base_ns = time_model(1, "scalar");
      const double now_ns = time_model(now_w, "auto");
      harness::JsonObject record;
      record.add("workload", "scsa-evaluate-batch-n" + std::to_string(width));
      record.add("w1_scalar_backend_ns_per_sample", base_ns);
      record.add("ns_per_sample", now_ns);
      record.add("backend", best);
      record.add("lane_words", now_w);
      const double speedup = now_ns > 0 ? base_ns / now_ns : 0.0;
      record.add("speedup", speedup);
      if (width == 512) model_speedup_n512 = speedup;
      if (!first) model_eval += ", ";
      model_eval += record.render_line();
      first = false;
    }
  }

  // The full sampling loop (operand generation + model + counters).  The
  // baseline configuration (1 lane word, scalar backend) is how PR 2 ran
  // the batched pipeline.  Through PR 4 this row was Amdahl-bound by
  // per-call std::mt19937_64 draws; the block RNG's direct-to-plane fill
  // is what moved it (the acceptance row for PR 5: >= 2x vs the PR 4
  // record).
  std::string end_to_end;
  double end_to_end_speedup_n512 = 0.0;
  {
    bool first = true;
    for (const int width : {64, 512}) {
      const double base_ns =
          end_to_end_ns(width, arith::InputDistribution::kUniformUnsigned, 1, "scalar");
      const double now_ns =
          end_to_end_ns(width, arith::InputDistribution::kUniformUnsigned, 0, "auto");
      harness::JsonObject record;
      record.add("workload", "vlcsa2-uniform-n" + std::to_string(width));
      record.add("w1_scalar_backend_ns_per_sample", base_ns);
      record.add("ns_per_sample", now_ns);  // default lane words, dispatched backend
      record.add("backend", best);
      record.add("lane_words", now_w);
      const double speedup = now_ns > 0 ? base_ns / now_ns : 0.0;
      record.add("speedup", speedup);
      if (width == 512) end_to_end_speedup_n512 = speedup;
      if (!first) end_to_end += ", ";
      end_to_end += record.render_line();
      first = false;
    }
  }

  // The Gaussian sampling subsystem (the Ch. 7 workloads): per-variate cost
  // of the block ziggurat, the two's-complement operand fill, and the full
  // table7.1-style error-rate loop.
  std::string gaussian_section;
  {
    constexpr std::size_t kVariates = std::size_t{1} << 14;
    std::vector<double> variates(kVariates);
    arith::GaussianBlockSampler sampler;
    arith::BlockRng block_rng(19);
    const auto sampler_ns_for = [&](const char* backend) {
      const BackendScope scope(backend);
      return time_ns_per_item(kVariates, [&] {
        sampler.fill(block_rng, variates.data(), kVariates);
        benchmark::DoNotOptimize(variates.data());
      });
    };
    harness::JsonObject sampler_record;
    sampler_record.add("ziggurat_block_scalar_ns_per_variate", sampler_ns_for("scalar"));
    sampler_record.add("ziggurat_block_ns_per_variate", sampler_ns_for("auto"));
    sampler_record.add("backend", best);

    std::string fills;
    bool first = true;
    for (const int width : {64, 512}) {
      arith::GaussianTwosSource source(width, arith::GaussianParams{});
      arith::BitSlicedBatch batch(width, now_w);
      const std::uint64_t lanes = static_cast<std::uint64_t>(batch.lanes());
      const BackendScope scope("auto");
      arith::BlockRng fill_rng(23);
      const double fill_ns = time_ns_per_item(lanes, [&] {
        source.fill_batch(fill_rng, batch);
        benchmark::DoNotOptimize(batch.a());
      });
      harness::JsonObject record;
      record.add("workload", "gaussian-twos-fill-batch-n" + std::to_string(width));
      record.add("ns_per_sample", fill_ns);
      record.add("backend", best);
      record.add("lane_words", now_w);
      if (!first) fills += ", ";
      fills += record.render_line();
      first = false;
    }

    // End to end on the table7.1 shape (VLCSA error rates, two's-complement
    // Gaussian operands) at the defaults.
    std::string ends;
    first = true;
    for (const int width : {64, 512}) {
      harness::JsonObject record;
      record.add("workload", "table7.1-gauss2c-n" + std::to_string(width));
      record.add("ns_per_sample",
                 end_to_end_ns(width, arith::InputDistribution::kGaussianTwos, 0, "auto"));
      record.add("backend", best);
      record.add("lane_words", now_w);
      if (!first) ends += ", ";
      ends += record.render_line();
      first = false;
    }

    harness::JsonObject gaussian;
    gaussian.add_json("sampler", sampler_record.render_line());
    gaussian.add_json("fill_batch", "[" + fills + "]");
    gaussian.add_json("end_to_end", "[" + ends + "]");
    gaussian_section = gaussian.render_line();
  }

  // The service daemon's cached-hit request path with observability off vs
  // with the trace log enabled.  The untraced row is the overhead gate for
  // the tracing subsystem: a request that does not mention "trace" must cost
  // what it did before trace.cpp existed (one substring scan, disabled-branch
  // stage guards), so `traced_overhead_ratio` near 1.0 for the *untraced*
  // row's trajectory across PRs is the regression to watch.
  std::string service_section;
  double service_hit_ns = 0.0;
  {
    const auto cached_hit_ns = [](bool traced) {
      service::ServiceConfig config;
      config.threads = 1;
      std::filesystem::path trace_path;
      if (traced) {
        trace_path = std::filesystem::temp_directory_path() / "vlcsa_perf_trace.jsonl";
        config.trace_log = trace_path.string();
      }
      service::ExperimentService service(config);
      const std::string line =
          "{\"request\": \"run\", \"experiment\": \"table7.1/n64\", "
          "\"samples\": 4096, \"seed\": 3}";
      if (!service.handle_line(line).ok) return 0.0;  // warm the memory tier
      const double ns = time_ns_per_item(1, [&] {
        benchmark::DoNotOptimize(service.handle_line(line));
      });
      if (traced) {
        std::error_code ec;
        std::filesystem::remove(trace_path, ec);
        std::filesystem::remove(trace_path.string() + ".1", ec);
      }
      return ns;
    };
    const double off_ns = cached_hit_ns(false);
    const double on_ns = cached_hit_ns(true);
    service_hit_ns = off_ns;
    harness::JsonObject record;
    record.add("workload", "service-cached-hit");
    record.add("ns_per_request", off_ns);
    record.add("traced_ns_per_request", on_ns);
    record.add("traced_overhead_ratio", off_ns > 0 ? on_ns / off_ns : 0.0);
    service_section = record.render_line();
  }

  harness::JsonObject root;
  root.add("schema", "vlcsa-perf-6");
  root.add("backend_best", best);
  root.add("lane_words_default", now_w);
  root.add_json("kernels", "[" + kernels + "]");
  root.add_json("rng", rng_section);
  root.add_json("gaussian", gaussian_section);
  root.add_json("model_eval", "[" + model_eval + "]");
  root.add_json("end_to_end", "[" + end_to_end + "]");
  root.add_json("service", service_section);

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return 1;
  }
  out << root.render_line() << "\n";
  std::cout << "wrote " << path << " (backend " << best << "; n512 model-eval speedup "
            << model_speedup_n512 << "x, end-to-end " << end_to_end_speedup_n512
            << "x; service cached hit " << service_hit_ns << " ns)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strict --json=FILE extraction; everything else goes to google-benchmark.
  std::string json_path;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      if (json_path.empty()) {
        std::cerr << "error: --json requires a file path\n";
        return 2;
      }
      continue;
    }
    rest.push_back(argv[i]);
  }
  if (!json_path.empty()) return write_perf_json(json_path);

  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
