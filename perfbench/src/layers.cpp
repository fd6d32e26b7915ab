#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "arith/bitslice.hpp"
#include "arith/carry_chain.hpp"
#include "arith/distributions.hpp"
#include "arith/rng.hpp"
#include "harness/engine.hpp"
#include "harness/json.hpp"
#include "harness/montecarlo.hpp"
#include "service/cache.hpp"
#include "speculative/error_magnitude.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using vlcsa::harness::ErrorRateExperiment;
using vlcsa::harness::ModelKind;

constexpr double kBudgetSeconds = 0.1;  // per timed loop
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 2000;
constexpr int kBlocksPerRep = 16;     // blocks per timed repetition
constexpr std::uint64_t kEngineShards = 20;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median wall time of one fn() call, over at least kMinReps calls and until
/// `budget` seconds have passed.
template <typename Fn>
double median_call_seconds(Fn&& fn, double budget = kBudgetSeconds) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < kMinReps ||
         (seconds_since(start) < budget && samples.size() < kMaxReps)) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  return median(std::move(samples));
}

vlcsa::spec::ScsaVariant variant_of(ModelKind kind) {
  return kind == ModelKind::kVlcsa2 ? vlcsa::spec::ScsaVariant::kScsa2
                                    : vlcsa::spec::ScsaVariant::kScsa1;
}

/// Single-threaded per-block costs of one experiment point's model layers.
struct PointLayers {
  double eval_ns = 0.0;        // per sample
  double accumulate_ns = 0.0;  // per sample
  double engine_ns = 0.0;      // single-thread run_experiment, per sample
  double engine_seconds_1 = 0.0;
  double engine_seconds_n = 0.0;
  vlcsa::harness::RunProfile profile;
};

/// Like each engine shard, the model evaluates one batch buffer into one
/// output buffer, block after block.
PointLayers measure_point(const McWorkload::Point& point,
                          const vlcsa::arith::BitSlicedBatch& batch, const Context& context,
                          const std::string& tag, SpanRecorder& spans, int parent) {
  const ErrorRateExperiment& experiment = *point.experiment;
  const double lanes = batch.lanes();
  PointLayers out;
  vlcsa::harness::ErrorRateResult sink;
  if (experiment.model == ModelKind::kVlsa) {
    const vlcsa::spec::VlsaModel model({experiment.width, experiment.window});
    vlcsa::spec::VlsaBatchEvaluation eval;
    {
      const SpanRecorder::Scope span(&spans, "speculative.eval." + tag, parent);
      out.eval_ns = median_call_seconds([&] {
                      for (int i = 0; i < kBlocksPerRep; ++i) model.evaluate_batch(batch, eval);
                    }) /
                    (kBlocksPerRep * lanes) * 1e9;
    }
    const SpanRecorder::Scope span(&spans, "harness.accumulate." + tag, parent);
    out.accumulate_ns = median_call_seconds([&] {
                          for (int i = 0; i < kBlocksPerRep; ++i) {
                            vlcsa::harness::accumulate_vlsa_batch(eval, sink);
                          }
                        }) /
                        (kBlocksPerRep * lanes) * 1e9;
  } else {
    const auto variant = variant_of(experiment.model);
    const vlcsa::spec::VlcsaModel model({experiment.width, experiment.window, variant});
    vlcsa::spec::VlcsaBatchStep step;
    {
      const SpanRecorder::Scope span(&spans, "speculative.eval." + tag, parent);
      out.eval_ns = median_call_seconds([&] {
                      for (int i = 0; i < kBlocksPerRep; ++i) model.step_batch(batch, step);
                    }) /
                    (kBlocksPerRep * lanes) * 1e9;
    }
    const SpanRecorder::Scope span(&spans, "harness.accumulate." + tag, parent);
    out.accumulate_ns = median_call_seconds([&] {
                          for (int i = 0; i < kBlocksPerRep; ++i) {
                            vlcsa::harness::accumulate_vlcsa_batch(step, variant, sink);
                          }
                        }) /
                        (kBlocksPerRep * lanes) * 1e9;
  }

  const std::uint64_t samples = kEngineShards * vlcsa::harness::kDefaultShardSize;
  vlcsa::harness::RunProfileCollector collector;
  {
    const SpanRecorder::Scope span(&spans, "harness.engine." + tag, parent);
    bool profiled = false;
    out.engine_seconds_1 = median_call_seconds([&] {
      vlcsa::harness::RunOptions options{.samples = samples, .seed = point.seed, .threads = 1};
      if (!profiled) options.profile = &collector;
      profiled = true;
      (void)vlcsa::harness::run_experiment(experiment, options);
    });
  }
  out.profile = collector.snapshot();
  out.engine_ns = out.engine_seconds_1 / static_cast<double>(samples) * 1e9;
  const SpanRecorder::Scope span(&spans, "harness.engine.parallel." + tag, parent);
  out.engine_seconds_n = median_call_seconds([&] {
    (void)vlcsa::harness::run_experiment(experiment, samples, point.seed, context.nproc);
  });
  return out;
}

}  // namespace

void measure_mc_layers(const std::string& family, const Context& context, SpanRecorder& spans,
                       int parent, std::vector<Metric>& out) {
  McWorkload workload(family, context);
  workload.setup();
  const SpanRecorder::Scope section(&spans, "layers.mc." + family, parent);
  const int lane_words = vlcsa::arith::default_lane_words();
  double layer_ns_total = 0.0;
  double engine_ns_total = 0.0;
  double seconds_1 = 0.0;
  double seconds_n = 0.0;
  std::uint64_t samples_total = 0;
  std::uint64_t batched_total = 0;

  for (const int width : {64, 512}) {
    std::vector<const McWorkload::Point*> points;
    for (const auto& point : workload.points()) {
      if (point.experiment->width == width) points.push_back(&point);
    }
    if (points.empty()) throw std::runtime_error("mc family lacks width " + std::to_string(width));
    const ErrorRateExperiment& first = *points.front()->experiment;
    const std::string tag = family + ".n" + std::to_string(width);
    auto source = vlcsa::arith::make_source(first.dist, width, first.params);
    auto rng = vlcsa::arith::make_stream_rng(points.front()->seed, 0);
    vlcsa::arith::BitSlicedBatch batch(width, lane_words);
    const double lanes = batch.lanes();

    // Draw: exactly the raw RNG work fill_batch performs for one batch.
    double draw_ns = 0.0;
    {
      const SpanRecorder::Scope span(&spans, "arith.draw." + tag, section.index());
      if (family == "uniform") {
        std::vector<std::uint64_t> words(static_cast<std::size_t>(lanes) * 2 *
                                         static_cast<std::size_t>((width + 63) / 64));
        draw_ns = median_call_seconds([&] {
          for (int i = 0; i < kBlocksPerRep; ++i) rng.generate_block(words.data(), words.size());
        });
      } else {
        vlcsa::arith::GaussianBlockSampler sampler;
        std::vector<double> variates(static_cast<std::size_t>(lanes) * 2);
        draw_ns = median_call_seconds([&] {
          for (int i = 0; i < kBlocksPerRep; ++i) {
            sampler.fill(rng, variates.data(), variates.size());
          }
        });
      }
      draw_ns = draw_ns / (kBlocksPerRep * lanes) * 1e9;
    }
    double fill_ns = 0.0;
    {
      const SpanRecorder::Scope span(&spans, "arith.fill." + tag, section.index());
      fill_ns = median_call_seconds([&] {
                  for (int i = 0; i < kBlocksPerRep; ++i) source->fill_batch(rng, batch);
                }) /
                (kBlocksPerRep * lanes) * 1e9;
    }

    PointLayers mean;
    std::uint64_t words = 0;
    std::uint64_t samples = 0;
    for (const auto* point : points) {
      const PointLayers layers = measure_point(*point, batch, context, tag, spans,
                                               section.index());
      const double share = 1.0 / static_cast<double>(points.size());
      mean.eval_ns += layers.eval_ns * share;
      mean.accumulate_ns += layers.accumulate_ns * share;
      mean.engine_ns += layers.engine_ns * share;
      seconds_1 += layers.engine_seconds_1;
      seconds_n += layers.engine_seconds_n;
      words += layers.profile.rng_words;
      samples += layers.profile.samples;
      batched_total += layers.profile.batched_samples;
    }
    samples_total += samples;
    const double layer_ns = fill_ns + mean.eval_ns + mean.accumulate_ns;
    layer_ns_total += layer_ns;
    engine_ns_total += mean.engine_ns;
    out.push_back({"arith.draw." + tag + ".ns_per_sample", "ns", draw_ns});
    out.push_back({"arith.fill." + tag + ".ns_per_sample", "ns", fill_ns});
    out.push_back({"arith.layout." + tag + ".ns_per_sample", "ns", fill_ns - draw_ns});
    out.push_back({"speculative.eval." + tag + ".ns_per_sample", "ns", mean.eval_ns});
    out.push_back({"harness.accumulate." + tag + ".ns_per_sample", "ns", mean.accumulate_ns});
    out.push_back({"harness.engine." + tag + ".ns_per_sample", "ns", mean.engine_ns});
    out.push_back({"harness.engine_residual." + tag + ".ns_per_sample", "ns",
                   mean.engine_ns - layer_ns});
    out.push_back({"arith.rng." + tag + ".words_per_sample", "count",
                   static_cast<double>(words) / static_cast<double>(samples)});
  }
  out.push_back({"harness.engine." + family + ".parallel_efficiency", "ratio",
                 seconds_1 / (context.nproc * seconds_n)});
  out.push_back({"harness.layers." + family + ".coverage", "ratio",
                 layer_ns_total / engine_ns_total});
  out.push_back({"harness.engine." + family + ".batched_share", "ratio",
                 static_cast<double>(batched_total) / static_cast<double>(samples_total)});
}

void paper_span_metrics(const SpanRecorder& spans, int paper_root, std::vector<Metric>& out) {
  const auto& all = spans.spans();
  const std::vector<double> self = self_times(all);
  const auto category = [&](const char* prefix) {
    return self_time_with_prefix(all, self, prefix);
  };
  const double wall = all[static_cast<std::size_t>(paper_root)].duration();
  const double error_rate = category("error_rate/");
  const double chain = category("chain_profile/");
  const double crypto = category("crypto/");
  const double magnitude = category("error_magnitude/");
  out.push_back({"harness.paper.error_rate_s", "s", error_rate});
  out.push_back({"harness.paper.chain_profile_s", "s", chain});
  out.push_back({"harness.paper.crypto_s", "s", crypto});
  out.push_back({"speculative.paper.error_magnitude_s", "s", magnitude});
  out.push_back({"bench.paper.unattributed_s", "s",
                 self[static_cast<std::size_t>(paper_root)]});
  out.push_back({"bench.paper.self_time_coverage", "ratio",
                 (error_rate + chain + crypto + magnitude) / wall});
}

void measure_paper_calls(const Context& context, SpanRecorder& spans, int parent,
                         std::vector<Metric>& out) {
  using vlcsa::arith::InputDistribution;
  const SpanRecorder::Scope section(&spans, "layers.paper", parent);
  constexpr int kCalls = 1024;
  auto rng = vlcsa::arith::make_stream_rng(context.seed, 1);

  // OperandSource::next on the 32-bit sources the chain profiles draw from.
  double next_ns = 0.0;
  std::vector<std::pair<vlcsa::arith::ApInt, vlcsa::arith::ApInt>> pairs;
  {
    const SpanRecorder::Scope span(&spans, "arith.next", section.index());
    const auto& chains = vlcsa::harness::chain_profile_experiments();
    int sources = 0;
    for (const auto& experiment : chains) {
      if (experiment.workload != vlcsa::harness::ChainProfileExperiment::Workload::kDistribution) {
        continue;
      }
      auto source = vlcsa::arith::make_source(experiment.dist, experiment.width, experiment.params);
      next_ns += median_call_seconds([&] {
        for (int i = 0; i < kCalls; ++i) (void)source->next(rng);
      });
      if (pairs.empty()) {
        for (int i = 0; i < kCalls; ++i) pairs.push_back(source->next(rng));
      }
      ++sources;
    }
    next_ns = next_ns / sources / kCalls * 1e9;
  }
  out.push_back({"arith.next.ns_per_sample", "ns", next_ns});

  {
    const SpanRecorder::Scope span(&spans, "arith.chain_record", section.index());
    vlcsa::arith::CarryChainProfiler profiler(pairs.front().first.width());
    const double seconds = median_call_seconds([&] {
      for (const auto& [a, b] : pairs) profiler.record(a, b);
    });
    out.push_back({"arith.chain_record.ns_per_sample", "ns", seconds / kCalls * 1e9});
  }

  double scalar_ns = 0.0;
  double magnitude_ns = 0.0;
  for (const auto& [n, k] : PaperWorkload::magnitude_configs()) {
    auto source = vlcsa::arith::make_source(InputDistribution::kUniformUnsigned, n);
    std::vector<std::pair<vlcsa::arith::ApInt, vlcsa::arith::ApInt>> operands;
    for (int i = 0; i < kCalls; ++i) operands.push_back(source->next(rng));
    const vlcsa::spec::ScsaModel model({n, k});
    {
      const SpanRecorder::Scope span(&spans, "speculative.scsa_eval_scalar", section.index());
      scalar_ns += median_call_seconds([&] {
                     for (const auto& [a, b] : operands) (void)model.evaluate(a, b);
                   }) /
                   kCalls * 1e9;
    }
    constexpr std::uint64_t kCallSamples = 20000;
    const SpanRecorder::Scope span(&spans, "speculative.magnitude", section.index());
    magnitude_ns += median_call_seconds([&] {
                      (void)vlcsa::spec::measure_error_magnitude({n, k}, *source, kCallSamples,
                                                                 context.seed);
                    }) /
                    kCallSamples * 1e9;
  }
  const double configs = static_cast<double>(PaperWorkload::magnitude_configs().size());
  out.push_back({"speculative.scsa_eval_scalar.ns_per_sample", "ns", scalar_ns / configs});
  out.push_back({"speculative.magnitude.ns_per_sample", "ns", magnitude_ns / configs});

  const auto* short_run = vlcsa::harness::find_error_rate_experiment("eq5.2/n64-uniform");
  if (short_run == nullptr) throw std::runtime_error("registry lacks eq5.2/n64-uniform");
  const SpanRecorder::Scope span(&spans, "harness.engine.short_run", section.index());
  const double seconds = median_call_seconds([&] {
    (void)vlcsa::harness::run_experiment(*short_run, vlcsa::harness::kDefaultShardSize,
                                         context.seed, context.nproc);
  });
  out.push_back({"harness.engine.short_run_us", "us", seconds * 1e6});
}

void measure_serve_layers(ServeWorkload& serve, const Context& context, SpanRecorder& spans,
                          int parent, CheckTally& tally, std::vector<Metric>& out) {
  constexpr double kLoopSeconds = 1.0;
  constexpr int kCalls = 256;
  const SpanRecorder::Scope section(&spans, "layers.serve", parent);

  // Closed loop at nproc clients (hit latency, tier shares), then at one.
  const auto loop = [&](int clients, const char* name) {
    const SpanRecorder::Scope span(&spans, name, section.index());
    serve.set_clients(clients);
    serve.reset_latencies();
    const auto start = Clock::now();
    while (seconds_since(start) < kLoopSeconds || serve.latencies().requests == 0) {
      serve.run_pass(tally, nullptr, -1);
    }
  };
  const auto before = serve.tier_counts();
  loop(context.nproc, "service.loop.nproc_clients");
  const auto after = serve.tier_counts();
  std::cout << "serve closed loop, " << context.nproc << " clients, untraced:\n";
  serve.report(std::cout);
  const auto hit_p50 = [&] {
    const auto value = nearest_rank(serve.latencies().hit_us, 50);
    if (!value) throw std::runtime_error("serve loop produced too few hits");
    return *value;
  };
  const double hit_n = hit_p50();
  const auto traced = nearest_rank(serve.latencies().traced_hit_us, 50);
  if (!traced) throw std::runtime_error("serve loop produced too few traced hits");
  loop(1, "service.loop.one_client");
  const double hit_1 = hit_p50();
  serve.set_clients(context.nproc);

  const double lookups = static_cast<double>(
      (after.memory - before.memory) + (after.disk - before.disk) + (after.miss - before.miss) +
      (after.coalesced - before.coalesced));
  out.push_back({"service.cache.memory_hit_ratio", "ratio",
                 static_cast<double>(after.memory - before.memory) / lookups});
  out.push_back({"service.cache.disk_hit_ratio", "ratio",
                 static_cast<double>(after.disk - before.disk) / lookups});
  out.push_back({"service.cache.miss_ratio", "ratio",
                 static_cast<double>(after.miss - before.miss) / lookups});

  double parse_us = 0.0;
  {
    const SpanRecorder::Scope span(&spans, "harness.json.parse", section.index());
    const std::string& line = serve.hot().front().request;
    parse_us = median_call_seconds([&] {
                 for (int i = 0; i < kCalls; ++i) {
                   if (!vlcsa::harness::parse_json(line).ok()) {
                     throw std::runtime_error("hot request line does not parse");
                   }
                 }
               }) /
               kCalls * 1e6;
  }
  out.push_back({"harness.json.parse_us", "us", parse_us});

  // ResultCache tiers on a benchmark-owned instance, same keys and records.
  const auto key_of = [](const ServeWorkload::Entry& entry) {
    vlcsa::service::CacheKey key{entry.experiment, ServeWorkload::kShardSamples, entry.seed,
                                 "batched", ""};
    const auto parsed = vlcsa::harness::parse_json(entry.record);
    if (const auto* version = parsed.ok() ? parsed.value.find("stream_version") : nullptr) {
      key.stream_version = version->as_string();
    }
    return key;
  };
  double get_memory_us = 0.0;
  {
    const SpanRecorder::Scope span(&spans, "service.cache.get_memory", section.index());
    vlcsa::service::ResultCache memory("", 64);
    std::vector<vlcsa::service::CacheKey> keys;
    for (const auto& entry : serve.hot()) {
      keys.push_back(key_of(entry));
      memory.put(keys.back(), entry.record);
    }
    get_memory_us = median_call_seconds([&] {
                      for (int i = 0; i < kCalls; ++i) {
                        const auto& key = keys[static_cast<std::size_t>(i) % keys.size()];
                        if (memory.get(key).tier != vlcsa::service::ResultCache::Tier::kMemory) {
                          throw std::runtime_error("memory tier lost a key");
                        }
                      }
                    }) /
                    kCalls * 1e6;
  }
  out.push_back({"service.cache.get_memory_us", "us", get_memory_us});

  const std::string dir = context.out_dir + "/layer-cache";
  std::filesystem::remove_all(dir);
  std::vector<double> put_us;
  std::vector<double> get_disk_us;
  {
    const SpanRecorder::Scope span(&spans, "service.cache.put", section.index());
    vlcsa::service::ResultCache cache(dir, 64);
    for (const auto& entry : serve.warm()) {
      const auto key = key_of(entry);
      const auto start = Clock::now();
      cache.put(key, entry.record);
      put_us.push_back(seconds_since(start) * 1e6);
    }
  }
  {
    const SpanRecorder::Scope span(&spans, "service.cache.get_disk", section.index());
    vlcsa::service::ResultCache cache(dir, 0);
    for (const auto& entry : serve.warm()) {
      const auto key = key_of(entry);
      const auto start = Clock::now();
      const auto lookup = cache.get(key);
      get_disk_us.push_back(seconds_since(start) * 1e6);
      tally.record(lookup.tier == vlcsa::service::ResultCache::Tier::kDisk &&
                           lookup.record == entry.record
                       ? std::string()
                       : "disk tier did not return the stored record for " + entry.experiment);
    }
  }
  std::filesystem::remove_all(dir);
  out.push_back({"service.cache.get_disk_us", "us", median(get_disk_us)});
  out.push_back({"service.cache.put_us", "us", median(put_us)});
  out.push_back({"service.hit_self_us", "us", hit_n - parse_us - get_memory_us});
  out.push_back({"service.trace_overhead_us", "us", *traced - hit_n});
  out.push_back({"service.contention_ratio", "ratio", hit_n / hit_1});

  const SpanRecorder::Scope span(&spans, "harness.engine.miss_run", section.index());
  std::vector<double> miss_ms;
  for (const auto* experiment : serve.cold_experiments()) {
    miss_ms.push_back(median_call_seconds([&] {
                        (void)vlcsa::harness::run_experiment(
                            *experiment, ServeWorkload::kShardSamples, context.seed, 1);
                      }, 0.03) *
                      1e3);
  }
  out.push_back({"harness.engine.miss_run_ms", "ms", median(miss_ms)});
}

}  // namespace perfbench
