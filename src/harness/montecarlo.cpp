#include "harness/montecarlo.hpp"

#include <bit>
#include <chrono>
#include <optional>

#include "harness/engine.hpp"

namespace vlcsa::harness {

namespace {

inline std::uint64_t lanes(std::uint64_t mask) {
  return static_cast<std::uint64_t>(std::popcount(mask));
}

/// Nanoseconds between two steady_clock points (RunProfile stage timing).
inline std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                                std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// steady_clock::now() in the profiled shard body; the unprofiled one reads
/// no clock.
template <bool kProfiled>
std::chrono::steady_clock::time_point stage_clock() {
  if constexpr (kProfiled) return std::chrono::steady_clock::now();
  return {};
}

/// The shard body run_vlcsa and run_vlsa share.  `eval` is the shard's own
/// model evaluator: eval.sample(a, b, out) steps and folds one operand pair,
/// eval.batch(batch, out) one filled batch, keeping its scratch between
/// blocks.  Whole batches go through fill_batch (none when `batch` is null,
/// the scalar path), the rest through next() one pair at a time: the same
/// draws in the same order, so the shard's RNG stream, and therefore the
/// merged counters, match the scalar path exactly.
template <bool kProfiled, typename Eval>
void run_shard(Eval& eval, OperandSource& source, arith::BitSlicedBatch* batch,
               arith::BlockRng& rng, ErrorRateResult& out, std::uint64_t count,
               RunProfileCollector* profile) {
  std::uint64_t done = 0;
  std::uint64_t blocks = 0;
  if (batch != nullptr) {
    const std::uint64_t batch_lanes = static_cast<std::uint64_t>(batch->lanes());
    for (; done + batch_lanes <= count; done += batch_lanes, ++blocks) {
      const auto fill_start = stage_clock<kProfiled>();
      source.fill_batch(rng, *batch);
      const auto eval_start = stage_clock<kProfiled>();
      eval.batch(*batch, out);
      if constexpr (kProfiled) {
        profile->add_fill_ns(elapsed_ns(fill_start, eval_start));
        profile->add_eval_ns(elapsed_ns(eval_start, stage_clock<kProfiled>()));
      }
    }
  }
  if constexpr (kProfiled) {
    profile->add_batch(blocks, done);
    profile->add_scalar_samples(count - done);
  }
  for (; done < count; ++done) {
    const auto [a, b] = source.next(rng);
    eval.sample(a, b, out);
  }
}

/// Runs `eval` (copied per shard) on `path`: batches of the default or the
/// requested lane width, or one sample at a time.
template <typename Eval>
ErrorRateResult run_model(const Eval& eval, int width, OperandSource& source,
                          const RunOptions& options, EvalPath path) {
  const bool batched = path == EvalPath::kBatched;
  const int lane_words = options.lane_words > 0 ? options.lane_words : arith::default_lane_words();
  if (batched && options.profile != nullptr) options.profile->set_lane_words(lane_words);
  return run_sharded_blocks(
      options, [] { return ErrorRateResult{}; },
      [&] {
        std::optional<arith::BitSlicedBatch> batch;
        if (batched) batch.emplace(width, lane_words);
        return [eval = eval, shard_source = source.clone(), batch = std::move(batch),
                profile = options.profile](arith::BlockRng& rng, ErrorRateResult& out,
                                           std::uint64_t count) mutable {
          arith::BitSlicedBatch* planes = batch ? &*batch : nullptr;
          if (profile == nullptr) {
            run_shard<false>(eval, *shard_source, planes, rng, out, count, nullptr);
          } else {
            run_shard<true>(eval, *shard_source, planes, rng, out, count, profile);
          }
        };
      });
}

struct VlcsaEval {
  const spec::VlcsaModel* model;
  spec::ScsaVariant variant;
  spec::VlcsaBatchStep step{};

  void sample(const arith::ApInt& a, const arith::ApInt& b, ErrorRateResult& out) const {
    accumulate_vlcsa(model->step(a, b), variant, out);
  }
  void batch(const arith::BitSlicedBatch& batch, ErrorRateResult& out) {
    model->step_batch(batch, step);
    accumulate_vlcsa_batch(step, variant, out);
  }
};

struct VlsaEval {
  const spec::VlsaModel* model;
  spec::VlsaBatchEvaluation ev{};

  void sample(const arith::ApInt& a, const arith::ApInt& b, ErrorRateResult& out) const {
    accumulate_vlsa(model->evaluate(a, b), out);
  }
  void batch(const arith::BitSlicedBatch& batch, ErrorRateResult& out) {
    model->evaluate_batch(batch, ev);
    accumulate_vlsa_batch(ev, out);
  }
};

}  // namespace

const char* to_string(EvalPath path) {
  switch (path) {
    case EvalPath::kBatched: return "batched";
    case EvalPath::kScalar: return "scalar";
  }
  return "?";
}

bool parse_eval_path(std::string_view text, EvalPath& out) {
  for (const EvalPath path : {EvalPath::kBatched, EvalPath::kScalar}) {
    if (text == to_string(path)) {
      out = path;
      return true;
    }
  }
  return false;
}

void accumulate_vlcsa(const spec::VlcsaStep& step, spec::ScsaVariant variant,
                      ErrorRateResult& out) {
  const auto& ev = step.eval;
  const bool primary_wrong = variant == spec::ScsaVariant::kScsa1 ? !ev.spec0_correct()
                                                                  : !ev.either_correct();
  ++out.samples;
  if (primary_wrong) ++out.actual_errors;
  if (step.stalled) ++out.nominal_errors;
  if (primary_wrong && !step.stalled) ++out.false_negatives;
  if (!ev.either_correct()) ++out.either_wrong;
  if (step.result != ev.exact || step.cout != ev.exact_cout) ++out.emitted_wrong;
  out.total_cycles += static_cast<std::uint64_t>(step.cycles);
}

void accumulate_vlsa(const spec::VlsaEvaluation& ev, ErrorRateResult& out) {
  const bool wrong = !ev.spec_correct();
  ++out.samples;
  if (wrong) ++out.actual_errors;
  if (ev.err) ++out.nominal_errors;
  if (wrong && !ev.err) ++out.false_negatives;
  if (wrong) ++out.either_wrong;
  // Recovery is exact: emitted result is spec when !err else recovered.
  if (wrong && !ev.err) ++out.emitted_wrong;
  out.total_cycles += ev.err ? 2 : 1;
}

void accumulate_vlcsa_batch(const spec::VlcsaBatchStep& step, spec::ScsaVariant variant,
                            ErrorRateResult& out) {
  const auto& ev = step.eval;
  const int lw = step.lane_words();
  const std::uint64_t stalls =
      arith::planeops::popcount_sum(step.stalled.data(), step.stalled.size());
  for (int w = 0; w < lw; ++w) {
    const std::size_t ws = static_cast<std::size_t>(w);
    const std::uint64_t primary_wrong =
        variant == spec::ScsaVariant::kScsa1 ? ev.spec0_wrong[ws] : ev.either_wrong(w);
    out.actual_errors += lanes(primary_wrong);
    out.false_negatives += lanes(primary_wrong & ~step.stalled[ws]);
    out.either_wrong += lanes(ev.either_wrong(w));
  }
  out.samples += static_cast<std::uint64_t>(arith::kBatchLanes) * lw;
  out.nominal_errors += stalls;
  out.emitted_wrong +=
      arith::planeops::popcount_sum(step.emitted_wrong.data(), step.emitted_wrong.size());
  // 1 cycle per lane + 1 extra per stall (eq. 5.2/6.1).
  out.total_cycles += static_cast<std::uint64_t>(arith::kBatchLanes) * lw + stalls;
}

void accumulate_vlsa_batch(const spec::VlsaBatchEvaluation& ev, ErrorRateResult& out) {
  const int lw = ev.lane_words();
  const std::uint64_t errs = arith::planeops::popcount_sum(ev.err.data(), ev.err.size());
  for (int w = 0; w < lw; ++w) {
    const std::size_t ws = static_cast<std::size_t>(w);
    out.actual_errors += lanes(ev.spec_wrong[ws]);
    out.false_negatives += lanes(ev.spec_wrong[ws] & ~ev.err[ws]);
    out.either_wrong += lanes(ev.spec_wrong[ws]);
    out.emitted_wrong += lanes(ev.spec_wrong[ws] & ~ev.err[ws]);
  }
  out.samples += static_cast<std::uint64_t>(arith::kBatchLanes) * lw;
  out.nominal_errors += errs;
  out.total_cycles += static_cast<std::uint64_t>(arith::kBatchLanes) * lw + errs;
}

ErrorRateResult run_vlcsa(const spec::VlcsaConfig& config, OperandSource& source,
                          const RunOptions& options, EvalPath path) {
  const spec::VlcsaModel model(config);
  return run_model(VlcsaEval{&model, config.variant}, config.width, source, options, path);
}

ErrorRateResult run_vlcsa(const spec::VlcsaConfig& config, OperandSource& source,
                          std::uint64_t samples, std::uint64_t seed, int threads,
                          EvalPath path) {
  return run_vlcsa(config, source, RunOptions{samples, seed, threads, kDefaultShardSize},
                   path);
}

ErrorRateResult run_vlsa(const spec::VlsaConfig& config, OperandSource& source,
                         const RunOptions& options, EvalPath path) {
  const spec::VlsaModel model(config);
  return run_model(VlsaEval{&model}, config.width, source, options, path);
}

ErrorRateResult run_vlsa(const spec::VlsaConfig& config, OperandSource& source,
                         std::uint64_t samples, std::uint64_t seed, int threads,
                         EvalPath path) {
  return run_vlsa(config, source, RunOptions{samples, seed, threads, kDefaultShardSize}, path);
}

EmpiricalWindowSearch find_window_for_nominal_rate(int width, spec::ScsaVariant variant,
                                                   arith::InputDistribution dist,
                                                   arith::GaussianParams params, double target,
                                                   double slack, std::uint64_t samples,
                                                   std::uint64_t seed, int k_lo, int k_hi,
                                                   int threads) {
  EmpiricalWindowSearch best;
  for (int k = k_lo; k <= k_hi; ++k) {
    auto source = arith::make_source(dist, width, params);
    const spec::VlcsaConfig config{width, k, variant};
    const auto result = run_vlcsa(config, *source, samples, seed, threads);
    if (result.nominal_rate() <= slack * target) {
      best.window = k;
      best.result = result;
      return best;
    }
    // Keep the last attempt so callers can report the near-miss.
    best.window = k;
    best.result = result;
  }
  return best;
}

}  // namespace vlcsa::harness
