#include "harness/experiments.hpp"

#include <cmath>
#include <stdexcept>

#include "harness/engine.hpp"
#include "harness/report.hpp"
#include "speculative/error_model.hpp"

namespace vlcsa::harness {

namespace {

const arith::GaussianParams kPaperGaussian{0.0, std::ldexp(1.0, 32)};   // Ch. 7 inputs
const arith::GaussianParams kFig6Gaussian{0.0, std::ldexp(1.0, 20)};    // 32-bit figures

std::string point_name(const std::string& artifact, const std::string& point) {
  return artifact + "/" + point;
}

/// Tables 7.1 / 7.2 — the published (n, k) design points against
/// 2's-complement Gaussian inputs, for each VLCSA variant.
void register_table7_1_and_7_2(std::vector<ErrorRateExperiment>& out) {
  for (const auto& row : spec::published_scsa_parameters()) {
    out.push_back({point_name("table7.1", "n" + std::to_string(row.n)),
                   "VLCSA 1 error rates, 2's-complement Gaussian (mu=0, sigma=2^32)",
                   ModelKind::kVlcsa1, row.n, row.k_rate_01,
                   arith::InputDistribution::kGaussianTwos, kPaperGaussian, 200000});
  }
  for (const auto& row : spec::published_scsa_parameters()) {
    out.push_back({point_name("table7.2", "n" + std::to_string(row.n)),
                   "VLCSA 2 error rates, 2's-complement Gaussian (mu=0, sigma=2^32)",
                   ModelKind::kVlcsa2, row.n, row.k_rate_01,
                   arith::InputDistribution::kGaussianTwos, kPaperGaussian, 200000});
  }
}

/// Table 7.4 — analytical window sizing at both error-rate targets, checked
/// against unsigned uniform inputs.
void register_table7_4(std::vector<ErrorRateExperiment>& out) {
  for (const int n : {64, 128, 256, 512}) {
    for (const auto& [tag, target] :
         {std::pair<const char*, double>{"rate0.01", 1e-4}, {"rate0.25", 2.5e-3}}) {
      out.push_back({point_name("table7.4", "n" + std::to_string(n) + "-" + tag),
                     "VLCSA 1 at the analytically sized window, unsigned uniform inputs",
                     ModelKind::kVlcsa1, n, spec::min_window_for_error_rate(n, target),
                     arith::InputDistribution::kUniformUnsigned, {}, 200000});
    }
  }
}

/// Fig 7.1 — the model-validation grid: widths × window sizes, uniform inputs.
void register_fig7_1(std::vector<ErrorRateExperiment>& out) {
  for (const int n : {64, 128, 256, 512}) {
    for (int k = 6; k <= 16; k += 2) {
      out.push_back({point_name("fig7.1", "n" + std::to_string(n) + "-k" + std::to_string(k)),
                     "SCSA error-model validation point, unsigned uniform inputs",
                     ModelKind::kVlcsa1, n, k, arith::InputDistribution::kUniformUnsigned,
                     {},
                     200000});
    }
  }
}

/// Eq. (5.2) — the average-latency streams behind the headline wall-clock
/// comparison: VLCSA 1 on uniform inputs and VLCSA 2 on Gaussian inputs,
/// both at the 0.25% design points.
void register_eq5_2(std::vector<ErrorRateExperiment>& out) {
  for (const int n : {64, 128, 256, 512}) {
    out.push_back({point_name("eq5.2", "n" + std::to_string(n) + "-uniform"),
                   "VLCSA 1 average latency, unsigned uniform inputs, 0.25% sizing",
                   ModelKind::kVlcsa1, n, spec::min_window_for_error_rate(n, 2.5e-3),
                   arith::InputDistribution::kUniformUnsigned, {}, 100000});
    out.push_back({point_name("eq5.2", "n" + std::to_string(n) + "-gaussian-2c"),
                   "VLCSA 2 average latency, 2's-complement Gaussian inputs, 0.25% sizing",
                   ModelKind::kVlcsa2, n, spec::published_vlcsa2_parameters().k_rate_25,
                   arith::InputDistribution::kGaussianTwos, kPaperGaussian, 100000});
  }
}

/// VLSA baseline points (Table 7.3's published chain lengths).
void register_vlsa_baseline(std::vector<ErrorRateExperiment>& out) {
  for (const int n : {64, 128, 256, 512}) {
    out.push_back({point_name("vlsa", "n" + std::to_string(n)),
                   "VLSA [17] baseline at the published chain length, uniform inputs",
                   ModelKind::kVlsa, n, spec::vlsa_published_chain_length(n),
                   arith::InputDistribution::kUniformUnsigned, {}, 200000});
  }
}

std::vector<ErrorRateExperiment> build_error_rate_registry() {
  std::vector<ErrorRateExperiment> out;
  register_table7_1_and_7_2(out);
  register_table7_4(out);
  register_fig7_1(out);
  register_eq5_2(out);
  register_vlsa_baseline(out);
  return out;
}

std::vector<ChainProfileExperiment> build_chain_profile_registry() {
  std::vector<ChainProfileExperiment> out;
  ChainProfileExperiment base;
  base.width = 32;

  base.name = point_name("fig6.1", "uniform-unsigned");
  base.description = "Carry-chain lengths, unsigned uniform inputs, 32-bit adder";
  base.dist = arith::InputDistribution::kUniformUnsigned;
  out.push_back(base);

  for (const auto kind : {arith::CryptoKind::kRsaLike, arith::CryptoKind::kDiffieHellmanLike,
                          arith::CryptoKind::kEcFieldLike}) {
    ChainProfileExperiment crypto;
    crypto.name = point_name("fig6.2", to_string(kind));
    crypto.description =
        "Carry-chain lengths from an instrumented crypto workload "
        "(16-bit prime field on a 32-bit datapath)";
    crypto.width = 32;
    crypto.workload = ChainProfileExperiment::Workload::kCrypto;
    crypto.crypto_kind = kind;
    crypto.crypto_field_bits = 16;
    crypto.crypto_exponent_bits = 24;
    crypto.default_samples = 4;  // top-level crypto operations, not additions
    out.push_back(crypto);
  }

  base.name = point_name("fig6.3", "uniform-twos-complement");
  base.description = "Carry-chain lengths, 2's-complement uniform inputs, 32-bit adder";
  base.dist = arith::InputDistribution::kUniformTwos;
  out.push_back(base);

  base.name = point_name("fig6.4", "gaussian-unsigned");
  base.description =
      "Carry-chain lengths, unsigned Gaussian inputs (mu=0, sigma=2^20), 32-bit adder";
  base.dist = arith::InputDistribution::kGaussianUnsigned;
  base.params = kFig6Gaussian;
  out.push_back(base);

  base.name = point_name("fig6.5", "gaussian-twos-complement");
  base.description =
      "Carry-chain lengths, 2's-complement Gaussian inputs (mu=0, sigma=2^20), 32-bit adder";
  base.dist = arith::InputDistribution::kGaussianTwos;
  out.push_back(base);
  return out;
}

template <typename Experiment>
const Experiment* find_by_name(const std::vector<Experiment>& experiments,
                               std::string_view name) {
  for (const auto& experiment : experiments) {
    if (experiment.name == name) return &experiment;
  }
  return nullptr;
}

template <typename Experiment>
void append_with_prefix(const std::vector<Experiment>& experiments, std::string_view prefix,
                        std::vector<ExperimentHandle>& out) {
  for (const auto& experiment : experiments) {
    if (std::string_view(experiment.name).substr(0, prefix.size()) == prefix) {
      out.emplace_back(experiment);
    }
  }
}

// ---- Operand-stream versions ---------------------------------------------

/// Stream version of the Gaussian operand streams.  Bumped whenever the
/// Gaussian variate stream changes incompatibly — v2 is the move of
/// GaussianUnsignedSource/GaussianTwosSource from per-sample
/// std::normal_distribution onto the block ziggurat
/// (arith::GaussianBlockSampler), which redefines every Gaussian-input
/// counter.
constexpr const char* kGaussStreamVersion = "gauss-rng-v2";

/// Stream version of the unsigned uniform operand stream.  v3 is the move
/// of UniformUnsignedSource to a plane-order stream (one generate_block per
/// operand's bit-planes of a 512-sample block), which redefines every
/// uniform-unsigned counter and chain histogram.
constexpr const char* kUniformStreamVersion = "uniform-rng-v3";

/// Stream version of the crypto chain-profile workloads.  Bumped whenever
/// their internal draw streams change incompatibly — v2 is the move of
/// run_crypto_workload's seeding onto the shared seed_seq discipline
/// (arith::make_stream_rng) that shipped with the BlockRng subsystem.
constexpr const char* kCryptoStreamVersion = "crypto-rng-v2";

/// The stream version of an operand distribution, for error-rate
/// experiments AND distribution chain profiles.  Two's-complement uniform
/// streams never changed and stay unversioned (keys unchanged).
const char* distribution_stream_version(arith::InputDistribution dist) {
  switch (dist) {
    case arith::InputDistribution::kUniformUnsigned: return kUniformStreamVersion;
    case arith::InputDistribution::kGaussianUnsigned:
    case arith::InputDistribution::kGaussianTwos: return kGaussStreamVersion;
    case arith::InputDistribution::kUniformTwos: return "";
  }
  return "";
}

// ---- Per-kind decisions ----------------------------------------------------
// One overload set per experiment kind; ExperimentHandle visits them.  A
// record is identity + samples/seed/eval_path/stream_version + the kind's
// result fields (run_into_record).

const char* kind_name(const ErrorRateExperiment&) { return "error-rate"; }
const char* kind_name(const ChainProfileExperiment&) { return "chain-profile"; }

bool has_eval_path_choice(const ErrorRateExperiment&) { return true; }
bool has_eval_path_choice(const ChainProfileExperiment&) { return false; }

const char* stream_version_of(const ErrorRateExperiment& experiment) {
  return distribution_stream_version(experiment.dist);
}
const char* stream_version_of(const ChainProfileExperiment& experiment) {
  return experiment.workload == ChainProfileExperiment::Workload::kCrypto
             ? kCryptoStreamVersion
             : distribution_stream_version(experiment.dist);
}

void add_config_fields(const ErrorRateExperiment& experiment, JsonObject& out) {
  out.add("model", to_string(experiment.model));
  out.add("width", experiment.width);
  out.add("window", experiment.window);
  out.add("distribution", arith::to_string(experiment.dist));
}
void add_config_fields(const ChainProfileExperiment& experiment, JsonObject& out) {
  const bool crypto = experiment.workload == ChainProfileExperiment::Workload::kCrypto;
  out.add("width", experiment.width);
  out.add("workload", crypto ? "crypto" : "distribution");
  out.add("source", crypto ? std::string(to_string(experiment.crypto_kind))
                           : arith::to_string(experiment.dist));
}

void run_into_record(const ErrorRateExperiment& experiment, const RunOptions& options,
                       EvalPath path, JsonObject& record) {
  const ErrorRateResult result = run_experiment(experiment, options, path);
  record.add("actual_errors", result.actual_errors);
  record.add("nominal_errors", result.nominal_errors);
  record.add("false_negatives", result.false_negatives);
  record.add("either_wrong", result.either_wrong);
  record.add("emitted_wrong", result.emitted_wrong);
  record.add("total_cycles", result.total_cycles);
  record.add("actual_rate", result.actual_rate());
  record.add("nominal_rate", result.nominal_rate());
  record.add("either_wrong_rate", result.either_wrong_rate());
  record.add("avg_cycles", result.average_cycles());
}
void run_into_record(const ChainProfileExperiment& experiment, const RunOptions& options,
                       EvalPath, JsonObject& record) {
  const arith::CarryChainProfiler profiler = run_experiment(experiment, options);
  record.add("additions", profiler.additions());
  record.add("chains", profiler.total());
  record.add("mean_chain_length", profiler.mean_length());
  record.add("fraction_at_least_half_width", profiler.fraction_at_least(experiment.width / 2));
}

}  // namespace

const char* to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kVlcsa1:
      return "VLCSA 1";
    case ModelKind::kVlcsa2:
      return "VLCSA 2";
    case ModelKind::kVlsa:
      return "VLSA";
  }
  throw std::logic_error("unknown ModelKind");
}

bool parse_model_kind(std::string_view text, ModelKind& out) {
  for (const ModelKind kind : {ModelKind::kVlcsa1, ModelKind::kVlcsa2, ModelKind::kVlsa}) {
    if (text == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

ErrorRateResult run_experiment(const ErrorRateExperiment& experiment, std::uint64_t samples,
                               std::uint64_t seed, int threads, EvalPath path) {
  return run_experiment(experiment, RunOptions{samples, seed, threads, kDefaultShardSize},
                        path);
}

ErrorRateResult run_experiment(const ErrorRateExperiment& experiment,
                               const RunOptions& options, EvalPath path) {
  const auto source = arith::make_source(experiment.dist, experiment.width, experiment.params);
  switch (experiment.model) {
    case ModelKind::kVlcsa1:
      return run_vlcsa({experiment.width, experiment.window, spec::ScsaVariant::kScsa1},
                       *source, options, path);
    case ModelKind::kVlcsa2:
      return run_vlcsa({experiment.width, experiment.window, spec::ScsaVariant::kScsa2},
                       *source, options, path);
    case ModelKind::kVlsa:
      return run_vlsa({experiment.width, experiment.window}, *source, options, path);
  }
  throw std::logic_error("unknown ModelKind");
}

arith::CarryChainProfiler run_experiment(const ChainProfileExperiment& experiment,
                                         std::uint64_t samples, std::uint64_t seed,
                                         int threads) {
  return run_experiment(experiment, RunOptions{samples, seed, threads, kDefaultShardSize});
}

arith::CarryChainProfiler run_experiment(const ChainProfileExperiment& experiment,
                                         const RunOptions& options) {
  const auto make_profiler = [&] {
    return arith::CarryChainProfiler(experiment.width, arith::ChainMetric::kAllChains);
  };
  if (experiment.workload == ChainProfileExperiment::Workload::kCrypto) {
    // One sample = one top-level crypto operation; the shard RNG seeds each
    // operation's workload, so the profile is thread-count-invariant like
    // every other experiment.
    return run_sharded(options, make_profiler, [&] {
      return [&experiment](arith::BlockRng& rng, arith::CarryChainProfiler& acc) {
        arith::CryptoWorkloadConfig config;
        config.width = experiment.width;
        config.field_bits = experiment.crypto_field_bits;
        config.kind = experiment.crypto_kind;
        config.operations = 1;
        config.exponent_bits = experiment.crypto_exponent_bits;
        config.seed = rng();
        run_crypto_workload(config, acc);
      };
    });
  }
  return run_sharded(options, make_profiler, [&] {
    return [shard_source = arith::make_source(experiment.dist, experiment.width,
                                              experiment.params)](
               arith::BlockRng& rng, arith::CarryChainProfiler& acc) {
      const auto [a, b] = shard_source->next(rng);
      acc.record(a, b);
    };
  });
}

const std::vector<ErrorRateExperiment>& error_rate_experiments() {
  static const std::vector<ErrorRateExperiment> registry = build_error_rate_registry();
  return registry;
}

const std::vector<ChainProfileExperiment>& chain_profile_experiments() {
  static const std::vector<ChainProfileExperiment> registry = build_chain_profile_registry();
  return registry;
}

const ErrorRateExperiment* find_error_rate_experiment(std::string_view name) {
  return find_by_name(error_rate_experiments(), name);
}

const ChainProfileExperiment* find_chain_profile_experiment(std::string_view name) {
  return find_by_name(chain_profile_experiments(), name);
}

const std::string& ExperimentHandle::name() const {
  return std::visit([](const auto* e) -> const std::string& { return e->name; }, entry_);
}

const std::string& ExperimentHandle::description() const {
  return std::visit([](const auto* e) -> const std::string& { return e->description; }, entry_);
}

std::uint64_t ExperimentHandle::default_samples() const {
  return std::visit([](const auto* e) { return e->default_samples; }, entry_);
}

const char* ExperimentHandle::kind() const {
  return std::visit([](const auto* e) { return kind_name(*e); }, entry_);
}

bool ExperimentHandle::eval_path_applies() const {
  return std::visit([](const auto* e) { return has_eval_path_choice(*e); }, entry_);
}

EvalPath ExperimentHandle::keyed_eval_path(EvalPath requested) const {
  return eval_path_applies() ? requested : EvalPath::kScalar;
}

const char* ExperimentHandle::stream_version() const {
  return std::visit([](const auto* e) { return stream_version_of(*e); }, entry_);
}

void ExperimentHandle::add_identity(JsonObject& out) const {
  out.add("experiment", name());
  out.add("kind", kind());
  std::visit([&out](const auto* e) { add_config_fields(*e, out); }, entry_);
}

void ExperimentHandle::run_into(const RunOptions& options, EvalPath path,
                                JsonObject& record) const {
  add_identity(record);
  record.add("samples", options.samples);
  record.add("seed", options.seed);
  record.add("eval_path", to_string(keyed_eval_path(path)));
  if (const char* version = stream_version(); *version != '\0') {
    record.add("stream_version", version);
  }
  std::visit([&](const auto* e) { run_into_record(*e, options, path, record); }, entry_);
}

std::string ExperimentHandle::run(const RunOptions& options, EvalPath path) const {
  JsonObject record;
  run_into(options, path, record);
  return record.render_line();
}

const ErrorRateExperiment* ExperimentHandle::error_rate() const {
  const auto* const* entry = std::get_if<const ErrorRateExperiment*>(&entry_);
  return entry != nullptr ? *entry : nullptr;
}

const ChainProfileExperiment* ExperimentHandle::chain_profile() const {
  const auto* const* entry = std::get_if<const ChainProfileExperiment*>(&entry_);
  return entry != nullptr ? *entry : nullptr;
}

std::optional<ExperimentHandle> find_experiment(std::string_view name) {
  if (const auto* experiment = find_error_rate_experiment(name)) {
    return ExperimentHandle(*experiment);
  }
  if (const auto* experiment = find_chain_profile_experiment(name)) {
    return ExperimentHandle(*experiment);
  }
  return std::nullopt;
}

std::vector<ExperimentHandle> experiments_with_prefix(std::string_view prefix) {
  std::vector<ExperimentHandle> out;
  append_with_prefix(error_rate_experiments(), prefix, out);
  append_with_prefix(chain_profile_experiments(), prefix, out);
  return out;
}

}  // namespace vlcsa::harness
