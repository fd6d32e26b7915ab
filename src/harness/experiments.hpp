#pragma once
// Experiment registry: every Monte Carlo experiment the paper's tables and
// figures need, as named (adder variant × width × window × operand
// distribution) configurations.  vlcsa_reproduce, the service, the sweep and
// the adder_explorer example look experiments up here instead of
// hand-rolling sampling loops; new workloads are added by appending a
// registration, and immediately become runnable from every front end.
//
// Front ends see every entry through one kind-erased ExperimentHandle: its
// identity, defaults, eval-path applicability, operand-stream version,
// canonical record schema and run all live in experiments.cpp, so a front
// end never branches on the experiment kind.  A new kind is one typed
// struct, one registry and one set of per-kind decisions there.
//
// Naming convention: "<artifact>/<point>", e.g. "table7.1/n64" or
// "fig6.5/gaussian-twos-complement".  Prefix queries ("table7.1/") return
// all points of one artifact in registration (= presentation) order.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "arith/carry_chain.hpp"
#include "arith/distributions.hpp"
#include "arith/workload.hpp"
#include "harness/montecarlo.hpp"

namespace vlcsa::harness {

/// Which behavioral model an error-rate experiment drives.
enum class ModelKind {
  kVlcsa1,
  kVlcsa2,
  kVlsa,
};

[[nodiscard]] const char* to_string(ModelKind kind);

/// Inverse of to_string(ModelKind) ("VLCSA 1"/"VLCSA 2"/"VLSA" — the names
/// experiment records and the service protocol carry).  Returns false on
/// unknown text without touching `out`.
[[nodiscard]] bool parse_model_kind(std::string_view text, ModelKind& out);

/// One error-rate/latency experiment: a variable-latency adder configuration
/// pitted against an operand distribution.
struct ErrorRateExperiment {
  std::string name;
  std::string description;
  ModelKind model = ModelKind::kVlcsa1;
  int width = 64;
  int window = 14;  // SCSA window size k, or VLSA speculative chain length l
  arith::InputDistribution dist = arith::InputDistribution::kUniformUnsigned;
  arith::GaussianParams params;
  std::uint64_t default_samples = 200000;
};

/// Runs an error-rate experiment on the parallel engine (`threads` as in
/// engine.hpp: 0 = all hardware threads, result thread-count-invariant).
/// `path` selects the bit-sliced batch pipeline (default) or the scalar
/// oracle; both produce bit-identical counters (see montecarlo.hpp).
[[nodiscard]] ErrorRateResult run_experiment(const ErrorRateExperiment& experiment,
                                             std::uint64_t samples, std::uint64_t seed,
                                             int threads = 0,
                                             EvalPath path = EvalPath::kBatched);

/// RunOptions variant: same semantics, with the full engine knob set exposed
/// — in particular RunOptions::cancel, which the service daemon's
/// per-request timeout uses for cooperative cancellation (engine.hpp throws
/// RunCancelled, so a cancelled run never yields a partial result).
[[nodiscard]] ErrorRateResult run_experiment(const ErrorRateExperiment& experiment,
                                             const RunOptions& options,
                                             EvalPath path = EvalPath::kBatched);

/// One carry-chain-statistics experiment (the Figs 6.1–6.5 family): a
/// workload whose additions feed a CarryChainProfiler.
struct ChainProfileExperiment {
  enum class Workload {
    kDistribution,  // one sample = one operand pair from `dist`
    kCrypto,        // one sample = one top-level instrumented crypto op
  };

  std::string name;
  std::string description;
  int width = 32;
  Workload workload = Workload::kDistribution;
  arith::InputDistribution dist = arith::InputDistribution::kUniformUnsigned;
  arith::GaussianParams params;
  arith::CryptoKind crypto_kind = arith::CryptoKind::kRsaLike;
  int crypto_field_bits = 16;
  int crypto_exponent_bits = 24;
  std::uint64_t default_samples = 1000000;
};

[[nodiscard]] arith::CarryChainProfiler run_experiment(
    const ChainProfileExperiment& experiment, std::uint64_t samples, std::uint64_t seed,
    int threads = 0);

/// RunOptions variant (see the error-rate overload above for why).
[[nodiscard]] arith::CarryChainProfiler run_experiment(
    const ChainProfileExperiment& experiment, const RunOptions& options);

/// All registered experiments, in registration order.
[[nodiscard]] const std::vector<ErrorRateExperiment>& error_rate_experiments();
[[nodiscard]] const std::vector<ChainProfileExperiment>& chain_profile_experiments();

/// Exact-name typed lookups; nullptr when absent.
[[nodiscard]] const ErrorRateExperiment* find_error_rate_experiment(std::string_view name);
[[nodiscard]] const ChainProfileExperiment* find_chain_profile_experiment(
    std::string_view name);

class JsonObject;  // report.hpp

/// A non-owning, kind-erased view of one registry entry (registry entries
/// live for the whole program, so handles may be copied and kept freely).
class ExperimentHandle {
 public:
  explicit ExperimentHandle(const ErrorRateExperiment& experiment) : entry_(&experiment) {}
  explicit ExperimentHandle(const ChainProfileExperiment& experiment) : entry_(&experiment) {}

  [[nodiscard]] const std::string& name() const;
  [[nodiscard]] const std::string& description() const;
  [[nodiscard]] std::uint64_t default_samples() const;

  /// The experiment kind (error-rate or chain-profile): the "kind" field of
  /// records and describe replies.
  [[nodiscard]] const char* kind() const;

  /// Whether a caller may choose the eval path.  Chain profiling has no
  /// batched pipeline: its records and keys always carry "scalar".
  [[nodiscard]] bool eval_path_applies() const;

  /// The eval path a run requesting `requested` records and is keyed by.
  [[nodiscard]] EvalPath keyed_eval_path(EvalPath requested) const;

  /// Version of the operand/workload stream this experiment draws from, or
  /// "" when that stream never changed.  Records and cache keys carry it, so
  /// a record from an incompatible stream era misses instead of hitting stale.
  [[nodiscard]] const char* stream_version() const;

  /// Appends the identity fields shared by records and describe replies:
  /// "experiment", "kind", then the kind's own configuration fields.
  void add_identity(JsonObject& out) const;

  /// Runs the experiment (options.samples/seed/threads/cancel/profile as in
  /// engine.hpp) and appends its canonical result record's fields to
  /// `record`: identity, samples/seed/eval_path/stream_version, then the
  /// kind's results.  The record is a pure function of (experiment, samples,
  /// seed, keyed eval path) — no wall time, no thread count — so a
  /// recomputation at any thread count reproduces it byte-for-byte.
  void run_into(const RunOptions& options, EvalPath path, JsonObject& record) const;

  /// run_into() on an empty object, rendered as one line.  The service
  /// caches exactly these bytes, and its disk tier validates the embedded
  /// experiment/samples/seed/eval_path fields against the cache key
  /// (service/cache.hpp).
  [[nodiscard]] std::string run(const RunOptions& options,
                                EvalPath path = EvalPath::kBatched) const;

  /// The typed entry when the handle is of that kind, else nullptr — for
  /// consumers that are kind-specific by nature (the sweep's error-rate
  /// filters, vlcsa_reproduce's per-kind renderers).
  [[nodiscard]] const ErrorRateExperiment* error_rate() const;
  [[nodiscard]] const ChainProfileExperiment* chain_profile() const;

 private:
  std::variant<const ErrorRateExperiment*, const ChainProfileExperiment*> entry_;
};

/// Exact-name lookup over every registry; nullopt when absent.
[[nodiscard]] std::optional<ExperimentHandle> find_experiment(std::string_view name);

/// Every experiment whose name starts with `prefix`: error-rate entries
/// first, then chain-profile entries, each in registration order.
[[nodiscard]] std::vector<ExperimentHandle> experiments_with_prefix(std::string_view prefix);

}  // namespace vlcsa::harness
