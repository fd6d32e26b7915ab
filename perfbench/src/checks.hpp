#pragma once
// Output checks.  None of them pins a golden counter: a deliberate draw-
// stream migration changes every counter, and the benchmark must keep
// passing across it.  What is checked instead:
//
//  * model invariants on every Monte Carlo record (no false negatives, no
//    wrong emitted result, stall count >= error count);
//  * unsigned-uniform points against their exact-DP oracle, inside a Wilson
//    interval of kOracleZ standard deviations;
//  * determinism: a same-seed repeat renders byte-identical records;
//  * service replies: "status": "ok", and every cache hit byte-identical to
//    the record stored when the benchmark warmed the cache.
//
// Every check returns an empty string on success and the reason otherwise;
// CheckTally counts one attempted operation per check call.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiments.hpp"
#include "speculative/error_magnitude.hpp"

namespace perfbench {

/// Wilson-interval width for the oracle checks.  Five sigma keeps the false
/// alarm rate per check below 1e-6, so thousands of seeded runs stay clean.
inline constexpr double kOracleZ = 5.0;

class CheckTally {
 public:
  /// Counts one attempted operation; a non-empty `failure` counts it failed.
  void record(const std::string& failure);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// The first few failure reasons, for the report.
  [[nodiscard]] const std::vector<std::string>& examples() const { return examples_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> examples_;
};

/// Invariants every error-rate record must satisfy.
[[nodiscard]] std::string check_error_rate(const vlcsa::harness::ErrorRateResult& result,
                                           std::uint64_t samples);

/// The exact analytical rate of an experiment's checked counter, when one
/// exists: VLCSA 1 stall (nominal) rate via spec::scsa_exact_error_rate and
/// VLSA error (actual) rate via spec::vlsa_exact_error_rate, both for
/// unsigned uniform operands only.
[[nodiscard]] std::optional<double> oracle_rate(
    const vlcsa::harness::ErrorRateExperiment& experiment);

/// The measured rate oracle_rate() is compared with (Wilson interval, kOracleZ).
[[nodiscard]] std::string check_oracle(const vlcsa::harness::ErrorRateExperiment& experiment,
                                       const vlcsa::harness::ErrorRateResult& result,
                                       double oracle);

[[nodiscard]] std::string check_chain_profile(const vlcsa::arith::CarryChainProfiler& profiler,
                                              std::uint64_t samples, bool crypto);

[[nodiscard]] std::string check_magnitude(const vlcsa::spec::ErrorMagnitudeStats& stats,
                                          std::uint64_t samples);

/// Canonical single-line renderings used for the same-seed repeat check and
/// the records digest.
[[nodiscard]] std::string render_record(const vlcsa::harness::ErrorRateExperiment& experiment,
                                        std::uint64_t seed,
                                        const vlcsa::harness::ErrorRateResult& result);
[[nodiscard]] std::string render_record(const vlcsa::harness::ChainProfileExperiment& experiment,
                                        std::uint64_t samples, std::uint64_t seed,
                                        const vlcsa::arith::CarryChainProfiler& profiler);
[[nodiscard]] std::string render_record(const vlcsa::spec::ScsaConfig& config,
                                        std::uint64_t seed,
                                        const vlcsa::spec::ErrorMagnitudeStats& stats);

/// The "record" object embedded in a service run reply, byte for byte;
/// empty when the reply has none.
[[nodiscard]] std::string extract_record(const std::string& reply);

/// A service run reply: "status" is "ok", its record parses, and an
/// error-rate record satisfies the invariants of check_error_rate.
[[nodiscard]] std::string check_run_reply(const std::string& reply);

/// A cache hit: check_run_reply, plus the embedded record byte-identical to
/// `expected_record`.
[[nodiscard]] std::string check_hit(const std::string& reply, const std::string& expected_record);

}  // namespace perfbench
