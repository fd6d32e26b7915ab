#include "checks.hpp"

#include <cmath>

#include "harness/json.hpp"
#include "harness/report.hpp"
#include "speculative/error_model.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxExamples = 5;

std::string counter_text(const char* name, std::uint64_t value) {
  return std::string(name) + "=" + std::to_string(value);
}

}  // namespace

void CheckTally::record(const std::string& failure) {
  ++attempted_;
  if (failure.empty()) return;
  ++failed_;
  if (examples_.size() < kMaxExamples) examples_.push_back(failure);
}

std::string check_error_rate(const vlcsa::harness::ErrorRateResult& result,
                             std::uint64_t samples) {
  if (result.samples != samples) {
    return counter_text("samples", result.samples) + " != requested " + std::to_string(samples);
  }
  if (result.false_negatives != 0) return counter_text("false_negatives", result.false_negatives);
  if (result.emitted_wrong != 0) return counter_text("emitted_wrong", result.emitted_wrong);
  if (result.nominal_errors < result.actual_errors) {
    return counter_text("nominal_errors", result.nominal_errors) + " < " +
           counter_text("actual_errors", result.actual_errors);
  }
  return {};
}

std::optional<double> oracle_rate(const vlcsa::harness::ErrorRateExperiment& experiment) {
  using vlcsa::harness::ModelKind;
  if (experiment.dist != vlcsa::arith::InputDistribution::kUniformUnsigned) return std::nullopt;
  switch (experiment.model) {
    case ModelKind::kVlcsa1:
      return vlcsa::spec::scsa_exact_error_rate(experiment.width, experiment.window);
    case ModelKind::kVlsa:
      return vlcsa::spec::vlsa_exact_error_rate(experiment.width, experiment.window);
    case ModelKind::kVlcsa2:
      return std::nullopt;
  }
  return std::nullopt;
}

std::string check_oracle(const vlcsa::harness::ErrorRateExperiment& experiment,
                         const vlcsa::harness::ErrorRateResult& result, double oracle) {
  const bool stall = experiment.model != vlcsa::harness::ModelKind::kVlsa;
  const std::uint64_t count = stall ? result.nominal_errors : result.actual_errors;
  const Interval interval = wilson_interval(count, result.samples, kOracleZ);
  if (interval.contains(oracle)) return {};
  return experiment.name + ": " + (stall ? "stall" : "error") + " count " +
         std::to_string(count) + "/" + std::to_string(result.samples) +
         " excludes exact rate " + std::to_string(oracle);
}

std::string check_chain_profile(const vlcsa::arith::CarryChainProfiler& profiler,
                                std::uint64_t samples, bool crypto) {
  // A distribution workload records exactly one addition per sample; a
  // crypto sample is one top-level operation of many additions.
  if (crypto ? profiler.additions() < samples : profiler.additions() != samples) {
    return counter_text("additions", profiler.additions()) + " for " + std::to_string(samples) +
           " samples";
  }
  if (profiler.total() == 0) return "no carry chains recorded";
  return {};
}

std::string check_magnitude(const vlcsa::spec::ErrorMagnitudeStats& stats,
                            std::uint64_t samples) {
  if (stats.samples != samples) return counter_text("samples", stats.samples);
  if (stats.errors > stats.samples) return counter_text("errors", stats.errors);
  std::uint64_t histogram = 0;
  for (const std::uint64_t count : stats.magnitude_log2) histogram += count;
  if (histogram != stats.errors) return counter_text("magnitude histogram total", histogram);
  if (stats.errors > 0 &&
      !(stats.mean_relative_error > 0.0 && stats.max_relative_error >= stats.mean_relative_error)) {
    return "relative errors not positive with max >= mean";
  }
  return {};
}

std::string render_record(const vlcsa::harness::ErrorRateExperiment& experiment,
                          std::uint64_t seed, const vlcsa::harness::ErrorRateResult& result) {
  vlcsa::harness::JsonObject record;
  record.add("experiment", experiment.name);
  record.add("seed", seed);
  record.add("samples", result.samples);
  record.add("actual_errors", result.actual_errors);
  record.add("nominal_errors", result.nominal_errors);
  record.add("false_negatives", result.false_negatives);
  record.add("either_wrong", result.either_wrong);
  record.add("emitted_wrong", result.emitted_wrong);
  record.add("total_cycles", result.total_cycles);
  return record.render_line();
}

std::string render_record(const vlcsa::harness::ChainProfileExperiment& experiment,
                          std::uint64_t samples, std::uint64_t seed,
                          const vlcsa::arith::CarryChainProfiler& profiler) {
  vlcsa::harness::JsonObject record;
  record.add("experiment", experiment.name);
  record.add("seed", seed);
  record.add("samples", samples);
  record.add("additions", profiler.additions());
  std::string counts;
  for (const std::uint64_t count : profiler.counts()) {
    if (!counts.empty()) counts += ",";
    counts += std::to_string(count);
  }
  record.add_json("counts", "[" + counts + "]");
  return record.render_line();
}

std::string render_record(const vlcsa::spec::ScsaConfig& config, std::uint64_t seed,
                          const vlcsa::spec::ErrorMagnitudeStats& stats) {
  vlcsa::harness::JsonObject record;
  record.add("experiment", "fig3.6/n" + std::to_string(config.width) + "-k" +
                               std::to_string(config.window));
  record.add("seed", seed);
  record.add("samples", stats.samples);
  record.add("errors", stats.errors);
  record.add("mean_relative_error", stats.mean_relative_error);
  record.add("max_relative_error", stats.max_relative_error);
  return record.render_line();
}

std::string extract_record(const std::string& reply) {
  static const std::string kField = "\"record\": ";
  const std::size_t at = reply.find(kField);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + kField.size();
  if (begin >= reply.size() || reply[begin] != '{') return {};
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = begin; i < reply.size(); ++i) {
    const char c = reply[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return reply.substr(begin, i - begin + 1);
    }
  }
  return {};
}

std::string check_run_reply(const std::string& reply) {
  const auto parsed = vlcsa::harness::parse_json(reply);
  if (!parsed.ok()) return "reply does not parse: " + parsed.error;
  const auto* status = parsed.value.find("status");
  if (status == nullptr || status->kind() != vlcsa::harness::JsonValue::Kind::kString ||
      status->as_string() != "ok") {
    return "reply status is not ok: " + reply.substr(0, 200);
  }
  const auto* record = parsed.value.find("record");
  if (record == nullptr || record->kind() != vlcsa::harness::JsonValue::Kind::kObject) {
    return "reply carries no record";
  }
  const auto counter = [record](const char* name) {
    std::uint64_t value = 0;
    const auto* field = record->find(name);
    return field != nullptr && field->to_u64(value) ? std::optional(value) : std::nullopt;
  };
  const auto* kind = record->find("kind");
  if (kind == nullptr || kind->kind() != vlcsa::harness::JsonValue::Kind::kString ||
      kind->as_string() != "error-rate") {
    return {};
  }
  vlcsa::harness::ErrorRateResult result;
  for (const auto& [name, field] :
       {std::pair{"samples", &result.samples}, {"actual_errors", &result.actual_errors},
        {"nominal_errors", &result.nominal_errors}, {"false_negatives", &result.false_negatives},
        {"emitted_wrong", &result.emitted_wrong}}) {
    const auto value = counter(name);
    if (!value) return std::string("record lacks counter ") + name;
    *field = *value;
  }
  return check_error_rate(result, result.samples);
}

std::string check_hit(const std::string& reply, const std::string& expected_record) {
  if (std::string failure = check_run_reply(reply); !failure.empty()) return failure;
  if (extract_record(reply) != expected_record) {
    return "cached record differs from the record stored at warm-up";
  }
  return {};
}

}  // namespace perfbench
