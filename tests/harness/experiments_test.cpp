#include "harness/experiments.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace vlcsa::harness {
namespace {

TEST(Experiments, RegistryIsPopulatedWithUniqueNames) {
  const auto& error_rate = error_rate_experiments();
  const auto& chains = chain_profile_experiments();
  ASSERT_FALSE(error_rate.empty());
  ASSERT_FALSE(chains.empty());
  std::set<std::string> names;
  for (const auto& e : error_rate) names.insert(e.name);
  for (const auto& e : chains) names.insert(e.name);
  EXPECT_EQ(names.size(), error_rate.size() + chains.size());
}

TEST(Experiments, TablePointsAreRegistered) {
  for (const char* name : {"table7.1/n64", "table7.2/n512", "table7.4/n128-rate0.25",
                           "fig7.1/n64-k6", "eq5.2/n64-uniform", "vlsa/n64"}) {
    EXPECT_NE(find_error_rate_experiment(name), nullptr) << name;
  }
  for (const char* name :
       {"fig6.1/uniform-unsigned", "fig6.2/rsa-like", "fig6.5/gaussian-twos-complement"}) {
    EXPECT_NE(find_chain_profile_experiment(name), nullptr) << name;
  }
  EXPECT_EQ(find_error_rate_experiment("table7.1/n63"), nullptr);
}

TEST(Experiments, PrefixQueryPreservesRegistrationOrder) {
  const auto table7_1 = experiments_with_prefix("table7.1/");
  ASSERT_EQ(table7_1.size(), 4u);
  int last_width = 0;
  for (const ExperimentHandle& handle : table7_1) {
    const ErrorRateExperiment* e = handle.error_rate();
    ASSERT_NE(e, nullptr) << handle.name();
    EXPECT_GT(e->width, last_width);  // published rows are width-ascending
    last_width = e->width;
    EXPECT_EQ(e->model, ModelKind::kVlcsa1);
    EXPECT_EQ(e->dist, arith::InputDistribution::kGaussianTwos);
  }
}

TEST(Experiments, EveryRegistryEntryResolvesThroughTheHandle) {
  for (const auto& e : error_rate_experiments()) {
    const auto handle = find_experiment(e.name);
    ASSERT_TRUE(handle.has_value()) << e.name;
    EXPECT_EQ(handle->name(), e.name);
    EXPECT_EQ(handle->description(), e.description);
    EXPECT_STREQ(handle->kind(), "error-rate") << e.name;
    EXPECT_EQ(handle->default_samples(), e.default_samples) << e.name;
    EXPECT_TRUE(handle->eval_path_applies()) << e.name;
    EXPECT_EQ(handle->keyed_eval_path(EvalPath::kBatched), EvalPath::kBatched);
    EXPECT_EQ(handle->keyed_eval_path(EvalPath::kScalar), EvalPath::kScalar);
    EXPECT_EQ(handle->error_rate(), &e);
    EXPECT_EQ(handle->chain_profile(), nullptr);
  }
  for (const auto& e : chain_profile_experiments()) {
    const auto handle = find_experiment(e.name);
    ASSERT_TRUE(handle.has_value()) << e.name;
    EXPECT_EQ(handle->name(), e.name);
    EXPECT_STREQ(handle->kind(), "chain-profile") << e.name;
    EXPECT_EQ(handle->default_samples(), e.default_samples) << e.name;
    EXPECT_FALSE(handle->eval_path_applies()) << e.name;
    EXPECT_EQ(handle->keyed_eval_path(EvalPath::kBatched), EvalPath::kScalar);
    EXPECT_EQ(handle->chain_profile(), &e);
    EXPECT_EQ(handle->error_rate(), nullptr);
  }
  EXPECT_FALSE(find_experiment("table7.1/n63").has_value());
  EXPECT_FALSE(find_experiment("").has_value());
}

TEST(Experiments, PrefixQueryListsErrorRateThenChainProfileEntries) {
  // Every registered name, error-rate registry first, each in registration
  // order — the order "list" replies and sweep prefix selections use.
  std::vector<std::string> expected;
  for (const auto& e : error_rate_experiments()) expected.push_back(e.name);
  for (const auto& e : chain_profile_experiments()) expected.push_back(e.name);
  std::vector<std::string> all;
  for (const ExperimentHandle& handle : experiments_with_prefix("")) {
    all.push_back(handle.name());
  }
  EXPECT_EQ(all, expected);

  // "fig" spans both kinds: the fig7.1 error-rate points come first, then
  // the fig6 chain profiles, although "fig6" sorts before "fig7" by name.
  const auto figs = experiments_with_prefix("fig");
  ASSERT_FALSE(figs.empty());
  EXPECT_EQ(figs.front().name(), "fig7.1/n64-k6");
  EXPECT_EQ(figs.back().name(), "fig6.5/gaussian-twos-complement");
  bool seen_chain_profile = false;
  for (const ExperimentHandle& handle : figs) {
    if (handle.chain_profile() != nullptr) seen_chain_profile = true;
    EXPECT_EQ(handle.error_rate() == nullptr, seen_chain_profile) << handle.name();
  }
  EXPECT_TRUE(experiments_with_prefix("nope/").empty());
}

/// The exact bytes the service caches and serves for these runs at seed 9;
/// a moved byte means every cached record of that kind is stale.  Between
/// them they cover each model, each operand stream version — including the
/// unversioned two's-complement uniform stream, whose record carries no
/// "stream_version" field — and both chain-profile workloads.
struct PinnedRecord {
  const char* case_name;
  const char* experiment;
  std::uint64_t samples;
  const char* record;
};

void PrintTo(const PinnedRecord& pin, std::ostream* os) { *os << pin.experiment; }

class CanonicalRecordTest : public ::testing::TestWithParam<PinnedRecord> {};

TEST_P(CanonicalRecordTest, MatchesPinnedBytes) {
  const PinnedRecord& pin = GetParam();
  const auto handle = find_experiment(pin.experiment);
  ASSERT_TRUE(handle.has_value()) << pin.experiment;
  RunOptions options;
  options.samples = pin.samples;
  options.seed = 9;
  options.threads = 2;
  EXPECT_EQ(handle->run(options), pin.record);
}

INSTANTIATE_TEST_SUITE_P(
    PinnedRecords, CanonicalRecordTest,
    ::testing::Values(
        PinnedRecord{
            "fig7_1_n64_k6", "fig7.1/n64-k6", 2000,
            R"({"experiment": "fig7.1/n64-k6", "kind": "error-rate", "model": "VLCSA 1", )"
            R"("width": 64, "window": 6, "distribution": "uniform-unsigned", "samples": 2000, )"
            R"("seed": 9, "eval_path": "batched", "stream_version": "uniform-rng-v3", )"
            R"("actual_errors": 154, "nominal_errors": 168, "false_negatives": 0, )"
            R"("either_wrong": 9, "emitted_wrong": 0, "total_cycles": 2168, )"
            R"("actual_rate": 0.076999999999999999, "nominal_rate": 0.084000000000000005, )"
            R"("either_wrong_rate": 0.0044999999999999997, "avg_cycles": 1.0840000000000001})"},
        PinnedRecord{
            "fig6_1_uniform_unsigned", "fig6.1/uniform-unsigned", 2000,
            R"({"experiment": "fig6.1/uniform-unsigned", "kind": "chain-profile", )"
            R"("width": 32, "workload": "distribution", "source": "uniform-unsigned", )"
            R"("samples": 2000, "seed": 9, "eval_path": "scalar", )"
            R"("stream_version": "uniform-rng-v3", "additions": 2000, "chains": 16109, )"
            R"("mean_chain_length": 1.9449376125147433, "fraction_at_least_half_width": 0})"},
        PinnedRecord{
            "table7_1_n64", "table7.1/n64", 2000,
            R"({"experiment": "table7.1/n64", "kind": "error-rate", "model": "VLCSA 1", )"
            R"("width": 64, "window": 14, "distribution": "gaussian-twos-complement", )"
            R"("samples": 2000, "seed": 9, "eval_path": "batched", )"
            R"("stream_version": "gauss-rng-v2", "actual_errors": 480, )"
            R"("nominal_errors": 480, "false_negatives": 0, "either_wrong": 0, )"
            R"("emitted_wrong": 0, "total_cycles": 2480, "actual_rate": 0.23999999999999999, )"
            R"("nominal_rate": 0.23999999999999999, "either_wrong_rate": 0, "avg_cycles": 1.24})"},
        PinnedRecord{
            "eq5_2_n64_gaussian_2c", "eq5.2/n64-gaussian-2c", 2000,
            R"({"experiment": "eq5.2/n64-gaussian-2c", "kind": "error-rate", )"
            R"("model": "VLCSA 2", "width": 64, "window": 9, )"
            R"("distribution": "gaussian-twos-complement", "samples": 2000, "seed": 9, )"
            R"("eval_path": "batched", "stream_version": "gauss-rng-v2", "actual_errors": 3, )"
            R"("nominal_errors": 6, "false_negatives": 0, "either_wrong": 3, )"
            R"("emitted_wrong": 0, "total_cycles": 2006, "actual_rate": 0.0015, )"
            R"("nominal_rate": 0.0030000000000000001, "either_wrong_rate": 0.0015, )"
            R"("avg_cycles": 1.0029999999999999})"},
        PinnedRecord{
            "vlsa_n64", "vlsa/n64", 2000,
            R"({"experiment": "vlsa/n64", "kind": "error-rate", "model": "VLSA", )"
            R"("width": 64, "window": 17, "distribution": "uniform-unsigned", )"
            R"("samples": 2000, "seed": 9, "eval_path": "batched", )"
            R"("stream_version": "uniform-rng-v3", "actual_errors": 0, "nominal_errors": 0, )"
            R"("false_negatives": 0, "either_wrong": 0, "emitted_wrong": 0, )"
            R"("total_cycles": 2000, "actual_rate": 0, "nominal_rate": 0, )"
            R"("either_wrong_rate": 0, "avg_cycles": 1})"},
        PinnedRecord{
            "fig6_2_rsa_like", "fig6.2/rsa-like", 2,
            R"({"experiment": "fig6.2/rsa-like", "kind": "chain-profile", "width": 32, )"
            R"("workload": "crypto", "source": "rsa-like", "samples": 2, "seed": 9, )"
            R"("eval_path": "scalar", "stream_version": "crypto-rng-v2", "additions": 1171, )"
            R"("chains": 5755, "mean_chain_length": 2.1407471763683752, )"
            R"("fraction_at_least_half_width": 0.060121633362293661})"},
        PinnedRecord{
            "fig6_3_uniform_twos_complement", "fig6.3/uniform-twos-complement", 2000,
            R"({"experiment": "fig6.3/uniform-twos-complement", "kind": "chain-profile", )"
            R"("width": 32, "workload": "distribution", "source": "uniform-twos-complement", )"
            R"("samples": 2000, "seed": 9, "eval_path": "scalar", "additions": 2000, )"
            R"("chains": 15898, "mean_chain_length": 1.9426342936218393, )"
            R"("fraction_at_least_half_width": 0})"},
        PinnedRecord{
            "fig6_4_gaussian_unsigned", "fig6.4/gaussian-unsigned", 2000,
            R"({"experiment": "fig6.4/gaussian-unsigned", "kind": "chain-profile", )"
            R"("width": 32, "workload": "distribution", "source": "gaussian-unsigned", )"
            R"("samples": 2000, "seed": 9, "eval_path": "scalar", )"
            R"("stream_version": "gauss-rng-v2", "additions": 2000, "chains": 9919, )"
            R"("mean_chain_length": 1.9107772960983971, "fraction_at_least_half_width": 0})"}),
    [](const ::testing::TestParamInfo<PinnedRecord>& info) {
      return std::string(info.param.case_name);
    });

TEST(Experiments, ChainProfileRecordIgnoresTheRequestedEvalPath) {
  const auto handle = find_experiment("fig6.1/uniform-unsigned");
  ASSERT_TRUE(handle.has_value());
  RunOptions options;
  options.samples = 1000;
  options.seed = 4;
  options.threads = 2;
  const std::string batched = handle->run(options, EvalPath::kBatched);
  EXPECT_EQ(batched, handle->run(options, EvalPath::kScalar));
  EXPECT_NE(batched.find(R"("eval_path": "scalar")"), std::string::npos) << batched;
}

TEST(Experiments, Table71RunMatchesThePublishedRate) {
  const auto* e = find_error_rate_experiment("table7.1/n64");
  ASSERT_NE(e, nullptr);
  const auto result = run_experiment(*e, 40000, 13, 4);
  EXPECT_EQ(result.samples, 40000u);
  // Paper: 25.01% nominal error rate at every width.
  EXPECT_NEAR(result.nominal_rate(), 0.25, 0.02);
  EXPECT_EQ(result.false_negatives, 0u);
  EXPECT_EQ(result.emitted_wrong, 0u);
}

TEST(Experiments, ErrorRateRunIsThreadCountInvariant) {
  const auto* e = find_error_rate_experiment("table7.2/n64");
  ASSERT_NE(e, nullptr);
  const auto t1 = run_experiment(*e, 30000, 7, 1);
  const auto t8 = run_experiment(*e, 30000, 7, 8);
  EXPECT_EQ(t1.actual_errors, t8.actual_errors);
  EXPECT_EQ(t1.nominal_errors, t8.nominal_errors);
  EXPECT_EQ(t1.total_cycles, t8.total_cycles);
  EXPECT_GE(t1.nominal_errors, t1.actual_errors);
  EXPECT_EQ(t1.false_negatives, 0u);
}

TEST(Experiments, VlsaExperimentHonorsInvariants) {
  const auto* e = find_error_rate_experiment("vlsa/n64");
  ASSERT_NE(e, nullptr);
  const auto result = run_experiment(*e, 30000, 17, 4);
  EXPECT_EQ(result.false_negatives, 0u);
  EXPECT_EQ(result.emitted_wrong, 0u);
  EXPECT_GE(result.nominal_errors, result.actual_errors);
}

TEST(Experiments, ChainProfileRunIsThreadCountInvariant) {
  const auto* e = find_chain_profile_experiment("fig6.5/gaussian-twos-complement");
  ASSERT_NE(e, nullptr);
  const auto t1 = run_experiment(*e, 50000, 5, 1);
  const auto t8 = run_experiment(*e, 50000, 5, 8);
  EXPECT_EQ(t1.additions(), 50000u);
  EXPECT_EQ(t1.total(), t8.total());
  EXPECT_EQ(t1.counts(), t8.counts());
  // Sanity on the merged histogram: short chains dominate (geometric decay)
  // and the counts actually carry mass.
  EXPECT_GT(t1.total(), 0u);
  EXPECT_GT(t1.fraction(1), 0.3);
  EXPECT_GT(t1.mean_length(), 1.0);
  EXPECT_LT(t1.mean_length(), 4.0);
}

TEST(Experiments, CryptoProfileIsDeterministicInSeed) {
  const auto* e = find_chain_profile_experiment("fig6.2/rsa-like");
  ASSERT_NE(e, nullptr);
  const auto a = run_experiment(*e, 2, 9, 1);
  const auto b = run_experiment(*e, 2, 9, 4);
  EXPECT_GT(a.additions(), 0u);
  EXPECT_EQ(a.counts(), b.counts());
  EXPECT_EQ(a.additions(), b.additions());
}

TEST(Experiments, ProfilerMergeRejectsMismatchedShapes) {
  arith::CarryChainProfiler a(32), b(64);
  EXPECT_THROW(a += b, std::invalid_argument);
  arith::CarryChainProfiler c(32, arith::ChainMetric::kLongestPerAdd);
  EXPECT_THROW(a += c, std::invalid_argument);
}

TEST(Experiments, ParseModelKindRoundTripsEveryValue) {
  // Exhaustive over the enum: parse must be the exact inverse of to_string.
  for (const ModelKind kind : {ModelKind::kVlcsa1, ModelKind::kVlcsa2, ModelKind::kVlsa}) {
    ModelKind parsed = ModelKind::kVlcsa1;
    ASSERT_TRUE(parse_model_kind(to_string(kind), parsed)) << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
}

TEST(Experiments, ParseModelKindRejectsUnknownText) {
  ModelKind parsed = ModelKind::kVlsa;
  EXPECT_FALSE(parse_model_kind("VLCSA1", parsed));   // missing space
  EXPECT_FALSE(parse_model_kind("vlcsa 1", parsed));  // case-sensitive
  EXPECT_FALSE(parse_model_kind("", parsed));
  EXPECT_EQ(parsed, ModelKind::kVlsa);  // untouched on failure
}

TEST(Experiments, ParseEvalPathRoundTripsEveryValue) {
  for (const EvalPath path : {EvalPath::kBatched, EvalPath::kScalar}) {
    EvalPath parsed = EvalPath::kBatched;
    ASSERT_TRUE(parse_eval_path(to_string(path), parsed)) << to_string(path);
    EXPECT_EQ(parsed, path);
  }
}

TEST(Experiments, ParseEvalPathRejectsUnknownText) {
  EvalPath parsed = EvalPath::kScalar;
  EXPECT_FALSE(parse_eval_path("on", parsed));  // the explorer toggle, not a path name
  EXPECT_FALSE(parse_eval_path("Batched", parsed));
  EXPECT_FALSE(parse_eval_path("", parsed));
  EXPECT_EQ(parsed, EvalPath::kScalar);
}

TEST(Experiments, EveryRegisteredNameRoundTripsThroughParsers) {
  // Every registry entry's model and distribution names must survive the
  // record → parse round trip the service cache relies on.
  for (const auto& experiment : error_rate_experiments()) {
    ModelKind model = ModelKind::kVlsa;
    ASSERT_TRUE(parse_model_kind(to_string(experiment.model), model)) << experiment.name;
    EXPECT_EQ(model, experiment.model);
    arith::InputDistribution dist = arith::InputDistribution::kUniformUnsigned;
    ASSERT_TRUE(parse_distribution(arith::to_string(experiment.dist), dist))
        << experiment.name;
    EXPECT_EQ(dist, experiment.dist);
  }
}

}  // namespace
}  // namespace vlcsa::harness
