// The benchmark's own tests: percentile and interval arithmetic, span self
// times, and the output checks rejecting a doctored record and a doctored
// cached hit.  Plain checks (no framework) so the benchmark builds with the
// toolchain alone:  perfbench_selftest  exits 0 when every check passes.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b, double tolerance = 1e-9) { return std::fabs(a - b) <= tolerance; }

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

void test_median() {
  expect(perfbench::median({3, 1, 2}) == 2, "median of odd count");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "median of even count");
  expect(perfbench::median({}) == 0, "median of nothing");
}

void test_nearest_rank() {
  using perfbench::nearest_rank;
  // p50 of 1..100 is the 50th value; 50 samples lie beyond it.
  expect(nearest_rank(one_to(100), 50) == 50.0, "p50 of 1..100");
  // p99 needs ten samples beyond rank ceil(0.99 n): n = 1000 gives rank 990.
  expect(nearest_rank(one_to(1000), 99) == 990.0, "p99 of 1..1000");
  expect(!nearest_rank(one_to(999), 99).has_value(), "p99 refused with 9 samples beyond");
  // p50 needs n >= 20.
  expect(nearest_rank(one_to(20), 50) == 10.0, "p50 of 1..20");
  expect(!nearest_rank(one_to(19), 50).has_value(), "p50 refused with 9 samples beyond");
  expect(!nearest_rank({}, 50).has_value(), "percentile of nothing");
}

void test_wilson() {
  using perfbench::wilson_interval;
  // Reference values: 10/100 at z = 1.96 is [0.0552, 0.1744].
  const auto interval = wilson_interval(10, 100, 1.96);
  expect(near(interval.lo, 0.05522854, 1e-7) && near(interval.hi, 0.17436730, 1e-7),
         "wilson 10/100 at 1.96");
  // Zero successes still give a positive upper bound.
  const auto zero = wilson_interval(0, 1000, 5.0);
  expect(zero.lo == 0.0 && zero.hi > 0.0 && zero.hi < 0.03, "wilson 0/1000");
  expect(wilson_interval(0, 0, 5.0).contains(0.5), "wilson of no trials is everything");
  expect(!wilson_interval(500, 1000, 5.0).contains(0.6), "wilson excludes a far rate");
}

void test_self_times() {
  using perfbench::Span;
  // root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 12]
  // (clipped to 10); grandchild [2, 3] under the first child.
  const std::vector<Span> spans = {
      {"root", 1, -1, 0.0, 10.0},  {"a", 1, 0, 1.0, 4.0}, {"b", 1, 0, 3.0, 6.0},
      {"c", 1, 0, 8.0, 12.0},      {"a.x", 1, 1, 2.0, 3.0},
  };
  const auto self = perfbench::self_times(spans);
  expect(near(self[0], 10.0 - 5.0 - 2.0), "root self time excludes the union of children");
  expect(near(self[1], 2.0), "child self time excludes its own child");
  expect(near(self[2], 3.0) && near(self[4], 1.0), "leaf self time is its duration");
  expect(near(perfbench::self_time_with_prefix(spans, self, "a"), 3.0), "self time by prefix");
  // Self times of a tree sum to the root's duration when children nest.
  const std::vector<Span> nested = {
      {"root", 1, -1, 0.0, 5.0}, {"a", 1, 0, 0.5, 2.0}, {"b", 1, 0, 2.0, 4.5}};
  const auto nested_self = perfbench::self_times(nested);
  expect(near(nested_self[0] + nested_self[1] + nested_self[2], 5.0), "self times sum to wall");

  perfbench::SpanRecorder recorder;
  const int root = recorder.open("root");
  const int child = recorder.open("child", root);
  recorder.close(child);
  recorder.close(root);
  perfbench::SpanRecorder other(recorder.epoch());
  other.close(other.open("absorbed"));
  recorder.absorb(other, root);
  const auto& recorded = recorder.spans();
  expect(recorded.size() == 3 && recorded[2].parent == root &&
             recorded[2].trace_id == recorded[0].trace_id,
         "absorbed spans join the parent's trace");
}

void test_doctored_record() {
  vlcsa::harness::ErrorRateResult clean;
  clean.samples = 1000;
  clean.actual_errors = 3;
  clean.nominal_errors = 5;
  clean.total_cycles = 1005;
  expect(perfbench::check_error_rate(clean, 1000).empty(), "clean record passes");
  auto doctored = clean;
  doctored.false_negatives = 1;
  expect(!perfbench::check_error_rate(doctored, 1000).empty(),
         "record with false_negatives = 1 fails");
  doctored = clean;
  doctored.emitted_wrong = 1;
  expect(!perfbench::check_error_rate(doctored, 1000).empty(), "record with emitted_wrong fails");
  doctored = clean;
  doctored.nominal_errors = 2;
  expect(!perfbench::check_error_rate(doctored, 1000).empty(), "nominal < actual fails");

  perfbench::CheckTally tally;
  tally.record(perfbench::check_error_rate(clean, 1000));
  tally.record(perfbench::check_error_rate(doctored, 1000));
  expect(tally.attempted() == 2 && tally.failed() == 1, "a failed check counts into failed");
}

void test_oracle() {
  const auto* experiment = vlcsa::harness::find_error_rate_experiment("eq5.2/n64-uniform");
  expect(experiment != nullptr, "registry has eq5.2/n64-uniform");
  if (experiment == nullptr) return;
  const auto oracle = perfbench::oracle_rate(*experiment);
  expect(oracle.has_value() && *oracle > 0.0, "uniform VLCSA 1 point has an exact rate");
  if (!oracle) return;
  vlcsa::harness::ErrorRateResult result;
  result.samples = 1000000;
  result.nominal_errors = static_cast<std::uint64_t>(*oracle * 1e6);
  expect(perfbench::check_oracle(*experiment, result, *oracle).empty(),
         "rate at the oracle passes");
  result.nominal_errors *= 2;
  expect(!perfbench::check_oracle(*experiment, result, *oracle).empty(),
         "twice the oracle rate fails");
  const auto* gauss = vlcsa::harness::find_error_rate_experiment("table7.1/n64");
  expect(gauss != nullptr && !perfbench::oracle_rate(*gauss).has_value(),
         "Gaussian points have no exact oracle");
}

void test_doctored_hit() {
  const std::string record =
      "{\"experiment\": \"table7.1/n64\", \"kind\": \"error-rate\", \"samples\": 16384, "
      "\"seed\": 7, \"actual_errors\": 10, \"nominal_errors\": 12, \"false_negatives\": 0, "
      "\"emitted_wrong\": 0, \"note\": \"{braces} \\\"quoted\\\"\"}";
  const std::string reply = "{\"status\": \"ok\", \"request\": \"run\", \"cache\": "
                            "\"hit-memory\", \"wall_seconds\": 1e-06, \"record\": " +
                            record + "}";
  expect(perfbench::extract_record(reply) == record, "record extracted byte for byte");
  expect(perfbench::check_hit(reply, record).empty(), "clean hit passes");

  std::string doctored = reply;
  const std::size_t digit = doctored.find("\"actual_errors\": 10") + 18;
  doctored[digit] = '1';  // 10 -> 11: still well-formed, one byte changed
  expect(!perfbench::check_hit(doctored, record).empty(), "hit with one byte changed fails");

  std::string false_negative = reply;
  false_negative.replace(false_negative.find("\"false_negatives\": 0") + 19, 1, "1");
  expect(!perfbench::check_run_reply(false_negative).empty(),
         "served record with false_negatives = 1 fails");
  expect(!perfbench::check_run_reply("{\"status\": \"error\", \"code\": \"x\"}").empty(),
         "error reply fails");
}

}  // namespace

int main() {
  test_median();
  test_nearest_rank();
  test_wilson();
  test_self_times();
  test_doctored_record();
  test_oracle();
  test_doctored_hit();
  if (failures == 0) std::cout << "perfbench_selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
