// bench_compare — diff two perf_microbench --json records (vlcsa-perf-*)
// and gate on regressions, so the BENCH_batch.json artifact trajectory can
// be enforced instead of eyeballed:
//
//   $ ./build/bench/bench_compare --old=BENCH_pr8.json --new=BENCH_pr9.json
//         --max-regress-pct=10
//
// Both records are walked recursively into flat metric paths
// (kernels[run_sweep_n512_w8].best_ns_per_sample, rng.generation...); array
// elements are keyed by their "kernel"/"workload" member so reordering a
// suite between PRs never misaligns the diff.  Every numeric metric present
// in both records is reported with its delta.  Only time metrics (name
// containing "ns_per" / ending "_ns") gate the exit status: a time that grew
// by more than --max-regress-pct fails the run.  Speedup ratios and counts
// are informational — they already move whenever their underlying times do.
//
// Exit status: 0 = no gated regression, 1 = at least one time metric
// regressed past the threshold, 2 = usage/parse error.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/cli.hpp"
#include "harness/json.hpp"

using vlcsa::harness::JsonValue;

namespace {

// One flattened numeric metric: path like "end_to_end[vlcsa2-uniform-n512].ns_per_sample".
using MetricList = std::vector<std::pair<std::string, double>>;

/// The member that names an array element across record versions, when any.
std::string element_key(const JsonValue& value) {
  if (value.kind() != JsonValue::Kind::kObject) return {};
  for (const char* key : {"kernel", "workload"}) {
    if (const JsonValue* name = value.find(key);
        name != nullptr && name->kind() == JsonValue::Kind::kString) {
      return name->as_string();
    }
  }
  return {};
}

void flatten(const JsonValue& value, const std::string& path, MetricList& out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNumber:
      out.emplace_back(path, value.as_double());
      break;
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : value.members()) {
        flatten(member, path.empty() ? key : path + "." + key, out);
      }
      break;
    case JsonValue::Kind::kArray: {
      std::size_t index = 0;
      for (const JsonValue& item : value.items()) {
        std::string label = element_key(item);
        if (label.empty()) label = std::to_string(index);
        flatten(item, path + "[" + label + "]", out);
        ++index;
      }
      break;
    }
    default:
      break;  // strings/bools/null carry labels, not metrics
  }
}

/// Time metrics gate the exit status; everything else is informational.
bool is_time_metric(const std::string& path) {
  if (path.find("ns_per") != std::string::npos) return true;
  return path.size() >= 3 && path.compare(path.size() - 3, 3, "_ns") == 0;
}

bool load_metrics(const std::string& path, MetricList& out, std::string& schema) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const vlcsa::harness::JsonParse parsed = vlcsa::harness::parse_json(buffer.str());
  if (!parsed.ok()) {
    std::cerr << "error: " << path << ": " << parsed.error << "\n";
    return false;
  }
  if (parsed.value.kind() != JsonValue::Kind::kObject) {
    std::cerr << "error: " << path << ": record is not a JSON object\n";
    return false;
  }
  if (const JsonValue* s = parsed.value.find("schema");
      s != nullptr && s->kind() == JsonValue::Kind::kString) {
    schema = s->as_string();
  }
  flatten(parsed.value, "", out);
  return true;
}

/// Strict full-string double parse (cli.hpp only covers integers).
bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  out = value;
  return true;
}

void print_usage() {
  std::cout << "usage: bench_compare --old=FILE --new=FILE [--max-regress-pct=P]\n"
               "Diffs two perf_microbench --json records.  Time metrics (ns_per_*)\n"
               "that grew by more than P percent (default 10) fail the run with\n"
               "exit 1; other numeric metrics are reported but never gate.\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string old_path;
  std::string new_path;
  double max_regress_pct = 10.0;

  const std::vector<vlcsa::harness::ValueFlag> flags = {
      {"--old",
       [&](const std::string& value) {
         if (value.empty()) return false;
         old_path = value;
         return true;
       }},
      {"--new",
       [&](const std::string& value) {
         if (value.empty()) return false;
         new_path = value;
         return true;
       }},
      {"--max-regress-pct",
       [&](const std::string& value) {
         return parse_double(value, max_regress_pct) && max_regress_pct >= 0.0;
       }},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    }
  }
  if (const std::string error = vlcsa::harness::parse_value_flags(
          argc, const_cast<const char* const*>(argv), flags);
      !error.empty()) {
    std::cerr << "error: " << error << "\n";
    print_usage();
    return 2;
  }
  if (old_path.empty() || new_path.empty()) {
    std::cerr << "error: --old=FILE and --new=FILE are both required\n";
    print_usage();
    return 2;
  }

  MetricList old_metrics, new_metrics;
  std::string old_schema, new_schema;
  if (!load_metrics(old_path, old_metrics, old_schema)) return 2;
  if (!load_metrics(new_path, new_metrics, new_schema)) return 2;
  if (!old_schema.empty() && !new_schema.empty() && old_schema != new_schema) {
    std::cerr << "note: comparing across schemas (" << old_schema << " -> " << new_schema
              << "); only shared metric paths are diffed\n";
  }

  std::size_t compared = 0;
  std::size_t regressions = 0;
  for (const auto& [path, old_value] : old_metrics) {
    const double* new_value = nullptr;
    for (const auto& [other_path, value] : new_metrics) {
      if (other_path == path) {
        new_value = &value;
        break;
      }
    }
    if (new_value == nullptr) continue;  // metric dropped between versions
    ++compared;
    const bool gated = is_time_metric(path);
    const double delta_pct =
        old_value != 0.0 ? (*new_value - old_value) / old_value * 100.0 : 0.0;
    const bool regressed = gated && delta_pct > max_regress_pct;
    if (regressed) ++regressions;
    std::printf("%-72s %14.4g %14.4g %+8.2f%% %s\n", path.c_str(), old_value, *new_value,
                delta_pct, regressed ? "REGRESSED" : (gated ? "" : "(info)"));
  }
  if (compared == 0) {
    std::cerr << "error: the records share no metric paths\n";
    return 2;
  }
  std::printf("%zu metric(s) compared, %zu regression(s) past %+.2f%%\n", compared,
              regressions, max_regress_pct);
  return regressions > 0 ? 1 : 0;
}
