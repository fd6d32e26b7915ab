// vlcsa_perfbench — the repository benchmark program.
//
//   vlcsa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--git-commit SHA] [--source-digest HEX]
//
// --trace 0 times the workload untraced: set-up several times (median), then
// passes until S seconds have passed (at least kMinPasses), and prints the
// end-to-end metrics.  --trace 1 is the traced layer run: one untraced and
// one traced pass of the workload (the difference is the tracing overhead),
// then every module's per-layer measurements, with spans written to
// DIR/spans-<workload>-<seed>.json.  Either way the last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith/bitslice.hpp"
#include "arith/planeops.hpp"
#include "harness/report.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 5;
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "vlcsa_perfbench: " << problem
            << "\nusage: vlcsa_perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--out-dir DIR] [--git-commit SHA] [--source-digest HEX]\nworkloads:";
  for (const auto& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--git-commit") {
        args.git_commit = value;
      } else if (flag == "--source-digest") {
        args.source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set of this program image, from VmHWM.  (getrusage's
/// ru_maxrss survives execve, so it would report the launching process's
/// peak whenever that was larger.)
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("/proc/self/status has no VmHWM line");
}

void print_provenance(const Args& args, const Context& context, const Workload& workload) {
  vlcsa::harness::JsonObject line;
  line.add("workload", args.workload);
  line.add("trace", args.trace);
  line.add("seed", args.seed);
  line.add("nproc", context.nproc);
  line.add("engine_threads", workload.engine_threads());
  line.add("client_threads", workload.client_threads());
  line.add("backend", vlcsa::arith::planeops::to_string(vlcsa::arith::planeops::active_backend()));
  line.add("lane_words", vlcsa::arith::default_lane_words());
#if defined(__clang__)
  line.add("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  line.add("compiler", std::string("gcc ") + __VERSION__);
#else
  line.add("compiler", "unknown");
#endif
  line.add("build_type", PERFBENCH_BUILD_TYPE);
  line.add("git_commit", args.git_commit);
  line.add("source_digest", args.source_digest);
  std::cout << "provenance: " << line.render_line() << "\n";
}

void print_result(const CheckTally& tally, const std::vector<Metric>& metrics) {
  std::cout << "checks: " << tally.failed() << " failed of " << tally.attempted()
            << " attempted (failed_frac = "
            << static_cast<double>(tally.failed()) / static_cast<double>(tally.attempted())
            << ")\n";
  for (const std::string& example : tally.examples()) std::cout << "  FAILED: " << example << "\n";
  vlcsa::harness::JsonObject values;
  for (const Metric& metric : metrics) {
    std::cout << "metric " << metric.name << " = " << metric.value << " " << metric.unit << "\n";
    vlcsa::harness::JsonObject entry;
    entry.add("value", metric.value);
    entry.add("unit", metric.unit);
    values.add_json(metric.name, entry.render_line());
  }
  vlcsa::harness::JsonObject result;
  result.add("correct", tally.failed() == 0);
  result.add("attempted", tally.attempted());
  result.add("failed", tally.failed());
  result.add_json("metrics", values.render_line());
  std::cout << result.render_line() << std::endl;
}

/// --trace 0: set-up timings, then timed untraced passes.
std::vector<Metric> run_measured(Workload& workload, const Args& args, CheckTally& tally) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    workload.setup();
    setup_s.push_back(seconds_since(start));
  }
  std::vector<double> wall_s;
  const auto start = Clock::now();
  while (wall_s.size() < kMinPasses || seconds_since(start) < args.seconds) {
    const auto pass_start = Clock::now();
    workload.run_pass(tally, nullptr, -1);
    wall_s.push_back(seconds_since(pass_start));
  }
  std::cout << "workload " << workload.name() << ": " << wall_s.size() << " passes in "
            << seconds_since(start) << " s\n";
  workload.report(std::cout);
  std::cout << "records digest: " << workload.digest() << "\n";
  return {
      {"setup_s", "s", median(setup_s)},
      {"wall_s", "s", median(wall_s)},
      {"peak_rss_mb", "MiB", peak_rss_mib()},
  };
}

/// --trace 1: tracing overhead on the workload itself, then every layer.
std::vector<Metric> run_traced(Workload& workload, const Args& args, const Context& context,
                               CheckTally& tally) {
  SpanRecorder spans;
  std::vector<Metric> metrics;
  workload.setup();
  auto start = Clock::now();
  workload.run_pass(tally, nullptr, -1);
  const double untraced = seconds_since(start);
  const int traced_root = spans.open("traced_pass/" + workload.name());
  start = Clock::now();
  workload.run_pass(tally, &spans, traced_root);
  const double traced = seconds_since(start);
  spans.close(traced_root);
  metrics.push_back({"bench.trace.overhead_ratio", "ratio", traced / untraced});
  std::cout << "traced pass " << traced << " s vs untraced " << untraced << " s\n";

  const int layers_root = spans.open("layers");
  for (const char* family : {"uniform", "gauss"}) {
    measure_mc_layers(family, context, spans, layers_root, metrics);
  }
  // The paper self-time split needs one traced regeneration; the paper
  // workload's own traced pass above is one.
  if (workload.name() != "paper") {
    PaperWorkload paper(context);
    paper.setup();
    paper.run_pass(tally, &spans, layers_root);
  }
  int paper_root = -1;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    if (spans.spans()[i].name == "paper") paper_root = static_cast<int>(i);
  }
  paper_span_metrics(spans, paper_root, metrics);
  measure_paper_calls(context, spans, layers_root, metrics);

  std::optional<ServeWorkload> owned_serve;
  auto* serve = dynamic_cast<ServeWorkload*>(&workload);
  if (serve == nullptr) {
    serve = &owned_serve.emplace(context);
    serve->setup();
  }
  measure_serve_layers(*serve, context, spans, layers_root, tally, metrics);
  spans.close(layers_root);

  const std::string path =
      context.out_dir + "/spans-" + workload.name() + "-" + std::to_string(args.seed) + ".json";
  spans.write_json(path);
  std::cout << "spans: " << spans.spans().size() << " written to " << path << "\n";
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    Context context;
    context.seed = args.seed;
    context.nproc = available_cpus();
    context.out_dir = args.out_dir;
    std::filesystem::create_directories(context.out_dir);
    auto workload = make_workload(args.workload, context);
    if (workload == nullptr) usage("unknown workload " + args.workload);
    print_provenance(args, context, *workload);
    CheckTally tally;
    const std::vector<Metric> metrics = args.trace
                                            ? run_traced(*workload, args, context, tally)
                                            : run_measured(*workload, args, tally);
    print_result(tally, metrics);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "vlcsa_perfbench: " << error.what() << "\n";
    return 1;
  }
}
