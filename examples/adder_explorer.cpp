// Adder explorer — the "C++ programs which ... generate Verilog files" flow
// of Ch. 7.1 as a command-line tool.  Builds any generator in the library,
// prints synthesis metrics, optionally writes the structural Verilog, and
// runs any named Monte Carlo experiment from the registry on the parallel
// sharded engine (bit-sliced batch pipeline by default; --batch=off selects
// the scalar oracle, byte-identical counters either way).
//
//   $ ./build/examples/adder_explorer --design=vlcsa2 --width=64 --window=13
//   $ ./build/examples/adder_explorer --design=kogge-stone --width=128 --verilog=ks128.v
//   $ ./build/examples/adder_explorer --list
//   $ ./build/examples/adder_explorer --list-experiments
//   $ ./build/examples/adder_explorer --experiment=table7.1/n64 --threads=4
//   $ ./build/examples/adder_explorer --experiment=table7.1/n64 --json=BENCH_t71_n64.json
//
// Argument parsing lives in harness/cli.{hpp,cpp} so it is unit-testable;
// unknown or malformed flags are hard errors, never silently ignored.

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "adders/adders.hpp"
#include "harness/cli.hpp"
#include "harness/engine.hpp"
#include "harness/experiments.hpp"
#include "harness/report.hpp"
#include "harness/synthesis.hpp"
#include "netlist/verilog.hpp"
#include "speculative/error_model.hpp"
#include "speculative/scsa_netlist.hpp"
#include "speculative/vlsa.hpp"

using namespace vlcsa;

namespace {

const char* kDesigns[] = {"ripple",      "carry-select", "carry-skip",  "kogge-stone",
                          "brent-kung",  "sklansky",     "han-carlson", "hybrid-ks-carry-select",
                          "designware",  "scsa1",        "scsa2",       "vlcsa1",
                          "vlcsa2",      "vlsa"};

void print_usage() {
  std::cout << "usage: adder_explorer [--design=NAME] [--width=N] [--window=K]\n"
               "                      [--chain=L] [--verilog=FILE] [--list]\n"
               "                      [--experiment=NAME] [--samples=N] [--seed=S]\n"
               "                      [--threads=T] [--batch=on|off] [--json=FILE]\n"
               "                      [--profile] [--list-experiments]\n"
               "  --design      one of the generators (default kogge-stone)\n"
               "  --width       adder width in bits (default 64)\n"
               "  --window      SCSA/VLCSA window size (default: sized for 0.01%)\n"
               "  --chain       VLSA speculative chain length (default: published)\n"
               "  --verilog     write structural Verilog to FILE\n"
               "  --list        list available designs\n"
               "  --experiment  run a registry experiment instead of building a design\n"
               "  --samples     experiment sample count (default: the experiment's own)\n"
               "  --seed        experiment seed (default 1)\n"
               "  --threads     worker threads, 0 = all hardware threads (default 0)\n"
               "  --batch       bit-sliced 64-samples-per-word pipeline (default on;\n"
               "                off = scalar oracle, byte-identical counters)\n"
               "  --json        also write a machine-readable result record to FILE\n"
               "  --profile     print the engine run profile (shards, RNG words drawn,\n"
               "                fill/eval/merge time split, backend) to stderr as one\n"
               "                JSON line; with --json the profile is also embedded\n"
               "                in the record as its \"profile\" member\n"
               "  --list-experiments  list registry experiment names\n";
}

netlist::Netlist build(const std::string& design, int width, int window, int chain) {
  using adders::AdderKind;
  if (design == "scsa1" || design == "scsa2") {
    const auto variant = design == "scsa1" ? spec::ScsaVariant::kScsa1 : spec::ScsaVariant::kScsa2;
    return spec::build_scsa_netlist({width, window}, variant);
  }
  if (design == "vlcsa1" || design == "vlcsa2") {
    const auto variant = design == "vlcsa1" ? spec::ScsaVariant::kScsa1 : spec::ScsaVariant::kScsa2;
    return spec::build_vlcsa_netlist({width, window}, variant);
  }
  if (design == "vlsa") return spec::build_vlsa_netlist({width, chain});
  for (const auto kind :
       {AdderKind::kRipple, AdderKind::kCarrySelect, AdderKind::kCarrySkip,
        AdderKind::kKoggeStone, AdderKind::kBrentKung, AdderKind::kSklansky,
        AdderKind::kHanCarlson, AdderKind::kHybridKsCarrySelect, AdderKind::kDesignWare}) {
    if (design == to_string(kind)) return adders::build_adder_netlist(kind, width);
  }
  throw std::invalid_argument("unknown design: " + design + " (try --list)");
}

void list_experiments() {
  for (const harness::ExperimentHandle& e : harness::experiments_with_prefix("")) {
    std::cout << "  " << e.name() << "  [" << e.kind() << "]  " << e.description() << "\n";
  }
}

int run_experiment_by_name(const harness::ExplorerOptions& opt) {
  using Clock = std::chrono::steady_clock;
  const auto experiment = harness::find_experiment(opt.experiment);
  if (!experiment) {
    std::cerr << "unknown experiment: " << opt.experiment << " (try --list-experiments)\n";
    return 2;
  }
  if (opt.path_explicit && !experiment->eval_path_applies()) {
    std::cerr << "error: --batch only applies to error-rate experiments; " << experiment->name()
              << " is a " << experiment->kind() << " experiment\n";
    return 2;
  }
  harness::RunOptions options;
  options.samples = opt.samples == 0 ? experiment->default_samples() : opt.samples;
  options.seed = opt.seed;
  options.threads = opt.threads;
  harness::RunProfileCollector collector;
  if (opt.profile) options.profile = &collector;
  std::cout << experiment->name() << ": " << experiment->description() << "\n"
            << options.samples << " samples, seed " << opt.seed << ", "
            << to_string(experiment->keyed_eval_path(opt.path)) << " evaluation\n\n";

  harness::JsonObject record;
  const auto start = Clock::now();
  experiment->run_into(options, opt.path, record);
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  const double rate = wall > 0.0 ? static_cast<double>(options.samples) / wall : 0.0;
  const std::string profile =
      opt.profile ? harness::render_run_profile(collector.snapshot()) : std::string();
  if (opt.profile) std::cerr << profile << "\n";

  // The canonical record's fields are the metric table.
  harness::Table table({"metric", "value"});
  for (const auto& [key, value] : record.fields()) table.add_row({key, value});
  table.add_row({"wall time [s]", harness::fmt_fixed(wall, 3)});
  table.add_row({"samples/sec", harness::fmt_fixed(rate, 0)});
  table.print(std::cout);

  if (!opt.json_path.empty()) {
    // The canonical record, then this run's own fields.
    record.add("threads", harness::resolve_threads(opt.threads));
    record.add("wall_seconds", wall);
    record.add("samples_per_sec", rate);
    if (opt.profile) record.add_json("profile", profile);
    std::ofstream out(opt.json_path);
    if (!out) throw std::runtime_error("cannot open " + opt.json_path);
    record.write(out);
    std::cout << "wrote result record to " << opt.json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parse = harness::parse_explorer_args(argc, argv);
  if (!parse.ok()) {
    std::cerr << "error: " << parse.error << "\n";
    print_usage();
    return 2;
  }
  const harness::ExplorerOptions& opt = parse.options;
  if (opt.show_help) {
    print_usage();
    return 0;
  }
  if (opt.list_designs) {
    for (const char* d : kDesigns) std::cout << "  " << d << "\n";
    return 0;
  }
  if (opt.list_experiments) {
    list_experiments();
    return 0;
  }

  try {
    if (!opt.experiment.empty()) {
      return run_experiment_by_name(opt);
    }

    int window = opt.window;
    int chain = opt.chain;
    if (window == 0) window = spec::min_window_for_error_rate(opt.width, 1e-4);
    if (chain == 0) {
      chain = (opt.width == 64 || opt.width == 128 || opt.width == 256 || opt.width == 512)
                  ? spec::vlsa_published_chain_length(opt.width)
                  : std::min(opt.width, window + 3);
    }

    const auto netlist = build(opt.design, opt.width, window, chain);
    const auto result = harness::synthesize(netlist);

    harness::Table table({"metric", "value"});
    table.add_row({"design", result.name});
    table.add_row({"gates (optimized)", std::to_string(result.gates)});
    table.add_row({"area [inv]", harness::fmt_fixed(result.area, 0)});
    table.add_row({"critical delay [tau]", harness::fmt_fixed(result.delay, 1)});
    for (const auto& [group, delay] : result.group_delay) {
      if (!group.empty()) {
        table.add_row({"delay of '" + group + "' [tau]", harness::fmt_fixed(delay, 1)});
      }
    }
    table.add_row({"max primary-input fanout", std::to_string(result.max_input_fanout)});
    table.print(std::cout);

    if (!opt.verilog_path.empty()) {
      std::ofstream out(opt.verilog_path);
      if (!out) throw std::runtime_error("cannot open " + opt.verilog_path);
      netlist::emit_verilog(netlist::optimize(netlist), out);
      std::cout << "wrote Verilog to " << opt.verilog_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
