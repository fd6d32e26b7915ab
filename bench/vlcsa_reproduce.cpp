// vlcsa_reproduce — regenerates the paper's tables and figures as text.
// Every artifact is one row of the artifact table below: an id, the banner
// title, a banner description ("{samples}" expands to the sample count in
// effect), its default sample count, and a renderer that prints the tables.
// Artifacts drawn from the experiment registry share one renderer per
// experiment kind (error_rate_table, chain_histograms); synthesis-only and
// bespoke artifacts carry their own.
//
//   $ ./build/bench/vlcsa_reproduce --artifact=table7.1 --samples=20000 --threads=4
//   $ ./build/bench/vlcsa_reproduce --artifact=all
//
// --artifact=all runs every artifact in table order, each at its own default
// sample count unless --samples is given.  Sampled results are
// thread-count-invariant (engine.hpp), so --threads only changes wall time.
// An unknown or missing --artifact prints the artifact list and exits 2.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "adders/adders.hpp"
#include "arith/carry_chain.hpp"
#include "arith/distributions.hpp"
#include "harness/experiments.hpp"
#include "harness/montecarlo.hpp"
#include "harness/report.hpp"
#include "harness/synthesis.hpp"
#include "netlist/timing.hpp"
#include "speculative/error_magnitude.hpp"
#include "speculative/error_model.hpp"
#include "speculative/multi_operand.hpp"
#include "speculative/multiplier.hpp"
#include "speculative/scsa_netlist.hpp"
#include "speculative/vlsa.hpp"

using namespace vlcsa;
using arith::ApInt;
using harness::BenchArgs;
using harness::fmt_delta_pct;
using harness::fmt_fixed;
using harness::fmt_pct;
using harness::fmt_sci;
using harness::Table;

namespace {

/// Prints everything after the banner.
using Render = std::function<void(const BenchArgs& args, std::ostream& os)>;

struct Artifact {
  const char* id;
  const char* title;
  std::string description;  // banner text; "{samples}" expands to args.samples
  std::uint64_t default_samples;  // 0 = the artifact draws no samples
  Render render;
};

// ---- Registry-backed renderers, one per experiment kind ---------------------

/// One column of an error-rate table: header and the cell of one experiment.
struct Column {
  const char* header;
  std::function<std::string(const harness::ErrorRateExperiment&,
                            const harness::ErrorRateResult&)>
      cell;
};

/// One table row per error-rate experiment under `prefix`, then `footer`.
Render error_rate_table(std::string prefix, std::vector<Column> columns, std::string footer) {
  return [=](const BenchArgs& args, std::ostream& os) {
    std::vector<std::string> headers;
    for (const Column& column : columns) headers.emplace_back(column.header);
    Table table(std::move(headers));
    for (const harness::ExperimentHandle& handle : harness::experiments_with_prefix(prefix)) {
      const harness::ErrorRateExperiment& experiment = *handle.error_rate();
      const auto result =
          harness::run_experiment(experiment, args.samples, args.seed, args.threads);
      std::vector<std::string> row;
      for (const Column& column : columns) row.push_back(column.cell(experiment, result));
      table.add_row(std::move(row));
    }
    table.print(os);
    os << footer;
  };
}

std::string width_cell(const harness::ErrorRateExperiment& e, const harness::ErrorRateResult&) {
  return std::to_string(e.width);
}
std::string window_cell(const harness::ErrorRateExperiment& e, const harness::ErrorRateResult&) {
  return std::to_string(e.window);
}

/// A carry-chain length histogram as rows of "length | % | bar", the
/// textual rendering of the Figs 6.1–6.5 bar charts.
void print_chain_histogram(const arith::CarryChainProfiler& profiler, std::ostream& os) {
  double peak = 0.0;
  for (int len = 1; len <= profiler.width(); ++len) {
    peak = std::max(peak, profiler.fraction(len));
  }
  Table table({"chain length", "fraction", "histogram"});
  for (int len = 1; len <= profiler.width(); ++len) {
    const double f = profiler.fraction(len);
    const int bar = peak > 0.0 ? static_cast<int>(f / peak * 40.0 + 0.5) : 0;
    table.add_row({std::to_string(len), fmt_pct(f, 3), std::string(bar, '#')});
  }
  table.print(os);
  os << "chains recorded: " << profiler.total() << " over " << profiler.additions()
     << " additions; mean length " << fmt_fixed(profiler.mean_length(), 2) << "\n";
}

/// One histogram per chain-profile experiment under `prefix`, each followed
/// by `note(profiler)`, then `footer`.  A crypto workload's histogram is
/// headed by its workload and addition count: one of its samples is a whole
/// crypto operation, not one addition.
Render chain_histograms(std::string prefix,
                        std::function<std::string(const arith::CarryChainProfiler&)> note,
                        std::string footer) {
  return [=](const BenchArgs& args, std::ostream& os) {
    for (const harness::ExperimentHandle& handle : harness::experiments_with_prefix(prefix)) {
      const harness::ChainProfileExperiment& experiment = *handle.chain_profile();
      const auto profiler =
          harness::run_experiment(experiment, args.samples, args.seed, args.threads);
      if (experiment.workload == harness::ChainProfileExperiment::Workload::kCrypto) {
        os << "---- workload: " << to_string(experiment.crypto_kind) << " ("
           << profiler.additions() << " datapath additions) ----\n";
      }
      print_chain_histogram(profiler, os);
      if (note) os << note(profiler);
    }
    os << footer;
  };
}

// ---- Bespoke renderers ------------------------------------------------------

void print_delay_and_area(std::ostream& os, const char* delay_label, const Table& delay,
                          const char* area_label, const Table& area) {
  os << delay_label << "\n";
  delay.print(os);
  os << "\n" << area_label << "\n";
  area.print(os);
}

/// Fig 3.5: eq. (3.13) over widths 64..512 and windows 4..18; no sampling.
void render_fig3_5(const BenchArgs&, std::ostream& os) {
  Table table({"window size k", "n=64", "n=128", "n=256", "n=512"});
  for (int k = 4; k <= 18; ++k) {
    table.add_row({std::to_string(k), fmt_sci(spec::scsa_error_rate(64, k)),
                   fmt_sci(spec::scsa_error_rate(128, k)),
                   fmt_sci(spec::scsa_error_rate(256, k)),
                   fmt_sci(spec::scsa_error_rate(512, k))});
  }
  table.print(os);
  os << "\nPaper's worked example: n = 256, k = 16 -> P_err ~ "
     << fmt_pct(spec::scsa_error_rate(256, 16)) << " (paper: ~0.01%)\n";
}

/// Fig 3.6 / Ch. 3.3: the paper argues error magnitude by example (a wrong
/// window carry shifts the result by one window weight); this quantifies it
/// over Monte Carlo runs against the window boundaries.
void render_fig3_6(const BenchArgs& args, std::ostream& os) {
  Table table({"n", "k", "error rate", "mean |err|/|exact|", "max |err|/|exact|",
               "dominant log2|err|"});
  for (const auto& [n, k] : {std::pair{32, 6}, {32, 8}, {64, 8}, {64, 10}, {128, 12}}) {
    auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, n);
    const auto stats =
        spec::measure_error_magnitude(spec::ScsaConfig{n, k}, *source, args.samples, args.seed);
    int dominant = 0;
    std::uint64_t best = 0;
    for (int l = 0; l < 64; ++l) {
      if (stats.magnitude_log2[static_cast<std::size_t>(l)] > best) {
        best = stats.magnitude_log2[static_cast<std::size_t>(l)];
        dominant = l;
      }
    }
    table.add_row({std::to_string(n), std::to_string(k), fmt_pct(stats.error_rate()),
                   fmt_sci(stats.mean_relative_error), fmt_sci(stats.max_relative_error),
                   stats.errors == 0 ? "-" : ("2^" + std::to_string(dominant))});
  }
  table.print(os);
  os << "\nExpected: mean relative errors in the 1e-3..1e-1 range and |err|\n"
        "concentrated at window-boundary weights — a wrong speculation is a\n"
        "window off-by-one, never a lone high-order bit flip (Ch. 3.3).\n";
}

/// Eq. (5.2) end to end: clock period from static timing (VLCSA:
/// max(spec, detect); DesignWare: its critical path) times cycles per
/// addition from the "eq5.2/" experiments (one per add plus one bubble per
/// stall, i.e. ErrorRateResult::average_cycles()).
void render_eq5_2(const BenchArgs& args, std::ostream& os) {
  Table table({"n", "inputs", "design", "k", "T_clk", "avg cycles", "time/add",
               "vs DesignWare"});
  for (const int n : {64, 128, 256, 512}) {
    const auto dw = harness::synthesize(adders::build_designware_adder(n));
    for (const harness::ExperimentHandle& handle :
         harness::experiments_with_prefix("eq5.2/n" + std::to_string(n) + "-")) {
      const harness::ErrorRateExperiment& experiment = *handle.error_rate();
      const auto variant = experiment.model == harness::ModelKind::kVlcsa1
                               ? spec::ScsaVariant::kScsa1
                               : spec::ScsaVariant::kScsa2;
      const auto synth = harness::synthesize(spec::build_vlcsa_netlist(
          spec::ScsaConfig{experiment.width, experiment.window}, variant));
      const double tclk = std::max(synth.delay_of("spec"), synth.delay_of("detect"));
      const auto result =
          harness::run_experiment(experiment, args.samples, args.seed, args.threads);
      const double time_per_add = result.average_cycles() * tclk;
      const bool uniform = experiment.dist == arith::InputDistribution::kUniformUnsigned;
      table.add_row({std::to_string(n), uniform ? "uniform" : "gaussian-2c",
                     to_string(experiment.model), std::to_string(experiment.window),
                     fmt_fixed(tclk, 1), fmt_fixed(result.average_cycles(), 4),
                     fmt_fixed(time_per_add, 1), fmt_delta_pct(time_per_add, dw.delay)});
    }
    table.add_row({std::to_string(n), "-", "DesignWare", "-", fmt_fixed(dw.delay, 1), "1.0000",
                   fmt_fixed(dw.delay, 1), "+0.0%"});
  }
  table.print(os);
  os << "\nExpected: VLCSA time/add ~10%+ below DesignWare on both input\n"
        "classes — the stall penalty (0.1-0.3% of adds) is negligible next to\n"
        "the shorter clock (Ch. 5.3, 7.5).\n";
}

/// Table 7.3: SCSA window size k (analytical sizing rule, DESIGN.md) vs the
/// VLSA [17] published chain length l, with our exact DP rate at l.
void render_table7_3(const BenchArgs&, std::ostream& os) {
  Table table({"adder width", "window size (SCSA)", "P_err @ k", "chain length (VLSA [17])",
               "P_err @ l (exact DP)"});
  for (const int n : {64, 128, 256, 512}) {
    const int k = spec::min_window_for_error_rate(n, 1e-4);
    const int l = spec::vlsa_published_chain_length(n);
    table.add_row({std::to_string(n), std::to_string(k), fmt_pct(spec::scsa_error_rate(n, k)),
                   std::to_string(l), fmt_pct(spec::vlsa_exact_error_rate(n, l))});
  }
  table.print(os);
  os << "\nPaper values: k = 14/15/16/17, l = 17/18/20/21.  SCSA speculates on\n"
        "windows rather than per-bit, so it needs a shorter lookahead for the\n"
        "same error rate (Ch. 3/4.3).\n";
}

/// Table 7.4: the analytically sized windows at both targets, each checked
/// by Monte Carlo through the "table7.4/" experiments.
void render_table7_4(const BenchArgs& args, std::ostream& os) {
  Table table({"adder width", "k @ 0.01%", "model", "simulated", "k @ 0.25%", "model",
               "simulated"});
  for (const int n : {64, 128, 256, 512}) {
    std::vector<std::string> row{std::to_string(n)};
    for (const char* tag : {"rate0.01", "rate0.25"}) {
      const std::string name = "table7.4/n" + std::to_string(n) + "-" + tag;
      const auto* experiment = harness::find_error_rate_experiment(name);
      if (experiment == nullptr) throw std::logic_error(name + " missing from the registry");
      const auto result =
          harness::run_experiment(*experiment, args.samples, args.seed, args.threads);
      row.push_back(std::to_string(experiment->window));
      row.push_back(fmt_pct(spec::scsa_error_rate(n, experiment->window)));
      row.push_back(fmt_pct(result.nominal_rate()));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
  os << "\nPaper values: k = 14/15/16/17 (0.01%) and 10/11/12/13 (0.25%); the\n"
        "sizing rule reproduces all eight (see DESIGN.md on the paper's display\n"
        "rounding).\n";
}

/// Table 7.5: VLCSA 2 windows found by simulation as the paper does — the
/// smallest k whose nominal (stall) rate meets the target.
void render_table7_5(const BenchArgs& args, std::ostream& os) {
  const arith::GaussianParams params{0.0, std::ldexp(1.0, 32)};
  Table table({"adder width", "k @ 0.01%", "stall rate", "k @ 0.25%", "stall rate"});
  for (const int n : {64, 128, 256, 512}) {
    std::vector<std::string> row{std::to_string(n)};
    for (const double target : {1e-4, 2.5e-3}) {
      const auto found = harness::find_window_for_nominal_rate(
          n, spec::ScsaVariant::kScsa2, arith::InputDistribution::kGaussianTwos, params,
          target, 1.25, args.samples, args.seed, 4, 24, args.threads);
      row.push_back(std::to_string(found.window));
      row.push_back(fmt_pct(found.result.nominal_rate()));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
  const auto published = spec::published_vlcsa2_parameters();
  os << "\nPaper values: k = " << published.k_rate_01 << " (0.01%) and k = "
     << published.k_rate_25 << " (0.25%) at every width.  Expect the found\n"
        "windows to be near those and visibly width-insensitive.\n";
}

/// Figs 7.2 / 7.3: Kogge-Stone, VLSA [17]'s speculative part and SCSA 1 at
/// the 0.01% design points, through one optimize + static-timing pipeline.
void render_fig7_2_3(const BenchArgs&, std::ostream& os) {
  Table delay({"n", "Kogge-Stone", "spec in VLSA", "vs KS", "SCSA 1", "vs KS"});
  Table area({"n", "Kogge-Stone", "spec in VLSA", "vs KS", "SCSA 1", "vs KS"});
  for (const int n : {64, 128, 256, 512}) {
    const int k = spec::min_window_for_error_rate(n, 1e-4);
    const int l = spec::vlsa_published_chain_length(n);
    const auto ks =
        harness::synthesize(adders::build_adder_netlist(adders::AdderKind::kKoggeStone, n));
    const auto vlsa = harness::synthesize(spec::build_vlsa_spec_netlist({n, l}));
    const auto scsa = harness::synthesize(
        spec::build_scsa_netlist(spec::ScsaConfig{n, k}, spec::ScsaVariant::kScsa1));
    delay.add_row({std::to_string(n), fmt_fixed(ks.delay, 1), fmt_fixed(vlsa.delay, 1),
                   fmt_delta_pct(vlsa.delay, ks.delay), fmt_fixed(scsa.delay, 1),
                   fmt_delta_pct(scsa.delay, ks.delay)});
    area.add_row({std::to_string(n), fmt_fixed(ks.area, 0), fmt_fixed(vlsa.area, 0),
                  fmt_delta_pct(vlsa.area, ks.area), fmt_fixed(scsa.area, 0),
                  fmt_delta_pct(scsa.area, ks.area)});
  }
  print_delay_and_area(os, "Fig 7.2 — critical path delay:", delay, "Fig 7.3 — area:", area);
  os << "\nPaper shape: SCSA 1 delay 18-38% below Kogge-Stone and comparable to\n"
        "VLSA's speculative part; SCSA 1 area always below VLSA's speculative\n"
        "part (window-level vs bit-level speculation, Ch. 7.4.1).\n";
}

/// Figs 7.4 / 7.5: the complete variable-latency adders vs Kogge-Stone, the
/// speculation / detection / recovery delays broken out per output group as
/// the paper's stacked bars do.
void render_fig7_4_5(const BenchArgs&, std::ostream& os) {
  Table delay({"n", "KS", "VLSA spec", "VLSA detect", "VLSA recovery", "VLCSA1 spec",
               "VLCSA1 detect", "VLCSA1 recovery", "correct-path vs VLSA"});
  Table area({"n", "Kogge-Stone", "VLSA", "vs KS", "VLCSA 1", "vs KS"});
  for (const int n : {64, 128, 256, 512}) {
    const int k = spec::min_window_for_error_rate(n, 1e-4);
    const int l = spec::vlsa_published_chain_length(n);
    const auto ks =
        harness::synthesize(adders::build_adder_netlist(adders::AdderKind::kKoggeStone, n));
    const auto vlsa = harness::synthesize(spec::build_vlsa_netlist({n, l}));
    const auto vlcsa = harness::synthesize(
        spec::build_vlcsa_netlist(spec::ScsaConfig{n, k}, spec::ScsaVariant::kScsa1));
    // "Correctly speculated" delay = max(spec, detect): the single-cycle path.
    const double vlsa_correct = std::max(vlsa.delay_of("spec"), vlsa.delay_of("detect"));
    const double vlcsa_correct = std::max(vlcsa.delay_of("spec"), vlcsa.delay_of("detect"));
    delay.add_row({std::to_string(n), fmt_fixed(ks.delay, 1),
                   fmt_fixed(vlsa.delay_of("spec"), 1), fmt_fixed(vlsa.delay_of("detect"), 1),
                   fmt_fixed(vlsa.delay_of("recovery"), 1),
                   fmt_fixed(vlcsa.delay_of("spec"), 1), fmt_fixed(vlcsa.delay_of("detect"), 1),
                   fmt_fixed(vlcsa.delay_of("recovery"), 1),
                   fmt_delta_pct(vlcsa_correct, vlsa_correct)});
    area.add_row({std::to_string(n), fmt_fixed(ks.area, 0), fmt_fixed(vlsa.area, 0),
                  fmt_delta_pct(vlsa.area, ks.area), fmt_fixed(vlcsa.area, 0),
                  fmt_delta_pct(vlcsa.area, ks.area)});
  }
  print_delay_and_area(os, "Fig 7.4 — delays per block:", delay, "Fig 7.5 — area:", area);
  os << "\nPaper shape: VLSA's detection is slower than its speculation (4-8%)\n"
        "while VLCSA 1's is comparable; VLCSA 1's correct-path delay is below\n"
        "VLSA's (paper: 6-19%); VLSA area is 14-32% above Kogge-Stone while\n"
        "VLCSA 1 is at or below it (Ch. 7.4.2).\n";
}

/// Figs 7.6 / 7.7: SCSA 1 vs the DesignWare substitute at both Table 7.4
/// error-rate targets.
void render_fig7_6_7(const BenchArgs&, std::ostream& os) {
  Table delay({"n", "DesignWare", "SCSA @0.01%", "vs DW", "SCSA @0.25%", "vs DW"});
  Table area({"n", "DesignWare", "SCSA @0.01%", "vs DW", "SCSA @0.25%", "vs DW"});
  for (const int n : {64, 128, 256, 512}) {
    adders::DesignWareChoice choice;
    const auto dw = harness::synthesize(adders::build_designware_adder(n, &choice));
    const int k01 = spec::min_window_for_error_rate(n, 1e-4);
    const int k25 = spec::min_window_for_error_rate(n, 2.5e-3);
    const auto s01 = harness::synthesize(
        spec::build_scsa_netlist(spec::ScsaConfig{n, k01}, spec::ScsaVariant::kScsa1));
    const auto s25 = harness::synthesize(
        spec::build_scsa_netlist(spec::ScsaConfig{n, k25}, spec::ScsaVariant::kScsa1));
    delay.add_row({std::to_string(n) + " (DW=" + to_string(choice.winner) + ")",
                   fmt_fixed(dw.delay, 1), fmt_fixed(s01.delay, 1),
                   fmt_delta_pct(s01.delay, dw.delay), fmt_fixed(s25.delay, 1),
                   fmt_delta_pct(s25.delay, dw.delay)});
    area.add_row({std::to_string(n), fmt_fixed(dw.area, 0), fmt_fixed(s01.area, 0),
                  fmt_delta_pct(s01.area, dw.area), fmt_fixed(s25.area, 0),
                  fmt_delta_pct(s25.area, dw.area)});
  }
  print_delay_and_area(os, "Fig 7.6 — delay:", delay, "Fig 7.7 — area:", area);
  os << "\nPaper shape: SCSA 1 ~10% faster than DesignWare at both error rates;\n"
        "area up to 43% (0.01%) / 21-56% (0.25%) smaller, with the relaxed\n"
        "error-rate target buying additional area (Ch. 7.5.1).\n";
}

/// Figs 7.8–7.11: the full VLCSA of `variant` vs the DesignWare substitute at
/// its 0.01% / 0.25% windows `k01(n)` / `k25(n)`.  Delay columns report the
/// "correctly speculated" path max(spec, detect) plus the recovery path.
Render vlcsa_vs_designware(spec::ScsaVariant variant, const char* design,
                           std::function<int(int)> k01, std::function<int(int)> k25,
                           const char* delay_label, const char* area_label,
                           std::string footer) {
  return [=](const BenchArgs&, std::ostream& os) {
    struct Point {
      double correct;
      double recovery;
      double area;
    };
    const auto measure = [variant](int n, int k) {
      const auto r = harness::synthesize(
          spec::build_vlcsa_netlist(spec::ScsaConfig{n, k}, variant));
      return Point{std::max(r.delay_of("spec"), r.delay_of("detect")), r.delay_of("recovery"),
                   r.area};
    };
    const std::string at01 = std::string(design) + " @0.01%";
    const std::string at25 = std::string(design) + " @0.25%";
    Table delay({"n", "DesignWare", "correct @0.01%", "vs DW", "recovery @0.01%",
                 "correct @0.25%", "vs DW", "recovery @0.25%"});
    Table area({"n", "DesignWare", at01, "vs DW", at25, "vs DW"});
    for (const int n : {64, 128, 256, 512}) {
      const auto dw = harness::synthesize(adders::build_designware_adder(n));
      const Point p01 = measure(n, k01(n));
      const Point p25 = measure(n, k25(n));
      delay.add_row({std::to_string(n), fmt_fixed(dw.delay, 1), fmt_fixed(p01.correct, 1),
                     fmt_delta_pct(p01.correct, dw.delay), fmt_fixed(p01.recovery, 1),
                     fmt_fixed(p25.correct, 1), fmt_delta_pct(p25.correct, dw.delay),
                     fmt_fixed(p25.recovery, 1)});
      area.add_row({std::to_string(n), fmt_fixed(dw.area, 0), fmt_fixed(p01.area, 0),
                    fmt_delta_pct(p01.area, dw.area), fmt_fixed(p25.area, 0),
                    fmt_delta_pct(p25.area, dw.area)});
    }
    print_delay_and_area(os, delay_label, delay, area_label, area);
    os << footer;
  };
}

/// Rebuilds VLCSA 1's windows and spec outputs (so each group-generate net
/// carries its real mux-select load), then computes a degraded ERR0 from
/// those loaded nets with a plain OR2 tree; returns its detect delay.
double degraded_detect_delay(int n, int k) {
  netlist::Netlist nl("degraded");
  std::vector<netlist::Signal> a, b;
  for (int i = 0; i < n; ++i) a.push_back(nl.add_input("a[" + std::to_string(i) + "]"));
  for (int i = 0; i < n; ++i) b.push_back(nl.add_input("b[" + std::to_string(i) + "]"));
  const spec::WindowLayout layout(n, k);
  std::vector<adders::ConditionalSums> windows;
  for (int i = 0; i < layout.count(); ++i) {
    const auto [pos, size] = layout.window(i);
    const std::span<const netlist::Signal> aw{a.data() + pos, static_cast<std::size_t>(size)};
    const std::span<const netlist::Signal> bw{b.data() + pos, static_cast<std::size_t>(size)};
    windows.push_back(
        adders::conditional_window_sums(nl, aw, bw, adders::PrefixTopology::kKoggeStone));
  }
  for (int i = 0; i < layout.count(); ++i) {
    const auto [pos, size] = layout.window(i);
    const netlist::Signal sel =
        i == 0 ? netlist::Signal{} : windows[static_cast<std::size_t>(i - 1)].cout0;
    for (int j = 0; j < size; ++j) {
      const auto& w = windows[static_cast<std::size_t>(i)];
      const netlist::Signal bit = i == 0 ? w.sum0[static_cast<std::size_t>(j)]
                                         : nl.mux(sel, w.sum0[static_cast<std::size_t>(j)],
                                                  w.sum1[static_cast<std::size_t>(j)]);
      nl.add_output("sum[" + std::to_string(pos + j) + "]", bit, "spec");
    }
  }
  std::vector<netlist::Signal> terms;
  for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
    terms.push_back(nl.and_(windows[i + 1].group_p, windows[i].group_g));
  }
  nl.add_output("err0", nl.or_reduce(terms), "detect");
  return harness::synthesize(nl).delay_of("detect");
}

/// Ablation: the two moves that make VLCSA's detection as fast as its
/// speculation (Ch. 5.1) — the DeMorgan-paired OR tree, and tapping the
/// lightly loaded duplicate of each group-generate — against a plain OR2
/// tree on the shared, loaded nets.
void render_ablation_detection(const BenchArgs&, std::ostream& os) {
  Table table({"n", "k", "spec delay", "detect (production)",
               "detect (plain OR tree, shared nets)", "penalty"});
  for (const int n : {64, 128, 256, 512}) {
    const int k = spec::min_window_for_error_rate(n, 1e-4);
    const auto production = harness::synthesize(
        spec::build_vlcsa_netlist(spec::ScsaConfig{n, k}, spec::ScsaVariant::kScsa1));
    const double degraded = degraded_detect_delay(n, k);
    table.add_row({std::to_string(n), std::to_string(k),
                   fmt_fixed(production.delay_of("spec"), 1),
                   fmt_fixed(production.delay_of("detect"), 1), fmt_fixed(degraded, 1),
                   fmt_delta_pct(degraded, production.delay_of("detect"))});
  }
  table.print(os);
  os << "\nExpected: the naive detector lands up to ~15% above the production\n"
        "one at the mid widths, eroding the detection <= speculation property\n"
        "the variable-latency clock period depends on (Ch. 5.1).\n";
}

/// Ablation: the window-size knob — smaller k is faster and smaller but
/// stalls more; eq. (3.13) prices the trade.
void render_ablation_window_size(const BenchArgs& args, std::ostream& os) {
  const int n = 128;
  Table table({"k", "windows", "correct-path delay", "area", "P_stall (model)",
               "avg cycles (sim)", "time/add"});
  for (const int k : {6, 8, 10, 12, 14, 15, 16, 20, 24}) {
    const auto synth = harness::synthesize(
        spec::build_vlcsa_netlist(spec::ScsaConfig{n, k}, spec::ScsaVariant::kScsa1));
    const double tclk = std::max(synth.delay_of("spec"), synth.delay_of("detect"));
    auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, n);
    const auto mc = harness::run_vlcsa(spec::VlcsaConfig{n, k, spec::ScsaVariant::kScsa1},
                                       *source, args.samples, args.seed, args.threads);
    table.add_row({std::to_string(k), std::to_string((n + k - 1) / k), fmt_fixed(tclk, 1),
                   fmt_fixed(synth.area, 0), fmt_pct(spec::scsa_error_rate(n, k), 3),
                   fmt_fixed(mc.average_cycles(), 4), fmt_fixed(tclk * mc.average_cycles(), 1)});
  }
  table.print(os);
  os << "\nExpected: time/add is U-shaped — tiny windows stall too often, huge\n"
        "windows lose the speculation win; the sweet spot sits near the\n"
        "Table 7.4 sizing (k = 15 at this width for 0.01%).\n";
}

/// Ablation: the prefix topology inside the SCSA window adders (Ch. 4.1:
/// "any traditional adder"), recovery fixed to Kogge-Stone.
void render_ablation_topology(const BenchArgs&, std::ostream& os) {
  Table table({"n", "topology", "spec delay", "detect delay", "recovery delay", "area"});
  for (const int n : {64, 256}) {
    const int k = spec::min_window_for_error_rate(n, 1e-4);
    for (const auto topology : adders::all_prefix_topologies()) {
      spec::ScsaNetlistOptions opts;
      opts.window_topology = topology;
      const auto result = harness::synthesize(
          spec::build_vlcsa_netlist(spec::ScsaConfig{n, k}, spec::ScsaVariant::kScsa1, opts));
      table.add_row({std::to_string(n), to_string(topology),
                     fmt_fixed(result.delay_of("spec"), 1),
                     fmt_fixed(result.delay_of("detect"), 1),
                     fmt_fixed(result.delay_of("recovery"), 1), fmt_fixed(result.area, 0)});
    }
  }
  table.print(os);
  os << "\nExpected: Kogge-Stone/Sklansky windows are fastest; Brent-Kung trades\n"
        "~10% delay for the smallest area — the window is small enough (k <= 17)\n"
        "that the differences stay modest, supporting the paper's 'any\n"
        "traditional adder' remark.\n";
}

/// Future work (Ch. 8): stall rates and average cycles of the VLCSA final
/// adder inside a multiplier and a multi-operand adder.
void render_future_work(const BenchArgs& args, std::ostream& os) {
  Table table({"unit", "config", "stall rate", "avg cycles", "exactness"});
  arith::BlockRng rng(args.seed);
  const auto samples = static_cast<double>(args.samples);

  // 32x32 multiplier, VLCSA 2 final adder at 64 bits.
  {
    const int k = spec::published_vlcsa2_parameters().k_rate_25;
    const spec::SpeculativeMultiplier mul(32, k);
    std::uint64_t stalls = 0, cycles = 0, wrong = 0;
    for (std::uint64_t i = 0; i < args.samples; ++i) {
      const std::uint64_t ua = rng() & 0xffffffffu;
      const std::uint64_t ub = rng() & 0xffffffffu;
      const auto r = mul.multiply(ApInt::from_u64(32, ua), ApInt::from_u64(32, ub));
      stalls += r.stalled ? 1 : 0;
      cycles += static_cast<std::uint64_t>(r.cycles);
      wrong += r.product.to_u64() != ua * ub ? 1 : 0;
    }
    table.add_row({"multiplier 32x32", "VLCSA2 k=" + std::to_string(k),
                   fmt_pct(static_cast<double>(stalls) / samples),
                   fmt_fixed(static_cast<double>(cycles) / samples, 4),
                   wrong == 0 ? "exact" : "WRONG"});
  }

  // 8-operand 64-bit accumulator, uniform and Gaussian operands.
  for (const bool gaussian : {false, true}) {
    const int k = gaussian ? spec::published_vlcsa2_parameters().k_rate_25
                           : spec::min_window_for_error_rate(64, 2.5e-3);
    const spec::MultiOperandAdder adder(
        {64, k, gaussian ? spec::ScsaVariant::kScsa2 : spec::ScsaVariant::kScsa1});
    auto source = arith::make_source(gaussian ? arith::InputDistribution::kGaussianTwos
                                              : arith::InputDistribution::kUniformUnsigned,
                                     64, arith::GaussianParams{0.0, std::ldexp(1.0, 32)});
    std::uint64_t stalls = 0, cycles = 0, wrong = 0;
    for (std::uint64_t i = 0; i < args.samples; ++i) {
      std::vector<ApInt> ops;
      ApInt expected(64);
      for (int j = 0; j < 4; ++j) {
        const auto [a, b] = source->next(rng);
        ops.push_back(a);
        ops.push_back(b);
        expected = (expected + a) + b;
      }
      const auto r = adder.add(ops);
      stalls += r.stalled ? 1 : 0;
      cycles += static_cast<std::uint64_t>(r.cycles);
      wrong += r.sum != expected ? 1 : 0;
    }
    table.add_row({"8-operand adder",
                   std::string(gaussian ? "gaussian, VLCSA2" : "uniform, VLCSA1") + " k=" +
                       std::to_string(k),
                   fmt_pct(static_cast<double>(stalls) / samples),
                   fmt_fixed(static_cast<double>(cycles) / samples, 4),
                   wrong == 0 ? "exact" : "WRONG"});
  }
  table.print(os);
  os << "\nNote: carry-save outputs are not uniform (the carry word is even and\n"
        "correlated with the sum word), so final-adder stall rates differ from\n"
        "the raw-input rates — measured here rather than modeled.\n";
}

int window_01(int n) { return spec::min_window_for_error_rate(n, 1e-4); }
int window_25(int n) { return spec::min_window_for_error_rate(n, 2.5e-3); }

// ---- The artifact table -----------------------------------------------------

const std::vector<Artifact>& artifacts() {
  static const std::vector<Artifact> table = {
      {"fig3.5", "Figure 3.5",
       "Predicted SCSA error rates (eq. 3.13) vs window size for n = 64/128/256/512, "
       "unsigned uniform inputs.",
       0, render_fig3_5},
      {"fig3.6", "Figure 3.6 / Ch. 3.3",
       "SCSA error magnitude, unsigned uniform inputs, {samples} samples per configuration.",
       500000, render_fig3_6},
      {"eq5.2", "Eq. (5.2) average performance",
       "Wall-clock time of VLCSA vs the DesignWare substitute: T = cycles x T_clk, {samples} "
       "additions per stream.",
       100000, render_eq5_2},
      {"fig6.1", "Figure 6.1",
       "Carry-chain length statistics, unsigned uniform inputs, 32-bit adder, {samples} "
       "additions.",
       1000000,
       chain_histograms("fig6.1/", nullptr,
                        "\nExpected shape: geometric decay (P(len = L | chain) = 2^-L), "
                        "chains\nconcentrated at short lengths — the premise of speculation "
                        "(Ch. 3).\n")},
      // Cilardo [6]'s RSA / ECC / Diffie-Hellman traces are proprietary; the
      // "fig6.2/" experiments run our instrumented prime-field substitute
      // (DESIGN.md), and --samples counts top-level crypto operations.
      {"fig6.2", "Figure 6.2",
       "Carry-chain statistics from instrumented cryptographic workloads (16-bit prime field "
       "on a 32-bit datapath).",
       4,
       chain_histograms(
           "fig6.2/",
           [](const arith::CarryChainProfiler& profiler) {
             return "fraction of chains reaching >= half the datapath: " +
                    fmt_pct(profiler.fraction_at_least(16), 2) + "\n\n";
           },
           "Expected shape: short-chain mass plus a second mode near the datapath\n"
           "width (sign-extension chains from modular subtraction) — the pattern\n"
           "2's-complement Gaussian inputs approximate (Ch. 6.3).\n")},
      {"fig6.3", "Figure 6.3",
       "Carry-chain length statistics, 2's-complement uniform inputs, 32-bit adder, "
       "{samples} additions.",
       1000000,
       chain_histograms("fig6.3/", nullptr,
                        "\nExpected shape: still short-chain dominated, similar to "
                        "unsigned\nuniform (Ch. 6.3's first observation): uniform "
                        "magnitudes rarely\ncreate the small-negative-plus-small-positive "
                        "pattern.\n")},
      {"fig6.4", "Figure 6.4",
       "Carry-chain length statistics, unsigned Gaussian inputs (mu=0, sigma=2^20), 32-bit "
       "adder, {samples} additions.",
       1000000,
       chain_histograms("fig6.4/", nullptr,
                        "\nExpected shape: short-chain dominated, similar to unsigned "
                        "uniform —\nmagnitude alone does not create long chains (Ch. "
                        "6.3).\n")},
      {"fig6.5", "Figure 6.5",
       "Carry-chain length statistics, 2's-complement Gaussian inputs (mu=0, sigma=2^20), "
       "32-bit adder, {samples} additions.",
       1000000,
       chain_histograms(
           "fig6.5/",
           [](const arith::CarryChainProfiler& profiler) {
             return "\nfraction of chains reaching >= 24 bits: " +
                    fmt_pct(profiler.fraction_at_least(24), 2);
           },
           "\nExpected shape: bimodal — short chains plus a mode hugging the MSB\n"
           "(sign-extension chains), matching the crypto workload of Fig 6.2.\n")},
      {"table7.1", "Table 7.1",
       "VLCSA 1 error rates, 2's-complement Gaussian inputs (mu=0, sigma=2^32), {samples} "
       "samples per row.  Paper: 25.01% everywhere.",
       200000,
       error_rate_table(
           "table7.1/",
           {{"adder width", width_cell},
            {"window size", window_cell},
            {"P_err (Monte Carlo)", [](auto&, auto& r) { return fmt_pct(r.actual_rate()); }},
            {"P_err (ERR = 1)", [](auto&, auto& r) { return fmt_pct(r.nominal_rate()); }},
            {"avg cycles", [](auto&, auto& r) { return fmt_fixed(r.average_cycles(), 4); }}},
           "\nExpected: ~25% in both columns — every fourth addition pairs operands\n"
           "of opposite sign whose sum crosses zero, driving a sign-extension carry\n"
           "chain across the whole adder (Ch. 7.3).\n")},
      {"table7.2", "Table 7.2",
       "VLCSA 2 error rates, 2's-complement Gaussian inputs (mu=0, sigma=2^32), {samples} "
       "samples per row.  Paper: 0.01% everywhere.",
       200000,
       error_rate_table(
           "table7.2/",
           {{"adder width", width_cell},
            {"window size", window_cell},
            {"P_err (Monte Carlo)",
             [](auto&, auto& r) { return fmt_pct(r.either_wrong_rate()); }},
            {"P_err (ERR0=1, ERR1=1)", [](auto&, auto& r) { return fmt_pct(r.nominal_rate()); }},
            {"avg cycles", [](auto&, auto& r) { return fmt_fixed(r.average_cycles(), 4); }}},
           "\nExpected: ~0.01-0.05% in both columns, a ~2500x reduction over\n"
           "Table 7.1 on identical inputs (Ch. 7.3).\n")},
      {"table7.3", "Table 7.3", "SCSA window size vs VLSA chain length for a 0.01% error rate.",
       0, render_table7_3},
      {"table7.4", "Table 7.4",
       "SCSA window sizes for error rates 0.01% / 0.25% (analytical sizing + Monte Carlo "
       "check, {samples} samples per cell).",
       200000, render_table7_4},
      {"table7.5", "Table 7.5",
       "VLCSA 2 window sizes from simulation, 2's-complement Gaussian (mu=0, sigma=2^32), "
       "{samples} samples per candidate window.",
       100000, render_table7_5},
      // model: eq. (3.13) as printed (union bound); exact: the DP over the
      // window Markov chain; sim nominal: ERR0 fires, the event (3.13)
      // models; sim actual: the sum is wrong, slightly lower because the top
      // window pair can only corrupt the carry-out (error_model.hpp).
      {"fig7.1", "Figure 7.1",
       "Analytical SCSA error model vs Monte Carlo, unsigned uniform inputs, {samples} "
       "samples per point.",
       200000,
       error_rate_table(
           "fig7.1/",
           {{"n", width_cell},
            {"k", window_cell},
            {"model (3.13)",
             [](auto& e, auto&) { return fmt_sci(spec::scsa_error_rate(e.width, e.window)); }},
            {"model (exact DP)",
             [](auto& e, auto&) {
               return fmt_sci(spec::scsa_exact_error_rate(e.width, e.window));
             }},
            {"sim nominal", [](auto&, auto& r) { return fmt_sci(r.nominal_rate()); }},
            {"sim actual", [](auto&, auto& r) { return fmt_sci(r.actual_rate()); }}},
           "\nExpected: sim-nominal tracks the exact DP within sampling noise at\n"
           "every point, validating eq. (3.13)'s fit in Fig 7.1.\n")},
      {"fig7.2-3", "Figures 7.2 / 7.3",
       "Delay [tau] and area [inv] of speculative adders vs Kogge-Stone at the 0.01% "
       "error-rate design points.",
       0, render_fig7_2_3},
      {"fig7.4-5", "Figures 7.4 / 7.5",
       "Variable-latency adders vs Kogge-Stone at the 0.01% design points: per-block delays "
       "[tau] and total area [inv].",
       0, render_fig7_4_5},
      {"fig7.6-7", "Figures 7.6 / 7.7",
       "SCSA 1 speculative adder vs DesignWare-substitute: delay [tau] and area [inv] at the "
       "0.01% / 0.25% design points.",
       0, render_fig7_6_7},
      {"fig7.8-9", "Figures 7.8 / 7.9",
       "VLCSA 1 vs DesignWare-substitute: correctly-speculated and recovery delays [tau], "
       "area [inv].",
       0,
       vlcsa_vs_designware(spec::ScsaVariant::kScsa1, "VLCSA1", window_01, window_25,
                           "Fig 7.8 — delay:", "Fig 7.9 — area:",
                           "\nPaper shape: correctly-speculated delay ~10% below DesignWare;\n"
                           "recovery below twice the correct-path delay; area requirement\n"
                           "-6..42% (0.01%) and -19..16% (0.25%) vs DesignWare, improving "
                           "with\nwidth (Ch. 7.5.2).\n")},
      {"fig7.10-11", "Figures 7.10 / 7.11",
       "VLCSA 2 vs DesignWare-substitute at the Table 7.5 window sizes: delays [tau], area "
       "[inv].",
       0,
       vlcsa_vs_designware(
           spec::ScsaVariant::kScsa2, "VLCSA2",
           [](int) { return spec::published_vlcsa2_parameters().k_rate_01; },
           [](int) { return spec::published_vlcsa2_parameters().k_rate_25; },
           "Fig 7.10 — delay:", "Fig 7.11 — area:",
           "\nPaper shape: VLCSA 2's correct-path delay still ~10% below\n"
           "DesignWare; area above VLCSA 1 (second mux bank + ERR1) with\n"
           "requirements 1..62% (0.01%) and -17..29% (0.25%) vs DesignWare,\n"
           "shrinking as width grows (Ch. 7.5.3).\n")},
      {"ablation/detection", "Ablation: detection implementation",
       "ERR0 critical path with vs without the fast-tree and\nload-splitting moves (VLCSA 1, "
       "0.01% design points).",
       0, render_ablation_detection},
      {"ablation/window-size", "Ablation: window size",
       "VLCSA 1 at n = 128 across window sizes: correct-path delay, area, model stall rate, "
       "simulated average cycles ({samples} samples).",
       100000, render_ablation_window_size},
      {"ablation/window-topology", "Ablation: window-adder topology",
       "VLCSA 1 delay/area for each prefix topology inside the window adders (recovery fixed "
       "to Kogge-Stone), 0.01% design points.",
       0, render_ablation_topology},
      {"future-work", "Future work (Ch. 8)",
       "Variable-latency multiplication and multi-operand addition: stall behaviour of the "
       "VLCSA final adder, {samples} operations per row.",
       20000, render_future_work},
  };
  return table;
}

std::string expand_samples(std::string text, std::uint64_t samples) {
  const std::string token = "{samples}";
  if (const auto at = text.find(token); at != std::string::npos) {
    text.replace(at, token.size(), std::to_string(samples));
  }
  return text;
}

void print_artifact_list(std::ostream& os) {
  os << "usage: vlcsa_reproduce --artifact=ID|all [--samples=N] [--seed=S] [--threads=T]\n"
        "artifacts:\n";
  for (const Artifact& artifact : artifacts()) {
    os << "  " << artifact.id << "  " << artifact.title << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string id = BenchArgs::parse(argc, argv, 0).artifact;
    std::vector<const Artifact*> selected;
    for (const Artifact& artifact : artifacts()) {
      if (id == "all" || id == artifact.id) selected.push_back(&artifact);
    }
    if (selected.empty()) {
      std::cerr << (id.empty() ? "missing --artifact" : "unknown artifact '" + id + "'")
                << "\n";
      print_artifact_list(std::cerr);
      return 2;
    }
    for (const Artifact* artifact : selected) {
      const BenchArgs args = BenchArgs::parse(argc, argv, artifact->default_samples);
      harness::print_banner(std::cout, artifact->title,
                            expand_samples(artifact->description, args.samples));
      artifact->render(args, std::cout);
    }
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    print_artifact_list(std::cerr);
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
