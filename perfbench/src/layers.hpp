#pragma once
// The traced run's per-layer measurements.  Each function calls one
// module's public functions directly, one block or call at a time, records a
// span around every timed loop, and appends metrics named
// "<module>.<layer>...": see README.md for the glossary and for which
// end-to-end metric each layer metric should move.

#include <string>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// arith draw/fill/layout, speculative eval, harness accumulate/engine per
/// width for one mc family ("uniform" or "gauss"), single-threaded, plus the
/// family's parallel efficiency, layer coverage and RunProfile counts.
void measure_mc_layers(const std::string& family, const Context& context, SpanRecorder& spans,
                       int parent, std::vector<Metric>& out);

/// Self-time split of the one traced paper regeneration in `spans`:
/// `paper_root` is the index of the "paper" span PaperWorkload::run_pass
/// recorded, and its children are summed by name prefix.
void paper_span_metrics(const SpanRecorder& spans, int paper_root, std::vector<Metric>& out);

/// Per-call costs of the scalar paths the paper workload spends its time in.
void measure_paper_calls(const Context& context, SpanRecorder& spans, int parent,
                         std::vector<Metric>& out);

/// JSON parse, cache tier costs, hit self time, trace overhead, contention
/// and tier shares of the serve workload (set up by the caller).
void measure_serve_layers(ServeWorkload& serve, const Context& context, SpanRecorder& spans,
                          int parent, CheckTally& tally, std::vector<Metric>& out);

}  // namespace perfbench
