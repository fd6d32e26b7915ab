#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "harness/report.hpp"

namespace perfbench {

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const double lo = std::max(span.start_s, parent.start_s);
    const double hi = std::min(span.end_s, parent.end_s);
    if (hi > lo) children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

double self_time_with_prefix(const std::vector<Span>& spans, const std::vector<double>& self,
                             const std::string& prefix) {
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name.compare(0, prefix.size(), prefix) == 0) total += self[i];
  }
  return total;
}

int SpanRecorder::open(std::string name, int parent, std::uint64_t trace_id) {
  if (parent >= 0) {
    trace_id = spans_[static_cast<std::size_t>(parent)].trace_id;
  } else if (trace_id == 0) {
    trace_id = next_trace_id_++;
  }
  const double start = now();
  spans_.push_back({std::move(name), trace_id, parent, start, start});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int index) { spans_[static_cast<std::size_t>(index)].end_s = now(); }

void SpanRecorder::absorb(const SpanRecorder& other, int parent) {
  if (other.epoch_ != epoch_) throw std::invalid_argument("absorb: recorders differ in epoch");
  const int offset = static_cast<int>(spans_.size());
  const std::uint64_t trace_id =
      parent >= 0 ? spans_[static_cast<std::size_t>(parent)].trace_id : next_trace_id_++;
  for (Span span : other.spans_) {
    span.parent = span.parent < 0 ? parent : span.parent + offset;
    span.trace_id = trace_id;
    spans_.push_back(std::move(span));
  }
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    vlcsa::harness::JsonObject object;
    object.add("id", static_cast<std::uint64_t>(i));
    object.add("name", span.name);
    object.add("trace_id", span.trace_id);
    object.add("parent", span.parent);
    object.add("start_us", span.start_s * 1e6);
    object.add("end_us", span.end_s * 1e6);
    out << "  " << object.render_line() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("failed writing span file " + path);
}

}  // namespace perfbench
