#pragma once
// In-memory span recorder for the traced run.  Spans are recorded only from
// the benchmark's own code, around its calls into the library's public
// functions; they stay in memory and are written once, at exit.
//
// A span has a name, a start and end (seconds since the recorder's epoch),
// a parent (-1 for a root) and a trace id shared by every span of one
// traced unit of work.  A span's self time is its duration minus the part of
// that interval its children cover.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t trace_id = 0;
  int parent = -1;  // index into the recorder's span list; -1 = root
  double start_s = 0.0;
  double end_s = 0.0;

  [[nodiscard]] double duration() const { return end_s - start_s; }
};

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the union of its direct children's intervals clipped to it.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Sum of self times of all spans whose name starts with `prefix`.
[[nodiscard]] double self_time_with_prefix(const std::vector<Span>& spans,
                                           const std::vector<double>& self,
                                           const std::string& prefix);

/// Not thread-safe: each thread records into its own recorder, and the
/// owner absorbs them after joining.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  [[nodiscard]] Clock::time_point epoch() const { return epoch_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span under `parent` (-1 = root; a root starts a new trace id
  /// unless `trace_id` is given) and returns its index.
  int open(std::string name, int parent = -1, std::uint64_t trace_id = 0);
  void close(int index);

  /// Appends another recorder's spans (same epoch), re-parenting its roots
  /// under `parent` with that span's trace id.
  void absorb(const SpanRecorder& other, int parent);

  /// Writes {"spans": [...]} with one object per span.
  void write_json(const std::string& path) const;

  /// RAII span: closes at scope exit.  A null recorder records nothing.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, int parent = -1)
        : recorder_(recorder),
          index_(recorder == nullptr ? -1 : recorder->open(std::move(name), parent)) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] int index() const { return index_; }

   private:
    SpanRecorder* recorder_;
    int index_;
  };

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::uint64_t next_trace_id_ = 1;
};

}  // namespace perfbench
