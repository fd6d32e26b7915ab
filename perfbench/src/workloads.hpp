#pragma once
// The benchmark's workloads.  Each one is a fixed unit of work (a "pass")
// driven through the library's public entry points, prepared by setup() and
// checked by run_pass().  main.cpp times setup() and run_pass(); each
// workload adds its own figures to the report.
//
//   mc-uniform  long batched error-rate runs, unsigned uniform operands
//   mc-gauss    the same shape on two's-complement Gaussian operands
//   paper       one full regeneration of every registry artifact
//   serve       closed-loop clients calling ExperimentService::handle_line

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "harness/experiments.hpp"
#include "service/service.hpp"
#include "spans.hpp"

namespace perfbench {

/// Run-wide settings every workload derives its inputs from.
struct Context {
  std::uint64_t seed = 1;
  int nproc = 1;        // CPUs this process may run on
  std::string out_dir;  // holds the serve cache and the span file
};

/// CPUs in this process's affinity mask (what `nproc` prints).
[[nodiscard]] int available_cpus();

/// Deterministic 64-bit mix of a seed and a stream tag (splitmix64 finalizer
/// over seed ^ tag-scrambled); every experiment seed and request order comes
/// from the benchmark seed through this.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual int engine_threads() const = 0;
  [[nodiscard]] virtual int client_threads() const { return 1; }

  /// Rebuilds everything a pass needs (timed as setup_s; may run repeatedly).
  virtual void setup() = 0;

  /// One fixed unit of work; outputs are checked into `tally`.  With a
  /// recorder, the pass's calls are recorded as spans under `parent`.
  virtual void run_pass(CheckTally& tally, SpanRecorder* spans, int parent) = 0;

  /// Workload-specific end-to-end figures, over every pass so far.
  virtual void report(std::ostream& out) const = 0;

  /// Digest of the first pass's result records.
  [[nodiscard]] virtual std::string digest() const = 0;
};

/// mc-uniform / mc-gauss: each pass runs four registry error-rate points on
/// the parallel engine with engine threads = nproc.  Sample counts weight the
/// n=64 and n=512 points to about half the pass time each.
class McWorkload final : public Workload {
 public:
  struct Point {
    const vlcsa::harness::ErrorRateExperiment* experiment = nullptr;
    std::uint64_t samples = 0;
    std::uint64_t seed = 0;
    std::optional<double> oracle;  // exact rate, unsigned uniform points only
  };

  /// `family` is "uniform" or "gauss".
  McWorkload(std::string family, const Context& context);

  [[nodiscard]] std::string name() const override { return "mc-" + family_; }
  [[nodiscard]] int engine_threads() const override { return context_.nproc; }
  void setup() override;
  void run_pass(CheckTally& tally, SpanRecorder* spans, int parent) override;
  void report(std::ostream& out) const override;
  [[nodiscard]] std::string digest() const override;

  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

 private:
  std::string family_;
  Context context_;
  std::vector<Point> points_;
  std::vector<std::string> first_records_;
  std::uint64_t samples_run_ = 0;
  double seconds_run_ = 0.0;
};

/// paper: each pass regenerates every registry error-rate and chain-profile
/// experiment at its default size, plus the five Fig 3.6 error-magnitude
/// configurations at 500k samples.  Pass spans are named
/// "error_rate/<name>", "chain_profile/<name>", "crypto/<name>" and
/// "error_magnitude/<config>" under one root span "paper".
class PaperWorkload final : public Workload {
 public:
  explicit PaperWorkload(const Context& context) : context_(context) {}

  [[nodiscard]] std::string name() const override { return "paper"; }
  [[nodiscard]] int engine_threads() const override { return context_.nproc; }
  void setup() override;
  void run_pass(CheckTally& tally, SpanRecorder* spans, int parent) override;
  void report(std::ostream& out) const override;
  [[nodiscard]] std::string digest() const override;

  /// The Fig 3.6 (n, k) configurations and their sample count.
  static const std::vector<std::pair<int, int>>& magnitude_configs();
  static constexpr std::uint64_t kMagnitudeSamples = 500000;

 private:
  Context context_;
  std::vector<std::optional<double>> oracles_;  // per error-rate experiment
  std::vector<std::string> first_records_;
  std::uint64_t passes_ = 0;
  double seconds_run_ = 0.0;
};

/// serve: a closed loop of client threads, each calling handle_line on one
/// in-process ExperimentService and sending its next request only after the
/// reply.  Misses run with engine threads = 1.  Request mix: ~85% hot keys
/// (fit the 64-entry memory tier; one in five traced), ~10% warm keys
/// (on the disk tier), ~5% cold misses (fresh seeds).  The first setup()
/// computes and stores every warm and hot key once; each setup() then starts
/// a fresh service over that directory and warms its memory tier from disk.
class ServeWorkload final : public Workload {
 public:
  /// One warm-up key with the record the service stored for it.
  struct Entry {
    std::string experiment;
    std::uint64_t seed = 0;
    std::string request;         // untraced run request line
    std::string traced_request;  // the same with "trace": true
    std::string record;   // record bytes from the warm-up reply
  };
  /// Client-side latencies, classified by the reply's "cache" field.
  struct Latencies {
    std::vector<double> hit_us;         // untraced hit-memory
    std::vector<double> traced_hit_us;  // traced hit-memory
    std::vector<double> disk_hit_us;    // hit-disk
    std::vector<double> miss_ms;        // computed misses
    std::uint64_t requests = 0;
    double seconds = 0.0;               // summed pass wall time
  };

  static constexpr std::uint64_t kShardSamples = 1 << 14;  // one engine shard
  static constexpr std::size_t kHotKeys = 32;
  static constexpr std::size_t kWarmKeys = 512;
  static constexpr std::size_t kRequestsPerClient = 2500;

  explicit ServeWorkload(const Context& context);
  ~ServeWorkload() override;
  ServeWorkload(const ServeWorkload&) = delete;
  ServeWorkload& operator=(const ServeWorkload&) = delete;

  [[nodiscard]] std::string name() const override { return "serve"; }
  [[nodiscard]] int engine_threads() const override { return 1; }
  [[nodiscard]] int client_threads() const override { return clients_; }
  void setup() override;
  void run_pass(CheckTally& tally, SpanRecorder* spans, int parent) override;
  void report(std::ostream& out) const override;
  [[nodiscard]] std::string digest() const override;

  void set_clients(int clients) { clients_ = clients; }
  [[nodiscard]] const Latencies& latencies() const { return latencies_; }
  void reset_latencies() { latencies_ = {}; }
  [[nodiscard]] const std::vector<Entry>& hot() const { return hot_; }
  [[nodiscard]] const std::vector<Entry>& warm() const { return warm_; }
  /// The error-rate experiments cold misses draw from.
  [[nodiscard]] const std::vector<const vlcsa::harness::ErrorRateExperiment*>& cold_experiments()
      const {
    return experiments_;
  }
  /// Cumulative run-lookup outcomes, from the "cache-stats" reply.
  struct TierCounts {
    std::uint64_t memory = 0;
    std::uint64_t disk = 0;
    std::uint64_t miss = 0;
    std::uint64_t coalesced = 0;
  };
  [[nodiscard]] TierCounts tier_counts();

 private:
  [[nodiscard]] std::string run_request(const std::string& experiment, std::uint64_t seed,
                                        bool traced) const;
  /// Computes and stores every warm and hot key once (the disk set).
  void prepare();
  void start_service();
  /// Sends every entry's request from all clients; each reply must carry
  /// `expected_cache` and the entry's record (taken from the reply when the
  /// entry has none yet).  Throws on the first failure.
  void send_all(std::vector<Entry>& entries, const std::string& expected_cache);
  void remove_cache_dir() const;

  Context context_;
  int clients_;
  std::string cache_dir_;
  std::vector<const vlcsa::harness::ErrorRateExperiment*> experiments_;
  std::unique_ptr<vlcsa::service::ExperimentService> service_;
  std::vector<Entry> hot_;
  std::vector<Entry> warm_;
  Latencies latencies_;
  std::uint64_t passes_ = 0;
  double prepare_seconds_ = 0.0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Context& context);

}  // namespace perfbench
