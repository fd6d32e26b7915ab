#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "arith/distributions.hpp"
#include "harness/engine.hpp"
#include "harness/json.hpp"
#include "speculative/error_magnitude.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using vlcsa::harness::ErrorRateExperiment;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t name_tag(const std::string& name) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

const ErrorRateExperiment& require_error_rate(const std::string& name) {
  const auto* experiment = vlcsa::harness::find_error_rate_experiment(name);
  if (experiment == nullptr) throw std::runtime_error("registry lacks experiment " + name);
  return *experiment;
}

/// Checks a result record against the first pass's rendering of it: every
/// pass reuses the same seeds, so every later pass is a same-seed repeat.
void check_repeat(std::vector<std::string>& first, std::size_t index, std::string record,
                  CheckTally& tally) {
  if (first.size() == index) {
    first.push_back(std::move(record));
    return;
  }
  tally.record(first[index] == record ? std::string()
                                      : "same-seed repeat differs: " + record.substr(0, 120));
}

/// Runs client(c) on `clients` threads and joins them all; the first
/// exception a client throws is rethrown here after the join.
template <typename Client>
void run_clients(int clients, Client&& client) {
  std::mutex failure_mutex;
  std::exception_ptr failure;
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      try {
        client(c);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  for (auto& thread : pool) thread.join();
  if (failure) std::rethrow_exception(failure);
}

void print_percentile(std::ostream& out, const char* name, const char* unit,
                      const std::vector<double>& values, double percentile) {
  const auto value = nearest_rank(values, percentile);
  out << "  " << name << " = ";
  if (value) {
    out << *value << " " << unit;
  } else {
    out << "n/a (needs " << kMinSamplesBeyond << " samples beyond the percentile)";
  }
  out << "  [n=" << values.size() << "]\n";
}

/// mc sample counts: n=64 and n=512 points each take about half of a pass
/// at nproc engine threads (measured on a 4-core AVX-512 host).
struct McPointSpec {
  const char* experiment;
  std::uint64_t samples;
};

const std::vector<McPointSpec>& mc_points(const std::string& family) {
  static const std::vector<McPointSpec> uniform = {
      {"eq5.2/n64-uniform", 28u << 20},
      {"vlsa/n64", 28u << 20},
      {"eq5.2/n512-uniform", 5u << 19},
      {"vlsa/n512", 5u << 19},
  };
  static const std::vector<McPointSpec> gauss = {
      {"table7.1/n64", 12u << 20},
      {"table7.2/n64", 12u << 20},
      {"table7.1/n512", 6u << 20},
      {"table7.2/n512", 6u << 20},
  };
  if (family == "uniform") return uniform;
  if (family == "gauss") return gauss;
  throw std::invalid_argument("unknown mc family " + family);
}

}  // namespace

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return std::max(1, CPU_COUNT(&set));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed ^ (tag * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---- mc-uniform / mc-gauss -------------------------------------------------

McWorkload::McWorkload(std::string family, const Context& context)
    : family_(std::move(family)), context_(context) {
  (void)mc_points(family_);  // validates the family
}

void McWorkload::setup() {
  points_.clear();
  for (const auto& spec : mc_points(family_)) {
    const ErrorRateExperiment& experiment = require_error_rate(spec.experiment);
    points_.push_back({&experiment, spec.samples,
                       derive_seed(context_.seed, name_tag(experiment.name)),
                       oracle_rate(experiment)});
  }
  // Warm-up: a sixteenth of a pass, so every worker's stack, sources and
  // code pages are resident before the first timed pass.
  for (const Point& point : points_) {
    (void)vlcsa::harness::run_experiment(*point.experiment, point.samples / 16, point.seed,
                                         context_.nproc);
  }
}

void McWorkload::run_pass(CheckTally& tally, SpanRecorder* spans, int parent) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const Point& point = points_[i];
    vlcsa::harness::ErrorRateResult result;
    {
      const SpanRecorder::Scope span(spans, "harness.run_experiment/" + point.experiment->name,
                                     parent);
      result = vlcsa::harness::run_experiment(*point.experiment, point.samples, point.seed,
                                              context_.nproc);
    }
    tally.record(check_error_rate(result, point.samples));
    if (point.oracle) tally.record(check_oracle(*point.experiment, result, *point.oracle));
    check_repeat(first_records_, i, render_record(*point.experiment, point.seed, result), tally);
    samples_run_ += point.samples;
  }
  seconds_run_ += seconds_since(start);
}

void McWorkload::report(std::ostream& out) const {
  out << "  msamples_per_s = " << static_cast<double>(samples_run_) / seconds_run_ / 1e6
      << " 10^6 samples/s  [" << samples_run_ << " samples in " << seconds_run_ << " s]\n";
}

std::string McWorkload::digest() const { return records_digest(first_records_); }

// ---- paper -------------------------------------------------------------------

const std::vector<std::pair<int, int>>& PaperWorkload::magnitude_configs() {
  static const std::vector<std::pair<int, int>> configs = {
      {32, 6}, {32, 8}, {64, 8}, {64, 10}, {128, 12}};
  return configs;
}

void PaperWorkload::setup() {
  using vlcsa::harness::ChainProfileExperiment;
  oracles_.clear();
  for (const auto& experiment : vlcsa::harness::error_rate_experiments()) {
    oracles_.push_back(oracle_rate(experiment));
    (void)vlcsa::harness::run_experiment(experiment, 4096, context_.seed, context_.nproc);
  }
  for (const auto& experiment : vlcsa::harness::chain_profile_experiments()) {
    const bool crypto = experiment.workload == ChainProfileExperiment::Workload::kCrypto;
    (void)vlcsa::harness::run_experiment(experiment, crypto ? 1 : 4096, context_.seed,
                                         context_.nproc);
  }
  for (const auto& [n, k] : magnitude_configs()) {
    auto source = vlcsa::arith::make_source(vlcsa::arith::InputDistribution::kUniformUnsigned, n);
    (void)vlcsa::spec::measure_error_magnitude({n, k}, *source, 4096, context_.seed);
  }
}

void PaperWorkload::run_pass(CheckTally& tally, SpanRecorder* spans, int parent) {
  using vlcsa::harness::ChainProfileExperiment;
  const auto start = Clock::now();
  const SpanRecorder::Scope root(spans, "paper", parent);
  std::size_t index = 0;
  const auto& error_rate = vlcsa::harness::error_rate_experiments();
  for (std::size_t i = 0; i < error_rate.size(); ++i) {
    const ErrorRateExperiment& experiment = error_rate[i];
    const std::uint64_t seed = derive_seed(context_.seed, name_tag(experiment.name));
    vlcsa::harness::ErrorRateResult result;
    {
      const SpanRecorder::Scope span(spans, "error_rate/" + experiment.name, root.index());
      result = vlcsa::harness::run_experiment(experiment, experiment.default_samples, seed,
                                              context_.nproc);
    }
    tally.record(check_error_rate(result, experiment.default_samples));
    if (oracles_[i]) tally.record(check_oracle(experiment, result, *oracles_[i]));
    check_repeat(first_records_, index++, render_record(experiment, seed, result), tally);
  }
  for (const auto& experiment : vlcsa::harness::chain_profile_experiments()) {
    const bool crypto = experiment.workload == ChainProfileExperiment::Workload::kCrypto;
    const std::uint64_t seed = derive_seed(context_.seed, name_tag(experiment.name));
    std::optional<vlcsa::arith::CarryChainProfiler> profiler;
    {
      const SpanRecorder::Scope span(
          spans, (crypto ? "crypto/" : "chain_profile/") + experiment.name, root.index());
      profiler = vlcsa::harness::run_experiment(experiment, experiment.default_samples, seed,
                                                context_.nproc);
    }
    tally.record(check_chain_profile(*profiler, experiment.default_samples, crypto));
    check_repeat(first_records_, index++,
                 render_record(experiment, experiment.default_samples, seed, *profiler), tally);
  }
  for (const auto& [n, k] : magnitude_configs()) {
    const vlcsa::spec::ScsaConfig config{n, k};
    const std::string label = "n" + std::to_string(n) + "-k" + std::to_string(k);
    const std::uint64_t seed = derive_seed(context_.seed, name_tag("fig3.6/" + label));
    auto source = vlcsa::arith::make_source(vlcsa::arith::InputDistribution::kUniformUnsigned, n);
    vlcsa::spec::ErrorMagnitudeStats stats;
    {
      const SpanRecorder::Scope span(spans, "error_magnitude/" + label, root.index());
      stats = vlcsa::spec::measure_error_magnitude(config, *source, kMagnitudeSamples, seed);
    }
    tally.record(check_magnitude(stats, kMagnitudeSamples));
    check_repeat(first_records_, index++, render_record(config, seed, stats), tally);
  }
  ++passes_;
  seconds_run_ += seconds_since(start);
}

void PaperWorkload::report(std::ostream& out) const {
  out << "  regenerations = " << passes_ << " (" << first_records_.size()
      << " records each), mean " << seconds_run_ / static_cast<double>(passes_) << " s\n";
}

std::string PaperWorkload::digest() const { return records_digest(first_records_); }

// ---- serve -------------------------------------------------------------------

ServeWorkload::ServeWorkload(const Context& context)
    : context_(context),
      clients_(context.nproc),
      cache_dir_(context.out_dir + "/serve-cache") {
  for (const auto& experiment : vlcsa::harness::error_rate_experiments()) {
    if (experiment.width == 64) experiments_.push_back(&experiment);
  }
  if (experiments_.empty()) throw std::runtime_error("registry has no 64-bit experiments");
}

ServeWorkload::~ServeWorkload() {
  service_.reset();
  remove_cache_dir();
}

void ServeWorkload::remove_cache_dir() const {
  std::error_code ignored;
  std::filesystem::remove_all(cache_dir_, ignored);
}

std::string ServeWorkload::run_request(const std::string& experiment, std::uint64_t seed,
                                       bool traced) const {
  return "{\"request\": \"run\", \"experiment\": \"" + experiment +
         "\", \"samples\": " + std::to_string(kShardSamples) +
         ", \"seed\": " + std::to_string(seed) + (traced ? ", \"trace\": true}" : "}");
}

void ServeWorkload::send_all(std::vector<Entry>& entries, const std::string& expected_cache) {
  std::atomic<std::size_t> next{0};
  run_clients(clients_, [&](int) {
    for (std::size_t i = next.fetch_add(1); i < entries.size(); i = next.fetch_add(1)) {
      Entry& entry = entries[i];
      const std::string reply = service_->handle_line(entry.request).line;
      if (entry.record.empty()) entry.record = extract_record(reply);
      if (!check_hit(reply, entry.record).empty() ||
          reply.find("\"cache\": \"" + expected_cache + "\"") == std::string::npos) {
        throw std::runtime_error("serve set-up: " + expected_cache + " expected, got " +
                                 reply.substr(0, 200));
      }
    }
  });
}

void ServeWorkload::start_service() {
  service_.reset();
  vlcsa::service::ServiceConfig config;
  config.cache_dir = cache_dir_;
  config.threads = 1;
  service_ = std::make_unique<vlcsa::service::ExperimentService>(config);
}

void ServeWorkload::prepare() {
  const auto start = Clock::now();
  remove_cache_dir();
  start_service();
  for (auto [entries, count, tag] : {std::tuple{&warm_, kWarmKeys, 0x2000000ULL},
                                     std::tuple{&hot_, kHotKeys, 0x1000000ULL}}) {
    entries->assign(count, {});
    for (std::size_t i = 0; i < count; ++i) {
      Entry& entry = (*entries)[i];
      entry.experiment = experiments_[i % experiments_.size()]->name;
      entry.seed = derive_seed(context_.seed, tag + i);
      entry.request = run_request(entry.experiment, entry.seed, false);
      entry.traced_request = run_request(entry.experiment, entry.seed, true);
    }
    send_all(*entries, "miss");
  }
  prepare_seconds_ = seconds_since(start);
}

void ServeWorkload::setup() {
  if (warm_.empty()) prepare();
  // A fresh service over the stored cache directory, as after a daemon
  // restart: warm keys first, so the hot keys, read last, own the memory
  // tier.  Every reply must be a disk hit byte-identical to the stored record.
  start_service();
  send_all(warm_, "hit-disk");
  send_all(hot_, "hit-disk");
}

ServeWorkload::TierCounts ServeWorkload::tier_counts() {
  const auto parsed = vlcsa::harness::parse_json(
      service_->handle_line("{\"request\": \"cache-stats\"}").line);
  TierCounts counts;
  for (const auto& [name, out] : {std::pair{"memory_hits", &counts.memory},
                                  {"disk_hits", &counts.disk},
                                  {"misses", &counts.miss},
                                  {"coalesced_hits", &counts.coalesced}}) {
    const auto* field = parsed.ok() ? parsed.value.find(name) : nullptr;
    if (field == nullptr || !field->to_u64(*out)) {
      throw std::runtime_error(std::string("cache-stats reply lacks ") + name);
    }
  }
  return counts;
}

void ServeWorkload::run_pass(CheckTally& tally, SpanRecorder* spans, int parent) {
  enum class Kind { kHot, kTracedHot, kWarm, kCold };
  struct Sent {
    Kind kind;
    std::size_t index;
    double seconds;
    std::string reply;
  };
  const std::uint64_t pass_seed = derive_seed(context_.seed, 0x3000000 + passes_);
  std::vector<std::vector<Sent>> sent(static_cast<std::size_t>(clients_));
  std::vector<Clock::time_point> finished(static_cast<std::size_t>(clients_));
  std::vector<SpanRecorder> recorders;
  for (int c = 0; c < clients_; ++c) {
    recorders.emplace_back(spans != nullptr ? spans->epoch() : Clock::now());
  }
  const int pass_span = spans != nullptr ? spans->open("serve.pass", parent) : -1;
  const auto start = Clock::now();
  run_clients(clients_, [&](int c) {
    std::uint64_t state = derive_seed(pass_seed, static_cast<std::uint64_t>(c));
    const auto draw = [&state] { return state = derive_seed(state, 0x5EED); };
    auto& log = sent[static_cast<std::size_t>(c)];
    log.reserve(kRequestsPerClient);
    SpanRecorder* recorder = spans != nullptr ? &recorders[static_cast<std::size_t>(c)] : nullptr;
    for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
      const std::uint64_t roll = draw() % 100;
      Sent entry{Kind::kCold, 0, 0.0, {}};
      std::string cold_request;
      const std::string* request = nullptr;
      if (roll < 85) {
        entry.index = draw() % hot_.size();
        entry.kind = draw() % 5 == 0 ? Kind::kTracedHot : Kind::kHot;
        const Entry& hot = hot_[entry.index];
        request = entry.kind == Kind::kTracedHot ? &hot.traced_request : &hot.request;
      } else if (roll < 95) {
        entry.index = draw() % warm_.size();
        entry.kind = Kind::kWarm;
        request = &warm_[entry.index].request;
      } else {
        const auto* experiment = experiments_[draw() % experiments_.size()];
        cold_request = run_request(experiment->name, draw(), false);
        request = &cold_request;
      }
      const SpanRecorder::Scope span(recorder, "service.handle_line");
      const auto sent_at = Clock::now();
      entry.reply = service_->handle_line(*request).line;
      entry.seconds = seconds_since(sent_at);
      log.push_back(std::move(entry));
    }
    finished[static_cast<std::size_t>(c)] = Clock::now();
  });
  const double wall =
      std::chrono::duration<double>(*std::max_element(finished.begin(), finished.end()) - start)
          .count();
  if (spans != nullptr) {
    spans->close(pass_span);
    for (const SpanRecorder& recorder : recorders) spans->absorb(recorder, pass_span);
  }

  for (const auto& log : sent) {
    for (const Sent& entry : log) {
      const std::string& reply = entry.reply;
      switch (entry.kind) {
        case Kind::kHot:
        case Kind::kTracedHot:
          tally.record(check_hit(reply, hot_[entry.index].record));
          break;
        case Kind::kWarm:
          tally.record(check_hit(reply, warm_[entry.index].record));
          break;
        case Kind::kCold:
          tally.record(check_run_reply(reply));
          break;
      }
      if (reply.find("\"cache\": \"hit-memory\"") != std::string::npos) {
        (entry.kind == Kind::kTracedHot ? latencies_.traced_hit_us : latencies_.hit_us)
            .push_back(entry.seconds * 1e6);
      } else if (reply.find("\"cache\": \"hit-disk\"") != std::string::npos) {
        latencies_.disk_hit_us.push_back(entry.seconds * 1e6);
      } else if (reply.find("\"cache\": \"miss\"") != std::string::npos) {
        latencies_.miss_ms.push_back(entry.seconds * 1e3);
      }
    }
  }
  latencies_.requests += static_cast<std::uint64_t>(clients_) * kRequestsPerClient;
  latencies_.seconds += wall;
  ++passes_;
}

void ServeWorkload::report(std::ostream& out) const {
  out << "  disk set stored once before set-up: " << warm_.size() + hot_.size()
      << " computed misses in " << prepare_seconds_ << " s\n";
  out << "  requests_per_s = " << static_cast<double>(latencies_.requests) / latencies_.seconds
      << " req/s  [" << latencies_.requests << " requests, " << clients_ << " clients]\n";
  print_percentile(out, "hit_p50_us", "us", latencies_.hit_us, 50);
  print_percentile(out, "hit_p99_us", "us", latencies_.hit_us, 99);
  print_percentile(out, "traced_hit_p50_us", "us", latencies_.traced_hit_us, 50);
  print_percentile(out, "disk_hit_p50_us", "us", latencies_.disk_hit_us, 50);
  print_percentile(out, "miss_p50_ms", "ms", latencies_.miss_ms, 50);
}

std::string ServeWorkload::digest() const {
  std::vector<std::string> records;
  for (const auto* set : {&warm_, &hot_}) {
    for (const Entry& entry : *set) records.push_back(entry.record);
  }
  return records_digest(records);
}

// ---- registry ----------------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"mc-uniform", "mc-gauss", "paper", "serve"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Context& context) {
  if (name == "mc-uniform") return std::make_unique<McWorkload>("uniform", context);
  if (name == "mc-gauss") return std::make_unique<McWorkload>("gauss", context);
  if (name == "paper") return std::make_unique<PaperWorkload>(context);
  if (name == "serve") return std::make_unique<ServeWorkload>(context);
  return nullptr;
}

}  // namespace perfbench
