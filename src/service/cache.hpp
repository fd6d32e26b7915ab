#pragma once
// Two-tier result cache for the experiment service daemon (service.hpp).
//
// A cache value is one rendered result record (a single-line JSON object,
// JsonObject::render_line()) keyed on the four inputs a record is a pure
// function of: (experiment name, resolved sample count, seed, eval path).
// The registry + sharded engine guarantee records are deterministic and
// thread-count-invariant, so a hit may be returned byte-for-byte in place of
// recomputation — the contract the service smoke test enforces with cmp.
//
// Tier 1 is an in-memory LRU of bounded entry count.  Tier 2 is an on-disk
// store (one file per key, file content = record + '\n') that survives
// daemon restarts; a disk hit is validated by re-parsing the record with the
// strict JSON parser and checking that its embedded key fields match the
// request, so a corrupted or foreign file degrades to a miss instead of
// serving wrong results.  The disk tier can be capped (`max_disk_bytes`):
// when a store pushes the directory past the cap, the oldest records (by
// last write time) are evicted until it fits again, so a long-running
// daemon's cache directory stays bounded.
//
// The disk tier is safe to share between replicas (fleet.hpp): stores write
// a per-process-unique `.tmp` and rename under an advisory directory flock,
// eviction walks run under the same flock so two replicas never double-count
// bytes, startup reaping is mtime-gated so a peer's in-flight `.tmp` is
// never swept, and `try_acquire_lease` provides cross-process single-flight
// (one replica computes a cold key, the others wait for its record).

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "service/fleet.hpp"

namespace vlcsa::service {

/// What a result record is a pure function of.
struct CacheKey {
  std::string experiment;
  std::uint64_t samples = 0;
  std::uint64_t seed = 1;
  std::string eval_path;  // "batched" / "scalar" (to_string(EvalPath))
  /// Version tag for experiment families whose draw streams have changed
  /// incompatibly (empty for families whose streams never moved — keys,
  /// file names, and record matching are byte-identical to the pre-field
  /// era then).  Currently only the crypto chain-profile workloads carry
  /// one: their internal seeding moved onto the shared seed_seq helper
  /// with the BlockRng subsystem, so records written before that swap
  /// must miss instead of being served as silently stale hits.
  std::string stream_version;
};

/// Monotonic counters, exposed through the protocol's cache-stats request.
struct CacheStats {
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t coalesced_hits = 0;  // followers served by an in-flight leader
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;
  std::uint64_t disk_evictions = 0;  // record files removed by the byte cap
  std::uint64_t invalid_disk_records = 0;  // corrupt/mismatched files seen
  std::uint64_t lease_waits = 0;      // misses that waited on another replica's lease
  std::uint64_t lease_takeovers = 0;  // stale (crashed-holder) leases reaped
  std::uint64_t memory_entries = 0;  // current, not monotonic; filled by stats()
  std::uint64_t disk_bytes = 0;      // current on-disk record bytes; by stats()

  /// Lookups answered without computing: both tiers plus coalesced followers.
  [[nodiscard]] std::uint64_t hits() const { return memory_hits + disk_hits + coalesced_hits; }
  /// `count` as a share of every lookup that answered a run (hits() +
  /// misses); 0.0 before any traffic.
  [[nodiscard]] double share(std::uint64_t count) const {
    const std::uint64_t lookups = hits() + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(lookups);
  }
  [[nodiscard]] double hit_ratio() const { return share(hits()); }
};

class ResultCache {
 public:
  /// `disk_dir` empty disables the disk tier; otherwise the directory is
  /// created if absent.  `memory_capacity` 0 disables the memory tier.
  /// `max_disk_bytes` 0 leaves the disk tier unbounded; otherwise stores
  /// evict the oldest record files until total record bytes fit the cap.
  /// `lease_stale_ms` bounds how old a foreign `.tmp`/`.lease` file may be
  /// before it is presumed crashed and reaped (cross-replica staleness
  /// takeover); 0 disables takeover entirely.
  ResultCache(std::string disk_dir, std::size_t memory_capacity,
              std::uint64_t max_disk_bytes = 0, int lease_stale_ms = 30000);

  enum class Tier { kMemory, kDisk, kMiss };

  struct Lookup {
    Tier tier = Tier::kMiss;
    std::string record;  // set on hits, byte-identical to what put() stored
  };

  /// Looks `key` up memory-first; a disk hit is promoted into memory.
  [[nodiscard]] Lookup get(const CacheKey& key);

  /// Stores `record` in both tiers (best effort on disk: an unwritable
  /// directory degrades the cache, never the result).
  void put(const CacheKey& key, const std::string& record);

  [[nodiscard]] CacheStats stats() const;

  /// Counts one coalesced hit: a request that was served by waiting on an
  /// identical in-flight computation instead of recomputing.  Coalescing
  /// itself lives in the service's single-flight map (service.cpp run_one);
  /// the counter lives here so cache-stats reports all tiers together.
  void record_coalesced_hit();

  [[nodiscard]] const std::string& disk_dir() const { return disk_dir_; }
  [[nodiscard]] std::size_t memory_capacity() const { return memory_capacity_; }
  [[nodiscard]] std::uint64_t max_disk_bytes() const { return max_disk_bytes_; }

  /// The file a key is stored under: "<sanitized-key>-<fnv1a64>.json" inside
  /// disk_dir.  Exposed so tests and the CI smoke step can find records.
  [[nodiscard]] std::string file_path(const CacheKey& key) const;

  /// The key's compute-lease file (file_path + ".lease") — what
  /// try_acquire_lease creates and waiters poll.
  [[nodiscard]] std::string lease_path(const CacheKey& key) const;

  /// Cross-process single-flight: attempts the key's compute lease.
  /// kAcquired = we compute (release after put); kBusy = another replica is
  /// computing, wait on lease_path; kDisabled = no disk tier, just compute.
  /// Counts takeovers of stale leases into the stats.
  [[nodiscard]] fleet::ComputeLease try_acquire_lease(const CacheKey& key);

  /// Counts one lease wait: a miss that parked behind another replica's
  /// compute lease instead of recomputing (the cross-process analogue of
  /// record_coalesced_hit).
  void record_lease_wait();

  [[nodiscard]] int lease_stale_ms() const { return lease_stale_ms_; }

 private:
  void promote_locked(const std::string& map_key, const std::string& record);
  /// Sums the sizes of all ".json" record files in disk_dir_.
  [[nodiscard]] std::uint64_t disk_usage_bytes() const;
  /// Deletes oldest-first (by last write time) until the tier fits the cap;
  /// called with disk_mutex_ + the cross-process dir lock held.
  void enforce_disk_cap_locked();
  /// Removes `.tmp`/`.lease` scratch files older than lease_stale_ms_
  /// (crashed writers); fresh ones belong to a live peer and are kept.
  /// Called with disk_mutex_ + the dir lock held (startup).
  void reap_stale_scratch_locked();
  /// The advisory cross-process lock file (".vlcsa.lock" inside disk_dir_).
  [[nodiscard]] std::string dir_lock_path() const;

  std::string disk_dir_;
  std::size_t memory_capacity_;
  std::uint64_t max_disk_bytes_;
  int lease_stale_ms_;

  // Serializes disk-tier writes and cap enforcement (separate from mutex_ so
  // slow filesystem work never blocks memory-tier lookups).
  std::mutex disk_mutex_;
  // Approximate record bytes on disk, guarded by disk_mutex_; resynced by
  // every enforcement walk.  Lets under-cap stores skip the directory scan.
  std::uint64_t disk_bytes_estimate_ = 0;

  mutable std::mutex mutex_;
  // LRU: most recent at the front; map values point into the list.
  std::list<std::pair<std::string, std::string>> lru_;
  std::unordered_map<std::string, std::list<std::pair<std::string, std::string>>::iterator>
      index_;
  CacheStats stats_;
};

/// The canonical flat encoding of a key ("experiment|samples|seed|path") —
/// the memory tier's map key.  Exposed for testing.
[[nodiscard]] std::string cache_map_key(const CacheKey& key);

/// True when `record` is a valid single JSON object whose "experiment",
/// "samples", "seed" and "eval_path" fields match `key` exactly — the disk
/// tier's validation predicate.  Exposed for testing.
[[nodiscard]] bool record_matches_key(const std::string& record, const CacheKey& key);

}  // namespace vlcsa::service
