// Concurrent serving front-end: a sharded, reader-writer-locked TTL answer
// cache in front of HoursSystem — the first step from "simulator" to
// "service under heavy traffic" (ROADMAP; cf. the Random Query String DoS
// paper's concern with resolver caches under high-rate query mixes).
//
// Design:
//   * The name space is split across `shard_count` shards by FNV-1a hash.
//   * Each shard is one AnswerCache (the core Resolver also uses) behind a
//     std::shared_mutex. A cache hit probes under the shared lock and
//     copies the records out, so hits on one shard run in parallel;
//     inserts, evictions and expired-entry drops take the exclusive lock.
//     A miss takes it before the authority path only when its probe saw a
//     stale entry to drop.
//   * An insert at capacity evicts through the core's (expiry, name) index:
//     O(log shard) per victim, with no scan of the shard.
//   * The miss path funnels into the single-threaded HoursSystem under one
//     authority mutex — concurrency lives in front of the hierarchy, never
//     inside one query.
//
// Semantics match Resolver exactly (same core, so the same TTL aging and
// evict-expired-else-earliest-expiry policy, applied per shard), so a
// single-threaded trace driven through both produces identical hit/miss/
// failure counts whenever capacity never binds, and identical evictions
// and cached names too with one shard — the oracle in
// tests/concurrent_resolver_test.cpp. With several shards under eviction
// pressure the shard-local (vs. global) victim choice may differ; the bound
// cached_names() <= shard_count * ceil(capacity / shard_count) always holds.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "hours/hours.hpp"
#include "hours/resolver.hpp"
#include "store/record_store.hpp"

namespace hours {

class ConcurrentResolver {
 public:
  /// `capacity` bounds the total cached names (split evenly across shards);
  /// `shard_count` trades write contention against eviction locality. The
  /// system reference must outlive the resolver.
  explicit ConcurrentResolver(HoursSystem& system, std::size_t capacity = 1024,
                              unsigned shard_count = 8);

  ConcurrentResolver(const ConcurrentResolver&) = delete;
  ConcurrentResolver& operator=(const ConcurrentResolver&) = delete;

  /// Thread-safe resolve at client time `now`. Cache hits take only their
  /// shard's shared lock; misses serialize on the authority mutex in front
  /// of HoursSystem. `now` is caller-supplied (not read from the backend)
  /// because the backend clock is not safe to touch concurrently with
  /// lookups.
  [[nodiscard]] ResolveResult resolve(std::string_view name, std::uint64_t now);

  /// Cache-only probe; copies the records into `*out` (the shard may
  /// change after return). Does not update stats.
  [[nodiscard]] bool peek(std::string_view name, std::uint64_t now,
                          std::vector<store::Record>* out) const;

  /// Installs an answer obtained out of band. Thread-safe.
  void insert(std::string_view name, std::uint64_t now, std::vector<store::Record> records);

  /// Arms the cache-busting defense with one digest shared by every shard:
  /// a burst detected through any shard flags the zone for all of them
  /// (the gossip-shared negative-cache digest, DESIGN.md §11).
  void set_defense(NegativeCacheDefenseConfig config) {
    defense_ = config.enabled ? std::make_shared<NegativeCacheDigest>(config) : nullptr;
  }
  /// Adopts a digest pooled with other resolver instances (null disarms).
  void share_defense(std::shared_ptr<NegativeCacheDigest> digest) {
    defense_ = std::move(digest);
  }
  [[nodiscard]] const std::shared_ptr<NegativeCacheDigest>& defense() const noexcept {
    return defense_;
  }

  /// Aggregated across shards. Individual counters are exact; a snapshot
  /// taken while writers are active is a consistent-enough sum, not an
  /// atomic cross-shard cut.
  [[nodiscard]] ResolverStats stats() const;

  [[nodiscard]] std::size_t cached_names() const;
  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

 private:
  struct alignas(64) Shard {
    explicit Shard(std::size_t capacity) : cache(capacity) {}
    mutable std::shared_mutex mutex;  ///< shared: probes; exclusive: writes
    AnswerCache cache;
    // Every hit bumps `hits`; its own cache line keeps those writes off the
    // line holding the map's root pointer, which every probe reads.
    alignas(64) std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> refusals{0};
  };

  [[nodiscard]] Shard& shard_of(std::string_view name) const;
  /// Copies the fresh records for `name` into `*out` under the shared lock;
  /// `*stale` (when given) reports a cached but stale entry.
  [[nodiscard]] static bool probe(const Shard& shard, std::string_view name, std::uint64_t now,
                                  std::vector<store::Record>* out, bool* stale = nullptr);

  HoursSystem& system_;
  std::mutex system_mutex_;  ///< the single-consumer authority path
  std::vector<std::unique_ptr<Shard>> shards_;
  std::shared_ptr<NegativeCacheDigest> defense_;  ///< null = defense off
};

}  // namespace hours
