// Client-side resolver with answer caching (Section 7, "Query Bootstrapping
// and Caching"; related-work discussion of [Breslau99]/[Jung01]).
//
// The paper is explicit that caching is *complementary* to HOURS: it gives
// only opportunistic resolution (hit rates depend on the query pattern),
// while HOURS assures forwarding of arbitrary queries. The Resolver models
// a client: a TTL-bounded answer cache in front of HoursSystem::lookup, with
// hit/miss/failure accounting so the caching ablation bench can quantify
// exactly that claim.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hours/hours.hpp"
#include "snapshot/json.hpp"
#include "store/record_store.hpp"

namespace hours {

struct ResolverStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;    ///< forwarded to the hierarchy, answered
  std::uint64_t failures = 0;        ///< forwarded, not answered
  std::uint64_t evictions = 0;
  std::uint64_t refusals = 0;        ///< denied by the negative-cache defense
  std::uint64_t zones_flagged = 0;   ///< zone flag transitions by the defense

  [[nodiscard]] double hit_rate() const noexcept {
    const auto total = cache_hits + cache_misses + failures;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }
};

/// Cache-busting defense knobs (DESIGN.md §11). A zone that accumulates
/// `distinct_miss_threshold` distinct forwarded-miss names within `window`
/// seconds is flagged for `flag_ttl` seconds; queries for a flagged zone are
/// refused at the resolver edge instead of costing an authoritative lookup
/// and a cache eviction. Legitimate traffic re-asks a bounded name set, so
/// it never crosses the distinct-name threshold; the random-query-string
/// attacker crosses it almost immediately.
struct NegativeCacheDefenseConfig {
  bool enabled = false;
  std::uint64_t distinct_miss_threshold = 32;
  std::uint64_t window = 10;    ///< seconds of miss history per zone
  std::uint64_t flag_ttl = 60;  ///< seconds a flagged zone stays refused
};

/// The shared evidence the defense gossips between resolver instances: a
/// per-zone digest of recent distinct forwarded-miss names plus the flagged
/// set they imply. One digest may back many resolvers (every shard of a
/// ConcurrentResolver, or several cooperating clients) so any one of them
/// detecting a burst protects all — the cache analogue of the liveness
/// plane's suspicion digests. Internally synchronized; soft state only
/// (never snapshotted — a restored resolver re-learns it within one window).
class NegativeCacheDigest {
 public:
  explicit NegativeCacheDigest(NegativeCacheDefenseConfig config) : config_(config) {}

  [[nodiscard]] const NegativeCacheDefenseConfig& config() const noexcept { return config_; }

  /// True while `zone` is flagged at time `now`.
  [[nodiscard]] bool flagged(std::string_view zone, std::uint64_t now) const;

  /// Records one forwarded miss for `name` in `zone`; returns true when this
  /// miss crosses the distinct-name threshold and flags the zone.
  bool record_miss(std::string_view zone, std::string_view name, std::uint64_t now);

  /// Flag transitions so far (ResolverStats::zones_flagged).
  [[nodiscard]] std::uint64_t zones_flagged() const;

  /// The zone a name belongs to: the suffix after its first label
  /// ("h3.cb" -> "cb", "a.b.c" -> "b.c"), or the whole name when top-level.
  [[nodiscard]] static std::string_view zone_of(std::string_view name) noexcept;

 private:
  struct ZoneTrack {
    /// Distinct recently-missed names and their last forwarded-miss time;
    /// bounded by the threshold (cleared on every flag transition).
    std::map<std::string, std::uint64_t, std::less<>> recent;
    std::uint64_t flagged_until = 0;
  };

  NegativeCacheDefenseConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, ZoneTrack, std::less<>> zones_;
  std::uint64_t zones_flagged_ = 0;
};

struct ResolveResult {
  bool answered = false;
  bool from_cache = false;
  std::uint32_t hops = 0;  ///< 0 on a cache hit
  std::vector<store::Record> records;
};

/// The answer cache both resolvers share (single-threaded; a
/// ConcurrentResolver shard wraps one in a reader-writer lock). An ordered
/// name -> (expiry, records) map under a capacity bound, with the one copy
/// of the caching rules: answers age by their minimum record TTL, a lookup never
/// mutates, an overwrite never evicts, and a new name at capacity first
/// drops every expired entry, else the entry closest to expiry (ties go to
/// the smallest name). Ordered so snapshot rows are byte-deterministic.
/// Beside the map sits an index ordered by (expiry, name) that points at
/// each entry, so an eviction pops victims off its front in O(log n) each
/// instead of scanning the map.
class AnswerCache {
 public:
  explicit AnswerCache(std::size_t capacity) : capacity_(capacity) {}
  // The index points into the map, so a member-wise copy would point into
  // the source.
  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// The cached records for `name` while fresh at `now` (expiry is
  /// exclusive), else null. The pointer lives until the next mutation. When
  /// `stale` is given it is set to whether a stale entry for `name` is cached.
  [[nodiscard]] const std::vector<store::Record>* find(std::string_view name, std::uint64_t now,
                                                       bool* stale = nullptr) const;

  /// Drops `name` if it is cached and stale at `now` — the miss path's
  /// cleanup, which is not an eviction.
  void drop_expired(std::string_view name, std::uint64_t now);

  /// Caches `records` for `name` until `now` plus their minimum TTL; an
  /// answer without records gets a short negative-style TTL (60s) so
  /// existence checks still benefit.
  void insert(std::string_view name, std::uint64_t now, std::vector<store::Record> records);

  void clear() noexcept {
    by_expiry_.clear();
    entries_.clear();
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

  /// Snapshot rows [name, expires_at, [[type, value, ttl]...]] in name order.
  [[nodiscard]] snapshot::Json rows_json() const;
  /// Replaces the entries with `rows` (rows_json's layout), the capacity and
  /// the eviction count. Returns "" on success; on error nothing changes.
  [[nodiscard]] std::string restore(const snapshot::Json& rows, std::size_t capacity,
                                    std::uint64_t evictions);

 private:
  struct Entry {
    std::uint64_t expires_at = 0;
    std::vector<store::Record> records;
  };

  using Entries = std::map<std::string, Entry, std::less<>>;

  void evict_expired_or_earliest(std::uint64_t now);
  /// Adds the map entry `it` to the expiry index.
  void index(Entries::iterator it);

  Entries entries_;
  /// (expires_at, name) -> entry, for every entry; the name views the map
  /// key, which stays put for the life of its map node.
  std::map<std::pair<std::uint64_t, std::string_view>, Entries::iterator> by_expiry_;
  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
};

class Resolver {
 public:
  /// `capacity` bounds the number of cached names (LRU-ish eviction by
  /// earliest expiry). The system reference must outlive the resolver.
  explicit Resolver(HoursSystem& system, std::size_t capacity = 1024)
      : system_(system), cache_(capacity) {}

  /// Resolves `name` at client time `now` (seconds, monotone). Cached
  /// answers are served until their TTL expires.
  [[nodiscard]] ResolveResult resolve(std::string_view name, std::uint64_t now);

  /// Cache-only probe: returns the cached records if present and fresh,
  /// without touching the hierarchy. Does not update statistics.
  [[nodiscard]] const std::vector<store::Record>* peek(std::string_view name,
                                                       std::uint64_t now) const {
    return cache_.find(name, now);
  }

  /// Installs an answer obtained out of band (e.g. a comparison harness
  /// that routes through a different substrate).
  void insert(std::string_view name, std::uint64_t now, std::vector<store::Record> records) {
    cache_.insert(name, now, std::move(records));
  }

  // Backend-clock variants: `now` comes from system.now(), so cache TTLs
  // live on the same timeline as the query engine — on the event backend
  // that is simulated time, where FaultPlan windows and query deadlines are
  // scheduled.
  [[nodiscard]] ResolveResult resolve(std::string_view name);
  [[nodiscard]] const std::vector<store::Record>* peek(std::string_view name) const;
  void insert(std::string_view name, std::vector<store::Record> records);

  /// Arms the cache-busting defense with a private digest. Refused queries
  /// return unanswered without touching the hierarchy and count under
  /// stats().refusals.
  void set_defense(NegativeCacheDefenseConfig config) {
    defense_ = config.enabled ? std::make_shared<NegativeCacheDigest>(config) : nullptr;
  }
  /// Adopts a digest shared with other resolvers (null disarms).
  void share_defense(std::shared_ptr<NegativeCacheDigest> digest) {
    defense_ = std::move(digest);
  }
  [[nodiscard]] const std::shared_ptr<NegativeCacheDigest>& defense() const noexcept {
    return defense_;
  }

  [[nodiscard]] ResolverStats stats() const noexcept {
    ResolverStats s = stats_;
    s.evictions = cache_.evictions();
    if (defense_ != nullptr) s.zones_flagged = defense_->zones_flagged();
    return s;
  }
  void clear_cache() noexcept { cache_.clear(); }
  [[nodiscard]] std::size_t cached_names() const noexcept { return cache_.size(); }

  // -- snapshot ---------------------------------------------------------------
  /// Serializes the answer cache and statistics (docs/PROTOCOL.md appendix
  /// C, "resolver" layout). The HoursSystem reference is not captured: a
  /// restored resolver must be constructed over the restored system.
  [[nodiscard]] snapshot::Json to_json() const;
  /// Replaces cache and statistics with the saved state. Returns "" on
  /// success.
  [[nodiscard]] std::string from_json(const snapshot::Json& state);

 private:
  HoursSystem& system_;
  AnswerCache cache_;
  ResolverStats stats_;  ///< evictions live in cache_
  std::shared_ptr<NegativeCacheDigest> defense_;  ///< null = defense off
};

}  // namespace hours
