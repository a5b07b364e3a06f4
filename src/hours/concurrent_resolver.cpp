#include "hours/concurrent_resolver.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace hours {

namespace {

/// FNV-1a — stable across platforms, so shard assignment (and therefore
/// shard-local eviction behavior) is reproducible.
std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

ConcurrentResolver::ConcurrentResolver(HoursSystem& system, std::size_t capacity,
                                       unsigned shard_count)
    : system_(system) {
  HOURS_EXPECTS(capacity > 0);
  HOURS_EXPECTS(shard_count > 0);
  const std::size_t shard_capacity = (capacity + shard_count - 1) / shard_count;
  shards_.reserve(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(shard_capacity));
  }
}

ConcurrentResolver::Shard& ConcurrentResolver::shard_of(std::string_view name) const {
  return *shards_[fnv1a(name) % shards_.size()];
}

bool ConcurrentResolver::probe(const Shard& shard, std::string_view name, std::uint64_t now,
                               std::vector<store::Record>* out, bool* stale) {
  std::shared_lock lock{shard.mutex};
  const auto* records = shard.cache.find(name, now, stale);
  if (records == nullptr) return false;
  if (out != nullptr) *out = *records;  // copy while the lock pins the entry
  return true;
}

ResolveResult ConcurrentResolver::resolve(std::string_view name, std::uint64_t now) {
  ResolveResult result;
  Shard& shard = shard_of(name);
  bool stale = false;
  if (probe(shard, name, now, &result.records, &stale)) {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    result.answered = true;
    result.from_cache = true;
    return result;
  }
  if (stale) {  // only a stale entry needs the exclusive lock
    std::unique_lock lock{shard.mutex};
    shard.cache.drop_expired(name, now);
  }

  // Defense gate before the authority mutex: a refused query must not even
  // contend for the single-consumer hierarchy path — starving the authority
  // of attacker traffic is the point.
  if (defense_ != nullptr && defense_->config().enabled &&
      defense_->flagged(NegativeCacheDigest::zone_of(name), now)) {
    shard.refusals.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  std::lock_guard<std::mutex> lock{system_mutex_};
  // Double-check: a concurrent miss on the same name may have answered and
  // inserted while we waited for the authority mutex.
  if (probe(shard, name, now, &result.records)) {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    result.answered = true;
    result.from_cache = true;
    return result;
  }
  const auto looked_up = system_.lookup(name);
  result.hops = looked_up.query.hops;
  if (defense_ != nullptr && defense_->config().enabled) {
    (void)defense_->record_miss(NegativeCacheDigest::zone_of(name), name, now);
  }
  if (!looked_up.query.delivered) {
    shard.failures.fetch_add(1, std::memory_order_relaxed);
    return result;
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  result.answered = true;
  result.records = looked_up.records;
  insert(name, now, result.records);
  return result;
}

bool ConcurrentResolver::peek(std::string_view name, std::uint64_t now,
                              std::vector<store::Record>* out) const {
  return probe(shard_of(name), name, now, out);
}

void ConcurrentResolver::insert(std::string_view name, std::uint64_t now,
                                std::vector<store::Record> records) {
  Shard& shard = shard_of(name);
  std::unique_lock lock{shard.mutex};
  shard.cache.insert(name, now, std::move(records));
}

ResolverStats ConcurrentResolver::stats() const {
  ResolverStats total;
  for (const auto& shard : shards_) {
    total.cache_hits += shard->hits.load(std::memory_order_relaxed);
    total.cache_misses += shard->misses.load(std::memory_order_relaxed);
    total.failures += shard->failures.load(std::memory_order_relaxed);
    total.refusals += shard->refusals.load(std::memory_order_relaxed);
    std::shared_lock lock{shard->mutex};
    total.evictions += shard->cache.evictions();
  }
  if (defense_ != nullptr) total.zones_flagged = defense_->zones_flagged();
  return total;
}

std::size_t ConcurrentResolver::cached_names() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock{shard->mutex};
    total += shard->cache.size();
  }
  return total;
}

}  // namespace hours
