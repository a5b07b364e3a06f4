#include "hours/resolver.hpp"

#include <algorithm>

namespace hours {

namespace {

/// Minimum TTL over an answer's records, or 60s for an empty answer. No
/// sentinel: a record whose TTL *is* 60 participates in the minimum like
/// any other value.
std::uint64_t answer_min_ttl(const std::vector<store::Record>& records) noexcept {
  std::uint64_t ttl = ~std::uint64_t{0};
  for (const auto& r : records) ttl = std::min<std::uint64_t>(ttl, r.ttl);
  return records.empty() ? 60 : ttl;
}

}  // namespace

std::string_view NegativeCacheDigest::zone_of(std::string_view name) noexcept {
  const auto dot = name.find('.');
  return dot == std::string_view::npos ? name : name.substr(dot + 1);
}

bool NegativeCacheDigest::flagged(std::string_view zone, std::uint64_t now) const {
  std::lock_guard<std::mutex> lock{mutex_};
  const auto it = zones_.find(zone);
  return it != zones_.end() && it->second.flagged_until > now;
}

bool NegativeCacheDigest::record_miss(std::string_view zone, std::string_view name,
                                      std::uint64_t now) {
  std::lock_guard<std::mutex> lock{mutex_};
  ZoneTrack& track = zones_[std::string{zone}];
  for (auto it = track.recent.begin(); it != track.recent.end();) {
    if (it->second + config_.window <= now) {
      it = track.recent.erase(it);
    } else {
      ++it;
    }
  }
  track.recent[std::string{name}] = now;
  if (track.recent.size() < config_.distinct_miss_threshold) return false;
  track.flagged_until = now + config_.flag_ttl;
  track.recent.clear();
  ++zones_flagged_;
  return true;
}

std::uint64_t NegativeCacheDigest::zones_flagged() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return zones_flagged_;
}

const std::vector<store::Record>* AnswerCache::find(std::string_view name, std::uint64_t now,
                                                   bool* stale) const {
  const auto it = entries_.find(name);
  const bool expired = it != entries_.end() && it->second.expires_at <= now;
  if (stale != nullptr) *stale = expired;
  if (it == entries_.end() || expired) return nullptr;
  return &it->second.records;
}

void AnswerCache::drop_expired(std::string_view name, std::uint64_t now) {
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.expires_at > now) return;
  by_expiry_.erase({it->second.expires_at, it->first});
  entries_.erase(it);
}

void AnswerCache::insert(std::string_view name, std::uint64_t now,
                         std::vector<store::Record> records) {
  const std::uint64_t expires_at = now + answer_min_ttl(records);
  if (const auto it = entries_.find(name); it != entries_.end()) {
    // An overwrite never evicts; it only moves the entry in the index.
    by_expiry_.erase({it->second.expires_at, it->first});
    it->second = Entry{expires_at, std::move(records)};
    index(it);
    return;
  }
  if (entries_.size() >= capacity_) evict_expired_or_earliest(now);
  index(entries_.emplace(std::string{name}, Entry{expires_at, std::move(records)}).first);
}

void AnswerCache::index(Entries::iterator it) {
  by_expiry_.emplace(std::pair{it->second.expires_at, std::string_view{it->first}}, it);
}

void AnswerCache::evict_expired_or_earliest(std::uint64_t now) {
  // Drop everything expired; if nothing is, drop the entry closest to
  // expiry. Both sit at the front of the (expiry, name) index.
  if (by_expiry_.empty()) return;
  const bool any_expired = by_expiry_.begin()->first.first <= now;
  do {
    const auto victim = by_expiry_.begin()->second;
    by_expiry_.erase(by_expiry_.begin());
    entries_.erase(victim);
    ++evictions_;
  } while (any_expired && !by_expiry_.empty() && by_expiry_.begin()->first.first <= now);
}

snapshot::Json AnswerCache::rows_json() const {
  using snapshot::Json;
  Json::Array rows;
  for (const auto& [name, entry] : entries_) {
    Json::Array records;
    for (const auto& r : entry.records) records.emplace_back(Json::Array{r.type, r.value, r.ttl});
    rows.emplace_back(Json::Array{name, entry.expires_at, std::move(records)});
  }
  return rows;
}

std::string AnswerCache::restore(const snapshot::Json& rows, std::size_t capacity,
                                 std::uint64_t evictions) {
  if (!rows.is_array()) return "resolver.cache malformed";
  Entries restored;
  for (const auto& raw : rows.items()) {
    if (!raw.is_array() || raw.items().size() != 3 || !raw.items()[0].is_string() ||
        !raw.items()[1].is_u64() || !raw.items()[2].is_array()) {
      return "resolver.cache entry malformed";
    }
    Entry entry;
    entry.expires_at = raw.items()[1].as_u64();
    for (const auto& fields : raw.items()[2].items()) {
      if (!fields.is_array() || fields.items().size() != 3 || !fields.items()[0].is_string() ||
          !fields.items()[1].is_string() || !fields.items()[2].is_u64()) {
        return "resolver.cache record malformed";
      }
      store::Record record;
      record.type = fields.items()[0].as_string();
      record.value = fields.items()[1].as_string();
      record.ttl = fields.items()[2].as_u64();
      entry.records.push_back(std::move(record));
    }
    restored[raw.items()[0].as_string()] = std::move(entry);
  }
  entries_ = std::move(restored);
  by_expiry_.clear();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) index(it);
  capacity_ = capacity;
  evictions_ = evictions;
  return "";
}

ResolveResult Resolver::resolve(std::string_view name) { return resolve(name, system_.now()); }

const std::vector<store::Record>* Resolver::peek(std::string_view name) const {
  return peek(name, system_.now());
}

void Resolver::insert(std::string_view name, std::vector<store::Record> records) {
  insert(name, system_.now(), std::move(records));
}

ResolveResult Resolver::resolve(std::string_view name, std::uint64_t now) {
  ResolveResult result;
  if (const auto* cached = cache_.find(name, now)) {
    ++stats_.cache_hits;
    result.answered = true;
    result.from_cache = true;
    result.records = *cached;
    return result;
  }
  cache_.drop_expired(name, now);

  // Defense gate on the miss path only: cached answers for a flagged zone
  // keep serving (legitimate hot names stay warm); what a flag denies is the
  // authoritative lookup + eviction the attacker is really after.
  if (defense_ != nullptr && defense_->config().enabled) {
    const auto zone = NegativeCacheDigest::zone_of(name);
    if (defense_->flagged(zone, now)) {
      ++stats_.refusals;
      return result;
    }
  }

  const auto looked_up = system_.lookup(name);
  result.hops = looked_up.query.hops;
  if (defense_ != nullptr && defense_->config().enabled) {
    (void)defense_->record_miss(NegativeCacheDigest::zone_of(name), name, now);
  }
  if (!looked_up.query.delivered) {
    ++stats_.failures;
    return result;
  }

  ++stats_.cache_misses;
  result.answered = true;
  result.records = looked_up.records;
  cache_.insert(name, now, result.records);
  return result;
}

snapshot::Json Resolver::to_json() const {
  using snapshot::Json;
  Json out = Json::object();
  out["capacity"] = Json(static_cast<std::uint64_t>(cache_.capacity()));
  out["cache"] = cache_.rows_json();
  out["stats"] =
      Json::Array{stats_.cache_hits, stats_.cache_misses, stats_.failures, cache_.evictions()};
  return out;
}

std::string Resolver::from_json(const snapshot::Json& state) {
  using snapshot::Json;
  const Json* capacity = state.find("capacity");
  const Json* cache = state.find("cache");
  const Json* stats = state.find("stats");
  if (capacity == nullptr || !capacity->is_u64() || cache == nullptr || stats == nullptr ||
      !stats->is_array() || stats->items().size() != 4) {
    return "resolver state malformed";
  }
  for (const auto& field : stats->items()) {
    if (!field.is_u64()) return "resolver.stats malformed";
  }
  if (auto error = cache_.restore(*cache, static_cast<std::size_t>(capacity->as_u64()),
                                  stats->items()[3].as_u64());
      !error.empty()) {
    return error;
  }
  stats_.cache_hits = stats->items()[0].as_u64();
  stats_.cache_misses = stats->items()[1].as_u64();
  stats_.failures = stats->items()[2].as_u64();
  return "";
}

}  // namespace hours
