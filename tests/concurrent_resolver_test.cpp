// ConcurrentResolver: the sharded, reader-writer-locked answer cache in
// front of HoursSystem. Two kinds of coverage: (a) oracle equality — a
// single-threaded trace through ConcurrentResolver produces exactly the
// hit/miss/failure counts Resolver produces, and with one shard the same
// evictions and cached names even when capacity binds; (b) TSan-exercised
// concurrency — shared-lock readers racing inserts, evictions and TTL
// expiry (the `unit` label runs under the TSan CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "hours/concurrent_resolver.hpp"
#include "hours/resolver.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace hours {
namespace {

struct Fixture {
  HoursSystem sys;
  std::vector<std::string> names;  ///< every admitted host with a record
  Fixture() {
    for (const char* zone : {"red", "green", "blue", "cyan"}) {
      sys.admit(zone);
      for (const char* host : {"a", "b", "c"}) {
        const std::string n = std::string{host} + "." + zone;
        sys.admit(n);
        sys.add_record(n, store::Record{"A", "10.0.0." + std::string{host}, 100});
        names.push_back(n);
      }
    }
  }
};

TEST(ConcurrentResolver, ResolveCachesAndExpiresLikeResolver) {
  Fixture f;
  ConcurrentResolver resolver{f.sys};

  const auto first = resolver.resolve("a.red", 0);
  ASSERT_TRUE(first.answered);
  EXPECT_FALSE(first.from_cache);
  EXPECT_GT(first.hops, 0U);

  const auto second = resolver.resolve("a.red", 50);  // within ttl=100
  ASSERT_TRUE(second.answered);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.hops, 0U);
  EXPECT_EQ(second.records, first.records);

  const auto third = resolver.resolve("a.red", 100);  // expiry is exclusive
  ASSERT_TRUE(third.answered);
  EXPECT_FALSE(third.from_cache);

  EXPECT_EQ(resolver.stats().cache_hits, 1U);
  EXPECT_EQ(resolver.stats().cache_misses, 2U);
}

TEST(ConcurrentResolver, SingleThreadedTraceMatchesResolverOracle) {
  // Drive an identical pseudo-random trace (names, times, an outage window)
  // through Resolver and ConcurrentResolver. In the first input capacity
  // never binds, so the shard-local eviction difference is out of play. In
  // the second it binds, but one shard makes the victim choice global, so
  // evictions and the cached name count must agree as well.
  struct Input {
    std::size_t capacity;
    unsigned shards;
  };
  for (const Input input : {Input{1024, 4}, Input{4, 1}}) {
    SCOPED_TRACE(testing::Message() << "capacity=" << input.capacity
                                    << " shards=" << input.shards);
    Fixture oracle_fixture;
    Fixture subject_fixture;
    Resolver oracle{oracle_fixture.sys, input.capacity};
    ConcurrentResolver subject{subject_fixture.sys, input.capacity, input.shards};

    const auto drive = [&](std::uint64_t step, HoursSystem& sys,
                           const std::vector<std::string>& names,
                           auto&& resolve) {
      rng::Xoshiro256 g{rng::mix64(0xACE5, step)};
      if (step == 40) sys.set_alive("a.cyan", false);
      if (step == 120) sys.set_alive("a.cyan", true);
      const auto& name = names[g.below(names.size())];
      // Time advances slowly relative to the 100s TTL, then jumps past it
      // twice so expiry paths run.
      const std::uint64_t now = step + (step > 90 ? 200 : 0) + (step > 160 ? 400 : 0);
      resolve(name, now);
    };
    for (std::uint64_t step = 0; step < 220; ++step) {
      drive(step, oracle_fixture.sys, oracle_fixture.names,
            [&](const std::string& name, std::uint64_t now) { (void)oracle.resolve(name, now); });
      drive(step, subject_fixture.sys, subject_fixture.names,
            [&](const std::string& name, std::uint64_t now) { (void)subject.resolve(name, now); });
    }

    EXPECT_EQ(subject.stats().cache_hits, oracle.stats().cache_hits);
    EXPECT_EQ(subject.stats().cache_misses, oracle.stats().cache_misses);
    EXPECT_EQ(subject.stats().failures, oracle.stats().failures);
    EXPECT_EQ(subject.stats().evictions, oracle.stats().evictions);
    EXPECT_EQ(subject.cached_names(), oracle.cached_names());
    EXPECT_GT(subject.stats().cache_hits, 0U);  // the trace exercised every path
    EXPECT_GT(subject.stats().failures, 0U);
    if (input.capacity < oracle_fixture.names.size()) {
      EXPECT_GT(oracle.stats().evictions, 0U);
    } else {
      EXPECT_EQ(oracle.stats().evictions, 0U);
    }
  }
}

TEST(ConcurrentResolver, CachedNamesRespectsShardCapacityBound) {
  Fixture f;
  // capacity 6 over 3 shards -> per-shard cap 2, global bound 6.
  ConcurrentResolver resolver{f.sys, /*capacity=*/6, /*shard_count=*/3};
  for (int round = 0; round < 3; ++round) {
    for (const auto& name : f.names) {
      (void)resolver.resolve(name, static_cast<std::uint64_t>(round));
    }
  }
  EXPECT_LE(resolver.cached_names(), 6U);
  EXPECT_GT(resolver.stats().evictions, 0U);
}

TEST(ConcurrentResolver, EvictionPrefersExpiredThenEarliestExpiryPerShard) {
  Fixture f;
  // One shard so the policy is observable without hash bucketing.
  ConcurrentResolver resolver{f.sys, /*capacity=*/3, /*shard_count=*/1};
  resolver.insert("short", 0, {store::Record{"A", "1", 10}});
  resolver.insert("mid", 0, {store::Record{"A", "2", 50}});
  resolver.insert("long", 0, {store::Record{"A", "3", 100}});
  std::vector<store::Record> out;

  // At t=20 "short" is expired; inserting under pressure drops exactly it.
  resolver.insert("fresh", 20, {store::Record{"A", "4", 100}});
  EXPECT_EQ(resolver.cached_names(), 3U);
  EXPECT_EQ(resolver.stats().evictions, 1U);
  EXPECT_FALSE(resolver.peek("short", 20, &out));
  EXPECT_TRUE(resolver.peek("mid", 20, &out));
  EXPECT_TRUE(resolver.peek("long", 20, &out));

  // Nothing expired now: the entry closest to expiry ("mid") is the victim.
  resolver.insert("newest", 20, {store::Record{"A", "5", 100}});
  EXPECT_EQ(resolver.stats().evictions, 2U);
  EXPECT_FALSE(resolver.peek("mid", 20, &out));
  EXPECT_TRUE(resolver.peek("long", 20, &out));
  EXPECT_TRUE(resolver.peek("newest", 20, &out));
}

TEST(ConcurrentResolver, ConcurrentReadersDuringInsertsAndEvictions) {
  // Readers spin on peek/resolve while writer threads churn the cache with
  // inserts that force both TTL expiry sweeps and earliest-expiry eviction.
  // Correctness here is (a) no data race on a shard — TSan and ASan
  // enforce the memory side — and (b) every answered result carries the
  // records that were inserted for that name.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/16, /*shard_count=*/4};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> clock{0};
  std::atomic<std::uint64_t> answered{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      rng::Xoshiro256 g{rng::mix64(0x5EED, static_cast<std::uint64_t>(t))};
      std::vector<store::Record> out;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t now = clock.load(std::memory_order_relaxed);
        const auto& name = f.names[g.below(f.names.size())];
        if (resolver.peek(name, now, &out)) {
          ASSERT_FALSE(out.empty());
          ASSERT_EQ(out[0].type, "A");
          answered.fetch_add(1, std::memory_order_relaxed);
        }
        const auto result = resolver.resolve(name, now);
        if (result.answered) {
          ASSERT_EQ(result.records.size(), 1U);
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      rng::Xoshiro256 g{rng::mix64(0xF00D, static_cast<std::uint64_t>(t))};
      for (int i = 0; i < 2'000; ++i) {
        const std::uint64_t now = clock.fetch_add(1, std::memory_order_relaxed);
        // Short TTLs guarantee expiry sweeps; synthetic names guarantee
        // capacity pressure beyond the fixture's 12 hosts.
        const std::string name = "synthetic-" + std::to_string(g.below(64));
        resolver.insert(name, now,
                        {store::Record{"A", std::to_string(i), 1 + g.below(8)}});
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_GT(answered.load(), 0U);
  EXPECT_LE(resolver.cached_names(), 16U);
  EXPECT_GT(resolver.stats().evictions, 0U);
}

TEST(ConcurrentResolver, ConcurrentResolversAgreeOnRecords) {
  // Many threads resolving the same working set: every answered resolve
  // must return the one true record for its name, whether it was served
  // from the cache or from the (mutex-serialized) hierarchy.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/64, /*shard_count=*/8};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      rng::Xoshiro256 g{rng::mix64(0xBEEF, static_cast<std::uint64_t>(t))};
      for (int i = 0; i < 500; ++i) {
        const auto& name = f.names[g.below(f.names.size())];
        const auto result = resolver.resolve(name, static_cast<std::uint64_t>(i / 8));
        ASSERT_TRUE(result.answered) << name;
        ASSERT_EQ(result.records.size(), 1U) << name;
        // The record value encodes the host letter the fixture gave it.
        ASSERT_EQ(result.records[0].value, "10.0.0." + name.substr(0, 1)) << name;
        total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = resolver.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, total.load());
  EXPECT_EQ(stats.failures, 0U);
}

}  // namespace
}  // namespace hours
