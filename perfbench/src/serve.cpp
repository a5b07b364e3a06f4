// serve_hot and serve_miss: the ConcurrentResolver serving tier in front of
// HoursSystem on the graph backend.
//
// Both build a zones x hosts hierarchy with one A record per host, then
// drive the resolver from client threads:
//   * closed loop (end-to-end metrics): `threads` clients each send the next
//     resolve when the previous one returns. Throughput is answered resolves
//     per wall second and latency is the time of one resolve call; each is
//     the median over nine sub-phases, after the cache has filled.
//   * open loop (traced runs only): each of threads/2 clients follows its
//     own Poisson schedule at a share of a fixed rate, and latency is timed
//     from the due time, so a stall also charges the requests queued behind
//     it. The phase is cut into windows of at least 2,000 resolves (at most
//     50); p50/p99 are the medians of the windows' values. On a shared host
//     these figures swing with the neighbours' load, which is why they are
//     per-layer diagnostics rather than bounded end-to-end metrics.
// Every answered resolve is checked against the record the benchmark
// attached to that name.
#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "hours/concurrent_resolver.hpp"
#include "hours/hours.hpp"
#include "setup.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kNow = 1;         // resolver clock; records never expire
constexpr std::size_t kStreamLength = 1U << 20;
constexpr unsigned kClosedSubphases = 9;
constexpr int kMaxWarmRounds = 50;  // of 0.1 s each
constexpr std::size_t kMaxWindows = 50;          // open-loop windows per phase
constexpr std::size_t kSamplesPerWindow = 2'000;  // at least, so each p99 has 20 beyond it
constexpr std::uint64_t kHitSampleEvery = 64;  // traced runs keep 1 in 64 hit spans
constexpr std::size_t kMissSpanCap = 200'000;  // per client thread
constexpr std::size_t kReplayCap = 20'000;     // misses replayed per layer pass
constexpr double kUnanswered = 1e30;           // latency of an unanswered resolve, µs

struct ServeSpec {
  std::size_t zones = 0;
  std::size_t hosts = 0;
  std::size_t capacity = 0;  ///< 0: twice the name count
  unsigned shards = 16;
  double zipf = 0.0;  ///< 0: uniform names
  std::size_t strikes = 0;
  std::uint32_t strike_siblings = 0;
  bool warm = false;  ///< one resolve per name during set-up
  std::uint64_t latency_every = 1;  ///< the closed loop times 1 in this many resolves
};

/// A resolve that missed: the name, and the request id of its span.
struct Miss {
  std::uint32_t index = 0;
  std::uint64_t request = 0;
};

/// Client state shared by the phases.
struct Clients {
  const Universe* universe = nullptr;
  std::vector<std::vector<std::uint32_t>> streams;  ///< name index per request
  std::vector<std::size_t> cursor;
  std::uint64_t latency_every = 1;
  bool inject_bad_answer = false;
};

Clients make_clients(const Universe& universe, const ServeSpec& spec, const Options& options) {
  Clients clients;
  clients.universe = &universe;
  const std::size_t n = universe.hosts.size();
  // Popularity rank -> name: a seeded shuffle, so hot names spread over zones.
  std::vector<std::uint32_t> by_rank(n);
  for (std::size_t i = 0; i < n; ++i) by_rank[i] = static_cast<std::uint32_t>(i);
  Rng shuffle{stream_seed(options.seed, 50)};
  for (std::size_t i = n; i > 1; --i) std::swap(by_rank[i - 1], by_rank[shuffle.below(i)]);
  std::unique_ptr<Zipf> zipf;
  if (spec.zipf > 0.0) zipf = std::make_unique<Zipf>(n, spec.zipf);
  for (unsigned t = 0; t < options.threads; ++t) {
    Rng rng{stream_seed(options.seed, 100 + t)};
    std::vector<std::uint32_t> stream(kStreamLength);
    for (auto& index : stream) {
      index = zipf ? by_rank[zipf->sample(rng)] : static_cast<std::uint32_t>(rng.below(n));
    }
    clients.streams.push_back(std::move(stream));
  }
  clients.cursor.assign(options.threads, 0);
  clients.latency_every = spec.latency_every;
  clients.inject_bad_answer = options.inject == "answer";
  return clients;
}

/// Per-thread tallies of one phase.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t wrong = 0;
  std::string first_wrong;
};

/// Resolves `index` once and checks the answer.
hours::ResolveResult resolve_checked(hours::ConcurrentResolver& resolver, const Universe& u,
                                     std::uint32_t index, bool corrupt, Tally& tally) {
  auto result = resolver.resolve(u.hosts[index], kNow);
  ++tally.attempted;
  if (!result.answered) return result;
  ++tally.answered;
  const std::string& expected = u.answers[corrupt ? (index + 1) % u.answers.size() : index];
  if (result.records.size() != 1 || result.records[0].type != "A" ||
      result.records[0].value != expected) {
    if (tally.wrong++ == 0) tally.first_wrong = u.hosts[index];
  }
  return result;
}

void merge(const std::vector<Tally>& tallies, Report& report) {
  for (const auto& t : tallies) {
    report.attempted += t.attempted;
    report.failed += t.attempted - t.answered;
    if (t.wrong > 0) {
      report.fail(std::to_string(t.wrong) + " resolves returned a wrong record (first: " +
                  t.first_wrong + ")");
    }
  }
}

/// Spins until every thread has arrived, so all clients start together.
class StartLine {
 public:
  explicit StartLine(unsigned parties) : waiting_(parties) {}
  void arrive_and_wait() {
    waiting_.fetch_sub(1);
    while (waiting_.load() > 0) std::this_thread::yield();
  }

 private:
  std::atomic<int> waiting_;
};

struct ClosedResult {
  double wall_s = 0.0;
  std::uint64_t answered = 0;
  std::vector<double> latency_us;  ///< 1 in Clients::latency_every resolves
};

/// One closed-loop phase of `seconds`. With `spans`, records resolve spans
/// (every miss, 1 in kHitSampleEvery hits) and, with `missed`, the index of
/// every name that missed.
ClosedResult closed_loop(hours::ConcurrentResolver& resolver, Clients& clients,
                         unsigned threads, double seconds, Report& report, SpanLog* spans,
                         std::vector<std::vector<Miss>>* missed) {
  std::atomic<bool> stop{false};
  StartLine start{threads + 1};
  std::vector<Tally> tallies(threads);
  std::vector<std::vector<double>> latency(threads);
  std::vector<SpanLog::Buffer*> buffers(threads, nullptr);
  if (spans != nullptr) {
    for (auto& b : buffers) b = &spans->buffer();
  }
  if (missed != nullptr) missed->resize(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const auto& stream = clients.streams[t];
      std::size_t cursor = clients.cursor[t];
      Tally& tally = tallies[t];
      SpanLog::Buffer* buffer = buffers[t];
      std::size_t miss_spans = 0;
      bool corrupt = clients.inject_bad_answer && t == 0;
      start.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t index = stream[cursor];
        cursor = (cursor + 1) % stream.size();
        if (buffer == nullptr && tally.attempted % clients.latency_every != 0) {
          (void)resolve_checked(resolver, *clients.universe, index, corrupt, tally);
        } else if (buffer == nullptr) {
          const std::uint64_t begin = now_ns();
          const auto result =
              resolve_checked(resolver, *clients.universe, index, corrupt, tally);
          const std::uint64_t end = now_ns();
          latency[t].push_back(result.answered ? static_cast<double>(end - begin) / 1e3
                                               : static_cast<float>(kUnanswered));
        } else {
          const std::uint64_t begin = now_ns();
          const auto result =
              resolve_checked(resolver, *clients.universe, index, corrupt, tally);
          const std::uint64_t end = now_ns();
          const std::uint64_t request = (std::uint64_t{t} << 48) | tally.attempted;
          if (!result.from_cache) {
            if (miss_spans++ < kMissSpanCap) {
              buffer->add("resolve", "miss", begin, end, request);
            }
            if (missed != nullptr) (*missed)[t].push_back(Miss{index, request});
          } else if (tally.attempted % kHitSampleEvery == 0) {
            buffer->add("resolve", "hit", begin, end, request);
          }
        }
        corrupt = false;
      }
      clients.cursor[t] = cursor;
    });
  }
  start.arrive_and_wait();
  const std::uint64_t began = now_ns();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& thread : pool) thread.join();
  ClosedResult result;
  result.wall_s = static_cast<double>(now_ns() - began) / 1e9;
  for (const auto& t : tallies) result.answered += t.answered;
  for (const auto& l : latency) {
    result.latency_us.insert(result.latency_us.end(), l.begin(), l.end());
  }
  merge(tallies, report);
  return result;
}

struct ClosedSummary {
  double qps = 0.0;  ///< answered resolves per wall second
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Medians over kClosedSubphases closed-loop sub-phases.
ClosedSummary closed_phases(hours::ConcurrentResolver& resolver, Clients& clients,
                            unsigned threads, double seconds, Report& report) {
  std::vector<double> qps, p50, p99;
  for (unsigned i = 0; i < kClosedSubphases; ++i) {
    auto r = closed_loop(resolver, clients, threads, seconds / kClosedSubphases, report,
                         nullptr, nullptr);
    qps.push_back(static_cast<double>(r.answered) / r.wall_s);
    p50.push_back(quantile(r.latency_us, 0.5));
    p99.push_back(quantile(r.latency_us, 0.99));
  }
  return ClosedSummary{median(qps), median(p50), median(p99)};
}

struct OpenResult {
  double latency_p50_us = 0.0;  ///< median over windows
  double latency_p99_us = 0.0;
  double lag_p50_us = 0.0;  ///< generator lateness, median over windows
  double lag_p99_us = 0.0;
  std::uint64_t samples = 0;
};

/// Open-loop phase at `rate` resolves/s for `seconds`, spread over half the
/// client threads so the spinning generators leave the scheduler room and
/// the latency is the resolver's, not a preempted client's. An unanswered
/// resolve counts as missing every latency limit.
OpenResult open_loop(hours::ConcurrentResolver& resolver, Clients& clients, unsigned threads,
                     double rate, double seconds, std::uint64_t seed, Report& report) {
  threads = std::max(1U, threads / 2);
  const double mean_gap_ns = 1e9 * threads / rate;
  // Short windows: a host stall then spoils a few windows' tails, and the
  // median over windows reports the tail of the undisturbed ones.
  const std::size_t windows = std::clamp<std::size_t>(
      static_cast<std::size_t>(rate * seconds) / kSamplesPerWindow, 1, kMaxWindows);
  const double window_ns = seconds * 1e9 / static_cast<double>(windows);
  struct Samples {
    std::vector<std::vector<float>> latency;
    std::vector<std::vector<float>> lag;
  };
  std::vector<Samples> samples(threads);
  std::vector<Tally> tallies(threads);
  StartLine start{threads + 1};
  std::atomic<std::uint64_t> origin{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const auto& stream = clients.streams[t];
      std::size_t cursor = clients.cursor[t];
      Rng gaps{stream_seed(seed, 200 + t)};
      Samples& mine = samples[t];
      mine.latency.resize(windows);
      mine.lag.resize(windows);
      const auto expected = static_cast<std::size_t>(seconds * rate / threads * 1.1) + 16;
      for (std::size_t w = 0; w < windows; ++w) {
        mine.latency[w].reserve(expected / windows);
        mine.lag[w].reserve(expected / windows);
      }
      start.arrive_and_wait();
      const std::uint64_t t0 = origin.load();
      const auto end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
      double due = static_cast<double>(t0) + gaps.exponential(mean_gap_ns);
      while (due < static_cast<double>(end)) {
        const auto due_ns = static_cast<std::uint64_t>(due);
        std::uint64_t sent = now_ns();
        while (sent < due_ns) sent = now_ns();
        const std::uint32_t index = stream[cursor];
        cursor = (cursor + 1) % stream.size();
        const auto result =
            resolve_checked(resolver, *clients.universe, index, false, tallies[t]);
        const std::uint64_t done = now_ns();
        const auto w = std::min<std::size_t>(
            static_cast<std::size_t>(static_cast<double>(due_ns - t0) / window_ns),
            windows - 1);
        // Unanswered: a latency above any limit.
        mine.latency[w].push_back(result.answered ? static_cast<float>(done - due_ns) / 1e3F
                                                  : static_cast<float>(kUnanswered));
        mine.lag[w].push_back(static_cast<float>(sent - due_ns) / 1e3F);
        due += gaps.exponential(mean_gap_ns);
      }
      clients.cursor[t] = cursor;
    });
  }
  origin.store(now_ns() + 1'000'000);  // 1 ms for the clients to reach the line
  start.arrive_and_wait();
  for (auto& thread : pool) thread.join();
  merge(tallies, report);

  std::vector<double> p50, p99, lag50, lag99;
  OpenResult out;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> latency, lag;
    for (auto& s : samples) {
      latency.insert(latency.end(), s.latency[w].begin(), s.latency[w].end());
      lag.insert(lag.end(), s.lag[w].begin(), s.lag[w].end());
      s.latency[w] = {};
      s.lag[w] = {};
    }
    out.samples += latency.size();
    p50.push_back(quantile(latency, 0.5));
    p99.push_back(quantile(latency, 0.99));
    lag50.push_back(quantile(lag, 0.5));
    lag99.push_back(quantile(lag, 0.99));
  }
  out.latency_p50_us = median(p50);
  out.latency_p99_us = median(p99);
  out.lag_p50_us = median(lag50);
  out.lag_p99_us = median(lag99);
  return out;
}

/// Replays the recorded miss names through the two layers a miss pays for,
/// one pass each: HoursSystem::lookup, then ConcurrentResolver::insert on a
/// fresh resolver of the same capacity. Splits resolver.miss from outside.
void replay_misses(std::uint64_t seed, hours::HoursSystem& system, const Universe& universe,
                   std::size_t capacity, unsigned shards,
                   const std::vector<std::vector<Miss>>& missed, SpanLog& spans,
                   double miss_p50_us, Report& report) {
  // Interleave the clients' miss lists, then cap the replay length.
  std::vector<Miss> names;
  for (std::size_t i = 0; names.size() < kReplayCap; ++i) {
    bool any = false;
    for (const auto& list : missed) {
      if (i < list.size() && names.size() < kReplayCap) {
        names.push_back(list[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  SpanLog::Buffer& buffer = spans.buffer();

  // Each replayed span carries the request id of the resolve that missed.
  std::uint64_t hops = 0, overlay = 0, backward = 0;
  std::vector<std::vector<hours::store::Record>> answers;
  answers.reserve(names.size());
  buffer.open("replay.lookup");
  for (const auto& miss : names) {
    const std::uint64_t begin = now_ns();
    auto result = system.lookup(universe.hosts[miss.index]);
    buffer.add("lookup", result.query.delivered ? "delivered" : "failed", begin, now_ns(),
               miss.request);
    hops += result.query.hops;
    overlay += result.query.overlay_hops;
    backward += result.query.backward_steps;
    answers.push_back(std::move(result.records));
  }
  buffer.close();

  // The fresh resolver is first filled (untimed) to capacity, so the timed
  // inserts evict as they did in the run.
  hours::ConcurrentResolver fresh{system, capacity, shards};
  Rng fill{stream_seed(seed, 70)};
  for (std::size_t i = 0; i < capacity; ++i) {
    const std::size_t index = fill.below(universe.hosts.size());
    fresh.insert(universe.hosts[index], kNow,
                 {hours::store::Record{"A", universe.answers[index], kRecordTtl}});
  }
  buffer.open("replay.insert");
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::uint64_t begin = now_ns();
    fresh.insert(universe.hosts[names[i].index], kNow, answers[i]);
    buffer.add("insert", "", begin, now_ns(), names[i].request);
  }
  buffer.close();

  auto lookup = spans.durations_us("lookup");
  auto insert = spans.durations_us("insert");
  const double n = names.empty() ? 1.0 : static_cast<double>(names.size());
  const double lookup_p50 = quantile(lookup, 0.5);
  const double insert_p50 = quantile(insert, 0.5);
  report.metric("facade.lookup.p50_us", lookup_p50, "us");
  report.metric("facade.lookup.p99_us", quantile(lookup, 0.99), "us");
  report.metric("route.hops_mean", static_cast<double>(hops) / n, "hops");
  report.metric("route.overlay_hops_mean", static_cast<double>(overlay) / n, "hops");
  report.metric("route.backward_steps_mean", static_cast<double>(backward) / n, "steps");
  report.metric("route.us_per_hop",
                hops == 0 ? 0.0 : spans.busy_s("lookup") * 1e6 / static_cast<double>(hops),
                "us");
  report.metric("resolver.insert.p50_us", insert_p50, "us");
  report.metric("resolver.authority_wait_us", miss_p50_us - lookup_p50 - insert_p50, "us");
  report.info("replayed_misses", std::to_string(names.size()));
}

struct Served {
  std::unique_ptr<hours::HoursSystem> system;
  std::unique_ptr<hours::ConcurrentResolver> resolver;
};

/// Set-up: hierarchy, records, strikes, resolver and (optionally) the warm
/// fill, with spans when `buffer` is set.
Served set_up(const Universe& universe, const ServeSpec& spec, const Options& options,
              SpanLog::Buffer* buffer) {
  Served s;
  s.system = std::make_unique<hours::HoursSystem>();
  build_hierarchy(*s.system, universe, /*records=*/true, buffer);
  strike_zones(*s.system, universe, spec.strikes, spec.strike_siblings,
               stream_seed(options.seed, 60), buffer);
  const std::size_t capacity = spec.capacity != 0 ? spec.capacity : 2 * universe.hosts.size();
  s.resolver = std::make_unique<hours::ConcurrentResolver>(*s.system, capacity, spec.shards);
  if (spec.warm) {
    for (std::size_t i = 0; i < universe.hosts.size(); ++i) {
      const std::uint64_t begin = buffer != nullptr ? now_ns() : 0;
      const auto result = s.resolver->resolve(universe.hosts[i], kNow);
      if (buffer != nullptr) buffer->add("warm", "miss", begin, now_ns());
      if (!result.answered) throw std::runtime_error("warm fill left " + universe.hosts[i]);
    }
  }
  return s;
}

void run_serve(const ServeSpec& spec, const Options& options, Report& report) {
  if (options.open_rate <= 0.0) throw std::invalid_argument("--open-rate is required");
  const Universe universe = make_universe(spec.zones, spec.hosts, options.seed);
  Clients clients = make_clients(universe, spec, options);
  SpanLog spans{options.trace};

  // Several set-ups; the median is setup_s and the last one serves traffic.
  std::vector<double> setup;
  Served served;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    served = Served{};
    const bool last = rep + 1 == kSetupReps;
    SpanLog::Buffer* buffer = last && spans.enabled() ? &spans.buffer() : nullptr;
    if (buffer != nullptr) buffer->open("setup");
    const std::uint64_t begin = now_ns();
    served = set_up(universe, spec, options, buffer);
    setup.push_back(static_cast<double>(now_ns() - begin) / 1e9);
    if (buffer != nullptr) buffer->close();
  }
  auto& resolver = *served.resolver;
  const unsigned threads = options.threads;
  const double s = options.seconds;
  report.info("names", std::to_string(universe.hosts.size()));
  const auto down = down_zones(*served.system, universe);
  report.info("down_zones", std::to_string(std::count(down.begin(), down.end(), true)));
  report.metric("setup_s", median(setup), "s");

  // Untimed closed loop until the cache is full, so every timed insert
  // evicts as in steady state (bounded, for a cache that never fills).
  const std::size_t capacity = spec.capacity != 0 ? spec.capacity : 2 * universe.hosts.size();
  for (int round = 0; round < kMaxWarmRounds; ++round) {
    (void)closed_loop(resolver, clients, threads, 0.1, report, nullptr, nullptr);
    if (resolver.cached_names() >= capacity || spec.warm) break;
  }
  report.info("cached_names", std::to_string(resolver.cached_names()));

  if (!options.trace) {
    const ClosedSummary closed = closed_phases(resolver, clients, threads, 0.95 * s, report);
    report.metric("throughput_qps", closed.qps, "1/s");
    report.metric("latency_p50_us", closed.p50_us, "us");
    report.metric("latency_p99_us", closed.p99_us, "us");
  } else {
    const hours::ResolverStats before = resolver.stats();
    const auto plain =
        closed_loop(resolver, clients, threads, 0.25 * s, report, nullptr, nullptr);
    std::vector<std::vector<Miss>> missed;
    const auto traced =
        closed_loop(resolver, clients, threads, 0.25 * s, report, &spans, &missed);
    const hours::ResolverStats after = resolver.stats();
    const OpenResult open = open_loop(resolver, clients, threads, options.open_rate, 0.4 * s,
                                      options.seed, report);
    const double plain_qps = static_cast<double>(plain.answered) / plain.wall_s;
    const double traced_qps = static_cast<double>(traced.answered) / traced.wall_s;
    report.metric("trace.overhead_ratio", traced_qps / plain_qps, "ratio");
    report.metric("open_loop.latency_p50_us", open.latency_p50_us, "us");
    report.metric("open_loop.latency_p99_us", open.latency_p99_us, "us");
    report.metric("generator.lag_p50_us", open.lag_p50_us, "us");
    report.metric("generator.lag_p99_us", open.lag_p99_us, "us");
    report.info("open_loop_rate_qps", std::to_string(options.open_rate));
    report.info("open_loop_samples", std::to_string(open.samples));
    const auto hits = after.cache_hits - before.cache_hits;
    const auto total = hits + (after.cache_misses - before.cache_misses) +
                       (after.failures - before.failures);
    report.metric("resolver.hit_ratio",
                  total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total),
                  "ratio");
    auto hit = spans.durations_us("resolve", "hit");
    auto miss = spans.durations_us("resolve", "miss");
    report.metric("resolver.hit.p50_us", quantile(hit, 0.5), "us");
    report.metric("resolver.hit.p99_us", quantile(hit, 0.99), "us");
    report.metric("resolver.miss.p50_us", quantile(miss, 0.5), "us");
    report.metric("resolver.miss.p99_us", quantile(miss, 0.99), "us");
    report_setup_spans(spans, report);
    const double warm_busy = spans.busy_s("warm");
    report.metric("resolver.warm.busy_s", warm_busy, "s");
    const double names = static_cast<double>(universe.hosts.size());
    report.metric("resolver.warm.us_per_insert", spec.warm ? warm_busy * 1e6 / names : 0.0,
                  "us");
    if (!spec.warm) {
      replay_misses(options.seed, *served.system, universe, spec.capacity, spec.shards, missed,
                    spans, quantile(miss, 0.5), report);
    }
  }
  const hours::ResolverStats stats = resolver.stats();
  report.metric("resolver.evictions", static_cast<double>(stats.evictions), "count");
  report.metric("resolver.failures", static_cast<double>(stats.failures), "count");
  report.metric("answered_ratio",
                report.attempted == 0 ? 0.0
                                      : static_cast<double>(report.attempted - report.failed) /
                                            static_cast<double>(report.attempted),
                "ratio");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  if (options.trace && !options.spans_path.empty() && !spans.write_jsonl(options.spans_path)) {
    report.fail("cannot write spans to " + options.spans_path);
  }
}

}  // namespace

void run_serve_hot(const Options& options, Report& report) {
  ServeSpec spec;
  spec.zones = 200;
  spec.hosts = 100;
  spec.zipf = 0.9;
  spec.warm = true;
  spec.latency_every = 64;
  run_serve(spec, options, report);
}

void run_serve_miss(const Options& options, Report& report) {
  ServeSpec spec;
  spec.zones = 1'000;
  spec.hosts = 100;
  spec.capacity = 8'192;
  spec.strikes = 10;          // 10 x (target + 9 ring neighbours) = 10% of zones
  spec.strike_siblings = 9;
  run_serve(spec, options, report);
}

}  // namespace perfbench
