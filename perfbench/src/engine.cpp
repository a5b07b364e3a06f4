// engine_churn: the message-level engine behind the HoursSystem facade.
//
// A 1,000-zone x 100-host hierarchy runs on use_event_backend() with gossip
// liveness. A standing neighbour strike takes some zones down for the whole
// run, and a churn schedule — generated here and handed to the library as
// explicit FaultPlan::crash(node, at, recover_at) calls — crashes and
// recovers other zones throughout. One caller sends uniform host queries
// in a closed loop (the facade is single-threaded), alternating facade
// queries (QueryClient retries and failover) with in-network ones (node
// forwarding, hop timeouts, gossip digests — the facade path never reaches
// those), and advances the clock one second after every batch.
//
// The run is kRounds rounds, each on a fresh system with its own strike
// targets and churn plan. Under churn the slowest queries get slower as
// simulated time goes on (on one system, the p99 of each tenth of 50,000
// queries rose from 0.5 to 8 ms, at a rate that differed by seed); fresh
// rounds keep every round on the same stretch of that growth, and the
// end-to-end figures are medians over the rounds. The run is a fixed number of queries
// (kQueriesPerSecond per run second), so its simulated outcome is a pure
// function of the seed: the digest of every query's (delivered, hops,
// latency_ticks) is printed, and a second system built from the first
// round's inputs must reproduce the digest of that round's prefix.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "hours/event_backend.hpp"
#include "hours/hours.hpp"
#include "setup.hpp"
#include "sim/fault_injector.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kZones = 1'000;
constexpr std::size_t kHosts = 100;
constexpr std::size_t kStrikes = 8;  // 8 x (target + 4 ring neighbours) stay down
constexpr std::uint32_t kStrikeSiblings = 4;
constexpr std::uint64_t kQueriesPerSecond = 2'500;  // queries per run second
constexpr std::uint64_t kMinQueries = 1'000;
constexpr unsigned kRounds = 5;  // fresh systems per run
constexpr std::uint64_t kBatch = 50;  // queries between advance(1) calls
// An in-network query that failed waits this many ack timeouts for a
// forked copy still in flight to deliver it.
constexpr hours::sim::Ticks kSettleAckTimeouts = 4;
constexpr hours::sim::Ticks kTicksPerCrash = 500;  // mean gap between churn crashes
// The churn plan spans this many simulated ticks per query, well past a
// round's clock (about 250 ticks per query), so churn lasts the whole round.
constexpr hours::sim::Ticks kHorizonTicksPerQuery = 400;
constexpr hours::sim::Ticks kDeadline = 60'000;  // per facade query

struct ChurnEvent {
  std::size_t zone = 0;
  hours::sim::Ticks at = 0;
  hours::sim::Ticks recover_at = 0;
};

/// The churn schedule in zone coordinates: one crash per kTicksPerCrash
/// simulated ticks on average, each lasting 10-30 simulated seconds (about
/// 40 zones down at any time), never touching a struck zone.
std::vector<ChurnEvent> make_churn(std::uint64_t round_seed, std::uint64_t queries,
                                   const std::vector<bool>& struck) {
  Rng rng{stream_seed(round_seed, 80)};
  const hours::sim::Ticks horizon = queries * kHorizonTicksPerQuery;
  std::vector<ChurnEvent> events;
  for (std::uint64_t i = 0; i < horizon / kTicksPerCrash; ++i) {
    ChurnEvent e;
    do {
      e.zone = rng.below(kZones);
    } while (struck[e.zone]);
    e.at = 1 + rng.below(horizon);
    e.recover_at = e.at + 10'000 + rng.below(20'000);
    events.push_back(e);
  }
  return events;
}

struct Engine {
  std::unique_ptr<hours::HoursSystem> system;
  hours::EventBackend* backend = nullptr;
  hours::sim::Ticks settle_ticks = 0;  ///< kSettleAckTimeouts transport ack timeouts
  double mirror_build_s = 0.0;
};

/// Set-up of one round: admission, the standing strike, the event backend
/// with gossip liveness, the topology mirror (forced by the first
/// node_id()) and the churn plan. An empty `churn` is generated here, once
/// the strike shows which zones it holds down.
Engine set_up(const Universe& universe, std::uint64_t round_seed, std::uint64_t queries,
              std::vector<ChurnEvent>& churn, SpanLog::Buffer* buffer) {
  Engine e;
  e.system = std::make_unique<hours::HoursSystem>();
  build_hierarchy(*e.system, universe, /*records=*/false, buffer);
  strike_zones(*e.system, universe, kStrikes, kStrikeSiblings, stream_seed(round_seed, 60),
               buffer);
  if (churn.empty()) churn = make_churn(round_seed, queries, down_zones(*e.system, universe));
  hours::EventBackendConfig config;
  config.liveness.mode = hours::liveness::Mode::kGossip;
  config.seed = stream_seed(round_seed, 90);
  config.client.deadline = kDeadline;
  e.backend = &e.system->use_event_backend(config);
  e.settle_ticks = kSettleAckTimeouts * config.transport.ack_timeout;

  std::vector<std::uint32_t> ids(universe.zones.size());
  for (std::size_t z = 0; z < universe.zones.size(); ++z) {
    const std::uint64_t begin = now_ns();
    const auto id = e.backend->node_id(universe.zones[z]);
    const std::uint64_t end = now_ns();
    if (buffer != nullptr) buffer->add("node_id", "", begin, end);
    if (z == 0) e.mirror_build_s = static_cast<double>(end - begin) / 1e9;
    if (!id) throw std::runtime_error("no simulator id for " + universe.zones[z]);
    ids[z] = *id;
  }
  hours::sim::FaultPlan plan;
  for (const auto& c : churn) plan.crash(ids[c.zone], c.at, c.recover_at);
  if (!e.system->schedule_faults(std::move(plan)).ok()) {
    throw std::runtime_error("schedule_faults refused the churn plan");
  }
  return e;
}

/// FNV-1a over the per-query outcomes.
struct Digest {
  std::uint64_t value = 0xCBF29CE484222325ULL;
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      value ^= (word >> (8 * i)) & 0xFF;
      value *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char out[20];
    std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(value));
    return out;
  }
};

/// Host index per query, for the whole run; round r sends its slice.
std::vector<std::uint32_t> make_traffic(const Options& options, std::uint64_t queries,
                                        std::size_t hosts) {
  Rng rng{stream_seed(options.seed, 81)};
  std::vector<std::uint32_t> destinations(queries);
  for (auto& d : destinations) d = static_cast<std::uint32_t>(rng.below(hosts));
  return destinations;
}

struct RunResult {
  Digest digest;
  Digest prefix_digest;
  std::uint64_t answered = 0;
  std::uint64_t late_deliveries = 0;  ///< in-network failures a fork overturned
  std::vector<double> wall_us;     ///< per query
  std::vector<double> sim_ticks;   ///< per query; +inf when unanswered
  double prefix_wall_s = 0.0;      ///< wall time of the first `prefix` queries
  double wall_s = 0.0;
  double advance_s = 0.0;
};

/// One query of either kind: settled outcome plus its wall time.
struct Outcome {
  bool delivered = false;
  std::uint32_t hops = 0;
  std::uint64_t latency_ticks = 0;
  bool late = false;  ///< failed first, then a forked copy delivered
};

/// An in-network query (sim::HierarchySimulation::inject_query): the nodes
/// forward it themselves, so hop timeouts and gossip digests are paid here.
/// Steps the simulator one event at a time until the query delivers, which
/// leaves later fault events pending exactly as the facade's queries do. A
/// failure is provisional (a forked copy may still deliver), so a failed
/// query runs on for `settle_ticks` past its failure before it counts.
Outcome in_network_query(Engine& e, const std::string& host) {
  auto& sim = *e.backend->simulation();
  auto& clock = sim.simulator();
  const auto id = e.backend->node_id(host);
  if (!id) throw std::runtime_error("no simulator id for " + host);
  const hours::sim::Ticks issued = clock.now();
  const std::uint64_t qid = sim.inject_query(sim.path_of(*id));
  while (!sim.query(qid).done) {
    if (clock.run(/*limit=*/0, /*max_events=*/1) == 0) break;
  }
  bool late = false;
  if (sim.query(qid).done && !sim.query(qid).delivered) {
    const hours::sim::Ticks settled = sim.query(qid).completed_at + e.settle_ticks;
    if (settled > clock.now()) clock.run(/*limit=*/settled - clock.now());
    late = sim.query(qid).delivered;
  }
  const auto& out = sim.query(qid);
  return Outcome{out.done && out.delivered, out.hops, out.completed_at - issued, late};
}

/// Runs `count` queries to `destinations`, alternating facade queries
/// (HoursSystem::query through QueryClient) with in-network ones, and
/// advancing one second per batch. Span request ids start after `first_id`.
/// `perturb` flips the first outcome folded into the digest.
RunResult drive(Engine& e, const Universe& universe, const std::uint32_t* destinations,
                std::uint64_t count, std::uint64_t prefix, bool perturb, std::uint64_t first_id,
                SpanLog::Buffer* buffer) {
  RunResult r;
  r.wall_us.reserve(count);
  r.sim_ticks.reserve(count);
  const std::uint64_t run_begin = now_ns();
  for (std::uint64_t q = 0; q < count; ++q) {
    const std::string& host = universe.hosts[destinations[q]];
    const bool facade = q % 2 == 0;
    const std::uint64_t begin = now_ns();
    Outcome out;
    if (facade) {
      const auto result = e.system->query(host);
      out = Outcome{result.delivered, result.hops, result.latency_ticks};
    } else {
      out = in_network_query(e, host);
    }
    const std::uint64_t end = now_ns();
    if (buffer != nullptr) {
      buffer->add("query", facade ? "facade" : "in_network", begin, end, first_id + q + 1);
    }
    r.wall_us.push_back(static_cast<double>(end - begin) / 1e3);
    r.sim_ticks.push_back(out.delivered ? static_cast<double>(out.latency_ticks) : 1e300);
    if (out.delivered) ++r.answered;
    if (out.late) ++r.late_deliveries;
    const bool delivered = out.delivered != (perturb && q == 0);
    for (Digest* d : {&r.digest, &r.prefix_digest}) {
      if (d == &r.prefix_digest && q >= prefix) continue;
      d->add(delivered ? 1 : 0);
      d->add(out.hops);
      d->add(out.latency_ticks);
    }
    if ((q + 1) % kBatch == 0) {
      const std::uint64_t a = now_ns();
      e.system->advance(1);
      const std::uint64_t b = now_ns();
      r.advance_s += static_cast<double>(b - a) / 1e9;
      if (buffer != nullptr) buffer->add("advance", "", a, b, first_id + q + 1);
    }
    if (q + 1 == prefix) r.prefix_wall_s = static_cast<double>(now_ns() - run_begin) / 1e9;
  }
  r.wall_s = static_cast<double>(now_ns() - run_begin) / 1e9;
  return r;
}

std::uint64_t counter(hours::sim::HierarchySimulation& sim, const char* name) {
  return sim.registry().has_counter(name) ? sim.registry().counter_value(name) : 0;
}

}  // namespace

void run_engine_churn(const Options& options, Report& report) {
  const auto per_run = static_cast<double>(kQueriesPerSecond) * options.seconds;
  const std::uint64_t per_round =
      std::max(kMinQueries, static_cast<std::uint64_t>(per_run)) / kRounds;
  const std::uint64_t count = per_round * kRounds;
  const std::uint64_t prefix = per_round / 5;
  const Universe universe = make_universe(kZones, kHosts, options.seed);
  const auto destinations = make_traffic(options, count, universe.hosts.size());
  SpanLog spans{options.trace};
  SpanLog::Buffer* buffer = spans.enabled() ? &spans.buffer() : nullptr;

  // Totals over the rounds; the end-to-end figures are medians of rounds.
  std::vector<double> setup, round_qps, round_p50_us, round_p99_us, sim_ticks;
  Digest digest;
  std::uint64_t answered = 0, late = 0, events = 0, messages = 0;
  std::uint64_t hop_timeouts = 0, digests = 0, digest_entries = 0, adopted = 0;
  hours::sim::QueryClientStats client;
  hours::sim::Ticks sim_end = 0;
  double traffic_s = 0.0, advance_s = 0.0, mirror_build_s = 0.0;
  std::vector<ChurnEvent> first_churn;
  RunResult first;
  for (unsigned round = 0; round < kRounds; ++round) {
    const std::uint64_t round_seed = stream_seed(options.seed, 100 + round);
    std::vector<ChurnEvent> churn;
    // Traced runs record the set-up spans of the first round only.
    SpanLog::Buffer* setup_buffer = round == 0 ? buffer : nullptr;
    if (setup_buffer != nullptr) setup_buffer->open("setup");
    const std::uint64_t begin = now_ns();
    Engine engine = set_up(universe, round_seed, per_round, churn, setup_buffer);
    setup.push_back(static_cast<double>(now_ns() - begin) / 1e9);
    if (setup_buffer != nullptr) setup_buffer->close();
    if (round == 0) {
      mirror_build_s = engine.mirror_build_s;
      const auto down = down_zones(*engine.system, universe);
      report.info("struck_zones", std::to_string(std::count(down.begin(), down.end(), true)));
      report.info("churn_crashes", std::to_string(churn.size()));
      first_churn = churn;
    }

    auto& sim = *engine.backend->simulation();
    const std::uint64_t events_before = sim.simulator().executed_total();
    const std::uint64_t messages_before = sim.messages_sent();
    RunResult run = drive(engine, universe, destinations.data() + round * per_round, per_round,
                          prefix, false, round * per_round, buffer);
    events += sim.simulator().executed_total() - events_before;
    messages += sim.messages_sent() - messages_before;
    sim_end = std::max(sim_end, sim.simulator().now());
    const hours::sim::QueryClientStats stats = engine.backend->client()->stats();
    client.retransmissions += stats.retransmissions;
    client.failovers += stats.failovers;
    client.deadline_exceeded += stats.deadline_exceeded;
    client.no_route += stats.no_route;
    hop_timeouts += counter(sim, "hier.hop_timeouts");
    digests += counter(sim, "hier.liveness_digests_sent");
    digest_entries += counter(sim, "hier.liveness_digest_entries_sent");
    adopted += counter(sim, "hier.liveness_gossip_adopted");

    round_qps.push_back(static_cast<double>(run.answered) / run.wall_s);
    round_p50_us.push_back(quantile(run.wall_us, 0.5));
    round_p99_us.push_back(quantile(run.wall_us, 0.99));
    sim_ticks.insert(sim_ticks.end(), run.sim_ticks.begin(), run.sim_ticks.end());
    answered += run.answered;
    late += run.late_deliveries;
    traffic_s += run.wall_s;
    advance_s += run.advance_s;
    digest.add(run.digest.value);
    if (round == 0) first = std::move(run);
  }
  report.info("nodes", std::to_string(1 + kZones + universe.hosts.size()));
  report.attempted += count;
  report.failed += count - answered;
  report.info("outcome_digest", digest.hex());
  report.info("prefix_digest", first.prefix_digest.hex());
  report.info("traffic_s", std::to_string(traffic_s));
  report.info("late_deliveries", std::to_string(late));
  report.info("sim_end_ticks", std::to_string(sim_end));
  report.info("churn_horizon_ticks", std::to_string(per_round * kHorizonTicksPerQuery));

  // Reproducibility: a second system from the first round's inputs must
  // replay that round's prefix exactly. Its set-up is one more setup_s
  // sample.
  const std::uint64_t begin = now_ns();
  Engine replay = set_up(universe, stream_seed(options.seed, 100), per_round, first_churn,
                         nullptr);
  setup.push_back(static_cast<double>(now_ns() - begin) / 1e9);
  const RunResult again = drive(replay, universe, destinations.data(), prefix, prefix,
                                options.inject == "digest", 0, nullptr);
  if (again.prefix_digest.value != first.prefix_digest.value) {
    report.fail("engine outcome digest differs on replay: " + first.prefix_digest.hex() +
                " vs " + again.prefix_digest.hex());
  }

  if (!options.trace) {
    report.metric("setup_s", median(setup), "s");
    report.metric("throughput_qps", median(round_qps), "1/s");
    report.metric("latency_p50_us", median(round_p50_us), "us");
    report.metric("latency_p99_us", median(round_p99_us), "us");
    report.metric("answered_ratio", static_cast<double>(answered) / static_cast<double>(count),
                  "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    report_setup_spans(spans, report);
    report.metric("sim.mirror_build_s", mirror_build_s, "s");
    report.metric("sim.latency_p50_ticks", quantile(sim_ticks, 0.5), "ticks");
    report.metric("sim.latency_p99_ticks", quantile(sim_ticks, 0.99), "ticks");
    const double n = static_cast<double>(count);
    report.metric("sim.events_per_query", static_cast<double>(events) / n, "events");
    report.metric("sim.us_per_event", traffic_s * 1e6 / static_cast<double>(events), "us");
    report.metric("sim.messages_per_query", static_cast<double>(messages) / n, "messages");
    report.metric("sim.advance.busy_s", advance_s, "s");
    report.metric("sim.hop_timeouts", static_cast<double>(hop_timeouts), "count");
    report.metric("client.retransmissions", static_cast<double>(client.retransmissions),
                  "count");
    report.metric("client.failovers", static_cast<double>(client.failovers), "count");
    report.metric("client.deadline_exceeded", static_cast<double>(client.deadline_exceeded),
                  "count");
    report.metric("client.no_route", static_cast<double>(client.no_route), "count");
    report.metric("liveness.digests_sent", static_cast<double>(digests), "count");
    report.metric("liveness.digest_entries_sent", static_cast<double>(digest_entries), "count");
    report.metric("liveness.gossip_adopted", static_cast<double>(adopted), "count");
    // The replay ran the first round's prefix untraced: traced / untraced
    // throughput.
    report.metric("trace.overhead_ratio", again.prefix_wall_s / first.prefix_wall_s, "ratio");
    if (!options.spans_path.empty() && !spans.write_jsonl(options.spans_path)) {
      report.fail("cannot write spans to " + options.spans_path);
    }
  }
}

}  // namespace perfbench
