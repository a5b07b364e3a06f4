// Gossip-assisted failure detection, measured end to end (DESIGN.md §11).
//
// For each of three fault schedules — staggered crashes under a lossy-link
// episode, a re-striking correlated neighborhood outage, and flap-heavy
// churn — the bench runs the same seeded ring scenario twice: once with
// probe-only liveness and once with suspicion digests piggybacked on the
// existing transport frames. Each run streams its full event trace to a
// JSONL file, and the bench mines the trace for suspicion latency: for
// every (death episode, observer) pair, the delay from the injector's
// fault_kill to that observer's first suspect / liveness_gossip_suspect
// event, censored at the victim's revival.
//
// Reported per run: the pooled latency CDF (p50/p90/p99 over observed
// pairs), the fraction of pairs that never learned, the median per-episode
// time until half the surviving ring suspected the victim (t_half, the
// headline detection-latency number; censored episodes count at their full
// duration), false suspicions of live nodes, and the digest overhead
// (digests sent, entries carried, adoptions). Exit is nonzero unless the
// gossip run strictly improves detection on every schedule — lower median
// t_half, or on a censoring tie a strictly lower never-learned fraction —
// every scenario run is byte-reproducible, and no digest ever exceeded the
// configured budget.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "liveness/liveness.hpp"
#include "metrics/json_writer.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "snapshot/json.hpp"

namespace {

using namespace hours;

constexpr std::uint32_t kRingSize = 24;
constexpr std::uint64_t kHorizon = 120000;

// The whole experiment as a scenario document; only the schedule's fault
// plan and the liveness evidence source vary between runs.
constexpr std::string_view kTemplate = R"({
  "magic": "hours-scenario",
  "version": 1,
  "name": "%NAME%",
  "description": "gossip_liveness schedule, generated in-process by bench/gossip_liveness.",
  "seed": 50505,
  "system": {
    "kind": "ring",
    "size": 24,
    "probe_period": 1000,
    "probe_failure_threshold": 2,
    "client_deadline": 8000
  },
  "workload": {
    "horizon": 120000,
    "window": 2000,
    "start": 200,
    "alive_sources": 1,
    "phases": [{"until": 120000, "interval": 450}]
  },
  "faults": {"plan": [%PLAN%]},
  "liveness": {"source": "%SOURCE%"},
  "metrics": {"emit": ["client", "faults"]}
})";

struct Schedule {
  const char* name;
  const char* plan;  ///< comma-joined, pre-quoted fault plan lines
};

constexpr Schedule kSchedules[] = {
    {"loss_episode",
     R"x("crash(5, 30000, 50000)", "crash(11, 60000, 80000)", "crash(17, 85000, 105000)",
      "loss_episode(0.2, 25000, 105000)")x"},
    {"zone_outage", R"x("correlated_outage({5, 4, 3}, 30000, 20000, 2, 15000)")x"},
    {"flap_churn",
     R"x("flap(18, 30000, 3000, 5000, 4)", "flap(7, 45000, 3000, 5000, 4)",
      "crash(2, 70000, 90000)")x"},
};

std::string instantiate(std::string_view tmpl, std::string_view name, std::string_view plan,
                        std::string_view source) {
  std::string out{tmpl};
  const auto replace = [&out](std::string_view key, std::string_view with) {
    const auto pos = out.find(key);
    out.replace(pos, key.size(), with);
  };
  replace("%NAME%", name);
  replace("%PLAN%", plan);
  replace("%SOURCE%", source);
  return out;
}

// -- JSONL trace mining -------------------------------------------------------------

/// The few fields of a trace line this bench cares about, pulled out by
/// substring against the fixed key order of trace::to_json_line.
struct TraceLine {
  std::uint64_t at = 0;
  std::string type;
  std::uint32_t node = 0;
  std::uint32_t peer = 0;
  std::uint64_t value = 0;
  bool has_node = false;
  bool has_peer = false;
};

bool parse_line(const std::string& line, TraceLine& out) {
  const auto number_after = [&line](std::string_view key, std::uint64_t& value, bool& present) {
    const auto pos = line.find(key);
    if (pos == std::string::npos) return false;
    const char* start = line.c_str() + pos + key.size();
    if (*start == 'n') {  // null
      present = false;
      return true;
    }
    present = true;
    value = std::strtoull(start, nullptr, 10);
    return true;
  };
  bool present = false;
  std::uint64_t scratch = 0;
  if (!number_after("\"at\":", out.at, present)) return false;
  const auto type_pos = line.find("\"type\":\"");
  if (type_pos == std::string::npos) return false;
  const auto type_start = type_pos + 8;
  const auto type_end = line.find('"', type_start);
  out.type = line.substr(type_start, type_end - type_start);
  if (!number_after("\"node\":", scratch, out.has_node)) return false;
  out.node = static_cast<std::uint32_t>(scratch);
  if (!number_after("\"peer\":", scratch, out.has_peer)) return false;
  out.peer = static_cast<std::uint32_t>(scratch);
  if (!number_after("\"value\":", out.value, present)) return false;
  return true;
}

/// One victim-down interval and who learned of it, when.
struct Episode {
  std::uint32_t victim = 0;
  std::uint64_t kill_at = 0;
  std::uint64_t end_at = 0;          ///< revival or horizon (censor point)
  std::uint32_t alive_observers = 0; ///< ring peers alive at the kill
  std::map<std::uint32_t, std::uint64_t> first_seen;  ///< observer -> latency
};

struct RunStats {
  std::vector<Episode> episodes;
  std::uint64_t false_suspicions = 0;  ///< suspicion of a node that was up
  std::uint64_t digests_sent = 0;
  std::uint64_t digest_entries = 0;
  std::uint64_t max_digest_entries = 0;
  std::uint64_t gossip_adoptions = 0;
};

RunStats mine_trace(const std::string& path) {
  RunStats stats;
  std::map<std::uint32_t, Episode> open;  ///< victim -> in-progress episode
  std::uint32_t dead = 0;
  std::ifstream in{path};
  std::string line;
  TraceLine ev;
  while (std::getline(in, line)) {
    if (!parse_line(line, ev)) continue;
    if (ev.type == "fault_kill" && ev.has_node) {
      ++dead;
      Episode episode;
      episode.victim = ev.node;
      episode.kill_at = ev.at;
      episode.alive_observers = kRingSize - dead;
      open[ev.node] = episode;
    } else if (ev.type == "fault_revive" && ev.has_node) {
      --dead;
      if (const auto it = open.find(ev.node); it != open.end()) {
        it->second.end_at = ev.at;
        stats.episodes.push_back(std::move(it->second));
        open.erase(it);
      }
    } else if ((ev.type == "suspect" || ev.type == "liveness_gossip_suspect") && ev.has_node &&
               ev.has_peer) {
      if (const auto it = open.find(ev.peer); it != open.end()) {
        it->second.first_seen.emplace(ev.node, ev.at - it->second.kill_at);
      } else {
        ++stats.false_suspicions;
      }
    } else if (ev.type == "liveness_digest_sent") {
      ++stats.digests_sent;
      stats.digest_entries += ev.value;
      stats.max_digest_entries = std::max(stats.max_digest_entries, ev.value);
    } else if (ev.type == "liveness_digest_applied") {
      stats.gossip_adoptions += ev.value;
    }
  }
  for (auto& [victim, episode] : open) {
    episode.end_at = kHorizon;
    stats.episodes.push_back(std::move(episode));
  }
  return stats;
}

std::uint64_t percentile(std::vector<std::uint64_t> sorted, double p) {
  if (sorted.empty()) return 0;
  const auto index =
      static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

struct Summary {
  std::uint64_t episodes = 0;
  std::uint64_t pairs_possible = 0;
  std::uint64_t pairs_observed = 0;
  double never_fraction = 1.0;
  std::uint64_t p50 = 0, p90 = 0, p99 = 0;  ///< pooled observed-pair latencies
  std::uint64_t median_t_half = 0;          ///< headline detection latency
  std::uint64_t censored_episodes = 0;      ///< t_half hit the episode end
};

Summary summarize(const RunStats& stats) {
  Summary s;
  s.episodes = stats.episodes.size();
  std::vector<std::uint64_t> pooled;
  std::vector<std::uint64_t> t_half;
  for (const auto& episode : stats.episodes) {
    s.pairs_possible += episode.alive_observers;
    s.pairs_observed += episode.first_seen.size();
    std::vector<std::uint64_t> latencies;
    latencies.reserve(episode.first_seen.size());
    for (const auto& [observer, latency] : episode.first_seen) {
      latencies.push_back(latency);
      pooled.push_back(latency);
    }
    std::sort(latencies.begin(), latencies.end());
    const std::size_t need = (episode.alive_observers + 1) / 2;
    if (latencies.size() >= need && need > 0) {
      t_half.push_back(latencies[need - 1]);
    } else {
      t_half.push_back(episode.end_at - episode.kill_at);  // censored
      ++s.censored_episodes;
    }
  }
  if (s.pairs_possible > 0) {
    s.never_fraction = 1.0 - static_cast<double>(s.pairs_observed) /
                                 static_cast<double>(s.pairs_possible);
  }
  std::sort(pooled.begin(), pooled.end());
  s.p50 = percentile(pooled, 0.50);
  s.p90 = percentile(pooled, 0.90);
  s.p99 = percentile(pooled, 0.99);
  std::sort(t_half.begin(), t_half.end());
  s.median_t_half = percentile(t_half, 0.50);
  return s;
}

void write_summary(metrics::JsonWriter& json, const Summary& s, const RunStats& stats) {
  json.begin_object();
  json.field("episodes", s.episodes);
  json.field("pairs_possible", s.pairs_possible);
  json.field("pairs_observed", s.pairs_observed);
  json.field("never_fraction", s.never_fraction, 4);
  json.field("latency_p50", s.p50);
  json.field("latency_p90", s.p90);
  json.field("latency_p99", s.p99);
  json.field("median_t_half", s.median_t_half);
  json.field("censored_episodes", s.censored_episodes);
  json.field("false_suspicions", stats.false_suspicions);
  json.field("digests_sent", stats.digests_sent);
  json.field("digest_entries", stats.digest_entries);
  json.field("max_digest_entries", stats.max_digest_entries);
  json.field("gossip_adoptions", stats.gossip_adoptions);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);

  scenario::RunOptions options;
  options.quick = quick;

  bool all_reproducible = true;
  bool budget_respected = true;
  bool required_improved = true;

  metrics::JsonWriter report;
  report.begin_object();
  report.field("bench", "gossip_liveness");
  report.field("quick", quick);
  report.field("ring_size", static_cast<std::uint64_t>(kRingSize));
  report.field("digest_budget", liveness::kDefaultDigestBudget);
  report.key("schedules").begin_array();

  std::ofstream csv{bench::csv_path("gossip_liveness")};
  csv << "schedule,source,episodes,never_fraction,latency_p50,latency_p90,latency_p99,"
         "median_t_half,digests_sent,gossip_adoptions\n";

  std::printf("schedule      source      p50     p90     p99     t_half  never   adoptions\n");

  for (const auto& schedule : kSchedules) {
    Summary per_source[2];
    RunStats per_stats[2];
    const char* sources[2] = {"probe_only", "gossip"};
    report.begin_object();
    report.field("schedule", schedule.name);
    for (int si = 0; si < 2; ++si) {
      const std::string doc_name =
          std::string{"gossip_liveness_"} + schedule.name + "_" + sources[si];
      const std::string text = instantiate(kTemplate, doc_name, schedule.plan, sources[si]);
      snapshot::Json doc;
      std::string error;
      if (!snapshot::parse_json(text, doc, &error)) {
        std::fprintf(stderr, "gossip_liveness: %s: bad template: %s\n", doc_name.c_str(),
                     error.c_str());
        return 1;
      }
      scenario::Scenario sc;
      if (error = scenario::parse(doc, sc); !error.empty()) {
        std::fprintf(stderr, "gossip_liveness: %s: %s\n", doc_name.c_str(), error.c_str());
        return 1;
      }
      scenario::RunOptions traced = options;
      traced.trace_path = doc_name + ".trace.jsonl";
      const auto first = scenario::run(sc, traced);
      const auto second = scenario::run(sc, options);
      if (first.json != second.json) {
        std::fprintf(stderr, "gossip_liveness: %s: NOT reproducible\n", doc_name.c_str());
        all_reproducible = false;
      }
      per_stats[si] = mine_trace(traced.trace_path);
      per_source[si] = summarize(per_stats[si]);
      if (per_stats[si].max_digest_entries > liveness::kDefaultDigestBudget) {
        budget_respected = false;
      }
      report.key(sources[si]);
      write_summary(report, per_source[si], per_stats[si]);
      std::printf("%-13s %-10s %-7llu %-7llu %-7llu %-7llu %.4f  %llu\n", schedule.name,
                  sources[si], static_cast<unsigned long long>(per_source[si].p50),
                  static_cast<unsigned long long>(per_source[si].p90),
                  static_cast<unsigned long long>(per_source[si].p99),
                  static_cast<unsigned long long>(per_source[si].median_t_half),
                  per_source[si].never_fraction,
                  static_cast<unsigned long long>(per_stats[si].gossip_adoptions));
      csv << schedule.name << "," << sources[si] << "," << per_source[si].episodes << ","
          << metrics::JsonWriter::fixed(per_source[si].never_fraction, 4) << ","
          << per_source[si].p50 << "," << per_source[si].p90 << "," << per_source[si].p99 << ","
          << per_source[si].median_t_half << "," << per_stats[si].digests_sent << ","
          << per_stats[si].gossip_adoptions << "\n";
    }
    // The acceptance gate, per schedule: gossip must strictly beat
    // probe-only's median detection latency. When both medians are censored
    // to the same episode length (short flap episodes; the lossy schedule
    // under quick mode's halved carrier traffic), the tie breaks on who
    // actually informed more of the ring.
    const bool improved =
        per_source[1].median_t_half < per_source[0].median_t_half ||
        (per_source[1].median_t_half == per_source[0].median_t_half &&
         per_source[1].never_fraction < per_source[0].never_fraction);
    report.field("median_t_half_improved", improved);
    report.end_object();
    if (!improved) {
      std::fprintf(stderr, "gossip_liveness: %s: gossip did not improve detection\n",
                   schedule.name);
      required_improved = false;
    }
  }

  report.end_array();
  report.field("reproducible", all_reproducible);
  report.field("digest_budget_respected", budget_respected);
  report.end_object();
  bench::emit_json_report("gossip_liveness", report.str());

  std::printf("reproducible: %s  budget_respected: %s  gossip_improves_required: %s\n",
              all_reproducible ? "yes" : "no", budget_respected ? "yes" : "no",
              required_improved ? "yes" : "no");
  return all_reproducible && budget_respected && required_improved ? 0 : 1;
}
