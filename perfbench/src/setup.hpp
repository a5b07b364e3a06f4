// Hierarchy set-up shared by the workloads: the generated name universe and
// the timed calls that admit it, attach its records and strike its zones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "hours/hours.hpp"

namespace perfbench {

inline constexpr unsigned kSetupReps = 3;       ///< set-ups per run; setup_s is their median
inline constexpr std::uint64_t kRecordTtl = 1'000'000;  ///< seconds; never expires in a run

/// A two-level name space: `zones` zone labels under the root, `hosts`
/// hosts under each. Labels and record values come from the seed.
struct Universe {
  std::vector<std::string> zones;
  std::vector<std::string> hosts;    ///< "<host>.<zone>", zone-major
  std::vector<std::string> answers;  ///< the A record value of each host
  std::size_t hosts_per_zone = 0;
};

[[nodiscard]] Universe make_universe(std::size_t zones, std::size_t hosts, std::uint64_t seed);

/// Admits every zone and host (and, with `records`, one A record per host).
/// Spans "admit" and "add_record" go to `buffer` when it is set.
void build_hierarchy(hours::HoursSystem& system, const Universe& universe, bool records,
                     SpanLog::Buffer* buffer);

/// Launches `strikes` neighbour attacks (hours::attack::Strategy::kNeighbor)
/// on distinct seeded zones, each taking `siblings` ring neighbours down with
/// the target. Spans "strike".
void strike_zones(hours::HoursSystem& system, const Universe& universe, std::size_t strikes,
                  std::uint32_t siblings, std::uint64_t seed, SpanLog::Buffer* buffer);

/// Which zones are currently down in the facade's hierarchy, by index.
[[nodiscard]] std::vector<bool> down_zones(hours::HoursSystem& system,
                                           const Universe& universe);

/// hierarchy.admit.*, store.add_record.busy_s and attack.strike.busy_s from
/// the set-up spans.
void report_setup_spans(const SpanLog& spans, Report& report);

}  // namespace perfbench
