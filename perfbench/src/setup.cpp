#include "setup.hpp"

#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace {

std::string label(Rng& rng, char prefix) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string out{prefix};
  for (int i = 0; i < 6; ++i) out += kAlphabet[rng.below(36)];
  return out;
}

template <typename Call>
void timed(SpanLog::Buffer* buffer, const char* name, const std::string& what, Call&& call) {
  const std::uint64_t begin = buffer != nullptr ? now_ns() : 0;
  const bool ok = call();
  if (buffer != nullptr) buffer->add(name, "", begin, now_ns());
  if (!ok) throw std::runtime_error(std::string{name} + " failed for " + what);
}

}  // namespace

Universe make_universe(std::size_t zones, std::size_t hosts, std::uint64_t seed) {
  Universe u;
  u.hosts_per_zone = hosts;
  Rng rng{stream_seed(seed, 1)};
  std::set<std::string> seen;
  while (u.zones.size() < zones) {
    auto zone = label(rng, 'z');
    if (seen.insert(zone).second) u.zones.push_back(std::move(zone));
  }
  for (const auto& zone : u.zones) {
    for (std::size_t h = 0; h < hosts; ++h) {
      std::string host = "h";
      host += std::to_string(h);
      host += '.';
      host += zone;
      u.hosts.push_back(std::move(host));
      char value[24];
      std::snprintf(value, sizeof value, "10.%llu.%llu.%llu",
                    static_cast<unsigned long long>(rng.below(256)),
                    static_cast<unsigned long long>(rng.below(256)),
                    static_cast<unsigned long long>(rng.below(256)));
      u.answers.emplace_back(value);
    }
  }
  return u;
}

void build_hierarchy(hours::HoursSystem& system, const Universe& universe, bool records,
                     SpanLog::Buffer* buffer) {
  for (std::size_t z = 0; z < universe.zones.size(); ++z) {
    const auto& zone = universe.zones[z];
    timed(buffer, "admit", zone, [&] { return system.admit(zone).ok(); });
    for (std::size_t h = 0; h < universe.hosts_per_zone; ++h) {
      const std::size_t i = z * universe.hosts_per_zone + h;
      const auto& host = universe.hosts[i];
      timed(buffer, "admit", host, [&] { return system.admit(host).ok(); });
      if (records) {
        timed(buffer, "add_record", host, [&] {
          return system
              .add_record(host, hours::store::Record{"A", universe.answers[i], kRecordTtl})
              .ok();
        });
      }
    }
  }
}

void strike_zones(hours::HoursSystem& system, const Universe& universe, std::size_t strikes,
                  std::uint32_t siblings, std::uint64_t seed, SpanLog::Buffer* buffer) {
  Rng rng{seed};
  std::set<std::size_t> chosen;
  while (chosen.size() < strikes) chosen.insert(rng.below(universe.zones.size()));
  for (const auto z : chosen) {
    const auto& zone = universe.zones[z];
    timed(buffer, "strike", zone, [&] {
      return system.strike(zone, hours::attack::Strategy::kNeighbor, siblings).ok();
    });
  }
}

std::vector<bool> down_zones(hours::HoursSystem& system, const Universe& universe) {
  std::vector<bool> down;
  for (const auto& zone : universe.zones) {
    const auto alive = system.hierarchy().is_alive(hours::naming::Name::parse(zone).value());
    down.push_back(alive.ok() && !alive.value());
  }
  return down;
}

void report_setup_spans(const SpanLog& spans, Report& report) {
  auto admit = spans.durations_us("admit");
  report.metric("hierarchy.admit.busy_s", spans.busy_s("admit"), "s");
  report.metric("hierarchy.admit.p50_us", quantile(admit, 0.5), "us");
  report.metric("hierarchy.admit.p99_us", quantile(admit, 0.99), "us");
  report.metric("store.add_record.busy_s", spans.busy_s("add_record"), "s");
  report.metric("attack.strike.busy_s", spans.busy_s("strike"), "s");
}

}  // namespace perfbench
