// Scenario DSL: schema validator golden corpus (accept + reject with exact
// error paths), runner determinism across worker-thread counts, traced runs
// equal to untraced ones with schema-valid traces, the adaptive attacker's
// contrast with its static schedule, and the FaultPlan::parse
// error-position contract the $.faults.plan clause relies on.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "jobs/executor.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/fault_injector.hpp"
#include "snapshot/json.hpp"
#include "trace/event.hpp"

#ifndef HOURS_SCENARIO_DIR
#define HOURS_SCENARIO_DIR "scenarios"
#endif

namespace {

using namespace hours;

// A minimal valid ring document; reject cases are single-edit mutations of
// this (or of kHierarchyBase below), so each case isolates one field.
constexpr const char* kRingBase = R"({
  "magic": "hours-scenario",
  "version": 1,
  "name": "ring_base",
  "seed": 7,
  "system": {"kind": "ring", "size": 8},
  "workload": {
    "horizon": 20000,
    "window": 2000,
    "phases": [{"until": 10000, "interval": 500}, {"until": 20000, "interval": 250}]
  },
  "metrics": {
    "phases": [{"name": "early", "from": 0, "until": 10000},
               {"name": "late", "from": 10000, "until": 20000}],
    "expect": [{"kind": "phase_ge", "left": "late", "right": "early"}]
  }
})";

constexpr const char* kHierarchyBase = R"({
  "magic": "hours-scenario",
  "version": 1,
  "name": "hier_base",
  "seed": 9,
  "system": {"kind": "hierarchy", "backend": "event", "branching": [3, 3]},
  "workload": {
    "horizon": 60,
    "window": 10,
    "phases": [{"until": 60, "rate": 2}]
  }
})";

std::string validate_text(const std::string& text) {
  snapshot::Json doc;
  std::string error;
  if (!snapshot::parse_json(text, doc, &error)) return "json: " + error;
  return scenario::validate(doc);
}

/// One-shot substring replacement; fails the test if `from` is absent so a
/// stale mutation cannot silently validate the unmodified base.
std::string mutate(const std::string& base, const std::string& from, const std::string& to) {
  const auto at = base.find(from);
  EXPECT_NE(at, std::string::npos) << "mutation target not in base: " << from;
  std::string out = base;
  out.replace(at, from.size(), to);
  return out;
}

struct RejectCase {
  const char* base;
  const char* from;
  const char* to;
  const char* expect_in_error;  ///< must appear in the validator message
};

TEST(ScenarioValidate, AcceptsBaseDocuments) {
  EXPECT_EQ(validate_text(kRingBase), "");
  EXPECT_EQ(validate_text(kHierarchyBase), "");
}

TEST(ScenarioValidate, RejectCorpusNamesTheOffendingPath) {
  const std::vector<RejectCase> cases = {
      // Envelope.
      {kRingBase, "\"magic\": \"hours-scenario\"", "\"magic\": \"hours\"", "$.magic"},
      {kRingBase, "\"version\": 1", "\"version\": 2", "$.version"},
      {kRingBase, "\"name\": \"ring_base\"", "\"name\": \"Ring Base\"", "$.name"},
      {kRingBase, "\"seed\": 7", "\"seed\": \"7\"", "$.seed: expected u64"},
      {kRingBase, "\"seed\": 7", "\"seed\": 7, \"bogus\": 1", "$.bogus: unknown key"},
      // System clause.
      {kRingBase, "\"kind\": \"ring\"", "\"kind\": \"mesh\"", "$.system.kind"},
      {kRingBase, "\"size\": 8", "\"size\": 2", "$.system.size"},
      {kRingBase, "\"size\": 8", "\"size\": 8, \"branching\": [3]",
       "$.system.branching: unknown key"},
      {kRingBase, "\"size\": 8", "\"size\": \"eight\"", "$.system.size: expected u64"},
      {kHierarchyBase, "\"branching\": [3, 3]", "\"branching\": [3, 0]",
       "$.system.branching[1]"},
      {kHierarchyBase, "\"backend\": \"event\"", "\"backend\": \"oracle\"",
       "$.system.backend"},
      // Workload clause.
      {kRingBase, "\"horizon\": 20000,", "", "$.workload.horizon: required field missing"},
      {kRingBase, "\"window\": 2000", "\"window\": 0", "$.workload.window"},
      {kRingBase, "{\"until\": 20000, \"interval\": 250}",
       "{\"until\": 5000, \"interval\": 250}",
       "$.workload.phases[1].until: phase boundaries must be strictly increasing"},
      {kRingBase, "{\"until\": 20000, \"interval\": 250}",
       "{\"until\": 19000, \"interval\": 250}",
       "$.workload.phases[1].until: last phase must end exactly at the horizon"},
      {kRingBase, "\"interval\": 500", "\"interval\": 0", "$.workload.phases[0].interval"},
      {kRingBase, "\"interval\": 500", "\"rate\": 500",
       "$.workload.phases[0].rate: unknown key"},
      {kHierarchyBase, "\"rate\": 2", "\"rate\": 2, \"popularity\": {\"kind\": \"pareto\"}",
       "$.workload.phases[0].popularity.kind"},
      {kHierarchyBase, "\"rate\": 2",
       "\"rate\": 2, \"popularity\": {\"kind\": \"hotspot\", \"hot\": 9, \"fraction\": \"0.5\"}",
       "$.workload.phases[0].popularity.hot"},
      {kHierarchyBase, "\"rate\": 2",
       "\"rate\": 2, \"popularity\": {\"kind\": \"zipf\", \"exponent\": \"fast\"}",
       "$.workload.phases[0].popularity.exponent"},
      {kRingBase, "\"window\": 2000,", "\"window\": 2000, \"alive_sources\": 2,",
       "$.workload.alive_sources: expected 0 or 1"},
      // Fault clause (plan errors carry FaultPlan::parse line/col context).
      {kRingBase, "\"metrics\"", "\"faults\": {\"plan\": [\"crash(1, bogus)\"]}, \"metrics\"",
       "$.faults.plan: line 1, col"},
      {kRingBase, "\"metrics\"",
       "\"faults\": {\"plan\": [\"byzantine(1, NodeBehavior(2), 5)\"]}, \"metrics\"",
       "$.faults.plan: byzantine() is unsupported on the ring system"},
      {kHierarchyBase, "\"backend\": \"event\"", "\"backend\": \"graph\"", ""},  // setup below
      // Attacker clause.
      {kRingBase, "\"metrics\"", "\"attacker\": {\"kind\": \"strike\"}, \"metrics\"",
       "$.attacker.kind: \"strike\" requires a hierarchy system"},
      {kHierarchyBase, "\"workload\"",
       "\"attacker\": {\"kind\": \"adaptive\"}, \"workload\"",
       "$.attacker.kind: \"adaptive\" requires a ring system"},
      {kHierarchyBase, "\"workload\"",
       "\"attacker\": {\"kind\": \"strike\", \"victims\": [\"n9\"], \"at\": 5, "
       "\"duration\": 5}, \"workload\"",
       "$.attacker.victims[0]"},
      {kHierarchyBase, "\"workload\"",
       "\"attacker\": {\"kind\": \"cache_busting\", \"rate\": 5, \"from\": 20, "
       "\"until\": 10}, \"workload\"",
       "$.attacker.until: must be > from"},
      // Metrics clause.
      {kRingBase, "\"phases\": [{\"name\": \"early\"",
       "\"emit\": [\"windows\"], \"phases\": [{\"name\": \"early\"",
       "$.metrics.emit[0]"},
      {kRingBase, "{\"name\": \"late\", \"from\": 10000, \"until\": 20000}",
       "{\"name\": \"early\", \"from\": 10000, \"until\": 20000}",
       "$.metrics.phases[1].name: duplicate phase name"},
      {kRingBase, "\"right\": \"early\"", "\"right\": \"missing\"",
       "\"missing\" is not a defined $.metrics.phases name"},
      {kRingBase, "{\"kind\": \"phase_ge\", \"left\": \"late\", \"right\": \"early\"}",
       "{\"kind\": \"hit_rate_ge\", \"left\": \"late\", \"right\": \"early\"}",
       "$.metrics.expect[0].kind: hit-rate expectations are hierarchy-only"},
      {kRingBase, "{\"kind\": \"phase_ge\", \"left\": \"late\", \"right\": \"early\"}",
       "{\"kind\": \"flag\", \"name\": \"remerged\"}",
       "flag expectations require $.metrics.fixpoint = 1"},
      {kHierarchyBase, "\"workload\"", "\"metrics\": {\"fixpoint\": 1}, \"workload\"",
       "$.metrics.fixpoint: the no-fault fixpoint check is ring-only"},
  };
  for (const auto& c : cases) {
    if (c.expect_in_error[0] == '\0') continue;  // placeholder row
    const std::string text = mutate(c.base, c.from, c.to);
    const std::string error = validate_text(text);
    EXPECT_NE(error, "") << "mutation should not validate: " << c.to;
    EXPECT_NE(error.find(c.expect_in_error), std::string::npos)
        << "error \"" << error << "\" should mention \"" << c.expect_in_error << "\"";
  }
}

TEST(ScenarioValidate, GraphBackendRejectsFaultPlans) {
  std::string text = mutate(kHierarchyBase, "\"backend\": \"event\"", "\"backend\": \"graph\"");
  text = mutate(text, "\"workload\"",
                "\"faults\": {\"plan\": [\"crash(1, 5, 9)\"]}, \"workload\"");
  const std::string error = validate_text(text);
  EXPECT_NE(error.find("$.faults: the graph backend cannot schedule faults"),
            std::string::npos)
      << error;
}

std::vector<std::string> library_files() {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(HOURS_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(ScenarioLibrary, EveryShippedScenarioValidates) {
  const auto paths = library_files();
  EXPECT_GE(paths.size(), 8u) << "the seeded library must stay populated";
  for (const auto& path : paths) {
    scenario::Scenario sc;
    EXPECT_EQ(scenario::load_file(path, sc), "") << path;
  }
}

std::vector<scenario::Scenario> load_library() {
  std::vector<scenario::Scenario> scenarios;
  for (const auto& path : library_files()) {
    scenario::Scenario sc;
    const std::string error = scenario::load_file(path, sc);
    EXPECT_EQ(error, "") << path;
    if (error.empty()) scenarios.push_back(std::move(sc));
  }
  return scenarios;
}

/// The number right after the first `needle` in a rendered report; -1 when
/// absent. snapshot::parse_json has no float support, so this reads the
/// writer's deterministic formatting.
double number_after(const std::string& json, std::string_view needle) {
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

const scenario::RunOptions kQuick{.quick = true, .trace_path = {}};

TEST(ScenarioRunner, MatrixBytesAreThreadCountInvariant) {
  const auto scenarios = load_library();
  ASSERT_GE(scenarios.size(), 8u);

  std::vector<std::vector<scenario::RunOutcome>> runs;
  for (const unsigned threads : {1u, 2u, 4u}) {
    jobs::Executor executor{threads};
    runs.push_back(scenario::run_matrix(scenarios, executor, kQuick));
  }
  for (std::size_t t = 1; t < runs.size(); ++t) {
    ASSERT_EQ(runs[t].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[t][i].json, runs[0][i].json)
          << scenarios[i].name << " diverged between 1 and " << (t == 1 ? 2 : 4)
          << " worker threads";
      EXPECT_EQ(runs[t][i].expectations_met, runs[0][i].expectations_met);
    }
  }
}

TEST(ScenarioRunner, TracingNeverChangesAReportAndEveryTraceLineValidates) {
  const auto scenarios = load_library();
  ASSERT_GE(scenarios.size(), 8u);
  const std::string trace_path = ::testing::TempDir() + "scenario_test_trace.jsonl";
  scenario::RunOptions traced = kQuick;
  traced.trace_path = trace_path;

  for (const auto& sc : scenarios) {
    const auto with_trace = scenario::run(sc, traced);
    const auto without = scenario::run(sc, kQuick);
    EXPECT_EQ(with_trace.json, without.json) << sc.name << ": tracing changed the report";

    std::ifstream in{trace_path};
    ASSERT_TRUE(in) << sc.name << ": no trace at " << trace_path;
    std::string line;
    std::string error;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      ++lines;
      ASSERT_TRUE(trace::validate_event_line(line, &error))
          << sc.name << " line " << lines << ": " << error << "\n  " << line;
    }
    EXPECT_GT(lines, 0u) << sc.name << ": empty trace";
  }
  std::filesystem::remove(trace_path);
}

TEST(ScenarioLibrary, AdaptiveAttackerStrikesAndDepressesDeliveryFurther) {
  // docs/OBSERVABILITY.md: with the static schedule's strike budget, chasing
  // recovery_adopt events hurts during-attack delivery more.
  const std::string dir = HOURS_SCENARIO_DIR;
  scenario::Scenario fixed_doc;
  scenario::Scenario adaptive_doc;
  ASSERT_EQ(scenario::load_file(dir + "/adaptive_static.json", fixed_doc), "");
  ASSERT_EQ(scenario::load_file(dir + "/adaptive_restrike.json", adaptive_doc), "");
  const auto fixed = scenario::run(fixed_doc, kQuick);
  const auto adaptive = scenario::run(adaptive_doc, kQuick);
  EXPECT_GT(number_after(adaptive.json, "\"strikes_launched\":"), 0.0)
      << "the adaptive attacker never struck";
  constexpr std::string_view kDuring = "\"during\":{\"delivery_ratio\":";
  const double during_static = number_after(fixed.json, kDuring);
  const double during_adaptive = number_after(adaptive.json, kDuring);
  ASSERT_GE(during_static, 0.0);
  ASSERT_GE(during_adaptive, 0.0);
  EXPECT_LT(during_adaptive, during_static);
}

TEST(ScenarioRunner, RunIsByteReproducibleAndReportsFailures) {
  // phase_lt(early, early) can never hold: the runner must report the failed
  // check while still producing a deterministic report.
  const std::string text =
      mutate(kRingBase, "{\"kind\": \"phase_ge\", \"left\": \"late\", \"right\": \"early\"}",
             "{\"kind\": \"phase_lt\", \"left\": \"early\", \"right\": \"early\"}");
  snapshot::Json doc;
  std::string error;
  ASSERT_TRUE(snapshot::parse_json(text, doc, &error)) << error;
  scenario::Scenario sc;
  ASSERT_EQ(scenario::parse(doc, sc), "");

  const auto first = scenario::run(sc);
  const auto second = scenario::run(sc);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.expectations_met);
  ASSERT_EQ(first.failed.size(), 1u);
  EXPECT_EQ(first.failed[0], "phase_lt(early, early)");
  EXPECT_NE(first.json.find("{\"check\":\"phase_lt(early, early)\",\"pass\":false}"),
            std::string::npos);
}

TEST(FaultPlanParse, ErrorsCarryLineColumnAndNearContext) {
  std::string error;
  // Column points at the first unparsable token, "near" quotes it.
  EXPECT_FALSE(sim::FaultPlan::parse("crash(1, bogus)", &error).has_value());
  EXPECT_NE(error.find("line 1, col 10"), std::string::npos) << error;
  EXPECT_NE(error.find("malformed crash()"), std::string::npos) << error;
  EXPECT_NE(error.find("near \"bogus)\""), std::string::npos) << error;

  // Later lines report their own line number.
  EXPECT_FALSE(
      sim::FaultPlan::parse("crash(1, 5, 9)\nflap(2, 10, 3,)", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("malformed flap()"), std::string::npos) << error;

  // Unknown builders quote the offending token instead of the whole line.
  EXPECT_FALSE(sim::FaultPlan::parse("frobnicate(1, 2)", &error).has_value());
  EXPECT_NE(error.find("unknown builder call \"frobnicate\""), std::string::npos) << error;

  // Truncation past the end of the line degrades to an explicit marker.
  EXPECT_FALSE(sim::FaultPlan::parse("crash(1, 5, 9", &error).has_value());
  EXPECT_NE(error.find("at end of line"), std::string::npos) << error;

  // The describe() round-trip is unaffected by the richer errors.
  sim::FaultPlan plan;
  plan.crash(3, 100, 900).loss_episode(0.25, 10, 20);
  const auto reparsed = sim::FaultPlan::parse(plan.describe(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_TRUE(*reparsed == plan);
}

}  // namespace
