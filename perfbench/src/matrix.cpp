// scenario_matrix: the pinned scenarios/*.json documents through
// scenario::run_matrix on a jobs::Executor with `threads` workers.
//
// Set-up parses every document from memory. The run repeats rounds of one serial
// pass (scenario::run per document, each timed) and five parallel passes,
// kPassesPerSecond parallel passes per run second. Every report must meet
// every expectation and reproduce the first serial pass byte for byte.
//
// The unit of work here is one document run. Throughput is documents per
// wall second of a parallel pass (the matrix wall time, inverted); the
// latency figures are the wall time of one document run in a serial pass:
// the median document, and as "p99" the slowest document (with 14
// documents a 99th percentile is the slowest one), each a median over the
// rounds.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "jobs/executor.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "snapshot/json.hpp"

namespace perfbench {

namespace {

constexpr unsigned kParseRepsPerRound = 20;  // parsing takes well under a millisecond
constexpr std::uint64_t kPassesPerRound = 5;  // parallel passes per serial pass
constexpr double kPassesPerSecond = 8.0;      // parallel passes per run second

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error(path + ": cannot open");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Parses every document from memory: snapshot::parse_json, then the
/// scenario validator. File reading stays outside the timed set-up.
std::vector<hours::scenario::Scenario> parse_all(const std::vector<std::string>& files,
                                                 const std::vector<std::string>& texts,
                                                 SpanLog::Buffer* buffer) {
  std::vector<hours::scenario::Scenario> docs(texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const std::uint64_t begin = now_ns();
    hours::snapshot::Json json;
    std::string error;
    if (hours::snapshot::parse_json(texts[i], json, &error)) {
      error = hours::scenario::parse(json, docs[i]);
    }
    if (buffer != nullptr) buffer->add("scenario.parse", "", begin, now_ns());
    if (!error.empty()) throw std::runtime_error(files[i] + ": " + error);
  }
  return docs;
}

}  // namespace

void run_scenario_matrix(const Options& options, Report& report) {
  if (options.scenario_files.empty()) throw std::invalid_argument("no --scenario documents");
  SpanLog spans{options.trace};

  std::vector<std::string> texts;
  for (const auto& file : options.scenario_files) texts.push_back(read_file(file));
  // Set-up is timed many times, spread over the run (a batch after every
  // round), so its median is not one moment's machine state.
  std::vector<double> setup;
  auto timed_parse = [&](SpanLog::Buffer* buffer) {
    const std::uint64_t begin = now_ns();
    auto parsed = parse_all(options.scenario_files, texts, buffer);
    setup.push_back(static_cast<double>(now_ns() - begin) / 1e9);
    return parsed;
  };
  SpanLog::Buffer& buffer = spans.buffer();
  if (spans.enabled()) buffer.open("setup");
  const std::vector<hours::scenario::Scenario> docs =
      timed_parse(spans.enabled() ? &buffer : nullptr);
  if (spans.enabled()) buffer.close();

  // Rounds of one serial pass (scenario::run per document, timed one by
  // one) and kPassesPerRound parallel run_matrix passes. The first serial
  // pass is the reference every later report must reproduce byte for byte.
  hours::jobs::Executor executor{options.threads};
  const auto passes = static_cast<std::uint64_t>(kPassesPerSecond * options.seconds);
  const std::uint64_t rounds = std::max<std::uint64_t>(2, passes / kPassesPerRound);
  std::vector<std::string> reference;
  std::vector<std::vector<double>> doc_s(docs.size());
  std::vector<double> serial_s, pass_s, round_p50_us, round_max_us;
  std::vector<double> untraced_s, traced_s;
  auto check = [&](const hours::scenario::RunOutcome& outcome, std::size_t i,
                   const std::string& when) {
    ++report.attempted;
    const bool same = outcome.json == reference[i];
    if (!outcome.expectations_met || !same) ++report.failed;
    if (!outcome.expectations_met) {
      report.fail(docs[i].name + ": " + when + " failed an expectation");
    }
    if (!same) report.fail(docs[i].name + ": " + when + " report differs from the serial run");
  };
  for (std::uint64_t round = 0; round < rounds; ++round) {
    double serial = 0.0;
    std::vector<double> round_us;
    if (spans.enabled()) buffer.open("scenario.serial_pass");
    for (std::size_t i = 0; i < docs.size(); ++i) {
      const std::uint64_t begin = now_ns();
      const auto outcome = hours::scenario::run(docs[i]);
      const std::uint64_t end = now_ns();
      if (spans.enabled()) {
        buffer.add("scenario.run", docs[i].name.c_str(), begin, end, i + 1);
      }
      const double wall = static_cast<double>(end - begin) / 1e9;
      serial += wall;
      doc_s[i].push_back(wall);
      round_us.push_back(wall * 1e6);
      if (round == 0) reference.push_back(outcome.json);
      check(outcome, i, "serial run");
    }
    if (spans.enabled()) buffer.close();
    serial_s.push_back(serial);
    for (unsigned rep = 0; rep < kParseRepsPerRound; ++rep) (void)timed_parse(nullptr);
    round_p50_us.push_back(quantile(round_us, 0.5));
    round_max_us.push_back(*std::max_element(round_us.begin(), round_us.end()));
    for (std::uint64_t pass = 0; pass < kPassesPerRound; ++pass) {
      const std::uint64_t begin = now_ns();
      const auto outcomes = hours::scenario::run_matrix(docs, executor);
      const std::uint64_t end = now_ns();
      // Traced runs record spans on odd passes only, so the two halves give
      // the tracing overhead.
      const bool traced = spans.enabled() && pass % 2 == 1;
      if (traced) buffer.add("scenario.run_matrix", "", begin, end, pass + 1);
      const double wall = static_cast<double>(end - begin) / 1e9;
      pass_s.push_back(wall);
      (traced ? traced_s : untraced_s).push_back(wall);
      for (std::size_t i = 0; i < outcomes.size(); ++i) check(outcomes[i], i, "matrix pass");
    }
  }

  const double matrix_s = median(pass_s);
  report.info("documents", std::to_string(docs.size()));
  report.info("matrix_wall_s", std::to_string(matrix_s));
  if (!options.trace) {
    report.metric("setup_s", median(setup), "s");
    report.metric("throughput_qps", static_cast<double>(docs.size()) / matrix_s, "1/s");
    report.metric("latency_p50_us", median(round_p50_us), "us");
    report.metric("latency_p99_us", median(round_max_us), "us");
    report.metric("answered_ratio",
                  static_cast<double>(report.attempted - report.failed) /
                      static_cast<double>(report.attempted),
                  "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    report.metric("scenario.parse.busy_s", spans.busy_s("scenario.parse"), "s");
    for (std::size_t i = 0; i < docs.size(); ++i) {
      report.metric("scenario." + docs[i].name + ".wall_s", median(doc_s[i]), "s");
    }
    report.metric("jobs.matrix.wall_s", matrix_s, "s");
    report.metric("jobs.matrix.serial_s", median(serial_s), "s");
    report.metric("jobs.matrix.speedup", median(serial_s) / matrix_s, "ratio");
    report.metric("trace.overhead_ratio", median(untraced_s) / median(traced_s), "ratio");
    if (!options.spans_path.empty() && !spans.write_jsonl(options.spans_path)) {
      report.fail("cannot write spans to " + options.spans_path);
    }
  }
}

}  // namespace perfbench
