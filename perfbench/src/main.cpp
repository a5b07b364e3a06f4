// perfbench: runs one benchmark workload against the library and prints its
// metrics. perfbench/run.py is the entry point; it passes the seed, the
// run length and the workload's settings from perfbench/workloads.json.
//
//   perfbench --workload serve_hot --seed 7 --seconds 10 --trace 0
//             --threads 4 --open-rate 1000000
//
// The last stdout line is a JSON object: correct, attempted, failed,
// metrics (name -> {value, unit}) and failures. The exit code is 0 only
// when every output check held.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "common.hpp"

namespace {

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag{argv[i]};
    if (i + 1 >= argc) usage("every option takes a value");
    const std::string value{argv[++i]};
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--threads") {
      o.threads = static_cast<unsigned>(std::stoul(value));
    } else if (flag == "--open-rate") {
      o.open_rate = std::stod(value);
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else if (flag == "--scenario") {
      o.scenario_files.push_back(value);
    } else if (flag == "--inject") {
      o.inject = value;
    } else {
      usage("unknown option");
    }
  }
  if (o.threads == 0) usage("--threads must be positive");
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);

#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  if (!kOptimized) {
    std::fprintf(stderr, "perfbench: refusing to time an unoptimized build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  perfbench::Report report;
  report.info("compiler", PERFBENCH_COMPILER);
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  report.info("optimized", kOptimized ? "yes" : "NO");
  try {
    if (options.workload == "serve_hot") {
      perfbench::run_serve_hot(options, report);
    } else if (options.workload == "serve_miss") {
      perfbench::run_serve_miss(options, report);
    } else if (options.workload == "engine_churn") {
      perfbench::run_engine_churn(options, report);
    } else if (options.workload == "scenario_matrix") {
      perfbench::run_scenario_matrix(options, report);
    } else {
      usage("unknown --workload");
    }
  } catch (const std::exception& error) {
    report.fail(std::string{"exception: "} + error.what());
  }
  report.print();
  return report.correct() ? 0 : 1;
}
