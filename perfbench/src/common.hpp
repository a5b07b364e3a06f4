// Shared plumbing of the perfbench workloads: options, the input generator's
// RNG, exact percentiles, in-memory spans and the metric report.
//
// The benchmark measures the library from outside: every timing wraps a
// call into a public function, and every count comes from a public
// accessor. Nothing here reaches into the library's internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// -- options -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 4;            ///< client threads / matrix workers (nproc)
  double open_rate = 0.0;          ///< open-loop offered load, queries/s, all clients
  std::string spans_path;          ///< traced runs write their spans here
  std::vector<std::string> scenario_files;  ///< pinned matrix, in order
  /// Self-test hook: "answer" corrupts one checked answer, "digest" perturbs
  /// one replayed engine outcome. Either must make the run fail its checks.
  std::string inject;
};

// -- clock and statistics ------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

/// Quantile `q` in [0, 1]: linear interpolation between order statistics
/// (the "type 7" estimator) for small samples, and for samples of 2,000 or
/// more the mean of the order statistics within n/2,000 ranks of that
/// position. Reorders `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double>& values, double q);

[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

// -- input generator -----------------------------------------------------------

/// The benchmark's own generator (SplitMix64), independent of the library's
/// RNGs so a change to those never changes the inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Exponential gap with the given mean.
  double exponential(double mean);

 private:
  std::uint64_t state_;
};

/// Seed of an independent input stream derived from the run seed.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

/// Zipf(s) sampler over ranks [0, n) by inverse-CDF binary search.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// -- spans ---------------------------------------------------------------------

/// One timed call into the library, or a phase enclosing such calls.
/// `parent` is the id of the enclosing span (0 at the top); spans of one
/// request share `request`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  const char* name = "";
  const char* tag = "";
  [[nodiscard]] double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// In-memory span store; one buffer per recording thread, written out when
/// the run ends. Disabled logs record nothing and cost one branch.
class SpanLog {
 public:
  class Buffer {
   public:
    /// Records a finished span under the innermost open one; returns its id.
    std::uint64_t add(const char* name, const char* tag, std::uint64_t start_ns,
                      std::uint64_t end_ns, std::uint64_t request = 0);
    /// Starts a span that encloses every span added until close().
    void open(const char* name);
    void close();

   private:
    friend class SpanLog;
    std::uint64_t thread_ = 0;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;  ///< indices of the open spans, innermost last
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// A buffer owned by the log; hand one to each recording thread.
  Buffer& buffer();

  /// Durations (µs) of every span named `name` (and tagged `tag`, if given).
  [[nodiscard]] std::vector<double> durations_us(const std::string& name,
                                                 const std::string& tag = "") const;
  /// Summed duration (s) of every span named `name`.
  [[nodiscard]] double busy_s(const std::string& name) const;

  /// Writes every span as one JSON line; returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// -- report --------------------------------------------------------------------

/// Metrics, counts and check outcomes of one run. print() writes one
/// "metric" line per value, then the result object as the last line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check; the run then exits nonzero.
  void fail(const std::string& what);
  void info(const std::string& key, const std::string& value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< operations not answered

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  void print() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
};

// -- workloads -----------------------------------------------------------------

void run_serve_hot(const Options& options, Report& report);
void run_serve_miss(const Options& options, Report& report);
void run_engine_churn(const Options& options, Report& report);
void run_scenario_matrix(const Options& options, Report& report);

}  // namespace perfbench
