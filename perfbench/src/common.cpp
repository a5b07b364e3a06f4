#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {
constexpr std::size_t kSmoothFrom = 2'000;  // samples; the band is n / kSmoothFrom ranks
}  // namespace

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (values.size() >= kSmoothFrom) {
    // Large samples of clock readings tie heavily at nanosecond resolution;
    // averaging the order statistics in a narrow rank band around `pos`
    // keeps the estimate from snapping to one clock tick.
    const std::size_t band = values.size() / kSmoothFrom;
    const std::size_t from = lo >= band ? lo - band : 0;
    const std::size_t to = std::min(hi + band, values.size() - 1);
    double sum = 0.0;
    for (std::size_t i = from; i <= to; ++i) sum += values[i];
    return sum / static_cast<double>(to - from + 1);
  }
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t Rng::next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::exponential(double mean) { return -mean * std::log1p(-unit()); }

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng{seed ^ (0xD1B54A32D192ED03ULL * (stream + 1))};
  return rng.next();
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

// -- spans ---------------------------------------------------------------------

std::uint64_t SpanLog::Buffer::add(const char* name, const char* tag, std::uint64_t start_ns,
                                   std::uint64_t end_ns, std::uint64_t request) {
  const std::uint64_t id = (thread_ << 40) | (spans_.size() + 1);
  const std::uint64_t parent = open_.empty() ? 0 : spans_[open_.back()].id;
  spans_.push_back(Span{id, parent, request, start_ns, end_ns, name, tag});
  return id;
}

void SpanLog::Buffer::open(const char* name) {
  const std::uint64_t now = now_ns();
  (void)add(name, "", now, now);
  open_.push_back(spans_.size() - 1);
}

void SpanLog::Buffer::close() {
  spans_[open_.back()].end_ns = now_ns();
  open_.pop_back();
}

SpanLog::Buffer& SpanLog::buffer() {
  std::lock_guard<std::mutex> lock{mutex_};
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->thread_ = buffers_.size();
  return *buffers_.back();
}

std::vector<double> SpanLog::durations_us(const std::string& name,
                                          const std::string& tag) const {
  std::lock_guard<std::mutex> lock{mutex_};
  std::vector<double> out;
  for (const auto& buffer : buffers_) {
    for (const auto& span : buffer->spans_) {
      if (name == span.name && (tag.empty() || tag == span.tag)) out.push_back(span.us());
    }
  }
  return out;
}

double SpanLog::busy_s(const std::string& name) const {
  double total = 0.0;
  for (const double us : durations_us(name)) total += us;
  return total / 1e6;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock{mutex_};
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const auto& buffer : buffers_) {
    for (const auto& s : buffer->spans_) {
      std::fprintf(out,
                   "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"name\":\"%s\","
                   "\"tag\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name, s.tag,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

// -- report --------------------------------------------------------------------

namespace {

std::string escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::fail(const std::string& what) {
  if (failures_.size() < 20) failures_.push_back(what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::print() const {
  for (const auto& [key, value] : info_) {
    std::printf("info %s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, entry] : metrics_) {
    std::printf("metric %-44s %18.6f %s\n", name.c_str(), entry.first, entry.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), entry.first, entry.second.c_str());
    first = false;
  }
  std::printf("}, \"failures\": [");
  first = true;
  for (const auto& what : failures_) {
    std::printf("%s\"%s\"", first ? "" : ", ", escape(what).c_str());
    first = false;
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
