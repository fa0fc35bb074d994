#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>

#include "parallel/thread_pool.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace tsunami::benchutil {

bool quick_mode() {
  const char* v = std::getenv("TSUNAMI_BENCH_QUICK");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

int reps(int full_reps) { return quick_mode() ? 1 : full_reps; }

Stat time_reps(int n, const std::function<void()>& fn) {
  if (n < 1) n = 1;
  if (n > 1) fn();  // warmup: first-touch allocation, icache, page faults
  std::vector<double> seconds(static_cast<std::size_t>(n));
  for (auto& s : seconds) {
    Stopwatch w;
    fn();
    s = w.seconds();
  }
  return from_seconds(seconds);
}

Stat from_seconds(const std::vector<double>& seconds) {
  Stat st;
  st.reps = static_cast<int>(seconds.size());
  if (seconds.empty()) return st;
  st.median_ns = percentile(seconds, 50.0) * 1e9;
  st.p10_ns = percentile(seconds, 10.0) * 1e9;
  st.p90_ns = percentile(seconds, 90.0) * 1e9;
  return st;
}

double triad_gbps(std::size_t working_set_bytes, int reps) {
  const std::size_t n =
      std::max<std::size_t>(working_set_bytes / (3 * sizeof(double)), 1024);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double scalar = 0.5;
  std::vector<double> seconds;
  for (int r = 0; r <= std::max(reps, 1); ++r) {
    Stopwatch w;
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + scalar * c[i];
    // Keep the stores: the loop is identical every rep.
    asm volatile("" : : "r"(a.data()) : "memory");
    if (r > 0) seconds.push_back(w.seconds());  // rep 0 is the warmup
  }
  if (a[n / 2] != 2.0) std::fprintf(stderr, "[bench_util] triad: bad result\n");
  return 3.0 * static_cast<double>(n * sizeof(double)) /
         percentile(seconds, 50.0) / 1e9;
}

JsonReport::JsonReport(std::string bench_name) : name_(std::move(bench_name)) {}

JsonReport::~JsonReport() {
  if (!written_) write();
}

void JsonReport::add(const std::string& case_name,
                     const std::vector<std::pair<std::string, double>>& shape,
                     const Stat& stat,
                     const std::vector<std::pair<std::string, double>>& extra) {
  cases_.push_back(Case{case_name, shape, stat, extra});
}

void JsonReport::note(const std::string& key, double value) {
  notes_.emplace_back(key, value);
}

namespace {

// %.17g round-trips doubles exactly and stays valid JSON (no NaN/Inf are
// ever recorded by the benchmarks).
void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

/// {"key": value, ...} over named numbers.
void append_object(std::string& out,
                   const std::vector<std::pair<std::string, double>>& entries) {
  out += "{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + entries[i].first + "\": ";
    append_number(out, entries[i].second);
  }
  out += "}";
}

/// Commit being benchmarked: TSUNAMI_GIT_SHA, then CI's GITHUB_SHA, then
/// asking git itself; "unknown" outside a checkout.
std::string git_sha() {
  for (const char* var : {"TSUNAMI_GIT_SHA", "GITHUB_SHA"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && *v != '\0') return v;
  }
  std::string sha;
  if (std::FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) sha = buf;
    ::pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
    sha.pop_back();
  for (const char c : sha) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return "unknown";
  }
  return sha.empty() ? "unknown" : sha;
}

std::string utc_timestamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// The "meta" block that makes BENCH_*.json artifacts comparable across CI
/// runs: which commit, which machine width, which thread setting, when.
std::string meta_json() {
  std::string out = "{\"git_sha\": \"" + git_sha() + "\"";
  out += ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"tsunami_num_threads\": " +
         std::to_string(ThreadPool::default_threads());
  out += ", \"timestamp\": \"" + utc_timestamp() + "\"}";
  return out;
}

}  // namespace

std::string JsonReport::write() {
  written_ = true;
  std::string out = "{\n  \"bench\": \"" + name_ + "\",\n  \"quick\": ";
  out += quick_mode() ? "true" : "false";
  out += ",\n  \"meta\": " + meta_json();
  out += ",\n  \"cases\": [";
  for (std::size_t i = 0; i < cases_.size(); ++i) {
    const Case& c = cases_[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": \"" + c.name + "\", \"shape\": ";
    append_object(out, c.shape);
    out += ", \"reps\": ";
    append_number(out, c.stat.reps);
    out += ", \"median_ns\": ";
    append_number(out, c.stat.median_ns);
    out += ", \"p10_ns\": ";
    append_number(out, c.stat.p10_ns);
    out += ", \"p90_ns\": ";
    append_number(out, c.stat.p90_ns);
    if (!c.extra.empty()) {
      out += ", \"extra\": ";
      append_object(out, c.extra);
    }
    out += "}";
  }
  out += "\n  ],\n  \"notes\": ";
  append_object(out, notes_);
  out += "\n}\n";

  const std::string file = "BENCH_" + name_ + ".json";
  if (std::FILE* f = std::fopen(file.c_str(), "w")) {
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("[bench_util] wrote %s (%zu cases)\n", file.c_str(),
                cases_.size());
  } else {
    std::fprintf(stderr, "[bench_util] could not write %s\n", file.c_str());
  }
  return file;
}

}  // namespace tsunami::benchutil
