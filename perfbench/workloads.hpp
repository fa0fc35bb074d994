#pragma once

// The two workloads of the end-to-end benchmark (see README.md in this
// directory for why each exists and what every metric means).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;    ///< cold_build | live_feed
  std::uint64_t seed = 0;  ///< every generated input derives from it
  double seconds = 10.0;   ///< length of the measured online stage
  bool trace = false;      ///< traced run: per-layer metrics instead of e2e
  std::string out_dir;     ///< scratch files (bundles) and the span dump
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload. Throws on a usage error or when the library fails
/// outside an output check (the caller then prints no result).
[[nodiscard]] Result run_workload(const Options& options);

}  // namespace perfbench
