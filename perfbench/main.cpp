// End-to-end benchmark of the tsunami digital twin.
//
//   perfbench --workload cold_build|live_feed --seed N
//             --seconds S --trace 0|1 --out-dir DIR
//
// Prints progress and notes, then as its last line one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero, printing no result, on a usage error or when
// the library fails outside an output check. run.py builds and drives it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n",
               msg);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have[5] = {false, false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = val;
        have[0] = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
        have[1] = true;
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
        have[2] = true;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        o.trace = val == "1";
        have[3] = true;
      } else if (key == "--out-dir") {
        o.out_dir = val;
        have[4] = true;
      } else {
        usage(("unknown argument " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  for (const bool h : have)
    if (!h) usage("every argument is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Result r;
  try {
    r = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::string json = "{\"correct\": ";
  json += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
