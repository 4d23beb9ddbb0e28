// What one benchmark run hands back, and the small process helpers every
// workload shares (seeded RNG, /proc gauges, the JSON result line).
#pragma once
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serveBin;  ///< built als_serve binary
  std::string outDir;    ///< scratch directory inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome.  `endToEnd` holds the untraced user-facing metrics,
/// `perLayer` the traced run's layer metrics (every name in kPerLayerNames).
struct RunOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> endToEnd;
  std::vector<Metric> perLayer;
  std::vector<std::string> notes;  ///< human-readable lines (stderr)

  void fail(std::string what) {
    ++failed;
    failures.push_back(std::move(what));
  }
  void addE2e(const std::string& name, double value, const char* unit) {
    endToEnd.push_back({name, value, unit});
  }
  void addLayer(const std::string& name, double value, const char* unit) {
    perLayer.push_back({name, value, unit});
  }
};

/// Order and units of the end-to-end metrics (BENCHMARK.json).
extern const std::vector<std::pair<std::string, std::string>> kEndToEndNames;
/// Order and units of the per-layer metrics (BENCHMARK.json).
extern const std::vector<std::pair<std::string, std::string>> kPerLayerNames;

/// Prints the notes and failures to stderr and the result object as the last
/// stdout line; returns the process exit code (0 iff no check failed and
/// every expected metric is present).
int emitResult(const RunOutput& out, bool trace);

/// splitmix64 — the benchmark's only source of randomness for generated
/// inputs, so a seed names the same inputs on every platform.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1), 53 bits
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }

 private:
  std::uint64_t state_;
};
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/// /proc/<pid> gauges (pid 0 = this process).  Missing entries read 0.
struct ProcGauges {
  double vmHwmMb = 0.0;
  double vmRssMb = 0.0;
  std::uint64_t threads = 0;
  std::uint64_t fds = 0;
  double cpuS = 0.0;  ///< user + system CPU time of all the process's threads
};
ProcGauges readProcGauges(int pid);

}  // namespace perfbench
