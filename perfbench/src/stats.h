// Summary statistics shared by every workload: percentiles with the
// ten-samples-beyond rule, geometric means and failure fractions with their
// bases, and open-loop latency taken from the scheduled send time.
#pragma once
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts a copy.
/// +infinity entries (failed requests) sort last.  Empty input gives 0.
double percentile(std::vector<double> values, double q);

/// Samples strictly above the nearest-rank q-percentile of n samples.
std::size_t samplesBeyond(std::size_t n, double q);

/// True when the q-percentile of n samples has at least ten samples beyond
/// it — the rule a reported tail percentile must meet.
bool percentileResolved(std::size_t n, double q);

double median(std::vector<double> values);

/// Geometric mean with its base (the number of values it is taken over).
/// Every value must be positive; a non-positive value makes `ok` false.
struct GeoMean {
  double value = 0.0;
  std::size_t base = 0;
  bool ok = true;
};
GeoMean geomean(const std::vector<double>& values);

/// Failures over attempts, with attempts as the base.  `attempted` 0 gives
/// fraction 1 (nothing ran, nothing succeeded).
struct FailFraction {
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  double fail() const;
  double ok() const { return 1.0 - fail(); }
};

/// Open-loop timing: a request is timed from when it was DUE to be sent,
/// not from when the generator managed to send it, so a stalled generator
/// or server charges its delay to every request queued behind it.
struct OpenLoopSample {
  double dueS = 0.0;   ///< scheduled send, seconds from schedule start
  double sentS = 0.0;  ///< actual send
  double doneS = 0.0;  ///< reply complete
  bool ok = false;     ///< failed or refused requests miss every limit
  double latencyMs() const;  ///< +infinity when !ok
  double lagMs() const { return (sentS - dueS) * 1e3; }
};

}  // namespace perfbench
