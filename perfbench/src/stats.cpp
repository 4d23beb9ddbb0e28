#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

/// 1-based nearest rank of the q-percentile: ceil(q * n), at least 1.
std::size_t nearestRank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1,
                                 n);
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearestRank(values.size(), q) - 1];
}

std::size_t samplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearestRank(n, q);
}

bool percentileResolved(std::size_t n, double q) {
  return samplesBeyond(n, q) >= 10;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

GeoMean geomean(const std::vector<double>& values) {
  GeoMean g;
  g.base = values.size();
  if (values.empty()) {
    g.ok = false;
    return g;
  }
  double logSum = 0.0;
  for (double v : values) {
    if (!(v > 0.0) || !std::isfinite(v)) {
      g.ok = false;
      return g;
    }
    logSum += std::log(v);
  }
  g.value = std::exp(logSum / static_cast<double>(values.size()));
  return g;
}

double FailFraction::fail() const {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

double OpenLoopSample::latencyMs() const {
  if (!ok) return std::numeric_limits<double>::infinity();
  return (doneS - dueS) * 1e3;
}

}  // namespace perfbench
