// Unit tests of the benchmark's own arithmetic: the percentile rule, the
// geomean and fail-fraction bases, open-loop timing from the scheduled send
// time, span self time, and the purity of the generated serve-open inputs.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <limits>

#include "schedule.h"
#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void percentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  CHECK(near(percentile(v, 0.5), 500));
  CHECK(near(percentile(v, 0.99), 990));
  CHECK(near(percentile(v, 1.0), 1000));
  CHECK(samplesBeyond(1000, 0.99) == 10);
  CHECK(percentileResolved(1000, 0.99));
  CHECK(!percentileResolved(999, 0.99));  // only 9 beyond
  CHECK(!percentileResolved(48, 0.99));
  CHECK(percentileResolved(100, 0.9));
  CHECK(percentileResolved(10000, 0.999));
  CHECK(!percentileResolved(15, 0.5));  // 7 beyond the median
  CHECK(percentileResolved(20, 0.5));
  // Failed requests (+inf) sort last and are never the median.
  std::vector<double> withFail = {3, 1, std::numeric_limits<double>::infinity(),
                                  2};
  CHECK(near(percentile(withFail, 0.5), 2));
  CHECK(std::isinf(percentile(withFail, 0.99)));
  CHECK(near(median({4, 1, 3, 2}), 2.5));
  CHECK(near(median({5, 1, 3}), 3));
}

void geomeanAndFailBases() {
  const GeoMean g = geomean({1.0, 4.0, 16.0});
  CHECK(g.ok);
  CHECK(g.base == 3);
  CHECK(near(g.value, 4.0));
  CHECK(!geomean({1.0, 0.0}).ok);
  CHECK(!geomean({}).ok);
  const FailFraction f{3, 200};
  CHECK(near(f.fail(), 0.015));
  CHECK(near(f.ok(), 0.985));
  CHECK(near(FailFraction{0, 0}.fail(), 1.0));  // nothing ran
}

void openLoopTiming() {
  // Due at 1.0 s, sent 30 ms late because the generator stalled, reply at
  // 1.05 s: the request waited 50 ms from its due time, not 20 ms.
  OpenLoopSample s;
  s.dueS = 1.0;
  s.sentS = 1.03;
  s.doneS = 1.05;
  s.ok = true;
  CHECK(near(s.latencyMs(), 50.0));
  CHECK(near(s.lagMs(), 30.0));
  s.ok = false;  // a refused request misses every limit
  CHECK(std::isinf(s.latencyMs()));
}

void spanSelfTime() {
  std::vector<Span> spans;
  auto add = [&spans](const char* name, std::uint32_t parent, double a,
                      double b) {
    Span s;
    s.name = name;
    s.id = static_cast<std::uint32_t>(spans.size() + 1);
    s.parent = parent;
    s.start = a;
    s.end = b;
    spans.push_back(s);
  };
  add("runtime", 0, 0.0, 10.0);   // id 1
  add("engine", 1, 1.0, 4.0);     // id 2
  add("engine", 1, 3.0, 6.0);     // id 3, overlaps id 2: union is 1..6
  add("engine", 1, 9.0, 12.0);    // id 4, clipped to the parent's end
  add("cost", 2, 1.5, 2.5);       // id 5, grandchild of runtime
  const auto self = selfTimes(spans);
  CHECK(near(self.at("runtime"), 10.0 - 5.0 - 1.0));
  CHECK(near(self.at("engine"), (3.0 - 1.0) + 3.0 + 3.0));
  CHECK(near(self.at("cost"), 1.0));

  Tracer off(false);
  CHECK(off.begin("io", 1) == 0);
  CHECK(off.spans().empty());
  Tracer on(true);
  const std::uint32_t id = on.begin("io", 7);
  on.end(id);
  CHECK(on.spans().size() == 1 && on.spans()[0].job == 7);
}

void schedulePurity() {
  // The schedule serve-open runs: BENCHMARK.json's 30-second window over the
  // five MCNC circuits.
  const double seconds = 30.0;
  const ServeSchedule a = makeServeSchedule(42, seconds, 5);
  const ServeSchedule b = makeServeSchedule(42, seconds, 5);
  const ServeSchedule c = makeServeSchedule(43, seconds, 5);
  CHECK(a.digest() == b.digest());
  CHECK(a.digest() != c.digest());
  // Pinned: the generator for seed 42 must not drift, or every recorded
  // figure would silently describe other inputs.
  std::fprintf(stderr, "schedule digest(seed 42) = %016llx\n",
               static_cast<unsigned long long>(a.digest()));
  CHECK(a.digest() == 0x99ce49c3173da987ull);
  CHECK(a.arrivals.size() == static_cast<std::size_t>(kArrivalRate * seconds));
  CHECK(a.arrivals.size() == 1050);
  std::size_t repeats = 0, oneShot = 0;
  double prev = 0.0;
  for (const ServeArrival& x : a.arrivals) {
    CHECK(x.dueS >= prev && x.dueS < seconds);
    CHECK(x.key < a.keys.size());
    prev = x.dueS;
    repeats += !x.firstSend;
    oneShot += x.oneShot;
  }
  // Shares are dealt exactly: 30% resubmissions (the very first arrival is
  // always new), 10% one-shot, 20% of fresh keys tempering.
  CHECK(repeats == 315 || repeats == 314);
  CHECK(oneShot == 105);
  CHECK(a.keys.size() == 1050 - repeats);
  std::size_t tempering = 0;
  for (const ServeKey& k : a.keys) tempering += k.tempering;
  CHECK(tempering * 5 >= a.keys.size() - 50 && tempering * 5 <= a.keys.size() + 50);
}

}  // namespace

int main() {
  percentileRule();
  geomeanAndFailBases();
  openLoopTiming();
  spanSelfTime();
  schedulePurity();
  if (g_failures) {
    std::fprintf(stderr, "perfbench_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
