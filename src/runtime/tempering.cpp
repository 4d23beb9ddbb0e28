#include "runtime/tempering.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "anneal/annealer.h"
#include "engine/place_scratch.h"
#include "runtime/portfolio.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace als {

namespace {

/// splitmix64 finalizer — the same mixer behind portfolioSeedAt.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Options of one replica: the shared slice options (portfolio.h) with the
/// tempering knob additionally neutralized (a replica is exactly one
/// resumable session).
EngineOptions replicaOptions(const EngineOptions& base,
                             const RestartSlice& slice,
                             std::size_t resolvedMovesPerTemp) {
  EngineOptions opt = sliceEngineOptions(base, slice, resolvedMovesPerTemp);
  opt.tempering = false;
  return opt;
}

/// Ladder rung scales by repeated multiplication (never pow: libm results
/// may differ across platforms, and determinism here is a hard contract).
std::vector<double> ladderScales(std::size_t count, double ratio) {
  std::vector<double> scales(count);
  double scale = 1.0;
  for (std::size_t i = 0; i < count; ++i) {
    scales[i] = scale;
    scale *= ratio;
  }
  return scales;
}

/// Everything a round-loop lambda needs, reachable through ONE captured
/// reference: the per-round parallelFor closures must fit libstdc++'s
/// std::function small-buffer (16 bytes) or every round allocates,
/// breaking the steady-state zero-allocation gate (tests/alloc_gate_test).
struct Fleet {
  std::vector<std::unique_ptr<ReplicaSession>> sessions;
  std::vector<EngineResult> results;
  // Creation inputs (sessions are built inside the first parallelFor).
  const Circuit* circuit = nullptr;
  const EngineOptions* options = nullptr;
  const std::vector<RestartSlice>* plan = nullptr;
  std::vector<double> scales;
  std::vector<EngineBackend> backends;  ///< per session (backend-major grid)
  std::size_t movesPerTemp = 0;
  std::size_t interval = 0;
  TemperingScratch* bank = nullptr;  ///< per-replica warm buffers (optional)

  void create(std::size_t i) {
    const std::size_t k = plan->size();
    EngineOptions opt = replicaOptions(*options, (*plan)[i % k], movesPerTemp);
    if (bank != nullptr) opt.scratch = bank->replicas[i].get();
    sessions[i] = makeReplicaSession(backends[i], *circuit, opt, scales[i % k]);
  }
  void step(std::size_t i) {
    if (!sessions[i]->finished()) sessions[i]->runSweeps(interval);
  }
  void runToEnd(std::size_t i) { sessions[i]->run(); }
  void finish(std::size_t i) { results[i] = sessions[i]->finish(); }
};

/// One ladder's view into the (backend-major) fleet plus its exchange
/// bookkeeping buffers.
struct Ladder {
  std::size_t base = 0;   ///< first session index
  std::size_t count = 0;  ///< replicas on this ladder
  std::uint64_t salt = 0;
};

class TemperingDriver {
 public:
  TemperingDriver(Fleet& fleet, std::span<const std::uint64_t> seeds,
                  std::span<const Ladder> ladders,
                  std::vector<TemperingReplica>& replicas)
      : fleet_(fleet), seeds_(seeds), ladders_(ladders), replicas_(replicas) {
    // Sized to the whole fleet: in a race the per-round buffers span every
    // ladder (seeds are per-ladder and shared, so seeds.size() is smaller).
    const std::size_t total = fleet.sessions.size();
    costs_.resize(total);
    temps_.resize(total);
    active_.resize(total);
  }

  /// Runs the round loop on `pool` (fork-join steps, main-thread barriers);
  /// returns (rounds, exchangesAccepted, reseeds).
  void runRounds(ThreadPool& pool, bool crossSeed, std::size_t& rounds,
                 std::size_t& exchanges, std::size_t& reseeds) {
    Fleet& fleet = fleet_;
    const std::size_t total = fleet.sessions.size();
    if (fleet.interval == 0) {
      pool.parallelFor(total,
                       [&fleet](std::size_t i, std::size_t) { fleet.runToEnd(i); });
      return;
    }
    std::uint64_t round = 0;
    while (true) {
      pool.parallelFor(total,
                       [&fleet](std::size_t i, std::size_t) { fleet.step(i); });
      ++rounds;
      bool anyActive = false;
      for (std::size_t i = 0; i < total; ++i) {
        const ReplicaSession& s = *fleet.sessions[i];
        active_[i] = s.finished() ? 0 : 1;
        costs_[i] = s.currentCost();
        temps_[i] = s.temperature();
        anyActive = anyActive || active_[i] != 0;
      }
      if (!anyActive) break;
      for (const Ladder& ladder : ladders_) {
        planExchanges(round, ladder.salt, seeds_,
                      std::span(costs_).subspan(ladder.base, ladder.count),
                      std::span(temps_).subspan(ladder.base, ladder.count),
                      std::span(active_).subspan(ladder.base, ladder.count),
                      swaps_);
        for (std::size_t lo : swaps_) {
          const std::size_t i = ladder.base + lo;
          fleet.sessions[i]->exchangeWith(*fleet.sessions[i + 1]);
          ++replicas_[i].exchanges;
          ++replicas_[i + 1].exchanges;
          ++exchanges;
        }
      }
      if (crossSeed && ladders_.size() > 1) {
        reseeds += crossSeedLadders();
      }
      ++round;
    }
  }

 private:
  /// Re-seeds each lagging ladder's worst active replica from the global
  /// leader's best placement.  Leader by (bestCost, seed, position) — the
  /// race's total order; runs on the calling thread between fork-joins, so
  /// thread count cannot influence it.
  std::size_t crossSeedLadders() {
    Fleet& fleet = fleet_;
    const std::size_t total = fleet.sessions.size();
    std::size_t leader = 0;
    double leaderCost = fleet.sessions[0]->bestCost();
    for (std::size_t i = 1; i < total; ++i) {
      const double c = fleet.sessions[i]->bestCost();
      if (c < leaderCost ||
          (c == leaderCost &&
           seeds_[i % seeds_.size()] < seeds_[leader % seeds_.size()])) {
        leader = i;
        leaderCost = c;
      }
    }
    // Which ladder owns the leader?
    const Ladder* leaderLadder = nullptr;
    for (const Ladder& ladder : ladders_) {
      if (leader >= ladder.base && leader < ladder.base + ladder.count) {
        leaderLadder = &ladder;
      }
    }
    std::size_t adopted = 0;
    const Placement* donor = nullptr;  // decoded lazily: often nobody lags
    for (const Ladder& ladder : ladders_) {
      if (&ladder == leaderLadder) continue;
      // Worst active replica of this ladder (largest current cost; ties go
      // to the hotter rung, i.e. the largest index).
      std::size_t worst = total;  // sentinel: none active
      for (std::size_t r = 0; r < ladder.count; ++r) {
        const std::size_t i = ladder.base + r;
        if (active_[i] == 0) continue;
        if (worst == total || costs_[i] >= costs_[worst]) worst = i;
      }
      if (worst == total) continue;
      if (fleet.sessions[worst]->bestCost() <= leaderCost) continue;
      if (donor == nullptr) donor = &fleet.sessions[leader]->bestPlacement();
      if (fleet.sessions[worst]->reseedFromPlacement(*donor)) {
        ++replicas_[worst].reseeds;
        ++adopted;
      }
    }
    return adopted;
  }

  Fleet& fleet_;
  std::span<const std::uint64_t> seeds_;
  std::span<const Ladder> ladders_;
  std::vector<TemperingReplica>& replicas_;
  std::vector<double> costs_, temps_;
  std::vector<std::uint8_t> active_;
  std::vector<std::size_t> swaps_;
};

/// Grows the bank to `total` entries on the calling thread (sessions built
/// inside the parallel create must never race the bank's vector).
void growBank(TemperingScratch* bank, std::size_t total) {
  if (bank == nullptr) return;
  while (bank->replicas.size() < total) {
    bank->replicas.push_back(std::make_unique<PlaceScratch>());
  }
}

}  // namespace

TemperingScratch::TemperingScratch() = default;
TemperingScratch::~TemperingScratch() = default;

std::uint64_t exchangeScheduleSeed(std::uint64_t round,
                                   std::span<const std::uint64_t> seeds) {
  std::uint64_t h = mix64(round);
  for (std::uint64_t s : seeds) h = mix64(h ^ s);
  return h;
}

void planExchanges(std::uint64_t round, std::uint64_t salt,
                   std::span<const std::uint64_t> seeds,
                   std::span<const double> costs,
                   std::span<const double> temps,
                   std::span<const std::uint8_t> active,
                   std::vector<std::size_t>& out) {
  out.clear();
  const std::size_t k = costs.size();
  if (k < 2) return;
  Rng rng(mix64(exchangeScheduleSeed(round, seeds) ^ mix64(salt)));
  for (std::size_t i = round % 2; i + 1 < k; i += 2) {
    // One draw per considered pair, unconditionally: the draw stream is a
    // function of (round, seeds, salt) alone, never of costs or liveness.
    const double u = rng.uniform();
    if (active[i] == 0 || active[i + 1] == 0) continue;
    if (temps[i] <= 0.0 || temps[i + 1] <= 0.0) continue;
    const double dBeta = 1.0 / temps[i] - 1.0 / temps[i + 1];
    const double dE = costs[i] - costs[i + 1];
    const double exponent = dBeta * dE;
    if (exponent >= 0.0 || u < std::exp(exponent)) out.push_back(i);
  }
}

TemperingOutcome TemperingRunner::run(const Circuit& circuit,
                                      EngineBackend backend,
                                      const EngineOptions& options,
                                      TemperingScratch* scratch) const {
  Stopwatch clock;
  const std::vector<RestartSlice> plan = makeRestartPlan(options);
  const std::size_t k = plan.size();
  const std::size_t movesPerTemp =
      resolveMovesPerTemp(options.movesPerTemp, circuit.moduleCount());

  Fleet fleet;
  fleet.sessions.resize(k);
  fleet.results.resize(k);
  fleet.circuit = &circuit;
  fleet.options = &options;
  fleet.plan = &plan;
  fleet.scales = ladderScales(k, options.ladderRatio);
  fleet.backends.assign(k, backend);
  fleet.movesPerTemp = movesPerTemp;
  fleet.interval = options.exchangeInterval;
  growBank(scratch, k);
  fleet.bank = scratch;

  std::vector<std::uint64_t> seeds(k);
  for (std::size_t i = 0; i < k; ++i) seeds[i] = plan[i].seed;
  const Ladder ladder{0, k, 0};

  TemperingOutcome outcome;
  outcome.backend = backend;
  outcome.replicas.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    outcome.replicas[i].seed = plan[i].seed;
    outcome.replicas[i].tempScale = fleet.scales[i];
  }

  withPool(pool_, options.numThreads, [&](ThreadPool& pool) {
    pool.parallelFor(k, [&fleet](std::size_t i, std::size_t) {
      fleet.create(i);
    });
    TemperingDriver driver(fleet, seeds, std::span(&ladder, 1),
                           outcome.replicas);
    driver.runRounds(pool, /*crossSeed=*/false, outcome.rounds,
                     outcome.exchangesAccepted, outcome.reseeds);
    pool.parallelFor(k, [&fleet](std::size_t i, std::size_t) {
      fleet.finish(i);
    });
  });

  for (std::size_t i = 0; i < k; ++i) {
    outcome.replicas[i].cost = fleet.results[i].cost;
    outcome.replicas[i].sweeps = fleet.results[i].sweeps;
    outcome.replicas[i].movesTried = fleet.results[i].movesTried;
  }
  outcome.result = reducePortfolioSlices(std::move(fleet.results));
  outcome.result.seconds = clock.seconds();
  return outcome;
}

TemperingOutcome TemperingRunner::race(const Circuit& circuit,
                                       std::span<const EngineBackend> backends,
                                       const EngineOptions& options,
                                       TemperingScratch* scratch) const {
  if (backends.empty()) {
    throw std::invalid_argument("TemperingRunner::race: no backends given");
  }
  Stopwatch clock;
  const std::vector<RestartSlice> plan = makeRestartPlan(options);
  const std::size_t k = plan.size();
  const std::size_t total = backends.size() * k;
  const std::size_t movesPerTemp =
      resolveMovesPerTemp(options.movesPerTemp, circuit.moduleCount());

  Fleet fleet;
  fleet.sessions.resize(total);
  fleet.results.resize(total);
  fleet.circuit = &circuit;
  fleet.options = &options;
  fleet.plan = &plan;
  fleet.scales = ladderScales(k, options.ladderRatio);
  fleet.backends.resize(total);
  for (std::size_t b = 0; b < backends.size(); ++b) {
    for (std::size_t r = 0; r < k; ++r) fleet.backends[b * k + r] = backends[b];
  }
  fleet.movesPerTemp = movesPerTemp;
  fleet.interval = options.exchangeInterval;
  growBank(scratch, total);
  fleet.bank = scratch;

  // Ladder r-indexing reuses the slice seeds per backend; exchange schedules
  // decorrelate through the per-ladder salt (the backend position).
  std::vector<std::uint64_t> seeds(k);
  for (std::size_t i = 0; i < k; ++i) seeds[i] = plan[i].seed;
  std::vector<Ladder> ladders(backends.size());
  for (std::size_t b = 0; b < backends.size(); ++b) {
    ladders[b] = {b * k, k, b};
  }

  TemperingOutcome outcome;
  outcome.replicas.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    outcome.replicas[i].seed = plan[i % k].seed;
    outcome.replicas[i].tempScale = fleet.scales[i % k];
  }

  withPool(pool_, options.numThreads, [&](ThreadPool& pool) {
    pool.parallelFor(total, [&fleet](std::size_t i, std::size_t) {
      fleet.create(i);
    });
    TemperingDriver driver(fleet, seeds, ladders, outcome.replicas);
    driver.runRounds(pool, options.crossSeed, outcome.rounds,
                     outcome.exchangesAccepted, outcome.reseeds);
    pool.parallelFor(total, [&fleet](std::size_t i, std::size_t) {
      fleet.finish(i);
    });
  });

  for (std::size_t i = 0; i < total; ++i) {
    outcome.replicas[i].cost = fleet.results[i].cost;
    outcome.replicas[i].sweeps = fleet.results[i].sweeps;
    outcome.replicas[i].movesTried = fleet.results[i].movesTried;
  }

  PortfolioRunner::RaceOutcome won =
      reduceRaceGrid(std::move(fleet.results), backends, k);
  outcome.result = std::move(won.result);
  outcome.backend = won.backend;
  outcome.result.seconds = clock.seconds();
  return outcome;
}

}  // namespace als
