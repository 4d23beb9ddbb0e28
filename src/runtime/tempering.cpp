#include "runtime/tempering.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "engine/place_scratch.h"
#include "runtime/replica_grid.h"
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

/// The tempering barrier.  Each grid row is one backend's ladder (rung r =
/// slice r); after every round the barrier plans and applies each ladder's
/// exchanges and, in a cross-seeded race, re-seeds lagging ladders.  It runs
/// on the calling thread between fork-joins, so thread count cannot
/// influence it.  On the final round every replica is inactive, so nothing
/// swaps or re-seeds.
class ExchangeBarrier {
 public:
  ExchangeBarrier(const ReplicaGrid& grid, bool crossSeed,
                  TemperingOutcome& outcome)
      : k_(grid.restarts()),
        seeds_(k_),
        crossSeed_(crossSeed && grid.size() > k_),
        outcome_(outcome),
        costs_(grid.size()),
        temps_(grid.size()),
        active_(grid.size()) {
    // Every ladder reuses the slice seeds; exchange schedules decorrelate
    // through the per-ladder salt (the backend position).
    for (std::size_t r = 0; r < k_; ++r) seeds_[r] = grid.slice(r).seed;
  }

  void operator()(ReplicaGrid& grid) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const ReplicaSession& s = grid.session(i);
      active_[i] = s.finished() ? 0 : 1;
      costs_[i] = s.currentCost();
      temps_[i] = s.temperature();
    }
    for (std::size_t base = 0; base < grid.size(); base += k_) {
      planExchanges(grid.rounds() - 1, base / k_, seeds_,
                    std::span(costs_).subspan(base, k_),
                    std::span(temps_).subspan(base, k_),
                    std::span(active_).subspan(base, k_), swaps_);
      for (std::size_t lo : swaps_) {
        const std::size_t i = base + lo;
        grid.session(i).exchangeWith(grid.session(i + 1));
        ++outcome_.replicas[i].exchanges;
        ++outcome_.replicas[i + 1].exchanges;
        ++outcome_.exchangesAccepted;
      }
    }
    if (crossSeed_) crossSeedLadders(grid);
  }

 private:
  /// Re-seeds each lagging ladder's worst active replica from the global
  /// leader's best placement.  Leader by (bestCost, seed, position) — the
  /// race's total order.
  void crossSeedLadders(ReplicaGrid& grid) {
    const std::size_t total = grid.size();
    std::size_t leader = 0;
    double leaderCost = grid.session(0).bestCost();
    for (std::size_t i = 1; i < total; ++i) {
      const double c = grid.session(i).bestCost();
      if (c < leaderCost ||
          (c == leaderCost && seeds_[i % k_] < seeds_[leader % k_])) {
        leader = i;
        leaderCost = c;
      }
    }
    const Placement* donor = nullptr;  // decoded lazily: often nobody lags
    for (std::size_t base = 0; base < total; base += k_) {
      if (leader / k_ == base / k_) continue;
      // Worst active replica of this ladder (largest current cost; ties go
      // to the hotter rung, i.e. the largest index).
      std::size_t worst = total;  // sentinel: none active
      for (std::size_t i = base; i < base + k_; ++i) {
        if (active_[i] == 0) continue;
        if (worst == total || costs_[i] >= costs_[worst]) worst = i;
      }
      if (worst == total) continue;
      if (grid.session(worst).bestCost() <= leaderCost) continue;
      if (donor == nullptr) donor = &grid.session(leader).bestPlacement();
      if (grid.session(worst).reseedFromPlacement(*donor)) {
        ++outcome_.replicas[worst].reseeds;
        ++outcome_.reseeds;
      }
    }
  }

  std::size_t k_;  ///< rungs per ladder
  std::vector<std::uint64_t> seeds_;
  bool crossSeed_;
  TemperingOutcome& outcome_;
  std::vector<double> costs_, temps_;
  std::vector<std::uint8_t> active_;
  std::vector<std::size_t> swaps_;
};

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
  return race(circuit, std::span(&backend, 1), options, scratch);
}

TemperingOutcome TemperingRunner::race(const Circuit& circuit,
                                       std::span<const EngineBackend> backends,
                                       const EngineOptions& options,
                                       TemperingScratch* scratch) const {
  if (backends.empty()) {
    throw std::invalid_argument("TemperingRunner::race: no backends given");
  }
  Stopwatch clock;
  ReplicaGrid grid(std::span(&circuit, 1), backends, options,
                   options.ladderRatio, options.exchangeInterval, scratch);
  TemperingOutcome outcome;
  outcome.replicas.resize(grid.size());
  ExchangeBarrier barrier(grid, options.crossSeed, outcome);
  std::vector<EngineResult> results =
      grid.run(pool_, [&barrier](ReplicaGrid& g) { barrier(g); });
  outcome.rounds = grid.rounds();
  for (std::size_t i = 0; i < results.size(); ++i) {
    TemperingReplica& replica = outcome.replicas[i];  // exchanges counted
    replica.seed = grid.slice(i).seed;
    replica.tempScale = grid.scale(i);
    replica.cost = results[i].cost;
    replica.sweeps = results[i].sweeps;
    replica.movesTried = results[i].movesTried;
  }

  PortfolioRunner::RaceOutcome won =
      reduceRaceGrid(std::move(results), backends, grid.restarts());
  outcome.result = std::move(won.result);
  outcome.backend = won.backend;
  outcome.result.seconds = clock.seconds();
  return outcome;
}

}  // namespace als
