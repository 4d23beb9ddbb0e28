#include "runtime/portfolio.h"

#include <iterator>
#include <stdexcept>

#include "anneal/annealer.h"
#include "runtime/replica_grid.h"
#include "runtime/tempering.h"
#include "util/stopwatch.h"

namespace als {

namespace {

/// The winner order of every reduction: lower cost, then lower seed; the
/// callers scan in position order and replace only on a strict win, so an
/// exact tie keeps the earliest position.
bool ranksBefore(const EngineResult& a, const EngineResult& b) {
  return a.cost < b.cost || (a.cost == b.cost && a.bestSeed < b.bestSeed);
}

}  // namespace

EngineOptions sliceEngineOptions(const EngineOptions& base,
                                 const RestartSlice& slice,
                                 std::size_t resolvedMovesPerTemp) {
  EngineOptions opt = base;
  opt.seed = slice.seed;
  opt.maxSweeps = slice.maxSweeps;
  opt.movesPerTemp = resolvedMovesPerTemp;
  opt.numRestarts = 1;
  opt.numThreads = 1;
  opt.scratch = nullptr;
  opt.tempering = false;
  return opt;
}

EngineResult reducePortfolioSlices(std::vector<EngineResult>&& slices) {
  std::size_t winner = 0;
  for (std::size_t i = 1; i < slices.size(); ++i) {
    if (ranksBefore(slices[i], slices[winner])) winner = i;
  }
  std::size_t movesTried = 0, sweeps = 0;
  double seconds = 0.0;
  for (const EngineResult& slice : slices) {
    movesTried += slice.movesTried;
    sweeps += slice.sweeps;
    seconds += slice.seconds;
  }
  EngineResult result = std::move(slices[winner]);
  result.movesTried = movesTried;
  result.sweeps = sweeps;
  result.seconds = seconds;
  result.restartsRun = slices.size();
  result.bestRestart = winner;  // slice position == schedule index
  return result;
}

std::vector<EngineResult> reducePortfolioRows(std::vector<EngineResult>&& grid,
                                              std::size_t restarts) {
  std::vector<EngineResult> rows;
  rows.reserve(grid.size() / restarts);
  for (auto row = grid.begin(); row != grid.end(); row += restarts) {
    rows.push_back(reducePortfolioSlices(
        std::vector<EngineResult>(std::make_move_iterator(row),
                                  std::make_move_iterator(row + restarts))));
  }
  return rows;
}

PortfolioRunner::RaceOutcome reduceRaceGrid(
    std::vector<EngineResult>&& grid, std::span<const EngineBackend> backends,
    std::size_t restarts) {
  std::vector<EngineResult> rows =
      reducePortfolioRows(std::move(grid), restarts);
  std::size_t winner = 0;
  for (std::size_t b = 1; b < rows.size(); ++b) {
    if (ranksBefore(rows[b], rows[winner])) winner = b;
  }
  return {std::move(rows[winner]), backends[winner]};
}

std::vector<RestartSlice> makeRestartPlan(const EngineOptions& options) {
  std::size_t restarts = options.numRestarts > 0 ? options.numRestarts : 1;
  // A zero sweep budget means "uncapped" throughout the library, so no
  // slice may round down to zero: cap the slice count at the total budget.
  if (options.maxSweeps > 0 && restarts > options.maxSweeps) {
    restarts = options.maxSweeps;
  }
  std::vector<RestartSlice> plan(restarts);
  for (std::size_t i = 0; i < restarts; ++i) {
    plan[i] = {i, portfolioSeedAt(options.seed, i),
               splitSweepBudget(options.maxSweeps, restarts, i)};
  }
  return plan;
}

EngineResult PortfolioRunner::run(const Circuit& circuit, EngineBackend backend,
                                  const EngineOptions& options) const {
  if (options.tempering) {
    return TemperingRunner(pool_).run(circuit, backend, options).result;
  }
  return race(circuit, std::span(&backend, 1), options).result;
}

PortfolioRunner::RaceOutcome PortfolioRunner::race(
    const Circuit& circuit, std::span<const EngineBackend> backends,
    const EngineOptions& options) const {
  if (backends.empty()) {
    throw std::invalid_argument("PortfolioRunner::race: no backends given");
  }
  if (options.tempering) {
    TemperingOutcome t = TemperingRunner(pool_).race(circuit, backends, options);
    return RaceOutcome{std::move(t.result), t.backend};
  }
  Stopwatch clock;
  ReplicaGrid grid(std::span(&circuit, 1), backends, options, 1.0, 0);
  RaceOutcome outcome =
      reduceRaceGrid(grid.run(pool_), backends, grid.restarts());
  outcome.result.seconds = clock.seconds();
  return outcome;
}

std::vector<EngineResult> BatchPlacer::placeAll(
    std::span<const Circuit> circuits, EngineBackend backend,
    const EngineOptions& options) const {
  ReplicaGrid grid(circuits, std::span(&backend, 1), options, 1.0, 0);
  return reducePortfolioRows(grid.run(pool_), grid.restarts());
}

}  // namespace als
