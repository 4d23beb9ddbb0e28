#include "runtime/portfolio.h"

#include <iterator>
#include <memory>
#include <stdexcept>

#include "anneal/annealer.h"
#include "engine/place_scratch.h"
#include "runtime/tempering.h"
#include "util/stopwatch.h"

namespace als {

namespace {

/// One warm decode scratch per pool slot (engine/place_scratch.h).  A slot
/// runs its slices sequentially, so its scratch is never shared; creation
/// is lazy because a short plan may not touch every slot.  Scratch contents
/// never influence results, so slot scheduling cannot either.
class WorkerScratches {
 public:
  explicit WorkerScratches(std::size_t slots) : scratches_(slots) {}

  PlaceScratch* at(std::size_t slot) {
    std::unique_ptr<PlaceScratch>& s = scratches_[slot];
    if (s == nullptr) s = std::make_unique<PlaceScratch>();
    return s.get();
  }

 private:
  std::vector<std::unique_ptr<PlaceScratch>> scratches_;
};

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
  const std::vector<RestartSlice> plan = makeRestartPlan(options);
  const std::size_t restarts = plan.size();
  const std::size_t movesPerTemp =
      resolveMovesPerTemp(options.movesPerTemp, circuit.moduleCount());

  // One flattened backend-major grid so a slow backend cannot leave threads
  // idle while another still has unclaimed restarts.
  std::vector<EngineResult> grid(backends.size() * restarts);
  withPool(pool_, options.numThreads, [&](ThreadPool& pool) {
    WorkerScratches scratches(pool.threadCount());
    pool.parallelFor(grid.size(), [&](std::size_t task, std::size_t slot) {
      const std::size_t backend = task / restarts;
      const std::size_t restart = task % restarts;
      EngineOptions opt = sliceEngineOptions(options, plan[restart], movesPerTemp);
      opt.scratch = scratches.at(slot);
      grid[task] = PlacementEngine(backends[backend]).place(circuit, opt);
    });
  });

  RaceOutcome outcome = reduceRaceGrid(std::move(grid), backends, restarts);
  outcome.result.seconds = clock.seconds();
  return outcome;
}

std::vector<EngineResult> BatchPlacer::placeAll(
    std::span<const Circuit> circuits, EngineBackend backend,
    const EngineOptions& options) const {
  const std::vector<RestartSlice> plan = makeRestartPlan(options);
  const std::size_t restarts = plan.size();
  const PlacementEngine engine(backend);

  std::vector<std::size_t> movesPerTemp(circuits.size());
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    movesPerTemp[c] =
        resolveMovesPerTemp(options.movesPerTemp, circuits[c].moduleCount());
  }

  std::vector<EngineResult> grid(circuits.size() * restarts);
  withPool(pool_, options.numThreads, [&](ThreadPool& pool) {
    WorkerScratches scratches(pool.threadCount());
    pool.parallelFor(grid.size(), [&](std::size_t task, std::size_t slot) {
      const std::size_t c = task / restarts;
      const std::size_t restart = task % restarts;
      EngineOptions opt = sliceEngineOptions(options, plan[restart], movesPerTemp[c]);
      opt.scratch = scratches.at(slot);
      grid[task] = engine.place(circuits[c], opt);
    });
  });

  return reducePortfolioRows(std::move(grid), restarts);
}

}  // namespace als
