// Parallel restart portfolio over the PlacementEngine seam — the middle of
// the runtime layer (thread pool -> portfolio -> engine -> backends).
//
// A portfolio run splits one deterministic sweep budget into
// `options.numRestarts` slices, each annealing from its own seed of the
// shared restart schedule (anneal/annealer.h), fans the slices across a
// deterministic ThreadPool, and reduces to the best slice with a total-order
// tie-break on (cost, seed, backend).  Races and batches are round-length-0
// configurations of the runtime layer's one replica grid
// (runtime/replica_grid.h): every slice is one pool task on its worker's
// warm scratch.  Because every slice is a pure function of its (seed,
// budget) pair and the reduction is performed in schedule order over an
// index-addressed result array, the outcome is bit-identical for
// `numThreads = 1` and `numThreads = N` — the property
// tests/runtime_test.cpp asserts per backend.
//
// `movesPerTemp == 0` auto-scaling is resolved from the circuit's module
// count (the hint every registered backend uses), not from a slice's
// budget, so split-budget restarts anneal on exactly the schedule the
// equivalent sequential run would have used.
//
// `timeLimitSec`, when positive, caps each slice's wall clock individually;
// as everywhere else in the library, results under an active time cap are
// not reproducible.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/placement_engine.h"
#include "runtime/thread_pool.h"

namespace als {

/// One restart's slice of a portfolio plan.
struct RestartSlice {
  std::size_t index = 0;      ///< position in the restart schedule
  std::uint64_t seed = 0;     ///< portfolioSeedAt(options.seed, index)
  std::size_t maxSweeps = 0;  ///< splitSweepBudget slice (0 = uncapped)
};

/// The deterministic plan a portfolio executes: `options.numRestarts`
/// slices (at least one), seeds from the portfolio seed schedule, sweep
/// budgets summing exactly to `options.maxSweeps`.  When `maxSweeps > 0`
/// the slice count is capped at the total budget — a slice budget of zero
/// would mean "uncapped" everywhere in the library, not "no work".
std::vector<RestartSlice> makeRestartPlan(const EngineOptions& options);

/// Options of one slice: own seed and budget, shared resolved movesPerTemp,
/// multi-start and tempering knobs neutralized (a slice is exactly one
/// engine run), the caller's scratch dropped (the replica grid hands each
/// slice its worker's or its bank entry's scratch).  Every field the caller
/// set — objective weights, the cancel token — flows through unchanged.
EngineOptions sliceEngineOptions(const EngineOptions& base,
                                 const RestartSlice& slice,
                                 std::size_t resolvedMovesPerTemp);

/// Collapses one portfolio's slices (in schedule order) into the aggregate
/// result: (cost, seed) winner's placement, summed moves/sweeps/seconds,
/// `bestRestart` = winner's schedule index.  Scanning in schedule order over
/// an index-addressed array keeps the choice independent of which thread
/// finished first — the reduction behind the portfolio, tempering and serve
/// runners alike (callers overwrite `seconds` with their wall clock).
EngineResult reducePortfolioSlices(std::vector<EngineResult>&& slices);

/// Splits a row-major grid (`restarts` slices per row, each row in schedule
/// order) and reduces every row with `reducePortfolioSlices`; the rows are
/// a race's backends or a batch's circuits.
std::vector<EngineResult> reducePortfolioRows(std::vector<EngineResult>&& grid,
                                              std::size_t restarts);

/// Fans seed-split restarts (and whole-backend races) over a thread pool.
/// Const and stateless per call: one runner may serve concurrent callers
/// when constructed over distinct pools.
class PortfolioRunner {
 public:
  /// Pool-per-run mode: each run sizes a pool from `options.numThreads`.
  PortfolioRunner() = default;

  /// Shared-pool mode: all runs use `pool` (caller keeps ownership and the
  /// pool must outlive the runner); `options.numThreads` is then ignored.
  explicit PortfolioRunner(ThreadPool* pool) : pool_(pool) {}

  /// Runs the restart portfolio of one backend — a one-backend `race`, or
  /// the tempering runner when `options.tempering` is set; `result.placement`
  /// is the winning slice's placement, moves/sweeps aggregate over all
  /// slices, `seconds` is the portfolio's wall clock.
  EngineResult run(const Circuit& circuit, EngineBackend backend,
                   const EngineOptions& options) const;

  struct RaceOutcome {
    EngineResult result;  ///< winning backend's full portfolio result
    EngineBackend backend = EngineBackend::FlatBStar;
  };

  /// Races full restart portfolios of several backends over one pool; the
  /// flattened backend x restart grid saturates the pool.  Winner by
  /// (cost, seed, position in `backends`).  Throws std::invalid_argument
  /// when `backends` is empty.
  RaceOutcome race(const Circuit& circuit,
                   std::span<const EngineBackend> backends,
                   const EngineOptions& options) const;

 private:
  ThreadPool* pool_ = nullptr;
};

/// Collapses a race's backend-major grid (`restarts` slices per backend, in
/// the order of `backends`) into the winner: each backend's portfolio via
/// `reducePortfolioRows`, then the total order (cost, seed, position in
/// `backends`) — strict improvement only, so an exact tie keeps the
/// earliest backend.  Shared by the portfolio and tempering races (callers
/// overwrite `seconds` with their wall clock).
PortfolioRunner::RaceOutcome reduceRaceGrid(
    std::vector<EngineResult>&& grid, std::span<const EngineBackend> backends,
    std::size_t restarts);

/// Places many circuits with one backend/options over one pool.  The
/// flattened circuit x restart grid keeps all threads busy even when
/// `numRestarts` is small.  Results are index-aligned with `circuits`;
/// each result's `seconds` is the summed annealing time of that circuit's
/// slices (the batch shares one wall clock).
class BatchPlacer {
 public:
  BatchPlacer() = default;
  explicit BatchPlacer(ThreadPool* pool) : pool_(pool) {}

  std::vector<EngineResult> placeAll(std::span<const Circuit> circuits,
                                     EngineBackend backend,
                                     const EngineOptions& options) const;

 private:
  ThreadPool* pool_ = nullptr;
};

}  // namespace als
