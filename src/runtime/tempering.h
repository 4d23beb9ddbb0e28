// Deterministic parallel tempering over the replica-session seam — the
// cooperative-search top of the runtime layer (thread pool -> tempering ->
// replica sessions -> backends).
//
// A tempering run takes the SAME deterministic plan a restart portfolio
// takes (`makeRestartPlan`: numRestarts seed-scheduled budget slices) but
// runs the slices as COUPLED replicas: replica i anneals with its t0
// multiplied by ladderRatio^i (computed by repeated multiplication, never
// pow — identical rounding everywhere), all replicas advance in fixed
// rounds of `exchangeInterval` sweeps, and at each round barrier adjacent
// ladder neighbours may swap their current states with the standard
// parallel-tempering Metropolis rule
//
//     P(swap i,j) = min(1, exp((1/Ti - 1/Tj) (Ei - Ej))).
//
// The runner is the runtime layer's replica grid (runtime/replica_grid.h)
// in round mode: one row — one ladder — per backend, rounds of
// `exchangeInterval` sweeps, and the exchanges as the round barrier.
//
// Determinism: the exchange decisions are a pure function of
// (round, replica seeds, costs, temperatures) — `planExchanges` below —
// with all randomness drawn from an RNG seeded by hashing (round, seeds).
// Replica trajectories are pure functions of their (seed, budget) slice
// plus the swaps applied to them, rounds are fork-join barriers on a
// deterministic ThreadPool, and the reduction scans an index-addressed
// array in schedule order.  The outcome is therefore bit-identical for
// numThreads = 1 and numThreads = N — the property the Tempering suites in
// tests/runtime_test.cpp pin per backend.
//
// Degeneration: with `exchangeInterval = 0` AND `ladderRatio = 1.0` a
// tempering run IS the independent-restart portfolio, bit for bit (same
// plan, tempScale 1.0 multiplies exactly, no barriers touch the states).
// Both knobs are needed: a ratio-1.0 ladder with exchanges enabled has
// 1/Ti - 1/Tj = 0, so P = 1 and every considered pair swaps — trajectories
// change even though the ladder is flat.
//
// Cross-backend seeding (`race` with options.crossSeed): at each round
// barrier the globally best replica donates its best placement, and every
// OTHER backend's ladder re-seeds its worst still-running replica from it
// through the from_placement converters (seqpair/from_placement.h,
// bstar/from_placement.h).  Backends whose encodings cannot adopt a flat
// placement (slicing, hbstar) keep their state — reseedFromPlacement
// returns false and nothing changes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/replica_session.h"
#include "runtime/thread_pool.h"

namespace als {

struct PlaceScratch;

/// Persistent per-replica scratch bank.  A tempering run's replicas are
/// long-lived sessions, so unlike the portfolio's per-worker scratches the
/// bank is keyed by REPLICA INDEX — each entry is touched by exactly one
/// session per run, at any thread count.  The scratch-reuse contract of
/// engine/place_scratch.h applies: contents never influence results, only
/// whether the round loop allocates, and at most one run may use a bank at
/// a time.  Passing the same bank to consecutive runs keeps every buffer
/// at its high-water capacity — the setup the steady-state allocation gate
/// (tests/alloc_gate_test.cpp) measures under.
struct TemperingScratch {
  TemperingScratch();
  ~TemperingScratch();
  std::vector<std::unique_ptr<PlaceScratch>> replicas;
};

/// Per-replica accounting of one tempering run.
struct TemperingReplica {
  std::uint64_t seed = 0;    ///< slice seed (portfolio schedule)
  double tempScale = 1.0;    ///< ladder rung: t0 multiplier
  double cost = 0.0;         ///< final best cost of this replica
  std::size_t sweeps = 0;    ///< SA temperature steps executed
  std::size_t movesTried = 0;
  std::size_t exchanges = 0; ///< accepted swaps this replica took part in
  std::size_t reseeds = 0;   ///< cross-backend seeds adopted (race only)
};

/// Aggregate outcome; `result` follows the portfolio conventions
/// (winning replica's placement, summed moves/sweeps, wall-clock seconds,
/// restartsRun = replica count, bestRestart = winning schedule index).
struct TemperingOutcome {
  EngineResult result;
  EngineBackend backend = EngineBackend::FlatBStar;
  std::vector<TemperingReplica> replicas;
  std::size_t rounds = 0;             ///< round barriers executed
  std::size_t exchangesAccepted = 0;  ///< total accepted swaps
  std::size_t reseeds = 0;            ///< total cross-backend seeds adopted
};

/// Hash of (round, replica seeds) — the seed of round `round`'s exchange
/// RNG.  Pure and order-sensitive in `seeds`; no costs enter, so the
/// schedule's random draws are independent of the annealing trajectories
/// (only the accept thresholds depend on costs).
std::uint64_t exchangeScheduleSeed(std::uint64_t round,
                                   std::span<const std::uint64_t> seeds);

/// Plans round `round`'s exchanges: considers adjacent pairs (i, i+1) with
/// i of parity `round % 2` (alternating even/odd pairing — the standard
/// deterministic-sweep tempering scheme), draws one uniform per considered
/// pair unconditionally (the draw stream never depends on costs or
/// liveness), and accepts with the tempering Metropolis rule.  Pairs with
/// a finished replica (`active[i] == 0`) or a non-positive temperature
/// never swap.  `salt` decorrelates parallel ladders sharing seeds (the
/// race salts by backend position).  Appends the lower index of each
/// accepted pair to `out` (cleared first), in increasing order.
///
/// Pure function of its arguments — the property
/// tests/runtime_test.cpp pins.
void planExchanges(std::uint64_t round, std::uint64_t salt,
                   std::span<const std::uint64_t> seeds,
                   std::span<const double> costs,
                   std::span<const double> temps,
                   std::span<const std::uint8_t> active,
                   std::vector<std::size_t>& out);

/// Runs coupled-replica tempering over a deterministic thread pool.  Const
/// and stateless per call, like PortfolioRunner.
class TemperingRunner {
 public:
  /// Pool-per-run mode: each run sizes a pool from `options.numThreads`.
  TemperingRunner() = default;
  /// Shared-pool mode (caller keeps ownership; numThreads is ignored).
  explicit TemperingRunner(ThreadPool* pool) : pool_(pool) {}

  /// One backend, `options.numRestarts` replicas on one ladder: exactly
  /// `race(circuit, {backend}, options, scratch)` (one ladder has salt 0
  /// and never cross-seeds).  An optional TemperingScratch gives replica i
  /// persistent warm buffers across runs (grown to the replica count on
  /// the calling thread); `options.scratch` is ignored — one PlaceScratch
  /// cannot serve multiple concurrent replicas.
  TemperingOutcome run(const Circuit& circuit, EngineBackend backend,
                       const EngineOptions& options,
                       TemperingScratch* scratch = nullptr) const;

  /// Races one ladder per backend (backend-major replica grid, like
  /// PortfolioRunner::race), with cross-backend seeding between ladders
  /// when `options.crossSeed`.  Winner by (cost, seed, position in
  /// `backends`).  Throws std::invalid_argument when `backends` is empty.
  TemperingOutcome race(const Circuit& circuit,
                        std::span<const EngineBackend> backends,
                        const EngineOptions& options,
                        TemperingScratch* scratch = nullptr) const;

 private:
  ThreadPool* pool_ = nullptr;
};

}  // namespace als
