// The replica grid — the one plan -> sessions -> rounds -> reduce loop of
// the runtime layer, private to src/runtime/.  Portfolio races, batches,
// tempering ladders and serve restart jobs are configurations of it.
//
// Its rows are the (circuit, backend) pairs of `circuits x backends`,
// circuit-major; each row runs the restart plan of the shared options
// (`makeRestartPlan`), so slice r of row b is session `b * restarts() + r`.
// That session anneals with the slice's seed and budget, its circuit's
// resolved movesPerTemp, and the t0 scale of rung r: `ladderRatio^r` by
// repeated multiplication (never pow — identical rounding everywhere; a
// ratio of 1.0 is the flat ladder).
//
// The round length picks one of two modes:
//   * 0 — each slice is one pool task: its session is created on the
//     slot's warm PlaceScratch (or its bank entry), run to completion,
//     finished and dropped, so live sessions stay bounded by the pool size;
//   * > 0 — every session lives for the whole run and steps `roundLength`
//     sweeps per fork-join round; the barrier runs on the calling thread
//     after every round (the last one included) until no session is active.
//
// Either way the whole grid is one fork-join, so a slow row (backend or
// circuit) cannot leave threads idle while another has unclaimed slices.
//
// Every slice is a pure function of its (seed, budget, scale) plus what the
// barrier does to it between fork-joins, so the result grid is identical at
// any thread count.  The per-round fork-join closure captures one reference
// (libstdc++'s std::function small buffer holds 16 bytes), so a warm round
// loop does not allocate — the property AllocGateTempering measures.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "engine/replica_session.h"
#include "runtime/portfolio.h"

namespace als {

struct PlaceScratch;
struct TemperingScratch;

class ReplicaGrid {
 public:
  /// Called on the calling thread after every round (round mode only).
  using Barrier = std::function<void(ReplicaGrid&)>;

  /// `bank`, when given, is grown to the grid size here (on the calling
  /// thread) and gives session i its entry i in both modes.
  ReplicaGrid(std::span<const Circuit> circuits,
              std::span<const EngineBackend> backends,
              const EngineOptions& options, double ladderRatio,
              std::size_t roundLength, TemperingScratch* bank = nullptr);
  ~ReplicaGrid();

  std::size_t restarts() const { return plan_.size(); }  ///< slices per row
  std::size_t size() const { return results_.size(); }
  const RestartSlice& slice(std::size_t i) const {
    return plan_[i % plan_.size()];
  }
  double scale(std::size_t i) const { return scales_[i % scales_.size()]; }

  // Round-mode state, for the barrier:
  ReplicaSession& session(std::size_t i) { return *sessions_[i]; }
  std::size_t sweeps(std::size_t i) const { return sweeps_[i]; }
  std::size_t rounds() const { return rounds_; }

  /// Runs every slice once on `pool` (or on a pool of `options.numThreads`
  /// when null) and returns the row-major result grid.
  std::vector<EngineResult> run(ThreadPool* pool, const Barrier& barrier = {});

 private:
  std::unique_ptr<ReplicaSession> create(std::size_t i,
                                         PlaceScratch* scratch) const;

  std::span<const Circuit> circuits_;
  std::span<const EngineBackend> backends_;
  const EngineOptions& options_;
  std::vector<RestartSlice> plan_;
  std::vector<double> scales_;  ///< per rung
  std::size_t roundLength_;
  TemperingScratch* bank_;
  std::vector<std::unique_ptr<PlaceScratch>> slotScratch_;  ///< mode 0
  std::vector<std::unique_ptr<ReplicaSession>> sessions_;   ///< round mode
  std::vector<std::size_t> sweeps_;  ///< sweeps stepped per session
  std::vector<EngineResult> results_;
  std::size_t rounds_ = 0;
};

}  // namespace als
