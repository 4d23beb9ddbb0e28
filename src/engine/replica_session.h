// Backend-erased resumable annealing runs — the engine-level seam the
// runtime layer's replica grid (runtime/replica_grid.h) drives.
//
// One class template implements it: `AnnealReplica<Problem>`
// (engine/anneal_replica.h), a backend's SA problem over the shared
// `detail::AnnealDriver`, which is each backend's one-shot place function
// cut at sweep granularity.  Each backend exports a factory next to its
// place function (`makeFlatBStarReplica`, `makeSeqPairReplica`,
// `makeSlicingReplica`, `makeHBStarReplica`); `makeReplicaSession` maps
// `EngineOptions` to the native options and picks one.  The engine facade
// is a session run to completion in one go (`makeEngine(b)->place(...)`),
// so a paused-and-resumed session and the facade share one code path.
//
// Threading contract: a session may move between threads across calls but
// is never called concurrently; the replica grid advances sessions in
// fork-join rounds, which satisfies this by construction.
#pragma once

#include <memory>

#include "engine/placement_engine.h"

namespace als {

class ReplicaSession {
 public:
  virtual ~ReplicaSession() = default;

  virtual EngineBackend backend() const = 0;

  /// Advances up to `maxSweeps` temperature steps; returns the number
  /// executed (fewer only when the whole budget finished).
  virtual std::size_t runSweeps(std::size_t maxSweeps) = 0;
  virtual bool finished() const = 0;

  virtual double currentCost() const = 0;
  virtual double bestCost() const = 0;
  virtual double temperature() const = 0;

  /// Swaps current states with `other` (replica exchange; no RNG consumed).
  /// Throws std::invalid_argument if the backends differ — exchange is only
  /// defined within one ladder; cross-backend transfer goes through
  /// `bestPlacement` + `reseedFromPlacement`.
  virtual void exchangeWith(ReplicaSession& other) = 0;

  /// Decodes the best state so far into the session scratch.  The reference
  /// stays valid until the session advances or decodes again.
  virtual const Placement& bestPlacement() = 0;

  /// Replaces the current state with a backend-native reconstruction of
  /// `placement` (the from_placement converters) and re-anchors.  Returns
  /// false — leaving the session untouched — for backends whose encoding
  /// cannot adopt a foreign placement (slicing, hbstar).
  virtual bool reseedFromPlacement(const Placement& placement) = 0;

  /// Finalizes (running any leftover budget first) and assembles the
  /// EngineResult; `bestSeed` is the session's constructing seed,
  /// `restartsRun`/`bestRestart` report one restart (the runner overwrites
  /// the aggregate fields).
  virtual EngineResult finish() = 0;
};

/// One resumable replica of `backend` on `circuit`.  `tempScale` multiplies
/// the calibrated t0 of every internal restart (1.0 = the sequential
/// schedule, exactly) — the temperature-ladder hook.
std::unique_ptr<ReplicaSession> makeReplicaSession(EngineBackend backend,
                                                   const Circuit& circuit,
                                                   const EngineOptions& options,
                                                   double tempScale = 1.0);

}  // namespace als
