// Flat B*-tree SA placer — the non-hierarchical baseline for experiment E6.
//
// All modules live in one B*-tree; analog constraints are not structural
// but *penalized*: symmetry deviation, common-centroid deviation and
// proximity disconnection enter the cost with weights.  Section III's
// argument — hierarchy shrinks the search space and makes constraints hold
// by construction — is demonstrated against this placer, which typically
// ends with residual constraint violations the HB*-tree placer cannot have.
#pragma once

#include <cstdint>
#include <memory>

#include "bstar/pack.h"
#include "geom/placement.h"
#include "netlist/circuit.h"
#include "util/cancel_token.h"
#include "util/epoch_marks.h"

namespace als {

class ReplicaSession;  // engine/replica_session.h

/// Reusable decode buffers of one flat B*-tree SA run.  Optional: a run
/// without one builds its own.  A scratch may be reused across sequential
/// runs and circuits (the runtime layer keeps one per worker thread) but
/// never by two concurrent runs; its contents never influence results.
struct FlatBStarScratch {
  BStarPackScratch pack;
  std::vector<Coord> w, h;   ///< orientation-resolved footprints
  Placement placement;       ///< decoded placement of the current candidate
  /// Moved-module accumulator for the hinted cost propose: the ids decoded
  /// differently since the cost model last committed.
  DistinctIds moved;
};

struct FlatBStarOptions {
  double wirelengthWeight = 0.25;
  double symmetryWeight = 2.0;    ///< penalty scale for mirror deviation
  double proximityWeight = 2.0;   ///< penalty scale for disconnected groups
  double thermalWeight = 0.0;     ///< pair temperature-mismatch penalty
  double shapeMoveProb = 0.0;     ///< P(move re-selects a soft realization)
  std::size_t maxSweeps = 256;    ///< primary budget: total SA sweeps (deterministic)
  double timeLimitSec = 0.0;      ///< secondary wall-clock cap (0 = uncapped)
  std::uint64_t seed = 11;
  double coolingFactor = 0.96;
  std::size_t movesPerTemp = 0;
  /// Re-decode only the changed B*-tree suffix per move (bit-identical to a
  /// full re-decode; see packBStarPartialInto).  Off by default: under this
  /// placer's move mix a move changes most of the preorder, and
  /// `bench_decode --scaling` measures the journaled suffix repack at about
  /// 0.7-1.0x of a full repack from ami33 to n300.  On = the partial path,
  /// kept for the scaling A/B and the partial == full trajectory suites.
  bool partialDecode = false;
  FlatBStarScratch* scratch = nullptr;  ///< optional caller-owned buffers
  /// Cooperative cancellation, checked per sweep (anneal/annealer.h).
  const CancelToken* cancel = nullptr;
};

struct FlatBStarResult {
  Placement placement;
  Coord area = 0;
  Coord hpwl = 0;
  Coord symDeviation = 0;    ///< residual mirror deviation (DBU; 0 = exact)
  int proximityViolations = 0;  ///< disconnected proximity groups
  double cost = 0.0;
  std::size_t movesTried = 0;
  std::size_t sweeps = 0;    ///< SA temperature steps executed
  double seconds = 0.0;
};

/// Stateless and re-entrant (engine/placement_engine.h thread-safety
/// contract): reads `circuit` only, owns its RNG via `options.seed`.
FlatBStarResult placeFlatBStarSA(const Circuit& circuit,
                                 const FlatBStarOptions& options = {});

/// Resumable `placeFlatBStarSA` run behind the replica seam
/// (engine/anneal_replica.h); the run to completion IS `placeFlatBStarSA`.
/// Adopts foreign placements via bstar/from_placement.h.
std::unique_ptr<ReplicaSession> makeFlatBStarReplica(
    const Circuit& circuit, const FlatBStarOptions& options,
    double tempScale = 1.0);

}  // namespace als
