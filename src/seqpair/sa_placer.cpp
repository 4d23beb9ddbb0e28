#include "seqpair/sa_placer.h"

#include <optional>
#include <utility>
#include <vector>

#include "anneal/annealer.h"
#include "cost/cost_model.h"
#include "engine/anneal_replica.h"
#include "seqpair/from_placement.h"
#include "seqpair/moves.h"
#include "seqpair/symmetry.h"

namespace als {

namespace {

/// Decode = dims + symmetric construction into the scratch buffers; the
/// returned pointer aliases scr.result.placement.  With incremental decode
/// on, island layouts and LCS sweeps reuse the previous move's state and
/// the construction reports which modules may differ — feeding the
/// movedModules()/committed() contract of anneal/annealer.h that opts the
/// run into the hinted CostModel::propose(p, moved) fast path.
struct SeqPairDecoder {
  const Circuit& circuit;
  std::span<const SymmetryGroup> groups;
  SeqPairScratch& scr;
  std::size_t n;
  SymBuildOptions buildOpts;

  const Placement* operator()(const SeqPairState& s) {
    scr.w.resize(n);
    scr.h.resize(n);
    for (std::size_t m = 0; m < n; ++m) {
      const Module& mod = circuit.module(m);
      scr.w[m] = s.rotated[m] ? mod.h : mod.w;
      scr.h[m] = s.rotated[m] ? mod.w : mod.h;
    }
    // Decode failure (a non-S-F code) maps to the objective's infeasible
    // cost — cannot happen for the move set here, but keeps the annealer
    // total if it ever does.
    scr.tmpMoved.clear();
    if (!buildSymmetricPlacementInto(s.sp, scr.w, scr.h, groups, buildOpts,
                                     scr.sym, scr.result)) {
      return nullptr;
    }
    for (ModuleId m : scr.tmpMoved) scr.moved.add(m);
    return &scr.result.placement;
  }

  std::span<const ModuleId> movedModules() const { return scr.moved.ids(); }
  void committed() { scr.moved.reset(n); }
};

/// The SA move (same body and RNG draws as the historical lambda in
/// placeSeqPairSA).
struct SeqPairMove {
  SymmetricMoveSet* moves;
  void operator()(SeqPairState& s, Rng& rng) const { moves->apply(s, rng); }
};

std::vector<bool> rotatableMask(const Circuit& circuit) {
  std::vector<bool> mask(circuit.moduleCount());
  for (std::size_t m = 0; m < mask.size(); ++m) {
    mask[m] = circuit.module(m).rotatable;
  }
  return mask;
}

/// The sequence-pair SA problem (engine/anneal_replica.h).
struct SeqPairProblem {
  using Options = SeqPairPlacerOptions;
  using Result = SeqPairPlacerResult;
  using State = SeqPairState;
  static constexpr EngineBackend kBackend = EngineBackend::SeqPair;

  const Circuit& circuit;
  std::size_t n;
  std::span<const SymmetryGroup> groups;
  std::vector<bool> rotatable;
  SymmetricMoveSet moves;
  CostModel model;
  SeqPairScratch localScratch;
  SeqPairScratch& scr;
  SeqPairDecoder decode;
  SeqPairMove move{&moves};
  // Cross-backend reseed buffers (warm after the first reseed).
  SeqPairFromPlacementScratch reseedScratch;
  SymmetryGroup merged;
  SymFeasibleScratch symScratch;

  SeqPairProblem(const Circuit& c, const SeqPairPlacerOptions& o)
      : circuit(c),
        n(c.moduleCount()),
        groups(c.symmetryGroups()),
        rotatable(rotatableMask(c)),
        moves(groups, rotatable, o.enableRepairMoves),
        // Symmetry holds by construction in every S-F code, so the objective
        // carries no symmetry/proximity penalty — only the geometric terms
        // plus, when weighted, thermal pair mismatch (geometry-exact symmetry
        // does NOT make it zero: radiators off the axis still split a pair
        // thermally).
        model(c, makeObjective(c, {.wirelength = o.wirelengthWeight,
                                   .outline = o.outlineWeight,
                                   .thermal = o.thermalWeight,
                                   .maxWidth = o.maxWidth,
                                   .maxHeight = o.maxHeight,
                                   .targetAspect = o.targetAspect})),
        scr(o.scratch ? *o.scratch : localScratch),
        decode{c, groups, scr, n, SymBuildOptions{}},
        merged(mergedGroup(groups)) {
    scr.moved.reset(n);

    decode.buildOpts.incremental = o.incrementalDecode;
    // The O(n^2) verification is a no-op on every reachable code (the move
    // set preserves S-F); the hot path drops it (debug builds still assert),
    // the historical full-decode path keeps it.
    decode.buildOpts.verify = !o.incrementalDecode;
    decode.buildOpts.moved = &scr.tmpMoved;
  }

  SeqPairState initialState() const {
    SeqPairState init{SequencePair(n), std::vector<bool>(n, false)};
    makeSymmetricFeasible(init.sp, groups);
    return init;
  }

  /// The diagonal-order pair of `placement` (seqpair/from_placement.h),
  /// rotations recovered from the rect dimensions (mirror partners forced
  /// consistent), the symmetric-feasible invariant re-established.  Always
  /// succeeds for a placement of this circuit.
  bool reseed(SeqPairState& s, const Placement& placement) {
    if (placement.size() != n) return false;
    sequencePairFromPlacement(placement, reseedScratch, s.sp);
    // Recover rotations from the rect dims (square modules stay unrotated —
    // deterministic either way), then force mirror partners consistent: the
    // symmetric construction realizes a pair with ONE orientation choice,
    // and inconsistent flags would silently change the b-cell's footprint.
    for (std::size_t m = 0; m < n; ++m) {
      const Module& mod = circuit.module(m);
      const Rect& r = placement[m];
      s.rotated[m] = mod.rotatable && !(r.w == mod.w && r.h == mod.h) &&
                     r.w == mod.h && r.h == mod.w;
    }
    for (const SymmetryGroup& g : groups) {
      for (const SymPair& p : g.pairs) s.rotated[p.b] = s.rotated[p.a];
    }
    // The diagonal order knows nothing of property (1); re-seat beta so the
    // seed is symmetric-feasible before the move set (which preserves S-F)
    // takes over.
    makeSymmetricFeasibleInPlace(s.sp, merged, symScratch);
    return true;
  }

  void fill(SeqPairPlacerResult& result,
            const AnnealResult<SeqPairState>& annealed) {
    scr.w.resize(n);
    scr.h.resize(n);
    for (std::size_t m = 0; m < n; ++m) {
      const Module& mod = circuit.module(m);
      scr.w[m] = annealed.best.rotated[m] ? mod.h : mod.w;
      scr.h[m] = annealed.best.rotated[m] ? mod.w : mod.h;
    }
    auto built = buildSymmetricPlacement(annealed.best.sp, scr.w, scr.h,
                                         groups);
    if (built) {
      result.placement = std::move(built->placement);
      result.axis2x = std::move(built->axis2x);
    }
    result.code = annealed.best.sp;
    result.area = result.placement.boundingBox().area();
    result.hpwl = totalHpwl(result.placement, circuit.netPins());
  }
};

}  // namespace

SeqPairPlacerResult placeSeqPairSA(const Circuit& circuit,
                                   const SeqPairPlacerOptions& options) {
  return AnnealReplica<SeqPairProblem>(circuit, options).finishNative();
}

std::unique_ptr<ReplicaSession> makeSeqPairReplica(
    const Circuit& circuit, const SeqPairPlacerOptions& options,
    double tempScale) {
  return std::make_unique<AnnealReplica<SeqPairProblem>>(circuit, options,
                                                         tempScale);
}

}  // namespace als
