#include "bstar/flat_placer.h"

#include <utility>
#include <vector>

#include "anneal/annealer.h"
#include "bstar/bstar_tree.h"
#include "bstar/from_placement.h"
#include "bstar/pack.h"
#include "cost/cost_model.h"
#include "engine/anneal_replica.h"

namespace als {

namespace {

struct FlatState {
  BStarTree tree;
  std::vector<bool> rotated;
  std::vector<std::uint8_t> shapeIdx;  ///< index into Module::shapes (0 = footprint)
};

/// Decode = dims + pack, entirely into the scratch buffers; the returned
/// pointer aliases scr.placement, which the cost model diff-copies from.
/// With partial decode on, only the changed B*-tree suffix re-packs, and
/// the suffix's items feed the moved-module accumulator that opts the run
/// into the hinted CostModel::propose(p, moved) fast path (see
/// anneal/annealer.h for the movedModules()/committed() contract).
struct FlatDecoder {
  const Circuit& circuit;
  FlatBStarScratch& scr;
  std::size_t n;
  bool partial;

  const Placement* operator()(const FlatState& s) {
    scr.w.resize(n);
    scr.h.resize(n);
    for (std::size_t m = 0; m < n; ++m) {
      const Module& mod = circuit.module(m);
      Coord bw = mod.w, bh = mod.h;
      if (std::uint8_t si = s.shapeIdx[m]; si != 0) {
        bw = mod.shapes[si].w;
        bh = mod.shapes[si].h;
      }
      scr.w[m] = s.rotated[m] ? bh : bw;
      scr.h[m] = s.rotated[m] ? bw : bh;
    }
    if (!partial) {
      // Full-redecode path: every module may have moved.
      packBStarInto(s.tree, scr.w, scr.h, scr.pack, scr.placement);
      for (ModuleId m = 0; m < n; ++m) scr.moved.add(m);
      return &scr.placement;
    }
    std::size_t k = packBStarPartialInto(s.tree, scr.w, scr.h, scr.pack,
                                         scr.placement);
    for (std::size_t p = k; p < n; ++p) scr.moved.add(scr.pack.repack.item[p]);
    return &scr.placement;
  }

  std::span<const ModuleId> movedModules() const { return scr.moved.ids(); }
  void committed() { scr.moved.reset(n); }
};

/// The SA move (same body and RNG draws as the historical lambda in
/// placeFlatBStarSA).
struct FlatMove {
  const Circuit* circuit;
  const std::vector<ModuleId>* shapy;
  double shapeMoveProb;
  bool shapeMoves;
  std::size_t n;

  void operator()(FlatState& s, Rng& rng) const {
    if (shapeMoves && rng.uniform() < shapeMoveProb) {
      ModuleId m = (*shapy)[rng.index(shapy->size())];
      s.shapeIdx[m] = static_cast<std::uint8_t>(
          rng.index(circuit->module(m).shapes.size()));
      return;
    }
    if (rng.uniform() < 0.15) {
      std::size_t m = rng.index(n);
      if (circuit->module(m).rotatable) s.rotated[m] = !s.rotated[m];
    } else {
      s.tree.perturb(rng);
    }
  }
};

/// The flat B*-tree SA problem (engine/anneal_replica.h).
struct FlatProblem {
  using Options = FlatBStarOptions;
  using Result = FlatBStarResult;
  using State = FlatState;
  static constexpr EngineBackend kBackend = EngineBackend::FlatBStar;

  const Circuit& circuit;
  std::size_t n;
  CostModel model;
  std::vector<ModuleId> shapy;
  FlatBStarScratch localScratch;
  FlatBStarScratch& scr;
  FlatDecoder decode;
  FlatMove move{};
  // Cross-backend reseed buffers (warm after the first reseed).
  BStarFromPlacementScratch reseedScratch;

  FlatProblem(const Circuit& c, const FlatBStarOptions& o)
      : circuit(c),
        n(c.moduleCount()),
        model(c, makeObjective(c, {.wirelength = o.wirelengthWeight,
                                   .symmetry = o.symmetryWeight,
                                   .proximity = o.proximityWeight,
                                   .thermal = o.thermalWeight})),
        scr(o.scratch ? *o.scratch : localScratch),
        decode{c, scr, n, o.partialDecode} {
    // Shape moves only exist when asked for AND some module carries a
    // curve; otherwise the move draws exactly the historical RNG stream and
    // every decode reads the declared footprint — bit-identical to builds
    // that predate shape selection.
    for (ModuleId m = 0; m < n; ++m) {
      if (circuit.module(m).shapes.size() > 1) shapy.push_back(m);
    }
    move = FlatMove{&circuit, &shapy, o.shapeMoveProb,
                    o.shapeMoveProb > 0.0 && !shapy.empty(), n};

    scr.moved.reset(n);
  }

  FlatState initialState() const {
    return {BStarTree(n), std::vector<bool>(n, false),
            std::vector<std::uint8_t>(n, 0)};
  }

  /// B*-tree reconstruction of `placement` (bstar/from_placement.h), with
  /// orientations and shape choices recovered from the rect dimensions.
  /// Always succeeds for a placement of this circuit (penalty-based: every
  /// state is feasible).
  bool reseed(FlatState& s, const Placement& placement) {
    if (placement.size() != n) return false;
    bstarFromPlacement(placement, reseedScratch, s.tree);
    // Recover orientation / shape choice per module from the rect dims:
    // first matching realization wins (0 = declared footprint), rotation
    // when the transposed dims match instead.  Degenerate (square) modules
    // keep the unrotated reading — deterministic either way.
    for (std::size_t m = 0; m < n; ++m) {
      const Module& mod = circuit.module(m);
      const Rect& r = placement[m];
      s.rotated[m] = false;
      s.shapeIdx[m] = 0;
      if (r.w == mod.w && r.h == mod.h) continue;
      if (mod.rotatable && r.w == mod.h && r.h == mod.w) {
        s.rotated[m] = true;
        continue;
      }
      for (std::size_t si = 1; si < mod.shapes.size(); ++si) {
        if (r.w == mod.shapes[si].w && r.h == mod.shapes[si].h) {
          s.shapeIdx[m] = static_cast<std::uint8_t>(si);
          break;
        }
      }
    }
    return true;
  }

  void fill(FlatBStarResult& result, const AnnealResult<FlatState>& annealed) {
    result.placement = *decode(annealed.best);
    CostBreakdown breakdown = model.evaluateBreakdown(result.placement);
    result.area = breakdown.area;
    result.hpwl = breakdown.hpwl;
    result.symDeviation = breakdown.symDeviation;
    result.proximityViolations = breakdown.proximityViolations;
  }
};

}  // namespace

FlatBStarResult placeFlatBStarSA(const Circuit& circuit,
                                 const FlatBStarOptions& options) {
  return AnnealReplica<FlatProblem>(circuit, options).finishNative();
}

std::unique_ptr<ReplicaSession> makeFlatBStarReplica(
    const Circuit& circuit, const FlatBStarOptions& options,
    double tempScale) {
  return std::make_unique<AnnealReplica<FlatProblem>>(circuit, options,
                                                      tempScale);
}

}  // namespace als
