#include "engine/replica_session.h"

#include "bstar/flat_placer.h"
#include "bstar/hbstar.h"
#include "engine/place_scratch.h"
#include "seqpair/sa_placer.h"
#include "slicing/slicing_placer.h"

namespace als {

namespace {

// All backend option structs share the SA-knob field names; objective knobs
// that only some backends carry (a backend whose representation guarantees
// the constraint has no weight field for it) map through the
// `requires`-gated assignments.  Adding a shared knob to EngineOptions is a
// single edit here.
template <class BackendOptions>
BackendOptions mapEngineOptions(const EngineOptions& options) {
  BackendOptions opt;
  opt.wirelengthWeight = options.wirelengthWeight;
  opt.maxSweeps = options.maxSweeps;
  opt.timeLimitSec = options.timeLimitSec;
  opt.seed = options.seed;
  opt.coolingFactor = options.coolingFactor;
  opt.movesPerTemp = options.movesPerTemp;
  if constexpr (requires { opt.symmetryWeight; }) {
    opt.symmetryWeight = options.symmetryWeight;
  }
  if constexpr (requires { opt.proximityWeight; }) {
    opt.proximityWeight = options.proximityWeight;
  }
  if constexpr (requires { opt.outlineWeight; }) {
    opt.outlineWeight = options.outlineWeight;
  }
  if constexpr (requires { opt.maxWidth; }) {
    opt.maxWidth = options.maxWidth;
  }
  if constexpr (requires { opt.maxHeight; }) {
    opt.maxHeight = options.maxHeight;
  }
  if constexpr (requires { opt.targetAspect; }) {
    opt.targetAspect = options.targetAspect;
  }
  if constexpr (requires { opt.thermalWeight; }) {
    opt.thermalWeight = options.thermalWeight;
  }
  if constexpr (requires { opt.shapeMoveProb; }) {
    opt.shapeMoveProb = options.shapeMoveProb;
  }
  if constexpr (requires { opt.cancel; }) {
    opt.cancel = options.cancel;
  }
  if (options.scratch != nullptr) {
    opt.scratch = subScratch(*options.scratch, opt.scratch);
  }
  return opt;
}

}  // namespace

std::unique_ptr<ReplicaSession> makeReplicaSession(EngineBackend backend,
                                                   const Circuit& circuit,
                                                   const EngineOptions& options,
                                                   double tempScale) {
  switch (backend) {
    case EngineBackend::FlatBStar:
      return makeFlatBStarReplica(
          circuit, mapEngineOptions<FlatBStarOptions>(options), tempScale);
    case EngineBackend::SeqPair:
      return makeSeqPairReplica(
          circuit, mapEngineOptions<SeqPairPlacerOptions>(options), tempScale);
    case EngineBackend::Slicing:
      return makeSlicingReplica(
          circuit, mapEngineOptions<SlicingPlacerOptions>(options), tempScale);
    case EngineBackend::HBStar:
      return makeHBStarReplica(
          circuit, mapEngineOptions<HBPlacerOptions>(options), tempScale);
  }
  return nullptr;
}

}  // namespace als
