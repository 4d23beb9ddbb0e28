#include "engine/replica_session.h"

#include <stdexcept>
#include <utility>

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

template <class Session, class NativeOptions, class NativeResult>
class TypedReplica final : public ReplicaSession {
 public:
  TypedReplica(EngineBackend backend, const Circuit& circuit,
               const EngineOptions& options, double tempScale)
      : backend_(backend),
        seed_(options.seed),
        session_(circuit, mapEngineOptions<NativeOptions>(options),
                 tempScale) {}

  EngineBackend backend() const override { return backend_; }

  std::size_t runSweeps(std::size_t maxSweeps) override {
    return session_.runSweeps(maxSweeps);
  }
  void run() override { session_.run(); }
  bool finished() const override { return session_.finished(); }

  double currentCost() const override { return session_.currentCost(); }
  double bestCost() const override { return session_.bestCost(); }
  double temperature() const override { return session_.temperature(); }

  void exchangeWith(ReplicaSession& other) override {
    auto* peer = dynamic_cast<TypedReplica*>(&other);
    if (peer == nullptr) {
      throw std::invalid_argument(
          "replica exchange requires two sessions of the same backend");
    }
    session_.exchangeWith(peer->session_);
  }

  const Placement& bestPlacement() override {
    return session_.bestPlacement();
  }

  bool reseedFromPlacement(const Placement& placement) override {
    return session_.reseedFromPlacement(placement);
  }

  EngineResult finish() override {
    NativeResult r = session_.finish();
    EngineResult result;
    result.placement = std::move(r.placement);
    result.area = r.area;
    result.hpwl = r.hpwl;
    result.cost = r.cost;
    result.movesTried = r.movesTried;
    result.sweeps = r.sweeps;
    result.seconds = r.seconds;
    result.restartsRun = 1;
    result.bestRestart = 0;
    result.bestSeed = seed_;
    return result;
  }

 private:
  EngineBackend backend_;
  std::uint64_t seed_;
  Session session_;
};

}  // namespace

std::unique_ptr<ReplicaSession> makeReplicaSession(EngineBackend backend,
                                                   const Circuit& circuit,
                                                   const EngineOptions& options,
                                                   double tempScale) {
  switch (backend) {
    case EngineBackend::FlatBStar:
      return std::make_unique<
          TypedReplica<FlatBStarSession, FlatBStarOptions, FlatBStarResult>>(
          backend, circuit, options, tempScale);
    case EngineBackend::SeqPair:
      return std::make_unique<TypedReplica<SeqPairSession, SeqPairPlacerOptions,
                                           SeqPairPlacerResult>>(
          backend, circuit, options, tempScale);
    case EngineBackend::Slicing:
      return std::make_unique<TypedReplica<SlicingSession, SlicingPlacerOptions,
                                           SlicingPlacerResult>>(
          backend, circuit, options, tempScale);
    case EngineBackend::HBStar:
      return std::make_unique<
          TypedReplica<HBStarSession, HBPlacerOptions, HBPlacerResult>>(
          backend, circuit, options, tempScale);
  }
  return nullptr;
}

}  // namespace als
