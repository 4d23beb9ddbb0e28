// The one `ReplicaSession` implementation: a backend's annealing problem
// bound to `detail::AnnealDriver` (anneal/annealer.h).
//
// Every backend .cpp keeps its SA problem as a `Problem` type and exports a
// factory (`makeFlatBStarReplica`, ...) that returns an
// `AnnealReplica<Problem>`; its one-shot `placeX` function is the same
// replica run to completion (`finishNative`).  A `Problem` supplies:
//
//   Options, Result, State   native options/result structs and SA state
//   kBackend                 the EngineBackend it implements
//   Problem(circuit, opts)   model, decoder, move and scratch binding
//   model, decode, move      CostModel, decoder (IncrementalEval contract
//                            of anneal/annealer.h) and in-place move functor
//   initialState()           the state every run restarts from
//   fill(result, annealed)   the backend-specific result fields
//   reseed(state, p) -> bool optional; absent = never adopts a placement
//
// The template writes the rest once: the native options -> AnnealOptions
// mapping, sweep stepping, exchange, best-placement decode and the shared
// cost/moves/sweeps/seconds result fields.
#pragma once

#include <stdexcept>
#include <utility>

#include "anneal/annealer.h"
#include "engine/replica_session.h"

namespace als {

template <class Problem>
class AnnealReplica final : public ReplicaSession {
 public:
  using Options = typename Problem::Options;
  using Result = typename Problem::Result;
  using State = typename Problem::State;

  AnnealReplica(const Circuit& circuit, const Options& options,
                double tempScale = 1.0)
      : seed_(options.seed),
        problem_(circuit, options),
        driver_(problem_.initialState(), Eval{problem_.model, problem_.decode},
                problem_.move, annealOptions(options, circuit.moduleCount()),
                tempScale) {}

  AnnealReplica(const AnnealReplica&) = delete;
  AnnealReplica& operator=(const AnnealReplica&) = delete;

  EngineBackend backend() const override { return Problem::kBackend; }

  std::size_t runSweeps(std::size_t maxSweeps) override {
    return driver_.runSweeps(maxSweeps);
  }
  bool finished() const override { return driver_.finished(); }

  double currentCost() const override { return driver_.currentCost(); }
  double bestCost() const override { return driver_.bestCost(); }
  double temperature() const override { return driver_.temperature(); }

  void exchangeWith(ReplicaSession& other) override {
    auto* peer = dynamic_cast<AnnealReplica*>(&other);
    if (peer == nullptr) {
      throw std::invalid_argument(
          "replica exchange requires two sessions of the same backend");
    }
    Driver::exchange(driver_, peer->driver_);
  }

  const Placement& bestPlacement() override {
    return *problem_.decode(driver_.bestState());
  }

  bool reseedFromPlacement(const Placement& placement) override {
    if constexpr (requires(Problem& p, State& s) { p.reseed(s, placement); }) {
      if (!problem_.reseed(driver_.currentState(), placement)) return false;
      driver_.reanchor();
      return true;
    } else {
      return false;
    }
  }

  /// Finalizes (running any leftover budget first) into the backend's
  /// native result — the `placeX` return value.
  Result finishNative() {
    AnnealResult<State> annealed = driver_.finalize();
    Result result;
    problem_.fill(result, annealed);
    result.cost = annealed.bestCost;
    result.movesTried = annealed.movesTried;
    result.sweeps = annealed.sweeps;
    result.seconds = annealed.seconds;
    return result;
  }

  EngineResult finish() override {
    Result r = finishNative();
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
  using Eval = detail::IncrementalEval<decltype(Problem::model),
                                       decltype(Problem::decode)>;
  using Driver = detail::AnnealDriver<State, Eval, decltype(Problem::move)>;

  static AnnealOptions annealOptions(const Options& options,
                                     std::size_t sizeHint) {
    AnnealOptions a;
    a.maxSweeps = options.maxSweeps;
    a.timeLimitSec = options.timeLimitSec;
    a.seed = options.seed;
    a.coolingFactor = options.coolingFactor;
    a.movesPerTemp = options.movesPerTemp;
    a.sizeHint = sizeHint;
    a.cancel = options.cancel;
    return a;
  }

  std::uint64_t seed_;
  Problem problem_;  // constructed before driver_, whose Eval refers into it
  Driver driver_;
};

}  // namespace als
