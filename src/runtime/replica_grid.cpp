#include "runtime/replica_grid.h"

#include <optional>

#include "anneal/annealer.h"
#include "engine/place_scratch.h"
#include "runtime/tempering.h"

namespace als {

ReplicaGrid::ReplicaGrid(std::span<const Circuit> circuits,
                         std::span<const EngineBackend> backends,
                         const EngineOptions& options, double ladderRatio,
                         std::size_t roundLength, TemperingScratch* bank)
    : circuits_(circuits),
      backends_(backends),
      options_(options),
      plan_(makeRestartPlan(options)),
      scales_(plan_.size()),
      roundLength_(roundLength),
      bank_(bank),
      sweeps_(circuits.size() * backends.size() * plan_.size()),
      results_(sweeps_.size()) {
  double scale = 1.0;
  for (double& s : scales_) {
    s = scale;
    scale *= ladderRatio;
  }
  while (bank != nullptr && bank->replicas.size() < size()) {
    bank->replicas.push_back(std::make_unique<PlaceScratch>());
  }
}

ReplicaGrid::~ReplicaGrid() = default;

std::unique_ptr<ReplicaSession> ReplicaGrid::create(
    std::size_t i, PlaceScratch* scratch) const {
  const std::size_t row = i / plan_.size();
  const Circuit& circuit = circuits_[row / backends_.size()];
  EngineOptions opt = sliceEngineOptions(
      options_, slice(i),
      resolveMovesPerTemp(options_.movesPerTemp, circuit.moduleCount()));
  opt.scratch = bank_ != nullptr ? bank_->replicas[i].get() : scratch;
  return makeReplicaSession(backends_[row % backends_.size()], circuit, opt,
                            scale(i));
}

std::vector<EngineResult> ReplicaGrid::run(ThreadPool* pool,
                                           const Barrier& barrier) {
  std::optional<ThreadPool> own;
  if (pool == nullptr) pool = &own.emplace(options_.numThreads);
  ReplicaGrid& grid = *this;
  if (roundLength_ == 0) {
    // A slot runs its tasks sequentially, so its scratch is never shared;
    // creation is lazy because a short plan may not reach every slot.
    slotScratch_.resize(pool->threadCount());
    pool->parallelFor(size(), [&grid](std::size_t i, std::size_t slot) {
      std::unique_ptr<PlaceScratch>& scratch = grid.slotScratch_[slot];
      if (scratch == nullptr && grid.bank_ == nullptr) {
        scratch = std::make_unique<PlaceScratch>();
      }
      grid.results_[i] = grid.create(i, scratch.get())->finish();
    });
    return std::move(results_);
  }
  sessions_.resize(size());
  pool->parallelFor(size(), [&grid](std::size_t i, std::size_t) {
    grid.sessions_[i] = grid.create(i, nullptr);
  });
  for (bool anyActive = true; anyActive;) {
    pool->parallelFor(size(), [&grid](std::size_t i, std::size_t) {
      ReplicaSession& session = *grid.sessions_[i];
      if (!session.finished()) {
        grid.sweeps_[i] += session.runSweeps(grid.roundLength_);
      }
    });
    ++rounds_;
    anyActive = false;
    for (const auto& session : sessions_) {
      anyActive = anyActive || !session->finished();
    }
    if (barrier) barrier(*this);
  }
  pool->parallelFor(size(), [&grid](std::size_t i, std::size_t) {
    grid.results_[i] = grid.sessions_[i]->finish();
  });
  sessions_.clear();
  return std::move(results_);
}

}  // namespace als
