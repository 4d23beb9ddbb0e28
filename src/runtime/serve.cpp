#include "runtime/serve.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <thread>

#include "io/benchmark_format.h"
#include "runtime/replica_grid.h"
#include "runtime/tempering.h"
#include "util/stopwatch.h"

namespace als {

// --- private structs --------------------------------------------------------

struct ServeEngine::Slot {
  enum class State { Free, Pending, Running };
  State state = State::Free;
  std::uint64_t id = 0;
  Job job;
  CacheKey key;
  CancelToken cancel;
  Stopwatch clock;  ///< reset at submit; latency = submit-to-completion
  /// Deadline bookkeeping.  `deadlined` is atomic because the monitor
  /// thread sets it while the executing worker reads it lock-free (the
  /// worker also sets it itself for sweep deadlines).
  bool hasDeadline = false;  ///< wall deadline armed (under Impl::mutex)
  std::chrono::steady_clock::time_point deadlineAt{};
  std::atomic<bool> deadlined{false};

  /// The barrier of a restart job's round loop.  Sweep-budget deadline,
  /// round-granular: once the job's TOTAL sweeps cross the budget, cancel —
  /// the still-active sessions wind down during the next round's sweep
  /// checks (same bound as a client CANCEL).  Then `onProgress` reports.
  void endRound(ReplicaGrid& grid) {
    std::size_t sweepsDone = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      sweepsDone += grid.sweeps(i);
      best = std::min(best, grid.session(i).bestCost());
    }
    if (job.deadlineSweeps > 0 && sweepsDone >= job.deadlineSweeps &&
        !deadlined.load(std::memory_order_relaxed)) {
      deadlined.store(true, std::memory_order_relaxed);
      cancel.cancel();
    }
    if (job.onProgress) job.onProgress(grid.rounds(), sweepsDone, best);
  }
};

struct ServeEngine::Worker {
  std::thread thread;
  ThreadPool pool{1};     ///< job rounds run inline on the worker
  TemperingScratch bank;  ///< per-slice warm buffers, reused across jobs

  // Reused per-job state (capacity persists across jobs):
  EngineResult result;
  EngineBackend resultBackend = EngineBackend::FlatBStar;
};

struct ServeEngine::Impl {
  std::mutex mutex;
  std::condition_variable workCv;
  std::vector<std::unique_ptr<Slot>> slots;  ///< pending + running jobs
  std::vector<std::size_t> fifo;   ///< ring of pending slot indices
  std::size_t fifoHead = 0;
  std::size_t fifoCount = 0;
  std::uint64_t nextId = 1;
  ServeStats stats;
  bool stopping = false;
  std::vector<std::unique_ptr<Worker>> workers;
  /// Wall-deadline monitor: sleeps until the earliest armed deadline, fires
  /// by cancelling the slot.  Joined AFTER the workers so deadlines stay
  /// enforced through the shutdown drain.
  std::condition_variable deadlineCv;
  std::thread deadlineMonitor;
  bool monitorStop = false;
};

// --- lifecycle --------------------------------------------------------------

ServeEngine::ServeEngine(const ServeOptions& options)
    : options_(options),
      cache_(std::make_unique<ResultCache>(options.cacheDir,
                                           options.cacheCapacity)),
      impl_(std::make_unique<Impl>()) {
  options_.workers = std::max<std::size_t>(1, options_.workers);
  options_.queueCapacity = std::max<std::size_t>(1, options_.queueCapacity);
  options_.progressInterval =
      std::max<std::size_t>(1, options_.progressInterval);
  impl_->slots.reserve(options_.queueCapacity);
  for (std::size_t i = 0; i < options_.queueCapacity; ++i) {
    impl_->slots.push_back(std::make_unique<Slot>());
  }
  impl_->fifo.resize(options_.queueCapacity);
  impl_->workers.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    impl_->workers.push_back(std::make_unique<Worker>());
    Worker* worker = impl_->workers.back().get();
    worker->thread = std::thread([this, worker] { workerLoop(*worker); });
  }
  impl_->deadlineMonitor = std::thread([this] { deadlineLoop(); });
}

ServeEngine::~ServeEngine() { shutdown(); }

void ServeEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->stopping) return;
    impl_->stopping = true;
  }
  impl_->workCv.notify_all();
  for (auto& worker : impl_->workers) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->monitorStop = true;
  }
  impl_->deadlineCv.notify_all();
  if (impl_->deadlineMonitor.joinable()) impl_->deadlineMonitor.join();
}

// --- submission / control ---------------------------------------------------

ServeEngine::Submission ServeEngine::submit(Job job) {
  // The serve layer's reproducibility invariants, applied BEFORE the key is
  // computed (both knobs are excluded from the canonical options string):
  // no wall-clock stopping rule, parallelism across jobs rather than within.
  job.options.timeLimitSec = 0.0;
  job.options.numThreads = 1;
  std::string keyScratch;
  Submission out;
  out.key =
      makeCacheKey(job.circuitText, job.backend, job.options, keyScratch);

  std::lock_guard<std::mutex> lock(impl_->mutex);
  Slot* slot = nullptr;
  std::size_t index = 0;
  if (!impl_->stopping) {
    for (std::size_t i = 0; i < impl_->slots.size(); ++i) {
      if (impl_->slots[i]->state == Slot::State::Free) {
        slot = impl_->slots[i].get();
        index = i;
        break;
      }
    }
  }
  if (slot == nullptr) {
    ++impl_->stats.rejected;
    return out;  // accepted = false
  }
  slot->state = Slot::State::Pending;
  slot->id = impl_->nextId++;
  slot->job = std::move(job);
  slot->key = out.key;
  slot->cancel.reset();
  slot->clock.reset();
  slot->deadlined.store(false, std::memory_order_relaxed);
  slot->hasDeadline = slot->job.deadlineSeconds > 0.0;
  if (slot->hasDeadline) {
    // Measured from submit: a queued job burns its deadline waiting, which
    // is exactly what a client's latency budget means.
    slot->deadlineAt = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(
                               slot->job.deadlineSeconds));
  }
  impl_->fifo[(impl_->fifoHead + impl_->fifoCount) % impl_->fifo.size()] =
      index;
  ++impl_->fifoCount;
  ++impl_->stats.submitted;
  out.accepted = true;
  out.id = slot->id;
  impl_->workCv.notify_one();
  if (slot->hasDeadline) impl_->deadlineCv.notify_all();
  return out;
}

bool ServeEngine::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const std::unique_ptr<Slot>& slot : impl_->slots) {
    if (slot->state != Slot::State::Free && slot->id == id) {
      slot->cancel.cancel();
      return true;
    }
  }
  return false;
}

ServeStats ServeEngine::stats() const {
  ServeStats out;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    out = impl_->stats;
  }
  // Sequential lock acquisition (never nested) — the cache has its own.
  const ResultCache::Stats cacheStats = cache_->stats();
  out.quarantined = cacheStats.quarantined;
  out.evicted = cacheStats.evicted;
  out.memoryOnly = cacheStats.memoryOnly;
  return out;
}

// --- deadline monitor -------------------------------------------------------

void ServeEngine::deadlineLoop() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  while (!impl_->monitorStop) {
    auto nextAt = std::chrono::steady_clock::time_point::max();
    const auto now = std::chrono::steady_clock::now();
    for (const std::unique_ptr<Slot>& slot : impl_->slots) {
      if (slot->state == Slot::State::Free || !slot->hasDeadline) continue;
      if (slot->deadlined.load(std::memory_order_relaxed)) continue;
      if (slot->deadlineAt <= now) {
        // Fire: the running session observes the token within one round;
        // a still-pending job deadlines during its first sweep check.
        slot->deadlined.store(true, std::memory_order_relaxed);
        slot->cancel.cancel();
        continue;
      }
      nextAt = std::min(nextAt, slot->deadlineAt);
    }
    if (nextAt == std::chrono::steady_clock::time_point::max()) {
      impl_->deadlineCv.wait(lock);
    } else {
      impl_->deadlineCv.wait_until(lock, nextAt);
    }
  }
}

// --- worker side ------------------------------------------------------------

void ServeEngine::workerLoop(Worker& worker) {
  for (;;) {
    Slot* slot = nullptr;
    {
      std::unique_lock<std::mutex> lock(impl_->mutex);
      impl_->workCv.wait(lock, [&] {
        return impl_->fifoCount > 0 || impl_->stopping;
      });
      if (impl_->fifoCount == 0) return;  // stopping and drained
      slot = impl_->slots[impl_->fifo[impl_->fifoHead]].get();
      impl_->fifoHead = (impl_->fifoHead + 1) % impl_->fifo.size();
      --impl_->fifoCount;
      slot->state = Slot::State::Running;
    }
    executeJob(worker, *slot);
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      // Release the callbacks now (they may close over connection state the
      // caller wants freed) and the slot last, so a resubmission can never
      // observe a Free slot with a stale job in it.
      slot->job.onProgress = nullptr;
      slot->job.onDone = nullptr;
      slot->state = Slot::State::Free;
    }
  }
}

void ServeEngine::executeJob(Worker& worker, Slot& slot) {
  JobOutcome outcome;
  outcome.id = slot.id;
  outcome.key = slot.key;
  outcome.backend = slot.job.backend;

  const bool hit = cache_->fetch(slot.key, worker.resultBackend, worker.result);
  if (hit) {
    outcome.result = &worker.result;
    outcome.cacheHit = true;
    // A hit whose cancel token was tripped BY a deadline still completes as
    // a plain hit: the full answer is already known, serving it costs one
    // copy, and reporting DEADLINE for an instant result would be absurd.
    outcome.cancelled = slot.cancel.cancelled() &&
                        !slot.deadlined.load(std::memory_order_relaxed);
  } else {
    ParseResult parsed = parseBenchmark(slot.job.circuitText);
    if (!parsed.ok()) {
      outcome.error = std::move(parsed.error);
    } else {
      Stopwatch computeClock;
      EngineOptions options = slot.job.options;
      options.cancel = &slot.cancel;
      if (options.tempering) {
        TemperingRunner runner(&worker.pool);
        worker.result =
            runner.run(parsed.circuit, slot.job.backend, options, &worker.bank)
                .result;
      } else {
        // Slices advance `progressInterval` sweeps per round; the barrier
        // applies the sweep deadline and reports progress.
        ReplicaGrid grid(std::span(&parsed.circuit, 1),
                         std::span(&slot.job.backend, 1), options, 1.0,
                         options_.progressInterval, &worker.bank);
        worker.result = reducePortfolioSlices(
            grid.run(&worker.pool,
                     [&slot](ReplicaGrid& g) { slot.endRound(g); }));
      }
      worker.result.seconds = computeClock.seconds();
      outcome.result = &worker.result;
      // Deadline wins precedence: its cancellation is the engine's doing,
      // not the client's, and the wire reports it as its own status.
      outcome.deadlineExpired =
          slot.deadlined.load(std::memory_order_relaxed);
      outcome.cancelled =
          slot.cancel.cancelled() && !outcome.deadlineExpired;
      // Cancelled and deadlined results are best-so-far snapshots, not pure
      // functions of the key — never cache them (the cache-correctness
      // contract).
      if (!outcome.cancelled && !outcome.deadlineExpired) {
        cache_->store(slot.key, slot.job.backend, worker.result);
      }
    }
  }
  outcome.latencySeconds = slot.clock.seconds();

  {
    // Stats are committed BEFORE onDone so a client that saw its RESULT
    // observes them included in the next STATS reply.  The id is retired in
    // the same critical section: once a client can observe completion,
    // cancel(id) must report the job unknown rather than flag a slot that
    // is merely awaiting reuse.
    std::lock_guard<std::mutex> lock(impl_->mutex);
    slot.id = 0;
    ++impl_->stats.completed;
    if (outcome.cacheHit) {
      ++impl_->stats.cacheHits;
    } else if (outcome.error.empty()) {
      ++impl_->stats.cacheMisses;
    }
    if (outcome.deadlineExpired) {
      ++impl_->stats.deadlineExpired;
    } else if (outcome.cancelled) {
      ++impl_->stats.cancelled;
    }
  }
  if (slot.job.onDone) slot.job.onDone(outcome);
}

}  // namespace als
