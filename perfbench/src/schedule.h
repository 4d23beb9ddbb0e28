// The serve-open workload's generated inputs: the job mix (which circuit,
// backend, seed and runner each job asks for) and the open-loop arrival
// schedule.  Both are pure functions of (workload seed, parameters); the
// daemon only ever sees the job texts built from them.
#pragma once
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/placement_engine.h"

namespace perfbench {

/// One distinct job identity (one daemon cache key).
struct ServeKey {
  std::size_t circuit = 0;  ///< index into the workload's circuit list
  als::EngineBackend backend = als::EngineBackend::FlatBStar;
  std::uint64_t seed = 1;
  bool tempering = false;
};

struct ServeArrival {
  double dueS = 0.0;      ///< scheduled send, seconds from schedule start
  std::size_t key = 0;    ///< index into ServeSchedule::keys
  bool oneShot = false;   ///< own connection: connect, JOB, RESULT, close
  bool firstSend = false; ///< first arrival of its key
};

// ---- the serve-open job mix and arrival process (see WORKLOADS.md) -------
/// Fixed arrival rate [jobs/s], frozen so every later commit is offered the
/// same load.  The mix and rate were chosen for steadiness on a 4-core
/// x86-64 VM; perfbench/WORKLOADS.md gives the figures.
constexpr double kArrivalRate = 35.0;
constexpr double kRepeatFrac = 0.3;     ///< share resubmitting an earlier key
constexpr double kOneShotFrac = 0.1;    ///< share sent on one-shot connections
constexpr double kTemperingFrac = 0.2;  ///< share of new keys run as tempering
constexpr double kZipfExponent = 1.0;   ///< popularity skew of resubmissions

struct ServeSchedule {
  std::vector<ServeKey> keys;          ///< in first-send order
  std::vector<ServeArrival> arrivals;  ///< sorted by dueS
  /// FNV-1a digest over every generated field (pins the generator).
  std::uint64_t digest() const;
};

/// The workload's schedule: round(kArrivalRate x seconds) Poisson arrivals
/// (sorted uniform times in [0, seconds)) over `circuits` circuits.  A
/// kRepeatFrac share of arrivals resubmits an earlier key (Zipf over keys in
/// first-send order, the earliest hottest); the rest introduce fresh keys,
/// which visit every (circuit, backend) pair in a seeded order.  Shares are
/// dealt exactly per block of ten arrivals.
ServeSchedule makeServeSchedule(std::uint64_t seed, double seconds,
                                std::size_t circuits);

/// The ALSSERVE JOB block for one key (see io/serve_protocol.h).
std::string jobMessage(const std::string& tag, const ServeKey& key,
                       const std::string& circuitText, std::size_t sweeps,
                       std::size_t restarts);

}  // namespace perfbench
