// Per-layer replays of the traced run: seeded move streams pushed through
// the public move, pack and CostModel functions (kernel, decode and cost
// rows, as bench/bench_decode.cpp's runKernel does), and the workload's own
// results pushed through the io and cache layers.  Every replay also checks
// the identity its layer promises (all LCS strategies agree, incremental ==
// full, committed cost == scratch cost, result text round-trips, a cache
// fetch returns what was stored) and records a failure when it does not.
#pragma once
#include <string>
#include <vector>

#include "engine/placement_engine.h"
#include "report.h"

namespace perfbench {

/// One computed result with what the io/cache layers need to key it.
struct KeyedResult {
  const std::string* circuitText = nullptr;
  als::EngineBackend backend = als::EngineBackend::FlatBStar;
  als::EngineOptions options;
  als::EngineResult result;
};

struct LayerInputs {
  const als::Circuit* kernelCircuit = nullptr;   ///< kernel.* rows (n300)
  const als::Circuit* decodeCircuit = nullptr;   ///< decode.* and cost.* rows
  const als::Circuit* thermalCircuit = nullptr;  ///< cost.propose_thermal_ns
  std::vector<const std::string*> circuitTexts;  ///< io.parse_us inputs
  std::vector<KeyedResult> results;              ///< io.* and cache.* inputs
  std::string cacheDir;                          ///< fresh store for cache.*
};

/// Runs every replay, adds the kernel.*, decode.*, cost.*, io.parse_us,
/// io.cache_key_ns, io.result_*, cache.* metrics and records one span per
/// layer.
void runLayerReplays(const LayerInputs& in, std::uint64_t seed, Tracer& tracer,
                     RunOutput& out);

/// Placement checks shared by every workload: one rect per module and no
/// overlap.  Returns an empty string when legal.
std::string checkPlacement(const als::Circuit& c, const als::Placement& p);

}  // namespace perfbench
