// The three workloads (rationale in perfbench/WORKLOADS.md).  Each fills
// `out` with its end-to-end metrics (untraced passes) and, when
// `args.trace`, every per-layer metric; layers a workload's path does not
// cross read 0.
#pragma once
#include <vector>

#include "engine/placement_engine.h"
#include "report.h"

namespace perfbench {

void runGsrcAnneal(const Args& args, RunOutput& out);
void runMcncRace(const Args& args, RunOutput& out);
void runServeOpen(const Args& args, RunOutput& out);

/// Adds the self.* rows (per-layer self time over the run's spans) and
/// trace.spans.
void addSelfTimes(const Tracer& tracer, RunOutput& out);

/// Moves and busy seconds of one backend (allBackends() order).
struct EngineTally {
  double moves = 0.0, seconds = 0.0;
};
std::size_t backendIndex(als::EngineBackend b);

/// Adds the engine.<backend>.moves_per_s / .wall_share rows and the exact
/// engine.moves_tried / engine.sweeps counts.
void addEngineRows(const std::vector<EngineTally>& tally, double movesTried,
                   double sweeps, RunOutput& out);

/// Adds a per-layer row of value 0 for every name not yet present: the
/// layers this workload's path does not cross.
void fillUncrossedLayers(RunOutput& out);

}  // namespace perfbench
