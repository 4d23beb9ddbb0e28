// The per-worker decode scratch bundle of the engine facade.
//
// Every backend's hot loop decodes its encoding into caller-owned buffers
// (bstar/flat_placer.h, seqpair/sa_placer.h, slicing/slicing_placer.h,
// bstar/hbstar.h each define their native scratch).  `PlaceScratch` bundles
// one of each so a driver that races backends — or runs many restart slices
// on one worker thread — can hand the SAME warm buffers to every run it
// hosts, no matter which backend a slice uses.
//
// Ownership & thread-safety contract (the "scratch-reuse contract"):
//   * a scratch is an inert bag of buffers — its contents NEVER influence
//     placement results, only whether the decode loop allocates;
//   * at most one `place()` call may use a given scratch at a time; reuse
//     across sequential runs, circuits and backends is encouraged (that is
//     the point), concurrent sharing is a race;
//   * the runtime layer's replica grid (runtime/replica_grid.h) creates one
//     PlaceScratch per pool worker per run-to-completion grid (portfolio
//     races and batches) and stamps the right sub-scratch into each slice's
//     options — slices on one worker run sequentially, so the contract
//     holds by construction (the scratches are per-call, not per-runner:
//     the runners stay const and stateless, which is what allows
//     concurrent callers).  Grids whose sessions live across rounds take a
//     per-replica bank instead (TemperingScratch, runtime/tempering.h).
#pragma once

#include "bstar/flat_placer.h"
#include "bstar/hbstar.h"
#include "seqpair/sa_placer.h"
#include "slicing/slicing_placer.h"

namespace als {

struct PlaceScratch {
  FlatBStarScratch flatBStar;
  SeqPairScratch seqPair;
  SlicingScratch slicing;
  HBStarScratch hbStar;
};

/// Overload set mapping the aggregate to a backend's native sub-scratch
/// (selected by the pointer type of the backend's options field).
inline FlatBStarScratch* subScratch(PlaceScratch& s, FlatBStarScratch*) {
  return &s.flatBStar;
}
inline SeqPairScratch* subScratch(PlaceScratch& s, SeqPairScratch*) {
  return &s.seqPair;
}
inline SlicingScratch* subScratch(PlaceScratch& s, SlicingScratch*) {
  return &s.slicing;
}
inline HBStarScratch* subScratch(PlaceScratch& s, HBStarScratch*) {
  return &s.hbStar;
}

}  // namespace als
