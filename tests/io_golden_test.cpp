// Golden regression for the embedded corpus: the deterministic annealing
// contract says a fixed (seed, maxSweeps) run is bit-identical on any
// machine, so the exact (cost, hpwl, area) of each backend on two corpus
// circuits can be pinned.  A future refactor that silently changes any
// placer's arithmetic, move mix, RNG consumption order or packing shifts
// these numbers and fails here — on purpose.  If a change is *intended* to
// alter results (a new move class, a different cooling default), re-pin the
// goldens in the same commit and say so in the commit message.
//
// The pins are tied to libstdc++'s distribution algorithms (the library's
// documented determinism envelope: the toolchain is pinned, results are
// machine-independent but not stdlib-implementation-independent).
#include <gtest/gtest.h>

#include "engine/placement_engine.h"
#include "io/corpus.h"
#include "layoutaware/miller.h"
#include "layoutaware/sizing.h"
#include "netlist/generators.h"
#include "seqpair/absolute_placer.h"
#include "test_util.h"

namespace als {
namespace {

struct Golden {
  EngineBackend backend;
  double cost;
  Coord hpwl;
  Coord area;
};

void expectGolden(CorpusCircuit which, const EngineOptions& opt,
                  std::span<const Golden> goldens) {
  Circuit c = loadCorpusCircuit(which);
  for (const Golden& g : goldens) {
    auto engine = makeEngine(g.backend);
    EngineResult r = engine->place(c, opt);
    std::string label =
        std::string(corpusName(which)) + "/" + std::string(engine->name());
    EXPECT_EQ(r.cost, g.cost) << label;
    EXPECT_EQ(r.hpwl, g.hpwl) << label;
    EXPECT_EQ(r.area, g.area) << label;
    // The pinned placements also satisfy the shared invariants; the
    // penalty/ILAC baselines (flat-bstar, slicing) do not guarantee
    // symmetry, the structural placers keep it exactly.
    bool structural = g.backend == EngineBackend::SeqPair ||
                      g.backend == EngineBackend::HBStar;
    test_util::expectPlacementInvariants(
        r.placement, c,
        {.symTolerance = structural ? 0 : test_util::kNoSymmetryCheck}, label);
  }
}

// Budget/seed of the pins: small enough to stay fast under TSan, past the
// first cooling plateaus so all move classes participate.
EngineOptions goldenOptions() {
  EngineOptions opt;
  opt.maxSweeps = 64;
  opt.seed = 1;
  return opt;
}

TEST(IoGolden, ApteAllBackends) {
  const Golden goldens[] = {
      {EngineBackend::FlatBStar, 304247020766.79346, 2490000, 117952000000},
      {EngineBackend::SeqPair, 239077145691.72638, 1698500, 112000000000},
      {EngineBackend::Slicing, 245265026059.52325, 1680000, 119572000000},
      {EngineBackend::HBStar, 243499189136.43295, 1851500, 104975000000},
  };
  expectGolden(CorpusCircuit::Apte, goldenOptions(), goldens);
}

TEST(IoGolden, Ami33AllBackends) {
  const Golden goldens[] = {
      {EngineBackend::FlatBStar, 312696920599.0874, 4592500, 69125000000},
      {EngineBackend::SeqPair, 204340758655.71295, 3286500, 54280000000},
      {EngineBackend::Slicing, 221105313164.31833, 3664000, 53808000000},
      {EngineBackend::HBStar, 182182163592.08167, 2674000, 60088000000},
  };
  expectGolden(CorpusCircuit::Ami33, goldenOptions(), goldens);
}

// GSRC-scale pin: exercises the partial-repack (flat-bstar) and incremental
// LCS (seqpair) hot paths at the size class they were built for, on a small
// sweep budget so the suite stays fast.  These two backends re-decode only
// what a move disturbed; the pins prove the asymptotic machinery does not
// drift the arithmetic by even one DBU.
TEST(IoGolden, N100HotPathBackends) {
  EngineOptions opt;
  opt.maxSweeps = 12;
  opt.seed = 1;
  const Golden goldens[] = {
      {EngineBackend::FlatBStar, 10699245148267.648, 73960500, 919020000000},
      {EngineBackend::SeqPair, 7388909403629.7334, 56907500, 742248000000},
  };
  expectGolden(CorpusCircuit::N100, opt, goldens);
}

// Pins of the non-engine annealing flows: the Section V sizing loops of
// both OTAs and the absolute-coordinate baseline of Section II.  They share
// the engine's annealer but none of its backends, so the corpus pins above
// cannot see a change to their move functions or to how they enter the
// annealer.  1200 iterations at 120 sweeps = 10 moves per temperature:
// 1 initial + 50 calibration + 1200 Metropolis evaluations.
TEST(IoGolden, FoldedCascodeSizingFlows) {
  const Technology tech = Technology::c035();
  SizingOptions opt;
  opt.iterations = 1200;
  opt.seed = 7;

  opt.layoutAware = true;
  SizingResult aware = runSizing(tech, OtaSpecs{}, opt);
  EXPECT_EQ(aware.evaluations, 1251u);
  EXPECT_EQ(aware.design.ib, 7.7877354611324815e-05);
  EXPECT_EQ(aware.design.w1, 7.7062837965228987e-05);
  EXPECT_EQ(aware.design.m1, 3);
  EXPECT_EQ(aware.layout.areaUm2(), 8455.4634239999996);
  EXPECT_EQ(aware.violationExtracted, 0.0);

  opt.layoutAware = false;
  SizingResult blind = runSizing(tech, OtaSpecs{}, opt);
  EXPECT_EQ(blind.evaluations, 1251u);
  EXPECT_EQ(blind.design.ib, 4.154567325413229e-05);
  EXPECT_EQ(blind.design.w1, 8.9137071070628871e-05);
  EXPECT_EQ(blind.design.m1, 10);
  EXPECT_EQ(blind.layout.areaUm2(), 13852.907776);
  EXPECT_EQ(blind.violationExtracted, 0.023682185431664123);
}

TEST(IoGolden, MillerSizingFlows) {
  const Technology tech = Technology::c035();
  OtaSpecs specs;
  specs.minGainDb = 70.0;
  specs.minGbwHz = 15e6;
  specs.minPmDeg = 55.0;
  specs.minSrVps = 10e6;
  SizingOptions opt;
  opt.iterations = 1200;
  opt.seed = 5;

  opt.layoutAware = true;
  MillerSizingResult aware = runMillerSizing(tech, specs, opt);
  EXPECT_EQ(aware.evaluations, 1251u);
  EXPECT_EQ(aware.design.ib, 1.3220322733206403e-05);
  EXPECT_EQ(aware.design.cc, 6.521930505385987e-13);
  EXPECT_EQ(aware.design.m8, 3);
  EXPECT_EQ(aware.layout.areaUm2(), 10560.936657);
  EXPECT_EQ(aware.violationExtracted, 0.0);

  opt.layoutAware = false;
  MillerSizingResult blind = runMillerSizing(tech, specs, opt);
  EXPECT_EQ(blind.evaluations, 1251u);
  EXPECT_EQ(blind.design.ib, 1.0330069181264449e-05);
  EXPECT_EQ(blind.design.cc, 9.0287602367165771e-13);
  EXPECT_EQ(blind.design.m8, 4);
  EXPECT_EQ(blind.layout.areaUm2(), 30698.936099999999);
  EXPECT_EQ(blind.violationExtracted, 0.046464098482873847);
}

// 150 sweeps stay inside the ~226-sweep freeze horizon of the 0.96
// schedule (one run); 300 sweeps cross it, so the second pin covers a
// restart on the leftover budget.
TEST(IoGolden, AbsolutePlacerBaseline) {
  const Circuit c = makeFig1Example();
  AbsolutePlacerOptions opt;

  opt.maxSweeps = 150;
  AbsolutePlacerResult one = placeAbsoluteSA(c, opt);
  EXPECT_EQ(one.cost, 1715357577.9812157);
  EXPECT_EQ(one.area, 981302751);
  EXPECT_EQ(one.hpwl, 79865);
  EXPECT_EQ(one.overlapArea, 25227677);
  EXPECT_EQ(one.symViolation, 2453);
  EXPECT_EQ(one.movesTried, 10500u);
  EXPECT_EQ(one.sweeps, 150u);

  opt.maxSweeps = 300;
  AbsolutePlacerResult two = placeAbsoluteSA(c, opt);
  EXPECT_EQ(two.cost, 1537036522.4331479);
  EXPECT_EQ(two.area, 948602592);
  EXPECT_EQ(two.hpwl, 73244);
  EXPECT_EQ(two.overlapArea, 5784000);
  EXPECT_EQ(two.symViolation, 1948);
  EXPECT_EQ(two.movesTried, 21000u);
  EXPECT_EQ(two.sweeps, 300u);
}

// The golden configuration must itself be reproducible: a second run of the
// pinned configuration is bit-identical (placements included), so a golden
// failure can never be flakiness.
TEST(IoGolden, PinnedConfigurationIsBitStable) {
  Circuit c = loadCorpusCircuit(CorpusCircuit::Apte);
  EngineOptions opt = goldenOptions();
  for (EngineBackend backend : allBackends()) {
    auto engine = makeEngine(backend);
    EngineResult a = engine->place(c, opt);
    EngineResult b = engine->place(c, opt);
    EXPECT_EQ(a.cost, b.cost) << engine->name();
    ASSERT_EQ(a.placement.size(), b.placement.size()) << engine->name();
    for (std::size_t m = 0; m < a.placement.size(); ++m) {
      EXPECT_EQ(a.placement[m], b.placement[m]) << engine->name();
    }
  }
}

}  // namespace
}  // namespace als
