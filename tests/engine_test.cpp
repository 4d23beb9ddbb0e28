// PlacementEngine facade tests, including the determinism regression that
// guards the sweep-budget contract: a fixed (seed, maxSweeps) pair must give
// bit-identical placements on every run, on any machine, under sanitizers.
#include "engine/placement_engine.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "engine/replica_session.h"
#include "netlist/generators.h"
#include "seqpair/sa_placer.h"

namespace als {
namespace {

TEST(PlacementEngine, FactoryCoversAllBackends) {
  ASSERT_FALSE(allBackends().empty());
  for (EngineBackend backend : allBackends()) {
    auto engine = makeEngine(backend);
    ASSERT_NE(engine, nullptr) << backendName(backend);
    EXPECT_EQ(engine->backend(), backend);
    EXPECT_EQ(engine->name(), backendName(backend));
    EXPECT_FALSE(engine->name().empty());
  }
}

TEST(PlacementEngine, AllBackendsProduceLegalPlacements) {
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions opt;
  opt.maxSweeps = 120;
  opt.seed = 3;
  for (EngineBackend backend : allBackends()) {
    auto engine = makeEngine(backend);
    EngineResult r = engine->place(c, opt);
    ASSERT_EQ(r.placement.size(), c.moduleCount()) << engine->name();
    EXPECT_TRUE(r.placement.isLegal()) << engine->name();
    EXPECT_GE(r.area, c.totalModuleArea()) << engine->name();
    EXPECT_GT(r.movesTried, 0u) << engine->name();
    EXPECT_GT(r.sweeps, 0u) << engine->name();
  }
}

TEST(PlacementEngine, SameSeedGivesBitIdenticalPlacements) {
  // 250 sweeps crosses the ~226-sweep freeze point of the default schedule,
  // so the restart path is part of the guarded contract too.
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions opt;
  opt.maxSweeps = 250;
  opt.seed = 17;
  for (EngineBackend backend : allBackends()) {
    auto engine = makeEngine(backend);
    EngineResult a = engine->place(c, opt);
    EngineResult b = engine->place(c, opt);
    EXPECT_EQ(a.area, b.area) << engine->name();
    EXPECT_EQ(a.hpwl, b.hpwl) << engine->name();
    EXPECT_EQ(a.movesTried, b.movesTried) << engine->name();
    EXPECT_EQ(a.sweeps, b.sweeps) << engine->name();
    ASSERT_EQ(a.placement.size(), b.placement.size()) << engine->name();
    for (std::size_t m = 0; m < a.placement.size(); ++m) {
      EXPECT_EQ(a.placement[m], b.placement[m])
          << engine->name() << " module " << m;
    }
  }
}

TEST(PlacementEngine, FacadeMatchesDirectBackendCall) {
  // The facade only maps options; it must not change what the backend
  // computes.
  Circuit c = makeFig1Example();
  EngineOptions opt;
  opt.maxSweeps = 120;
  opt.seed = 9;

  SeqPairPlacerOptions direct;
  direct.maxSweeps = opt.maxSweeps;
  direct.seed = opt.seed;
  direct.wirelengthWeight = opt.wirelengthWeight;
  direct.coolingFactor = opt.coolingFactor;
  direct.movesPerTemp = opt.movesPerTemp;

  EngineResult viaEngine = makeEngine(EngineBackend::SeqPair)->place(c, opt);
  SeqPairPlacerResult viaBackend = placeSeqPairSA(c, direct);
  EXPECT_EQ(viaEngine.area, viaBackend.area);
  EXPECT_EQ(viaEngine.hpwl, viaBackend.hpwl);
  EXPECT_EQ(viaEngine.movesTried, viaBackend.movesTried);
  ASSERT_EQ(viaEngine.placement.size(), viaBackend.placement.size());
  for (std::size_t m = 0; m < viaEngine.placement.size(); ++m) {
    EXPECT_EQ(viaEngine.placement[m], viaBackend.placement[m]);
  }
}

TEST(PlacementEngine, SweepBudgetIsHonoredExactly) {
  // Miller: a circuit every backend supports (the HB*-tree placer needs a
  // hierarchy with even symmetry-pair structure, which Fig. 1 lacks).
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  EngineOptions opt;
  opt.maxSweeps = 90;
  opt.seed = 2;
  for (EngineBackend backend : allBackends()) {
    auto engine = makeEngine(backend);
    EngineResult r = engine->place(c, opt);
    EXPECT_EQ(r.sweeps, 90u) << engine->name();
  }
}

// ReplicaSession contract (engine/replica_session.h), per backend.  Miller
// is the circuit every backend supports; 240 sweeps crosses the freeze
// point, so chunked advancing also crosses a restart boundary.
EngineOptions sessionOptions() {
  EngineOptions opt;
  opt.maxSweeps = 240;
  opt.seed = 5;
  return opt;
}

void expectSamePlacement(const Placement& a, const Placement& b,
                         std::string_view name) {
  ASSERT_EQ(a.size(), b.size()) << name;
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m], b[m]) << name << " module " << m;
  }
}

TEST(ReplicaSession, ChunkedRunMatchesEngineBitForBit) {
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  EngineOptions opt = sessionOptions();
  for (EngineBackend backend : allBackends()) {
    std::string_view name = backendName(backend);
    auto session = makeReplicaSession(backend, c, opt);
    ASSERT_NE(session, nullptr) << name;
    EXPECT_EQ(session->backend(), backend);
    std::size_t executed = 0;
    while (!session->finished()) {
      std::size_t ran = session->runSweeps(7);
      EXPECT_LE(ran, 7u) << name;
      executed += ran;
    }
    EXPECT_EQ(executed, opt.maxSweeps) << name;
    EngineResult chunked = session->finish();
    EngineResult oneShot = PlacementEngine(backend).place(c, opt);
    EXPECT_EQ(chunked.cost, oneShot.cost) << name;
    EXPECT_EQ(chunked.area, oneShot.area) << name;
    EXPECT_EQ(chunked.hpwl, oneShot.hpwl) << name;
    EXPECT_EQ(chunked.movesTried, oneShot.movesTried) << name;
    EXPECT_EQ(chunked.sweeps, oneShot.sweeps) << name;
    EXPECT_EQ(chunked.bestSeed, opt.seed) << name;
    expectSamePlacement(chunked.placement, oneShot.placement, name);
  }
}

TEST(ReplicaSession, ExchangeAcrossBackendsThrows) {
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  EngineOptions opt = sessionOptions();
  for (EngineBackend a : allBackends()) {
    for (EngineBackend b : allBackends()) {
      if (a == b) continue;
      auto sa = makeReplicaSession(a, c, opt);
      auto sb = makeReplicaSession(b, c, opt);
      EXPECT_THROW(sa->exchangeWith(*sb), std::invalid_argument)
          << backendName(a) << " <-> " << backendName(b);
    }
  }
}

TEST(ReplicaSession, ReseedIsAdoptedOnlyByConvertibleBackends) {
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  EngineOptions opt = sessionOptions();
  Placement donor = PlacementEngine(EngineBackend::FlatBStar).place(c, opt)
                        .placement;
  for (EngineBackend backend : allBackends()) {
    std::string_view name = backendName(backend);
    auto session = makeReplicaSession(backend, c, opt);
    session->runSweeps(7);
    double before = session->currentCost();
    bool adopted = session->reseedFromPlacement(donor);
    if (backend == EngineBackend::FlatBStar ||
        backend == EngineBackend::SeqPair) {
      EXPECT_TRUE(adopted) << name;
    } else {
      EXPECT_FALSE(adopted) << name;
      EXPECT_EQ(session->currentCost(), before) << name;
    }
  }
}

TEST(ReplicaSession, BestPlacementAfterFinishIsTheResult) {
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  EngineOptions opt = sessionOptions();
  for (EngineBackend backend : allBackends()) {
    auto session = makeReplicaSession(backend, c, opt);
    EngineResult r = session->finish();
    expectSamePlacement(session->bestPlacement(), r.placement,
                        backendName(backend));
  }
}

}  // namespace
}  // namespace als
