// Experiment E4 — kernel micro-benchmarks (google-benchmark).
//
// Section II cites an O(G * n log log n) per-evaluation bound obtained with
// a van Emde Boas-style priority queue [26].  These benchmarks measure the
// library's three sequence-pair packing structures (naive O(n^2), Fenwick
// O(n log n), vEB O(n log log n)) across module counts, the small-n
// Naive/Fenwick rows behind the Auto rule, plus the B*-tree contour packer,
// the symmetric placement builder, and raw vEB operations.  Incremental
// packs exist for Naive and Fenwick only (Veb maps to the Fenwick journal).
#include <benchmark/benchmark.h>

#include "bstar/pack.h"
#include "cost/cost_model.h"
#include "netlist/generators.h"
#include "seqpair/packer.h"
#include "seqpair/sym_placer.h"
#include "seqpair/symmetry.h"
#include "util/veb.h"

namespace als {
namespace {

Circuit circuitOf(std::size_t n) {
  return makeSynthetic({.name = "bench", .moduleCount = n, .seed = 99});
}

void packBenchmark(benchmark::State& state, PackStrategy strategy) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Circuit c = circuitOf(n);
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  Rng rng(1);
  SequencePair sp = SequencePair::random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packSequencePair(sp, w, h, strategy));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}

void BM_SeqPairPackNaive(benchmark::State& state) {
  packBenchmark(state, PackStrategy::Naive);
}
void BM_SeqPairPackFenwick(benchmark::State& state) {
  packBenchmark(state, PackStrategy::Fenwick);
}
void BM_SeqPairPackVeb(benchmark::State& state) {
  packBenchmark(state, PackStrategy::Veb);
}
BENCHMARK(BM_SeqPairPackNaive)->RangeMultiplier(2)->Range(16, 512)->Complexity();
BENCHMARK(BM_SeqPairPackFenwick)->RangeMultiplier(2)->Range(16, 4096)->Complexity();
BENCHMARK(BM_SeqPairPackVeb)->RangeMultiplier(2)->Range(16, 4096)->Complexity();

// The small-n Naive/Fenwick crossover of full packs on a warm scratch (the
// decode loop's allocation profile); see resolvePackStrategy.
void crossoverBenchmark(benchmark::State& state, PackStrategy strategy) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Circuit c = circuitOf(n);
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  Rng rng(1);
  SequencePair sp = SequencePair::random(n, rng);
  SeqPairPackScratch scratch;
  Placement out;
  for (auto _ : state) {
    packSequencePairInto(sp, w, h, strategy, scratch, out);
    benchmark::DoNotOptimize(out);
  }
}

void BM_SeqPairPackCrossoverNaive(benchmark::State& state) {
  crossoverBenchmark(state, PackStrategy::Naive);
}
void BM_SeqPairPackCrossoverFenwick(benchmark::State& state) {
  crossoverBenchmark(state, PackStrategy::Fenwick);
}
BENCHMARK(BM_SeqPairPackCrossoverNaive)->DenseRange(8, 16, 2)->Arg(24)->Arg(32);
BENCHMARK(BM_SeqPairPackCrossoverFenwick)->DenseRange(8, 16, 2)->Arg(24)->Arg(32);

void BM_SymmetricPlacementBuild(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Circuit c = makeSynthetic(
      {.name = "sym", .moduleCount = n, .seed = 7, .symmetricFraction = 0.6});
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  Rng rng(2);
  SequencePair sp = SequencePair::random(n, rng);
  makeSymmetricFeasible(sp, c.symmetryGroups());
  for (auto _ : state) {
    benchmark::DoNotOptimize(buildSymmetricPlacement(sp, w, h, c.symmetryGroups()));
  }
}
BENCHMARK(BM_SymmetricPlacementBuild)->RangeMultiplier(2)->Range(16, 128);

void BM_BStarContourPack(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Circuit c = circuitOf(n);
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  Rng rng(3);
  BStarTree t = BStarTree::random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packBStar(t, w, h));
  }
}
BENCHMARK(BM_BStarContourPack)->RangeMultiplier(2)->Range(16, 512);

// --- incremental decode kernels: the per-move cost under the SA move mix --
//
// These drive the same kernels the placers' hot loops use: each iteration
// applies one SA-style perturbation and re-decodes through the journaled
// partial/incremental path on a warm scratch.  Compare against the full-pack
// benchmarks above at the same n — the gap is what suffix-only re-decode
// buys per move (bench_decode --scaling reports the same contrast end to
// end, with cost evaluation and accept/reject included).

void BM_BStarPartialRepack(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Circuit c = circuitOf(n);
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  Rng rng(3);
  BStarTree t = BStarTree::random(n, rng);
  BStarPackScratch scratch;
  Placement out;
  packBStarPartialInto(t, w, h, scratch, out);  // cold pack seeds the record
  for (auto _ : state) {
    t.perturb(rng);
    benchmark::DoNotOptimize(packBStarPartialInto(t, w, h, scratch, out));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BStarPartialRepack)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void incrementalPackBenchmark(benchmark::State& state, PackStrategy strategy) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Circuit c = circuitOf(n);
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  Rng rng(1);
  SequencePair sp = SequencePair::random(n, rng);
  SeqPairPackScratch scratch;
  Placement out;
  std::vector<std::size_t> moved;
  packSequencePairIncrementalInto(sp, w, h, strategy, scratch, out, moved);
  for (auto _ : state) {
    // The placer's structural move: swap two positions in one sequence.
    std::size_t i = rng.index(n), j = rng.index(n);
    if (rng.index(2) == 0) {
      sp.swapAlphaAt(i, j);
    } else {
      sp.swapBetaAt(i, j);
    }
    moved.clear();
    packSequencePairIncrementalInto(sp, w, h, strategy, scratch, out, moved);
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}

void BM_SeqPairPackIncrementalNaive(benchmark::State& state) {
  incrementalPackBenchmark(state, PackStrategy::Naive);
}
void BM_SeqPairPackIncrementalFenwick(benchmark::State& state) {
  incrementalPackBenchmark(state, PackStrategy::Fenwick);
}
// n = 8..14: the small-n Naive/Fenwick comparison on the path the SA
// placer runs, which sets resolvePackStrategy's Auto rule.
BENCHMARK(BM_SeqPairPackIncrementalNaive)
    ->DenseRange(8, 14, 2)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity();
BENCHMARK(BM_SeqPairPackIncrementalFenwick)
    ->DenseRange(8, 14, 2)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity();

// --- cost-kernel benchmarks: scratch vs incremental evaluation -------------
//
// Same circuit, same objective (the flat penalty placer's full mix: area +
// wirelength + symmetry + proximity), same single-module move pattern; the
// scratch kernel re-reduces every net/group per evaluation, the incremental
// kernel re-reduces only what the move dirtied through the module→net
// index.  The per-evaluation gap is the headline speedup of the cost layer
// (tests/cost_test.cpp pins the two kernels to bit-equal costs).

struct CostBenchFixture {
  Circuit circuit;
  CostModel model;
  Placement placement;

  explicit CostBenchFixture(std::size_t n)
      : circuit(makeSynthetic({.name = "cost",
                               .moduleCount = n,
                               .seed = 23,
                               .symmetricFraction = 0.5})),
        model(circuit, makeObjective(circuit, {.wirelength = 0.25,
                                               .symmetry = 2.0,
                                               .proximity = 2.0})) {
    std::vector<Coord> w, h;
    for (const Module& m : circuit.modules()) {
      w.push_back(m.w);
      h.push_back(m.h);
    }
    Rng rng(7);
    placement = packBStar(BStarTree::random(n, rng), w, h);
  }

  /// Displaces one random module by up to a micrometre (the canonical
  /// local move of a coordinate-based placer); returns its index.
  std::size_t mutate(Rng& rng) {
    std::size_t m = rng.index(placement.size());
    Coord dx = (static_cast<Coord>(rng.index(3)) - 1) * kUm;
    Coord dy = (static_cast<Coord>(rng.index(3)) - 1) * kUm;
    placement[m] = placement[m].translated(dx, dy);
    return m;
  }
};

void BM_CostScratch(benchmark::State& state) {
  CostBenchFixture fx(static_cast<std::size_t>(state.range(0)));
  Rng rng(29);
  for (auto _ : state) {
    fx.mutate(rng);
    benchmark::DoNotOptimize(fx.model.evaluate(fx.placement));
  }
  state.SetComplexityN(state.range(0));
}

void BM_CostIncremental(benchmark::State& state) {
  CostBenchFixture fx(static_cast<std::size_t>(state.range(0)));
  fx.model.reset(fx.placement);
  Rng rng(29);
  for (auto _ : state) {
    std::size_t moved[1] = {fx.mutate(rng)};
    benchmark::DoNotOptimize(fx.model.propose(fx.placement, moved));
    fx.model.commit();
  }
  state.SetComplexityN(state.range(0));
}

BENCHMARK(BM_CostScratch)->Arg(50)->Arg(200)->Arg(1000)->Complexity();
BENCHMARK(BM_CostIncremental)->Arg(50)->Arg(200)->Arg(1000)->Complexity();

void BM_VebInsertEraseSuccessor(benchmark::State& state) {
  std::size_t universe = static_cast<std::size_t>(state.range(0));
  VebTree tree(universe);
  Rng rng(4);
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < 1024; ++i) {
    keys.push_back(static_cast<std::uint64_t>(rng.index(universe)));
  }
  for (auto _ : state) {
    for (std::uint64_t k : keys) tree.insert(k);
    std::uint64_t sum = 0;
    for (std::uint64_t k : keys) {
      auto s = tree.successor(k);
      if (s) sum += *s;
    }
    benchmark::DoNotOptimize(sum);
    for (std::uint64_t k : keys) tree.erase(k);
  }
}
BENCHMARK(BM_VebInsertEraseSuccessor)->RangeMultiplier(16)->Range(1 << 10, 1 << 22);

}  // namespace
}  // namespace als

BENCHMARK_MAIN();
