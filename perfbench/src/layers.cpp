#include "layers.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "bstar/bstar_tree.h"
#include "bstar/pack.h"
#include "cost/cost_model.h"
#include "cost/objective.h"
#include "io/benchmark_format.h"
#include "io/serve_protocol.h"
#include "runtime/result_cache.h"
#include "seqpair/packer.h"
#include "seqpair/sequence_pair.h"
#include "slicing/polish.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Fixed replay lengths: the same seed replays the same stream, so the
// ratios below are exact and the times are per-operation means.
constexpr std::size_t kKernelPacks = 400;
constexpr std::size_t kContourPacks = 4000;
constexpr std::size_t kDecodeMoves = 4000;
constexpr std::size_t kCostMoves = 20000;
constexpr std::size_t kIoReps = 20;

struct Footprints {
  std::vector<als::Coord> w, h;
  std::vector<bool> rotatable;
};

Footprints footprints(const als::Circuit& c) {
  Footprints f;
  for (const als::Module& m : c.modules()) {
    f.w.push_back(m.w);
    f.h.push_back(m.h);
    f.rotatable.push_back(m.rotatable);
  }
  return f;
}

/// Swaps two random positions of alpha, beta or both — the seqpair
/// placer's topology move without the symmetry repair.
struct SpMove {
  int kind = 0;
  std::size_t i = 0, j = 0;
  void apply(als::SequencePair& sp) const {
    if (kind != 1) sp.swapAlphaAt(i, j);
    if (kind != 0) sp.swapBetaAt(i, j);
  }
};

SpMove drawSpMove(als::Rng& rng, std::size_t n) {
  SpMove m;
  m.kind = static_cast<int>(rng.index(3));
  m.i = rng.index(n);
  m.j = rng.index(n);
  if (m.i == m.j) m.j = (m.j + 1) % n;
  return m;
}

void kernelRows(const als::Circuit& c, std::uint64_t seed, RunOutput& out) {
  const Footprints f = footprints(c);
  const std::size_t n = c.moduleCount();
  const std::pair<als::PackStrategy, const char*> strategies[] = {
      {als::PackStrategy::Naive, "kernel.lcs_naive_us"},
      {als::PackStrategy::Fenwick, "kernel.lcs_fenwick_us"},
      {als::PackStrategy::Veb, "kernel.lcs_veb_us"}};
  std::vector<als::Coord> reference;
  for (const auto& [strategy, name] : strategies) {
    als::Rng rng(seed);
    als::SequencePair sp = als::SequencePair::random(n, rng);
    als::SeqPairPackScratch scratch;
    als::Placement placed;
    std::vector<als::Coord> check;
    double busy = 0.0;
    for (std::size_t k = 0; k < kKernelPacks; ++k) {
      drawSpMove(rng, n).apply(sp);
      const auto t0 = Clock::now();
      als::packSequencePairInto(sp, f.w, f.h, strategy, scratch, placed);
      busy += since(t0);
      const als::Rect bb = placed.boundingBox();
      check.push_back(bb.w * 7 + bb.h);
    }
    if (reference.empty()) {
      reference = check;
    } else if (check != reference) {
      out.fail(std::string(name) + ": LCS strategies disagree");
    }
    out.addLayer(name, busy / kKernelPacks * 1e6, "us");
  }

  als::Rng rng(seed);
  als::BStarTree tree = als::BStarTree::random(n, rng);
  als::BStarPackScratch scratch;
  als::Placement placed;
  double busy = 0.0;
  for (std::size_t k = 0; k < kContourPacks; ++k) {
    tree.perturb(rng);
    const auto t0 = Clock::now();
    als::packBStarInto(tree, f.w, f.h, scratch, placed);
    busy += since(t0);
  }
  out.addLayer("kernel.contour_pack_us", busy / kContourPacks * 1e6, "us");
}

void decodeRows(const als::Circuit& c, std::uint64_t seed, RunOutput& out) {
  const Footprints f = footprints(c);
  const std::size_t n = c.moduleCount();
  out.addLayer("decode.moves", static_cast<double>(kDecodeMoves), "count");

  {  // Sequence pair, Auto strategy, incremental vs a full-pack oracle.
    als::Rng rng(seed);
    als::SequencePair sp = als::SequencePair::random(n, rng);
    als::SeqPairPackScratch inc, full;
    als::Placement incOut, fullOut;
    std::vector<std::size_t> moved;
    double busy = 0.0, resweep = 0.0;
    bool diverged = false;
    for (std::size_t k = 0; k < kDecodeMoves; ++k) {
      drawSpMove(rng, n).apply(sp);
      moved.clear();
      const auto t0 = Clock::now();
      als::packSequencePairIncrementalInto(sp, f.w, f.h,
                                           als::PackStrategy::Auto, inc,
                                           incOut, moved);
      busy += since(t0);
      if (k > 0) resweep += static_cast<double>(moved.size()) / n;
      if (k % 16 == 0) {
        als::packSequencePairInto(sp, f.w, f.h, als::PackStrategy::Naive,
                                  full, fullOut);
        diverged |= fullOut.rects() != incOut.rects();
      }
    }
    if (diverged) out.fail("decode: incremental seqpair pack != full pack");
    out.addLayer("decode.seqpair_ns_per_move", busy / kDecodeMoves * 1e9, "ns");
    out.addLayer("decode.seqpair_resweep_frac", resweep / (kDecodeMoves - 1),
                 "ratio");
  }

  {  // B*-tree: full pack and partial repack on the same move stream.
    als::Rng rng(seed);
    als::BStarTree tree = als::BStarTree::random(n, rng);
    als::BStarPackScratch fullScratch, partScratch;
    als::Placement fullOut, partOut;
    double fullBusy = 0.0, partBusy = 0.0, repacked = 0.0;
    bool diverged = false;
    for (std::size_t k = 0; k < kDecodeMoves; ++k) {
      tree.perturb(rng);
      auto t0 = Clock::now();
      als::packBStarInto(tree, f.w, f.h, fullScratch, fullOut);
      fullBusy += since(t0);
      t0 = Clock::now();
      const std::size_t first =
          als::packBStarPartialInto(tree, f.w, f.h, partScratch, partOut);
      partBusy += since(t0);
      if (k > 0) repacked += static_cast<double>(n - std::min(first, n)) / n;
      if (k % 16 == 0) diverged |= fullOut.rects() != partOut.rects();
    }
    if (diverged) out.fail("decode: partial B*-tree repack != full pack");
    out.addLayer("decode.bstar_full_ns_per_move", fullBusy / kDecodeMoves * 1e9,
                 "ns");
    out.addLayer("decode.bstar_partial_ns_per_move",
                 partBusy / kDecodeMoves * 1e9, "ns");
    out.addLayer("decode.bstar_repack_frac", repacked / (kDecodeMoves - 1),
                 "ratio");
  }

  {  // Slicing: Wong-Liu move + Polish evaluation.
    als::Rng rng(seed);
    als::PolishExpr expr = als::PolishExpr::initial(n);
    als::PolishEvalScratch scratch;
    als::SlicedResult sliced;
    double busy = 0.0;
    for (std::size_t k = 0; k < kDecodeMoves; ++k) {
      expr.perturb(rng);
      const auto t0 = Clock::now();
      als::evaluatePolishInto(expr, f.w, f.h, f.rotatable, 32, scratch, sliced);
      busy += since(t0);
    }
    if (!expr.isValid()) out.fail("decode: Polish expression lost validity");
    out.addLayer("decode.polish_ns_per_move", busy / kDecodeMoves * 1e9, "ns");
  }
}

struct CostReplay {
  double proposeNs = 0.0, commitNs = 0.0, rollbackNs = 0.0, movedPer = 0.0;
  bool exact = true;
};

/// Seqpair move stream through the hinted propose / commit / rollback
/// protocol, accepting every other proposal; a rejected move is undone
/// before the next one so the hint always covers every changed module.
CostReplay replayCost(const als::Circuit& c, const als::ObjectiveWeights& w,
                      std::uint64_t seed) {
  const Footprints f = footprints(c);
  const std::size_t n = c.moduleCount();
  als::CostModel model(c, als::makeObjective(c, w));
  als::Rng rng(seed);
  als::SequencePair sp = als::SequencePair::random(n, rng);
  als::SeqPairPackScratch scratch;
  als::Placement placed;
  std::vector<std::size_t> moved;
  als::packSequencePairIncrementalInto(sp, f.w, f.h, als::PackStrategy::Auto,
                                       scratch, placed, moved);
  model.reset(placed);
  CostReplay r;
  std::size_t commits = 0, rollbacks = 0;
  for (std::size_t k = 0; k < kCostMoves; ++k) {
    const SpMove mv = drawSpMove(rng, n);
    mv.apply(sp);
    moved.clear();
    als::packSequencePairIncrementalInto(sp, f.w, f.h, als::PackStrategy::Auto,
                                         scratch, placed, moved);
    r.movedPer += static_cast<double>(moved.size());
    auto t0 = Clock::now();
    model.propose(placed, moved);
    r.proposeNs += since(t0);
    if (rng.coin()) {
      t0 = Clock::now();
      model.commit();
      r.commitNs += since(t0);
      ++commits;
    } else {
      t0 = Clock::now();
      model.rollback();
      r.rollbackNs += since(t0);
      ++rollbacks;
      mv.apply(sp);  // every move is its own inverse
      moved.clear();
      als::packSequencePairIncrementalInto(
          sp, f.w, f.h, als::PackStrategy::Auto, scratch, placed, moved);
    }
    if (k % 1024 == 0 && model.committedCost() != model.evaluate(placed)) {
      r.exact = false;
    }
  }
  r.proposeNs = r.proposeNs / kCostMoves * 1e9;
  r.commitNs = commits ? r.commitNs / commits * 1e9 : 0.0;
  r.rollbackNs = rollbacks ? r.rollbackNs / rollbacks * 1e9 : 0.0;
  r.movedPer /= kCostMoves;
  return r;
}

void costRows(const als::Circuit& c, const als::Circuit& thermal,
              std::uint64_t seed, RunOutput& out) {
  als::ObjectiveWeights w;
  w.symmetry = 2.0;
  w.proximity = 2.0;
  const CostReplay plain = replayCost(c, w, seed);
  w.thermal = 1.0;
  const CostReplay hot = replayCost(thermal, w, seed);
  if (!plain.exact || !hot.exact) {
    out.fail("cost: committed incremental cost != scratch evaluation");
  }
  out.addLayer("cost.proposes", static_cast<double>(kCostMoves), "count");
  out.addLayer("cost.propose_ns", plain.proposeNs, "ns");
  out.addLayer("cost.commit_ns", plain.commitNs, "ns");
  out.addLayer("cost.rollback_ns", plain.rollbackNs, "ns");
  out.addLayer("cost.moved_per_propose", plain.movedPer, "count");
  out.addLayer("cost.propose_thermal_ns", hot.proposeNs, "ns");
}

bool sameResult(als::EngineBackend b1, const als::EngineResult& r1,
                als::EngineBackend b2, const als::EngineResult& r2) {
  return b1 == b2 && r1.cost == r2.cost && r1.area == r2.area &&
         r1.hpwl == r2.hpwl && r1.movesTried == r2.movesTried &&
         r1.sweeps == r2.sweeps && r1.placement.rects() == r2.placement.rects();
}

void ioRows(const LayerInputs& in, RunOutput& out) {
  double parse = 0.0;
  std::size_t parses = 0;
  for (const std::string* text : in.circuitTexts) {
    for (std::size_t r = 0; r < kIoReps; ++r) {
      const auto t0 = Clock::now();
      als::ParseResult parsed = als::parseBenchmark(*text);
      parse += since(t0);
      ++parses;
      if (!parsed.ok()) out.fail("io: corpus text does not parse: " + parsed.error);
    }
  }
  out.addLayer("io.parse_us", parses ? parse / parses * 1e6 : 0.0, "us");

  std::string scratch, text;
  double keyS = 0.0, writeS = 0.0, parseS = 0.0;
  std::size_t ops = 0;
  als::EngineResult back;
  als::EngineBackend backBackend = als::EngineBackend::FlatBStar;
  for (const KeyedResult& kr : in.results) {
    for (std::size_t r = 0; r < kIoReps; ++r) {
      scratch.clear();
      auto t0 = Clock::now();
      const als::CacheKey key =
          als::makeCacheKey(*kr.circuitText, kr.backend, kr.options, scratch);
      keyS += since(t0);
      text.clear();
      t0 = Clock::now();
      als::writeResultText(kr.backend, kr.result, text);
      writeS += since(t0);
      t0 = Clock::now();
      const std::string err = als::parseResultText(text, backBackend, back);
      parseS += since(t0);
      ++ops;
      if (r == 0 && key.seed != kr.options.seed) out.fail("io: cache key seed");
      if (r == 0 &&
          (!err.empty() || !sameResult(kr.backend, kr.result, backBackend, back))) {
        out.fail("io: ALSRESULT text does not round-trip " + err);
      }
    }
  }
  out.addLayer("io.cache_key_ns", ops ? keyS / ops * 1e9 : 0.0, "ns");
  out.addLayer("io.result_write_us", ops ? writeS / ops * 1e6 : 0.0, "us");
  out.addLayer("io.result_parse_us", ops ? parseS / ops * 1e6 : 0.0, "us");
}

void cacheRows(const LayerInputs& in, RunOutput& out) {
  std::error_code ec;
  std::filesystem::remove_all(in.cacheDir, ec);
  std::vector<als::CacheKey> keys;
  std::string scratch;
  for (const KeyedResult& kr : in.results) {
    scratch.clear();
    keys.push_back(
        als::makeCacheKey(*kr.circuitText, kr.backend, kr.options, scratch));
  }
  double storeS = 0.0, memS = 0.0, diskS = 0.0;
  als::EngineResult got;
  als::EngineBackend gotBackend = als::EngineBackend::FlatBStar;
  bool mismatch = false;
  {
    als::ResultCache cache(in.cacheDir);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto t0 = Clock::now();
      cache.store(keys[i], in.results[i].backend, in.results[i].result);
      storeS += since(t0);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto t0 = Clock::now();
      const bool hit = cache.fetch(keys[i], gotBackend, got);
      memS += since(t0);
      // Two results may share a key (same job twice): the later one wins,
      // and it is the same bytes.
      mismatch |= !hit || !sameResult(in.results[i].backend,
                                      in.results[i].result, gotBackend, got);
    }
  }
  {
    als::ResultCache reopened(in.cacheDir);  // scrubs, then serves from disk
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto t0 = Clock::now();
      const bool hit = reopened.fetch(keys[i], gotBackend, got);
      diskS += since(t0);
      mismatch |= !hit || !sameResult(in.results[i].backend,
                                      in.results[i].result, gotBackend, got);
    }
  }
  std::filesystem::remove_all(in.cacheDir, ec);
  if (mismatch) out.fail("cache: fetched entry differs from the stored result");
  const double n = static_cast<double>(std::max<std::size_t>(keys.size(), 1));
  out.addLayer("cache.entries", static_cast<double>(keys.size()), "count");
  out.addLayer("cache.store_us", storeS / n * 1e6, "us");
  out.addLayer("cache.fetch_mem_us", memS / n * 1e6, "us");
  out.addLayer("cache.fetch_disk_us", diskS / n * 1e6, "us");
}

}  // namespace

std::string checkPlacement(const als::Circuit& c, const als::Placement& p) {
  if (p.size() != c.moduleCount()) {
    return "placement has " + std::to_string(p.size()) + " rects for " +
           std::to_string(c.moduleCount()) + " modules";
  }
  if (!p.isLegal()) return "placement is not legal (overlap)";
  return {};
}

void runLayerReplays(const LayerInputs& in, std::uint64_t seed, Tracer& tracer,
                     RunOutput& out) {
  const std::uint64_t job = 1ull << 40;  // replay spans share one job id
  {
    Tracer::Scope s(tracer, "kernel", job);
    kernelRows(*in.kernelCircuit, seed, out);
  }
  {
    Tracer::Scope s(tracer, "decode", job);
    decodeRows(*in.decodeCircuit, seed, out);
  }
  {
    Tracer::Scope s(tracer, "cost", job);
    costRows(*in.decodeCircuit, *in.thermalCircuit, seed, out);
  }
  {
    Tracer::Scope s(tracer, "io", job);
    ioRows(in, out);
  }
  {
    Tracer::Scope s(tracer, "cache", job);
    cacheRows(in, out);
  }
}

}  // namespace perfbench
