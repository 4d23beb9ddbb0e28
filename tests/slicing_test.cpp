#include <gtest/gtest.h>

#include <algorithm>

#include "io/corpus.h"
#include "netlist/generators.h"
#include "slicing/polish.h"
#include "slicing/slicing_placer.h"
#include "test_util.h"

namespace als {
namespace {

TEST(PolishExpr, InitialIsValid) {
  for (std::size_t n : {1u, 2u, 3u, 7u, 20u}) {
    PolishExpr e = PolishExpr::initial(n);
    EXPECT_TRUE(e.isValid()) << "n=" << n;
    EXPECT_EQ(e.elements().size(), 2 * n - 1);
  }
}

TEST(PolishExpr, ValidityRejectsBadExpressions) {
  PolishExpr good = PolishExpr::initial(3);
  EXPECT_TRUE(good.isValid());
  // Craft invalid sequences through the string round-trip is not exposed;
  // instead check the validator on hand-built expressions via initial +
  // tampering is not possible from outside — rely on the property that
  // perturb never leaves the valid set (below).
  PolishExpr empty;
  EXPECT_TRUE(empty.isValid());
}

TEST(PolishExpr, PerturbationsStayValid) {
  Rng rng(5);
  PolishExpr e = PolishExpr::initial(12);
  for (int step = 0; step < 5000; ++step) {
    e.perturb(rng);
    ASSERT_TRUE(e.isValid()) << "step " << step << ": " << e.toString();
  }
}

TEST(PolishExpr, ToStringRendering) {
  PolishExpr e = PolishExpr::initial(3);
  EXPECT_EQ(e.toString(), "0 1 V 2 H");
}

TEST(EvaluatePolish, TwoModuleCompositions) {
  std::vector<Coord> w{10, 6}, h{4, 8};
  std::vector<bool> rot{false, false};
  {
    PolishExpr e = PolishExpr::initial(2);  // "0 1 V": side by side
    SlicedResult r = evaluatePolish(e, w, h, rot);
    EXPECT_EQ(r.width, 16);
    EXPECT_EQ(r.height, 8);
    EXPECT_TRUE(r.placement.isLegal());
  }
}

TEST(EvaluatePolish, RotationImprovesArea) {
  // Two 10x2 strips: unrotated V-composition is 20x2 = 40; with rotation
  // the pareto also offers 4x10 = 40... stacking H gives 10x4.  All equal
  // area here, so use distinct dims: 10x2 and 2x10 side by side.
  std::vector<Coord> w{10, 2}, h{2, 10};
  std::vector<bool> noRot{false, false};
  std::vector<bool> rot{true, true};
  PolishExpr e = PolishExpr::initial(2);
  SlicedResult fixed = evaluatePolish(e, w, h, noRot);
  SlicedResult free = evaluatePolish(e, w, h, rot);
  EXPECT_LE(free.area(), fixed.area());
  EXPECT_EQ(free.area(), 2 * 10 * 2);  // both horizontal, stacked row
}

TEST(EvaluatePolish, PlacementLegalAndBoxed) {
  Circuit c = makeTableICircuit(TableICircuit::FoldedCascode);
  std::vector<Coord> w, h;
  std::vector<bool> rot;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
    rot.push_back(m.rotatable);
  }
  Rng rng(7);
  PolishExpr e = PolishExpr::initial(c.moduleCount());
  for (int step = 0; step < 200; ++step) {
    e.perturb(rng);
    SlicedResult r = evaluatePolish(e, w, h, rot);
    // Slicing ignores symmetry groups (ILAC baseline); the evaluator's own
    // width/height bound the outline for the shared checker.
    test_util::expectPlacementInvariants(
        r.placement, c,
        {.symTolerance = test_util::kNoSymmetryCheck,
         .outlineW = r.width,
         .outlineH = r.height},
        "step " + std::to_string(step));
    ASSERT_GE(r.area(), c.totalModuleArea());
  }
}

TEST(EvaluatePolish, ShapeCurveOptimalForThreeModules) {
  // 3 equal squares: best slicing area is 1x3 row = 3s^2... a 2x2 arrangement
  // with one empty slot gives 4s^2; the row (or column) is optimal -> the
  // evaluator must find exactly 3 s^2 * s.
  std::vector<Coord> w{4, 4, 4}, h{4, 4, 4};
  std::vector<bool> rot{false, false, false};
  PolishExpr e = PolishExpr::initial(3);
  // Try all expressions reachable by a few perturbations and track the best.
  Rng rng(9);
  Coord best = evaluatePolish(e, w, h, rot).area();
  for (int step = 0; step < 500; ++step) {
    e.perturb(rng);
    best = std::min(best, evaluatePolish(e, w, h, rot).area());
  }
  EXPECT_EQ(best, 48);  // 12 x 4 row
}

/// The all-pairs combine the linear merge replaced, kept here as its
/// oracle: insert every (i, j) in lexicographic order into a staircase
/// sorted by w (h strictly decreasing); an equal point keeps the first pair.
void paretoInsert(std::vector<detail::PolishShape>& v, detail::PolishShape s) {
  auto it = std::lower_bound(
      v.begin(), v.end(), s.w,
      [](const detail::PolishShape& e, Coord w) { return e.w < w; });
  if (it != v.begin() && std::prev(it)->h <= s.h) return;
  if (it != v.end() && it->w == s.w) {
    if (it->h <= s.h) return;
    *it = s;
  } else {
    it = v.insert(it, s);
  }
  auto next = std::next(it);
  while (next != v.end() && next->h >= it->h) next = v.erase(next);
}

std::vector<detail::PolishShape> allPairsCombine(
    std::int32_t op, const std::vector<detail::PolishShape>& ls,
    const std::vector<detail::PolishShape>& rs) {
  std::vector<detail::PolishShape> out;
  for (std::uint32_t i = 0; i < ls.size(); ++i) {
    for (std::uint32_t j = 0; j < rs.size(); ++j) {
      if (op == PolishExpr::kOpV) {
        paretoInsert(out, {ls[i].w + rs[j].w, std::max(ls[i].h, rs[j].h), i, j});
      } else {
        paretoInsert(out, {std::max(ls[i].w, rs[j].w), ls[i].h + rs[j].h, i, j});
      }
    }
  }
  return out;
}

/// A random strict staircase over a small coordinate range, so two
/// staircases share widths and heights often (the tie cases).
std::vector<detail::PolishShape> randomStaircase(Rng& rng) {
  const std::size_t len = 1 + rng.index(6);
  std::vector<Coord> ws, hs;
  for (Coord v = 1; v <= 10; ++v) {
    ws.push_back(v);
    hs.push_back(v);
  }
  for (std::size_t k = 0; k < ws.size(); ++k) {
    std::swap(ws[k], ws[k + rng.index(ws.size() - k)]);
    std::swap(hs[k], hs[k + rng.index(hs.size() - k)]);
  }
  ws.resize(len);
  hs.resize(len);
  std::sort(ws.begin(), ws.end());
  std::sort(hs.begin(), hs.end(), std::greater<>());
  std::vector<detail::PolishShape> v;
  for (std::size_t k = 0; k < len; ++k) v.push_back({ws[k], hs[k], 0, 0});
  return v;
}

TEST(EvaluatePolish, LinearMergeMatchesAllPairsInsert) {
  Rng rng(17);
  std::vector<detail::PolishShape> merged;
  std::size_t ties = 0;
  for (int round = 0; round < 4000; ++round) {
    const auto ls = randomStaircase(rng);
    const auto rs = randomStaircase(rng);
    for (const auto& a : ls) {
      for (const auto& b : rs) ties += (a.w == b.w) + (a.h == b.h);
    }
    for (std::int32_t op : {PolishExpr::kOpV, PolishExpr::kOpH}) {
      detail::combineShapes(op, ls, rs, merged);
      const auto expected = allPairsCombine(op, ls, rs);
      ASSERT_EQ(merged.size(), expected.size()) << "round " << round;
      for (std::size_t k = 0; k < merged.size(); ++k) {
        EXPECT_EQ(merged[k].w, expected[k].w) << "round " << round;
        EXPECT_EQ(merged[k].h, expected[k].h) << "round " << round;
        EXPECT_EQ(merged[k].li, expected[k].li) << "round " << round;
        EXPECT_EQ(merged[k].ri, expected[k].ri) << "round " << round;
      }
    }
  }
  EXPECT_GT(ties, 1000u);  // the tie cases were exercised
}

/// One scratch and one output buffer reused across every corpus circuit
/// (different n) on an SA-shaped stream: Wong-Liu moves accepted 90% of
/// the time (a rejected one decodes the reverted state), leaf-dim changes
/// from shape curves, rotatable toggles, `shapeCap` cycling through 1, 2,
/// 32 and 0, and a far-away "best" state decoded between candidates — into
/// the same output buffer, and at times into a second one, which the next
/// call on the first buffer must not mistake for its own last decode.
/// Every warm evaluation must equal a fresh one.
TEST(EvaluatePolish, WarmScratchMatchesFreshEvaluationOnCorpus) {
  PolishEvalScratch scratch;
  SlicedResult warm, side;
  const std::size_t caps[] = {1, 2, 32, 0};
  std::vector<CorpusCircuit> corpus = allCorpusCircuits();
  for (CorpusCircuit which : largeCorpusCircuits()) corpus.push_back(which);
  for (CorpusCircuit which : corpus) {
    const Circuit c = loadCorpusCircuit(which);
    const std::size_t n = c.moduleCount();
    std::vector<Coord> w(n), h(n);
    std::vector<bool> rot(n);
    for (std::size_t m = 0; m < n; ++m) {
      w[m] = c.module(m).w;
      h[m] = c.module(m).h;
      rot[m] = c.module(m).rotatable;
    }
    Rng rng(23);
    PolishExpr cur = PolishExpr::initial(n);
    PolishExpr best = cur;
    std::size_t cap = 32;
    auto check = [&](const PolishExpr& e, int move, const char* what,
                     SlicedResult& out) {
      evaluatePolishInto(e, w, h, rot, cap, scratch, out);
      const SlicedResult fresh = evaluatePolish(e, w, h, rot, cap);
      ASSERT_TRUE(out.placement.rects() == fresh.placement.rects())
          << corpusName(which) << " move " << move << " (" << what << ")";
      ASSERT_EQ(out.width, fresh.width) << corpusName(which) << " " << move;
      ASSERT_EQ(out.height, fresh.height) << corpusName(which) << " " << move;
    };
    for (int move = 0; move < 10000; ++move) {
      const double r = rng.uniform();
      if (r < 0.05) {  // a shape-curve move: new leaf dims
        const std::size_t m = rng.index(n);
        const Module& mod = c.module(m);
        if (mod.shapes.size() > 1) {
          const ModuleShape& s = mod.shapes[rng.index(mod.shapes.size())];
          w[m] = s.w;
          h[m] = s.h;
        } else {
          w[m] = rng.coin() ? mod.w : mod.w + 1 + rng.index(3);
          h[m] = rng.coin() ? mod.h : mod.h + 1 + rng.index(3);
        }
      } else if (r < 0.08) {
        const std::size_t m = rng.index(n);
        rot[m] = !rot[m];
      } else if (r < 0.09) {
        cap = caps[rng.index(4)];
      }
      PolishExpr cand = cur;
      cand.perturb(rng);
      ASSERT_NO_FATAL_FAILURE(check(cand, move, "candidate", warm));
      if (rng.uniform() < 0.9) {
        cur = cand;
      } else {
        ASSERT_NO_FATAL_FAILURE(check(cur, move, "reverted", warm));
      }
      if (move % 97 == 0) {
        ASSERT_NO_FATAL_FAILURE(check(best, move, "best", warm));
      } else if (move % 89 == 0) {
        ASSERT_NO_FATAL_FAILURE(check(best, move, "best, second buffer", side));
      }
      if (move % 1000 == 0) best = cur;
    }
  }
}

TEST(EvaluatePolish, ShapeCapOneKeepsTheBestAreaShape) {
  // Four rotatable modules give every subtree several pareto shapes; a cap
  // of 1 keeps each subtree's best-area shape alone (it used to divide by
  // cap - 1 = 0).
  std::vector<Coord> w{10, 6, 3, 8}, h{4, 8, 9, 2};
  std::vector<bool> rot(4, true);
  Rng rng(4);
  PolishExpr e = PolishExpr::initial(4);
  for (int step = 0; step < 50; ++step) {
    e.perturb(rng);
    const SlicedResult one = evaluatePolish(e, w, h, rot, 1);
    EXPECT_TRUE(one.placement.isLegal()) << e.toString();
    EXPECT_GE(one.area(), evaluatePolish(e, w, h, rot, 0).area());
  }
}

TEST(SlicingPlacer, AnnealsLegally) {
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  SlicingPlacerOptions opt;
  opt.maxSweeps = 250;
  SlicingPlacerResult r = placeSlicingSA(c, opt);
  test_util::expectPlacementInvariants(
      r.placement, c, {.symTolerance = test_util::kNoSymmetryCheck});
  EXPECT_GE(r.area, c.totalModuleArea());
  EXPECT_LT(r.area, 3 * c.totalModuleArea());
}

TEST(SlicingPlacer, DeterministicForSeed) {
  Circuit c = makeFig1Example();
  SlicingPlacerOptions opt;
  opt.maxSweeps = 120;
  opt.seed = 21;
  SlicingPlacerResult a = placeSlicingSA(c, opt);
  SlicingPlacerResult b = placeSlicingSA(c, opt);
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.movesTried, b.movesTried);
}

}  // namespace
}  // namespace als
