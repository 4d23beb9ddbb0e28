#include "slicing/polish.h"

#include <algorithm>
#include <cassert>

#include "util/epoch_marks.h"

namespace als {

PolishExpr PolishExpr::initial(std::size_t moduleCount) {
  PolishExpr e;
  e.moduleCount_ = moduleCount;
  if (moduleCount == 0) return e;
  e.elems_.push_back(0);
  for (std::size_t m = 1; m < moduleCount; ++m) {
    e.elems_.push_back(static_cast<std::int32_t>(m));
    // Alternate the cut direction so the initial floorplan is a grid-ish
    // slicing rather than one long row.
    e.elems_.push_back(m % 2 == 1 ? kOpV : kOpH);
  }
  assert(e.isValid());
  return e;
}

bool PolishExpr::isValid() const {
  if (moduleCount_ == 0) return elems_.empty();
  // Uniqueness marking via epoch stamps: isValid runs inside the M3 move
  // (once per attempted swap, i.e. per SA move), so it must not allocate.
  // thread_local keeps concurrent SA runs race-free.
  static thread_local EpochMarks seen;
  seen.beginRound(moduleCount_);
  std::size_t operands = 0, operators = 0;
  std::int32_t prev = 0;  // operands are >= 0, so 0 is a safe non-operator init
  for (std::size_t i = 0; i < elems_.size(); ++i) {
    std::int32_t e = elems_[i];
    if (e >= 0) {
      if (static_cast<std::size_t>(e) >= moduleCount_ ||
          !seen.mark(static_cast<std::size_t>(e))) {
        return false;
      }
      ++operands;
    } else {
      if (e != kOpV && e != kOpH) return false;
      if (i > 0 && prev == e) return false;  // normalization
      ++operators;
      if (operators >= operands) return false;  // balloting
    }
    prev = e;
  }
  return operands == moduleCount_ && operators + 1 == operands;
}

bool PolishExpr::swapAdjacentOperands(Rng& rng) {
  // A valid expression holds exactly moduleCount_ operands, so the
  // historical operand-position vector is not needed to size the draws:
  // draw first (same bounds, same RNG stream), then find the chosen
  // operands by scanning — no allocation per move.
  const std::size_t operandCount = moduleCount_;
  if (operandCount < 2) return false;
  auto operandAt = [&](std::size_t k) {
    for (std::size_t i = 0;; ++i) {
      if (elems_[i] >= 0 && k-- == 0) return i;
    }
  };
  if (rng.coin()) {
    // Classic M1: adjacent operands.
    std::size_t k = rng.index(operandCount - 1);
    std::size_t i = operandAt(k);
    std::size_t j = i + 1;
    while (elems_[j] < 0) ++j;  // next operand position
    std::swap(elems_[i], elems_[j]);
  } else {
    // Long-range operand exchange — still a valid slicing tree (only leaf
    // labels move), and a much stronger mixer than adjacent swaps alone.
    std::size_t a = rng.index(operandCount);
    std::size_t b = rng.index(operandCount);
    std::size_t i = operandAt(a);
    std::size_t j = operandAt(b);
    std::swap(elems_[i], elems_[j]);
  }
  return true;
}

bool PolishExpr::complementChain(Rng& rng) {
  // Count the maximal operator runs, draw one, then find it again: the
  // draw count and bounds match the historical chain-vector selection.
  std::size_t chainCount = 0;
  for (std::size_t i = 0; i < elems_.size();) {
    if (elems_[i] < 0) {
      ++chainCount;
      while (i < elems_.size() && elems_[i] < 0) ++i;
    } else {
      ++i;
    }
  }
  if (chainCount == 0) return false;
  std::size_t pick = rng.index(chainCount);
  std::size_t lo = 0, hi = 0;
  for (std::size_t i = 0; i < elems_.size();) {
    if (elems_[i] < 0) {
      std::size_t j = i;
      while (j < elems_.size() && elems_[j] < 0) ++j;
      if (pick-- == 0) {
        lo = i;
        hi = j;
        break;
      }
      i = j;
    } else {
      ++i;
    }
  }
  for (std::size_t k = lo; k < hi; ++k) {
    elems_[k] = elems_[k] == kOpV ? kOpH : kOpV;
  }
  return true;
}

bool PolishExpr::swapOperandOperator(Rng& rng) {
  // Try a few random adjacent operand/operator swaps; validate wholesale
  // (balloting + normalization are cheap to re-check).
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (elems_.size() < 2) return false;
    std::size_t i = rng.index(elems_.size() - 1);
    bool mixedPair = (elems_[i] >= 0) != (elems_[i + 1] >= 0);
    if (!mixedPair) continue;
    std::swap(elems_[i], elems_[i + 1]);
    if (isValid()) return true;
    std::swap(elems_[i], elems_[i + 1]);  // revert
  }
  return false;
}

bool PolishExpr::perturb(Rng& rng) {
  double r = rng.uniform();
  bool done = false;
  if (r < 0.4) {
    done = swapAdjacentOperands(rng);
  } else if (r < 0.7) {
    done = complementChain(rng);
  } else {
    done = swapOperandOperator(rng);
  }
  assert(isValid());
  return done;
}

std::string PolishExpr::toString() const {
  std::string s;
  for (std::int32_t e : elems_) {
    if (!s.empty()) s += ' ';
    if (e >= 0) {
      s += std::to_string(e);
    } else {
      s += e == kOpV ? 'V' : 'H';
    }
  }
  return s;
}

namespace detail {

// Stockmeyer's linear merge.  V: widths add, heights max, so the walk runs
// by ascending w and advances the side with the larger h (only that side
// can lower the max); H is the transpose, walking from the wide end and
// advancing the side with the larger w.  On a tie both sides advance, so
// every step strictly lowers the max coordinate while the summed one
// strictly grows: the output is already a strict staircase, and no
// dominated point needs dropping.  The walk visits every frontier pair
// (a, b): while one index is short of its frontier value the other cannot
// step past its own, because the shorter side still holds the larger max.
//
// Tie rule.  The all-pairs paretoInsert loop this replaces keeps, for each
// frontier point, the lexicographically first (i, j) that produces it, and
// reconstruct follows that pair.  On strict staircases a frontier point has
// exactly one producing pair: for V, two pairs (i, j) != (i', j') with
// equal (w, h) need i < i' and j' < j, which forces L[i].h == R[j'].h == h
// — and then (i, j') has the same h and a smaller w, so the point was not
// on the frontier.  (H is the transpose.)  So the merge reproduces the
// same points with the same pairs, and trajectories stay bit-identical.
void combineShapes(std::int32_t op, std::span<const PolishShape> ls,
                   std::span<const PolishShape> rs,
                   std::vector<PolishShape>& out) {
  out.clear();
  if (op == PolishExpr::kOpV) {
    std::uint32_t i = 0, j = 0;
    while (i < ls.size() && j < rs.size()) {
      const Coord lh = ls[i].h, rh = rs[j].h;
      out.push_back({ls[i].w + rs[j].w, std::max(lh, rh), i, j});
      if (lh >= rh) ++i;
      if (rh >= lh) ++j;
    }
  } else {
    auto i = static_cast<std::uint32_t>(ls.size());
    auto j = static_cast<std::uint32_t>(rs.size());
    while (i > 0 && j > 0) {
      const Coord lw = ls[i - 1].w, rw = rs[j - 1].w;
      out.push_back({std::max(lw, rw), ls[i - 1].h + rs[j - 1].h, i - 1, j - 1});
      if (lw >= rw) --i;
      if (rw >= lw) --j;
    }
    std::reverse(out.begin(), out.end());
  }
  assert(std::adjacent_find(out.begin(), out.end(),
                            [](const PolishShape& a, const PolishShape& b) {
                              return a.w >= b.w || a.h <= b.h;
                            }) == out.end());
}

}  // namespace detail

namespace {

using detail::PolishEvalNode;
using detail::PolishShape;

/// Keeps `cap` shapes of a strict staircase, evenly spread by index, plus
/// the best-area shape; the kept points stay a strict staircase.  A cap of
/// 1 keeps the best-area shape alone.
void capShapes(std::vector<PolishShape>& v, std::size_t cap,
               std::vector<PolishShape>& kept) {
  if (cap == 0 || v.size() <= cap) return;
  std::size_t bestIdx = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i].w * v[i].h < v[bestIdx].w * v[bestIdx].h) bestIdx = i;
  }
  if (cap == 1) {
    v[0] = v[bestIdx];
    v.resize(1);
    return;
  }
  kept.clear();
  for (std::size_t k = 0; k < cap; ++k) {
    kept.push_back(v[k * (v.size() - 1) / (cap - 1)]);
  }
  bool hasBest = false;
  for (const PolishShape& s : kept) {
    hasBest = hasBest || (s.w == v[bestIdx].w && s.h == v[bestIdx].h);
  }
  if (!hasBest) kept[cap / 2] = v[bestIdx];
  std::sort(kept.begin(), kept.end(),
            [](const PolishShape& a, const PolishShape& b) { return a.w < b.w; });
  v.assign(kept.begin(), kept.end());
}

/// Writes the subtree of `nodeIdx` realized as shape `shapeIdx` at (x, y).
/// With `reuse`, a clean node anchored as in the last reconstruct into the
/// same buffer is skipped: its subtree and its rects in `out` are unchanged.
void reconstruct(std::vector<PolishEvalNode>& nodes, std::size_t nodeIdx,
                 std::uint32_t shapeIdx, Coord x, Coord y, bool reuse,
                 Placement& out) {
  PolishEvalNode& node = nodes[nodeIdx];
  if (reuse && !node.dirty && node.placedShape == shapeIdx &&
      node.placedX == x && node.placedY == y) {
    return;
  }
  node.placedShape = shapeIdx;
  node.placedX = x;
  node.placedY = y;
  const PolishShape& s = node.shapes[shapeIdx];
  if (node.elem >= 0) {
    out[static_cast<std::size_t>(node.elem)] = {x, y, s.w, s.h};
    return;
  }
  const PolishShape& ls = nodes[node.left].shapes[s.li];
  reconstruct(nodes, node.left, s.li, x, y, reuse, out);
  if (node.elem == PolishExpr::kOpV) {
    reconstruct(nodes, node.right, s.ri, x + ls.w, y, reuse, out);
  } else {
    reconstruct(nodes, node.right, s.ri, x, y + ls.h, reuse, out);
  }
}

void evaluateIncremental(const PolishExpr& expr, std::span<const Coord> widths,
                         std::span<const Coord> heights,
                         const std::vector<bool>& rotatable,
                         std::size_t shapeCap, PolishEvalScratch& scratch,
                         SlicedResult& out) {
  const std::size_t n = expr.moduleCount();
  if (n == 0) {
    out.placement.clear();
    out.width = 0;
    out.height = 0;
    scratch.invalidate();
    return;
  }
  assert(expr.isValid());

  const std::vector<std::int32_t>& elems = expr.elements();
  // Node slots are reused index-for-index: growing never shrinks, so each
  // slot's shapes vector keeps the capacity it reached — the steady state
  // of an anneal (constant expression length) allocates nothing.
  if (scratch.nodes.size() < elems.size()) scratch.nodes.resize(elems.size());
  const bool allDirty = !scratch.warm || scratch.length != elems.size() ||
                        scratch.shapeCap != shapeCap;
  std::vector<std::size_t>& stack = scratch.stack;
  stack.clear();

  for (std::size_t idx = 0; idx < elems.size(); ++idx) {
    const std::int32_t e = elems[idx];
    PolishEvalNode& node = scratch.nodes[idx];
    if (e >= 0) {
      const auto m = static_cast<std::size_t>(e);
      const Coord w = widths[m], h = heights[m];
      const bool rot = rotatable[m];
      node.dirty = allDirty || node.elem != e || node.leafW != w ||
                   node.leafH != h || node.leafRotatable != rot;
      if (node.dirty) {
        node.elem = e;
        node.leafW = w;
        node.leafH = h;
        node.leafRotatable = rot;
        // The (at most two) orientations as a staircase sorted by w.
        node.shapes.clear();
        if (rot && h < w) node.shapes.push_back({h, w, 1, 0});
        node.shapes.push_back({w, h, 0, 0});
        if (rot && w < h) node.shapes.push_back({h, w, 1, 0});
      }
    } else {
      const std::size_t right = stack.back();
      stack.pop_back();
      const std::size_t left = stack.back();
      stack.pop_back();
      node.dirty = allDirty || node.elem != e || node.left != left ||
                   node.right != right || scratch.nodes[left].dirty ||
                   scratch.nodes[right].dirty;
      if (node.dirty) {
        node.elem = e;
        node.left = left;
        node.right = right;
        detail::combineShapes(e, scratch.nodes[left].shapes,
                              scratch.nodes[right].shapes, node.shapes);
        capShapes(node.shapes, shapeCap, scratch.capKept);
      }
    }
    stack.push_back(idx);
  }
  assert(stack.size() == 1);
  scratch.warm = true;
  scratch.length = elems.size();
  scratch.shapeCap = shapeCap;

  const std::size_t root = stack.back();
  const auto& rootShapes = scratch.nodes[root].shapes;
  std::uint32_t best = 0;
  for (std::uint32_t i = 1; i < rootShapes.size(); ++i) {
    if (rootShapes[i].w * rootShapes[i].h < rootShapes[best].w * rootShapes[best].h) {
      best = i;
    }
  }
  const bool reuse = out.placement.size() == n &&
                     out.placement.rects().data() == scratch.placed;
  if (!reuse) out.placement.assign(n);
  reconstruct(scratch.nodes, root, best, 0, 0, reuse, out.placement);
  scratch.placed = out.placement.rects().data();
  out.width = rootShapes[best].w;
  out.height = rootShapes[best].h;
}

}  // namespace

SlicedResult evaluatePolish(const PolishExpr& expr, std::span<const Coord> widths,
                            std::span<const Coord> heights,
                            const std::vector<bool>& rotatable,
                            std::size_t shapeCap) {
  PolishEvalScratch scratch;
  SlicedResult result;
  evaluateIncremental(expr, widths, heights, rotatable, shapeCap, scratch,
                      result);
  return result;
}

void evaluatePolishInto(const PolishExpr& expr, std::span<const Coord> widths,
                        std::span<const Coord> heights,
                        const std::vector<bool>& rotatable,
                        std::size_t shapeCap, PolishEvalScratch& scratch,
                        SlicedResult& out) {
  evaluateIncremental(expr, widths, heights, rotatable, shapeCap, scratch, out);

#ifndef NDEBUG
  {  // Debug oracle: the incremental evaluation must equal a cold one.
    thread_local PolishEvalScratch oracleScratch;
    thread_local SlicedResult oracle;
    oracleScratch.invalidate();
    evaluateIncremental(expr, widths, heights, rotatable, shapeCap,
                        oracleScratch, oracle);
    assert(out.placement.rects() == oracle.placement.rects() &&
           "incremental Polish evaluation diverged from a full one");
    assert(out.width == oracle.width && out.height == oracle.height);
  }
#endif
}

}  // namespace als
