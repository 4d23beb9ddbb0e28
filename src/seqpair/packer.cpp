#include "seqpair/packer.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "util/veb.h"

namespace als {

namespace {

/// Prefix-max Fenwick tree: point update, prefix-maximum query.  Values only
/// grow, which is exactly the LCS packer's access pattern.  The storage is
/// caller-owned so the per-move decode can reuse one buffer.
class MaxFenwick {
 public:
  MaxFenwick(std::size_t n, std::vector<Coord>& storage) : tree_(storage) {
    tree_.assign(n + 1, 0);
  }

  /// max over positions [0, i] (inclusive); 0 when empty.
  Coord prefixMax(std::size_t i) const {
    Coord m = 0;
    for (std::size_t k = i + 1; k > 0; k -= k & (~k + 1)) m = std::max(m, tree_[k]);
    return m;
  }

  void update(std::size_t i, Coord v) {
    for (std::size_t k = i + 1; k < tree_.size(); k += k & (~k + 1)) {
      tree_[k] = std::max(tree_[k], v);
    }
  }

 private:
  std::vector<Coord>& tree_;
};

/// Monotone staircase over a van Emde Boas position set: positions kept in
/// the tree always carry strictly increasing values, so the best value
/// strictly below a query position is found with one predecessor call.
/// Tree and value storage are caller-owned; construction re-targets the
/// (warm, materialized) tree instead of building one.
class VebStaircase {
 public:
  VebStaircase(std::size_t universe, VebTree& positions,
               std::vector<Coord>& value)
      : positions_(positions), value_(value) {
    positions_.resetUniverse(universe);
    value_.assign(universe, 0);
  }

  /// max value among entries with position < p; 0 when none.
  Coord maxBelow(std::size_t p) const {
    auto pred = positions_.predecessor(p);
    return pred ? value_[*pred] : 0;
  }

  void insert(std::size_t p, Coord v) {
    // A dominated insertion (some entry at position <= p with value >= v)
    // can never win a later query; skip it to keep the staircase monotone.
    if (positions_.contains(p) && value_[p] >= v) return;
    if (maxBelow(p) >= v) return;
    // Remove now-dominated successors (position > p, value <= v).
    for (auto s = positions_.successor(p); s && value_[*s] <= v;
         s = positions_.successor(p)) {
      positions_.erase(*s);
    }
    if (!positions_.contains(p)) positions_.insert(p);
    value_[p] = v;
  }

 private:
  VebTree& positions_;
  std::vector<Coord>& value_;
};

/// One LCS sweep: processes modules in `order`, placing each at the maximum
/// end of already-processed modules with smaller beta position.
template <class Structure>
void sweep(std::span<const std::size_t> order, const SequencePair& sp,
           std::span<const Coord> extent, std::span<Coord> coord, Structure&& s) {
  for (std::size_t m : order) {
    std::size_t b = sp.betaPos(m);
    Coord pos = b == 0 ? 0 : s.prefixMaxAt(b);
    coord[m] = pos;
    s.insertAt(b, pos + extent[m]);
  }
}

struct NaiveAdapter {
  std::vector<std::pair<std::size_t, Coord>>& entries;  // (beta position, end)
  explicit NaiveAdapter(std::vector<std::pair<std::size_t, Coord>>& storage)
      : entries(storage) {
    entries.clear();
  }
  Coord prefixMaxAt(std::size_t b) const {
    Coord m = 0;
    for (const auto& [pos, end] : entries) {
      if (pos < b) m = std::max(m, end);
    }
    return m;
  }
  void insertAt(std::size_t b, Coord end) { entries.emplace_back(b, end); }
};

struct FenwickAdapter {
  MaxFenwick tree;
  FenwickAdapter(std::size_t n, std::vector<Coord>& storage)
      : tree(n, storage) {}
  Coord prefixMaxAt(std::size_t b) const { return tree.prefixMax(b - 1); }
  void insertAt(std::size_t b, Coord end) { tree.update(b, end); }
};

struct VebAdapter {
  VebStaircase stair;
  VebAdapter(std::size_t n, VebTree& positions, std::vector<Coord>& value)
      : stair(n, positions, value) {}
  Coord prefixMaxAt(std::size_t b) const { return stair.maxBelow(b); }
  void insertAt(std::size_t b, Coord end) { stair.insert(b, end); }
};

template <class MakeStructure>
void packWithInto(const SequencePair& sp, std::span<const Coord> widths,
                  std::span<const Coord> heights, MakeStructure makeStructure,
                  SeqPairPackScratch& scratch, Placement& out) {
  std::size_t n = sp.size();
  scratch.x.assign(n, 0);
  scratch.y.assign(n, 0);

  // x sweep: alpha order; predecessors in both sequences are "left of".
  {
    auto s = makeStructure();
    sweep(sp.alpha(), sp, widths, scratch.x, s);
  }
  // y sweep: reverse alpha order; for already-processed i (alpha-after m)
  // with smaller beta position, i is below m.
  {
    auto s = makeStructure();
    scratch.rev.assign(sp.alpha().rbegin(), sp.alpha().rend());
    sweep(scratch.rev, sp, heights, scratch.y, s);
  }

  out.assign(n);
  for (std::size_t m = 0; m < n; ++m) {
    out[m] = {scratch.x[m], scratch.y[m], widths[m], heights[m]};
  }
}

// ---------------------------------------------------------------------------
// Incremental sweeps.
//
// Each journaled adapter runs the *same* algorithm as its full-pack twin on
// the persistent structure inside a SeqPairSweepState, but records every
// mutation as a SweepOp so the structure can be rewound to any earlier step
// by replaying the journal backwards.  The sweep inputs of step i — the
// module, its beta position, its extent — fully determine the mutation, so
// rewinding to the first changed step and re-running the suffix reproduces
// the full sweep bit for bit.

/// One entry is appended per step, so undo is a resize and the journal is
/// the entry vector itself.
struct JournaledNaive {
  SeqPairSweepState& st;
  void reset(std::size_t) { st.naiveEntries.clear(); }
  void undoTo(std::size_t d) { st.naiveEntries.resize(d); }
  Coord prefixMaxAt(std::size_t b) const {
    Coord m = 0;
    for (const auto& [pos, end] : st.naiveEntries) {
      if (pos < b) m = std::max(m, end);
    }
    return m;
  }
  void insertAt(std::size_t b, Coord end) { st.naiveEntries.emplace_back(b, end); }
};

struct JournaledFenwick {
  SeqPairSweepState& st;
  void reset(std::size_t n) {
    st.fenwick.assign(n + 1, 0);
    st.ops.clear();
    st.opOfs.assign(1, 0);
  }
  void undoTo(std::size_t d) {
    assert(d < st.opOfs.size());
    for (std::size_t i = st.ops.size(); i > st.opOfs[d];) {
      --i;
      st.fenwick[st.ops[i].pos] = st.ops[i].val;
    }
    st.ops.resize(st.opOfs[d]);
    st.opOfs.resize(d + 1);
  }
  Coord prefixMaxAt(std::size_t b) const {
    // == MaxFenwick::prefixMax(b - 1): max over positions [0, b).
    Coord m = 0;
    for (std::size_t k = b; k > 0; k -= k & (~k + 1)) {
      m = std::max(m, st.fenwick[k]);
    }
    return m;
  }
  void insertAt(std::size_t b, Coord v) {
    // Cells that already dominate v are untouched, so only real writes are
    // journaled — undo restores exactly the cells this step changed.
    for (std::size_t k = b + 1; k < st.fenwick.size(); k += k & (~k + 1)) {
      if (st.fenwick[k] < v) {
        st.ops.push_back({k, st.fenwick[k]});
        st.fenwick[k] = v;
      }
    }
    st.opOfs.push_back(st.ops.size());
  }
};

/// Runs one sweep incrementally: diffs the step inputs against the state's
/// recorded inputs, rewinds the structure to the first changed step, and
/// re-runs only the suffix.  Every re-swept module is appended to `moved`.
template <class Adapter>
void sweepIncremental(SeqPairSweepState& st, std::span<const std::size_t> order,
                      const SequencePair& sp, std::span<const Coord> extent,
                      std::span<Coord> coord, Adapter a, bool warm,
                      std::vector<std::size_t>& moved) {
  const std::size_t n = order.size();
  std::size_t d = 0;
  if (!warm) {
    a.reset(n);
    st.mod.clear();
    st.beta.clear();
    st.extent.clear();
  } else {
    while (d < n) {
      std::size_t m = order[d];
      if (st.mod[d] != m || st.beta[d] != sp.betaPos(m) ||
          st.extent[d] != extent[m]) {
        break;
      }
      ++d;
    }
    a.undoTo(d);
  }
  st.mod.resize(n);
  st.beta.resize(n);
  st.extent.resize(n);
  for (std::size_t i = d; i < n; ++i) {
    std::size_t m = order[i];
    std::size_t b = sp.betaPos(m);
    st.mod[i] = m;
    st.beta[i] = b;
    st.extent[i] = extent[m];
    Coord pos = b == 0 ? 0 : a.prefixMaxAt(b);
    coord[m] = pos;
    a.insertAt(b, pos + extent[m]);
    moved.push_back(m);
  }
}

}  // namespace

Placement packSequencePair(const SequencePair& sp, std::span<const Coord> widths,
                           std::span<const Coord> heights, PackStrategy strategy) {
  SeqPairPackScratch scratch;
  Placement out;
  packSequencePairInto(sp, widths, heights, strategy, scratch, out);
  return out;
}

void packSequencePairInto(const SequencePair& sp, std::span<const Coord> widths,
                          std::span<const Coord> heights, PackStrategy strategy,
                          SeqPairPackScratch& scratch, Placement& out) {
  assert(widths.size() == sp.size() && heights.size() == sp.size());
  scratch.incValid = false;  // a full pack orphans any incremental state
  switch (resolvePackStrategy(strategy)) {
    case PackStrategy::Naive:
      packWithInto(sp, widths, heights,
                   [&] { return NaiveAdapter(scratch.naiveEntries); }, scratch,
                   out);
      return;
    case PackStrategy::Fenwick:
      packWithInto(sp, widths, heights,
                   [&] { return FenwickAdapter(sp.size(), scratch.fenwick); },
                   scratch, out);
      return;
    case PackStrategy::Veb:
      packWithInto(
          sp, widths, heights,
          [&] { return VebAdapter(sp.size(), scratch.veb, scratch.vebValue); },
          scratch, out);
      return;
    case PackStrategy::Auto:
      break;  // unreachable: resolvePackStrategy never returns Auto
  }
  out.assign(sp.size());
}

void packSequencePairIncrementalInto(const SequencePair& sp,
                                     std::span<const Coord> widths,
                                     std::span<const Coord> heights,
                                     PackStrategy strategy,
                                     SeqPairPackScratch& scratch, Placement& out,
                                     std::vector<std::size_t>& moved) {
  const std::size_t n = sp.size();
  assert(widths.size() == n && heights.size() == n);
  // Only Naive and Fenwick keep an undo journal; Auto and Veb (identical
  // coordinates) run the Fenwick one.
  const PackStrategy resolved = strategy == PackStrategy::Naive
                                    ? PackStrategy::Naive
                                    : PackStrategy::Fenwick;
  const bool warm = scratch.incValid && scratch.incStrategy == resolved &&
                    scratch.xSweep.mod.size() == n &&
                    scratch.ySweep.mod.size() == n && out.size() == n &&
                    scratch.x.size() == n && scratch.y.size() == n;
  if (!warm) {
    scratch.x.assign(n, 0);
    scratch.y.assign(n, 0);
    out.assign(n);
  }
  const std::size_t movedStart = moved.size();

  scratch.rev.assign(sp.alpha().rbegin(), sp.alpha().rend());
  if (resolved == PackStrategy::Naive) {
    sweepIncremental(scratch.xSweep, sp.alpha(), sp, widths, scratch.x,
                     JournaledNaive{scratch.xSweep}, warm, moved);
    sweepIncremental(scratch.ySweep, scratch.rev, sp, heights, scratch.y,
                     JournaledNaive{scratch.ySweep}, warm, moved);
  } else {
    sweepIncremental(scratch.xSweep, sp.alpha(), sp, widths, scratch.x,
                     JournaledFenwick{scratch.xSweep}, warm, moved);
    sweepIncremental(scratch.ySweep, scratch.rev, sp, heights, scratch.y,
                     JournaledFenwick{scratch.ySweep}, warm, moved);
  }
  scratch.incValid = true;
  scratch.incStrategy = resolved;

  // A module whose width changed diverges its x-sweep step (extents are step
  // inputs), so every rect field of a stale module is covered by one of the
  // two moved ranges; untouched modules keep their previous rect verbatim.
  for (std::size_t i = movedStart; i < moved.size(); ++i) {
    std::size_t m = moved[i];
    out[m] = {scratch.x[m], scratch.y[m], widths[m], heights[m]};
  }

#ifndef NDEBUG
  {  // Debug oracle: the incremental pack must equal a fresh full pack.
    thread_local SeqPairPackScratch oracleScratch;
    thread_local Placement oracle;
    packSequencePairInto(sp, widths, heights, resolved, oracleScratch, oracle);
    for (std::size_t m = 0; m < n; ++m) {
      assert(out[m] == oracle[m] && "incremental pack diverged from full pack");
    }
  }
#endif
}

}  // namespace als
