// Slicing floorplans as normalized Polish expressions (Wong & Liu; the
// layout model of ILAC [24]).
//
// Section II recalls that ILAC adopted the slicing model and that "today it
// is widely acknowledged that this is not a good choice for high-performance
// analog design since the slicing representations limit the set of reachable
// layout topologies, degrading the layout density especially when cells are
// very different in size".  This module implements the classic machinery so
// the claim can be measured against the non-slicing engines (experiment
// E13 in DESIGN.md):
//
//   * postfix expressions over module operands and the cut operators
//     V (horizontal composition, widths add) and H (vertical composition,
//     heights add), kept *normalized* (no two consecutive equal operators);
//   * the three Wong-Liu neighbourhood moves: M1 swaps adjacent operands,
//     M2 complements a maximal operator chain, M3 swaps an adjacent
//     operand/operator pair subject to balloting and normalization;
//   * stack evaluation with pareto shape sets per subtree (module rotation
//     included), combined by Stockmeyer's linear staircase merge, and
//     placement reconstruction by backtracking — both incremental against
//     the previous evaluation: only subtrees whose inputs changed are
//     re-evaluated, and only rects whose realization or anchor changed are
//     rewritten.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geom/placement.h"
#include "util/rng.h"

namespace als {

class PolishExpr {
 public:
  static constexpr std::int32_t kOpV = -1;  ///< side-by-side (widths add)
  static constexpr std::int32_t kOpH = -2;  ///< stacked (heights add)

  PolishExpr() = default;

  /// Initial expression 0 1 V 2 V 3 V ... (a row of all modules).
  static PolishExpr initial(std::size_t moduleCount);

  const std::vector<std::int32_t>& elements() const { return elems_; }
  std::size_t moduleCount() const { return moduleCount_; }

  /// Balloting property, single use of each module, normalization.
  bool isValid() const;

  /// Applies one random Wong-Liu move (M1 / M2 / M3); the expression stays
  /// valid.  Returns false if the sampled move had no legal target.
  bool perturb(Rng& rng);

  /// "21V3H..."-style rendering for debugging.
  std::string toString() const;

  friend bool operator==(const PolishExpr&, const PolishExpr&) = default;

 private:
  bool swapAdjacentOperands(Rng& rng);   // M1
  bool complementChain(Rng& rng);        // M2
  bool swapOperandOperator(Rng& rng);    // M3

  std::vector<std::int32_t> elems_;
  std::size_t moduleCount_ = 0;
};

struct SlicedResult {
  Placement placement;
  Coord width = 0;
  Coord height = 0;
  Coord area() const { return width * height; }
};

namespace detail {

/// One pareto shape of a slicing subtree; leaves encode rotation in `li`.
struct PolishShape {
  Coord w = 0, h = 0;
  std::uint32_t li = 0, ri = 0;  // child shape indices; leaf: li = rotated
};

/// One postfix position's evaluation node, kept from the last call.  The
/// shapes vector is reused call to call (the expression length is constant
/// across an anneal), which is what makes the evaluator allocation-free
/// when warm.  The remaining fields are the inputs and the reconstruct
/// anchor of the last call, which decide whether this call may reuse them.
struct PolishEvalNode {
  std::int32_t elem = 0;
  std::size_t left = static_cast<std::size_t>(-1);
  std::size_t right = static_cast<std::size_t>(-1);
  Coord leafW = 0, leafH = 0;  ///< leaf: the dims its shapes were built from
  bool leafRotatable = false;  ///< leaf: the rotatable flag they were built from
  bool dirty = true;           ///< shapes were recomputed by the current call
  std::vector<PolishShape> shapes;
  std::uint32_t placedShape = 0;  ///< last reconstruct: chosen shape index
  Coord placedX = 0, placedY = 0; ///< last reconstruct: anchor
};

/// The pareto staircase of `op` (PolishExpr::kOpV / kOpH) applied to two
/// child staircases (sorted by w, h strictly decreasing), written to `out`
/// in the same order; each point's (li, ri) names the child shapes that
/// produce it.  Linear in the input sizes (Stockmeyer's merge).
void combineShapes(std::int32_t op, std::span<const PolishShape> ls,
                   std::span<const PolishShape> rs,
                   std::vector<PolishShape>& out);

}  // namespace detail

/// Reusable buffers of one Polish-expression evaluation loop (the slicing
/// placer's per-move decode), and the record of the last evaluation that
/// makes the next one incremental.  Not shareable between concurrent
/// evaluators.
struct PolishEvalScratch {
  std::vector<detail::PolishEvalNode> nodes;
  std::vector<std::size_t> stack;
  std::vector<detail::PolishShape> capKept;  ///< capShapes working set
  bool warm = false;           ///< nodes hold the last evaluation
  std::size_t length = 0;      ///< its expression length (2n - 1)
  std::size_t shapeCap = 0;    ///< its shape cap
  const Rect* placed = nullptr;  ///< the placement buffer it reconstructed into

  /// Forgets the last evaluation, keeping every buffer's capacity: the next
  /// call evaluates every node and rewrites every rect, exactly like a
  /// fresh scratch.
  void invalidate() {
    warm = false;
    placed = nullptr;
  }
};

/// Evaluates the expression's pareto shapes and reconstructs the best-area
/// placement.  `rotatable[m]` enables 90-degree rotation of module m.
/// `shapeCap` bounds the per-subtree pareto size (0 = unbounded).
/// (vector<bool> by reference: the bit-packed specialization cannot bind to
/// a std::span.)
SlicedResult evaluatePolish(const PolishExpr& expr, std::span<const Coord> widths,
                            std::span<const Coord> heights,
                            const std::vector<bool>& rotatable,
                            std::size_t shapeCap = 32);

/// Scratch-reuse variant: identical results to evaluatePolish, zero heap
/// allocations once the buffers are warm, and incremental against the
/// scratch's last evaluation.
///
/// The scratch remembers, per postfix position, the element, the child
/// positions, a leaf's dims and rotatable flag, the pareto shapes, and the
/// (shape, x, y) the last reconstruct chose.  A node's shapes are
/// recomputed only when it is dirty: its element, its children or (leaf)
/// its dims / rotatable flag changed, a child is dirty, or the expression
/// length or `shapeCap` differs from the last call.  A clean node has
/// identical inputs, so the result is exact by construction; a cold or
/// invalidated scratch marks every node dirty and IS the full evaluation.
///
/// `out` is reused when it is the buffer the last call on this scratch
/// filled and still holds n rects: a clean subtree anchored where it was
/// last time keeps its rects verbatim, and only the others are rewritten.
/// Any other `out` (a different buffer, a wrong size) is fully rewritten.
/// A caller that edits `out.placement` between calls must invalidate the
/// scratch first.
void evaluatePolishInto(const PolishExpr& expr, std::span<const Coord> widths,
                        std::span<const Coord> heights,
                        const std::vector<bool>& rotatable,
                        std::size_t shapeCap, PolishEvalScratch& scratch,
                        SlicedResult& out);

}  // namespace als
