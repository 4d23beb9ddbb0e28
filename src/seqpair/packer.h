// Sequence-pair packing via weighted longest common subsequences.
//
// The x coordinate of module m is the largest total width of modules that
// precede m in *both* sequences (its "left of" predecessors); symmetrically
// for y with alpha reversed.  The structure used to evaluate the running
// maxima determines the complexity per evaluation:
//
//   * Naive     — O(n^2) scan, the reference implementation;
//   * Fenwick   — O(n log n) prefix-max Fenwick tree (FAST-SP style [26]);
//   * Veb       — O(n log log n) using the van Emde Boas priority queue,
//                 the "efficient model of priority queue" Section II cites
//                 for the O(G * n log log n) evaluation bound;
//   * Auto      — the SA placers' path: Fenwick at every size (see
//                 resolvePackStrategy).
//
// All strategies produce identical coordinates; tests cross-check them and
// the kernel bench (E4) measures the scaling.  vEB's bound is asymptotic
// only: its constant factor keeps it the slowest structure at every size
// the corpus reaches, so no default path uses it and it stays as the
// paper's reference kernel for full packs.  Every structure lives in
// caller-owned scratch storage (including the vEB tree), so a warm decode
// loop performs zero steady-state heap allocations with any strategy.
//
// == Incremental packing ==
//
// A seqpair move (swap, rotation) leaves a prefix of each LCS sweep's step
// inputs untouched, and the sweep structure's state at step i is a function
// of steps < i alone.  `packSequencePairIncrementalInto` therefore journals
// every structure mutation per step, and on the next call rewinds each
// sweep to its first changed step and re-runs the suffix only — identical
// coordinates to a full pack, at cost proportional to what the move
// disturbed.  Only the Naive and Fenwick sweeps are journaled.
#pragma once

#include <span>

#include "geom/placement.h"
#include "seqpair/sequence_pair.h"
#include "util/veb.h"

namespace als {

enum class PackStrategy { Naive, Fenwick, Veb, Auto };

/// The auto-selection rule: Auto is Fenwick at every n; explicit
/// strategies pass through unchanged.  The rule is measured on the path the
/// SA placers run, the incremental pack.  bench_kernels'
/// BM_SeqPairPackIncremental{Naive,Fenwick} rows (Release, 4-vCPU x86-64
/// guest, medians of five) give Naive/Fenwick 526/532 ns at n = 8, 684/680
/// at 10, 1017/781 at 12, 1170/721 at 14 and 1392/975 at 16: Naive never
/// wins by more than noise.  On full packs (BM_SeqPairPackCrossover) Naive
/// leads only below n = 10 (162/183 ns at 8, 218/211 at 10, 317/251 at 12).
/// vEB never wins at n <= 4096 (BM_SeqPairPack{Fenwick,Veb}: 0.56/4.9 us
/// at n = 16, 306/3487 us at n = 4096).
constexpr PackStrategy resolvePackStrategy(PackStrategy s) {
  return s == PackStrategy::Auto ? PackStrategy::Fenwick : s;
}

/// One journaled Fenwick write of an incremental sweep (undo unit): cell
/// `pos` held `val` before the write.
struct SweepOp {
  std::size_t pos = 0;
  Coord val = 0;
};

/// Persistent state of one LCS sweep across incremental packs: the step
/// inputs of the last pack, the live prefix-max structure (exactly one is
/// in use, selected by the strategy), and the per-step undo journal.
struct SeqPairSweepState {
  std::vector<std::size_t> mod, beta;  ///< step inputs: module, beta position
  std::vector<Coord> extent;           ///< step input: module extent
  std::vector<std::pair<std::size_t, Coord>> naiveEntries;  ///< one per step
  std::vector<Coord> fenwick;
  std::vector<SweepOp> ops;          ///< journaled Fenwick writes
  std::vector<std::size_t> opOfs;    ///< per-step offset into ops (steps + 1)
};

/// Reusable buffers of one LCS packing loop (the sequence-pair placer's
/// per-move decode).  Warm buffers make every strategy allocation-free,
/// the full-pack vEB staircase included.
struct SeqPairPackScratch {
  std::vector<Coord> x, y;
  std::vector<std::size_t> rev;          ///< reversed alpha order (y sweep)
  std::vector<Coord> fenwick;            ///< prefix-max Fenwick storage
  std::vector<std::pair<std::size_t, Coord>> naiveEntries;
  VebTree veb;                           ///< warm tree of the full-pack Veb strategy
  std::vector<Coord> vebValue;
  // Incremental-pack state; valid only between incremental calls on this
  // scratch (a full packSequencePairInto invalidates it).
  bool incValid = false;
  PackStrategy incStrategy = PackStrategy::Fenwick;
  SeqPairSweepState xSweep, ySweep;
};

/// Packs the pair into the lower-left-compacted placement.
/// `widths` / `heights` are the (orientation-resolved) module footprints.
Placement packSequencePair(const SequencePair& sp, std::span<const Coord> widths,
                           std::span<const Coord> heights,
                           PackStrategy strategy = PackStrategy::Fenwick);

/// Scratch-reuse variant: identical placements, `out` fully overwritten.
/// Invalidates any incremental state held by `scratch`.
void packSequencePairInto(const SequencePair& sp, std::span<const Coord> widths,
                          std::span<const Coord> heights, PackStrategy strategy,
                          SeqPairPackScratch& scratch, Placement& out);

/// Incremental pack: bit-identical placements to packSequencePairInto, but
/// when `scratch` holds the state of a previous call each LCS sweep re-runs
/// only from its first changed step (journal-rewound structures).  `Veb`
/// runs the Fenwick journal: every strategy yields identical coordinates,
/// so the mapping changes speed only, and vEB is the slower structure.  `out`
/// must be the same buffer across calls — only the rects of re-swept
/// modules are rewritten.  Every re-swept module id is appended to `moved`
/// (duplicates possible; a cold call appends all).  The caller owns cache
/// validity: after packing a DIFFERENT sequence-pair stream on this
/// scratch, set `scratch.incValid = false`.
void packSequencePairIncrementalInto(const SequencePair& sp,
                                     std::span<const Coord> widths,
                                     std::span<const Coord> heights,
                                     PackStrategy strategy,
                                     SeqPairPackScratch& scratch, Placement& out,
                                     std::vector<std::size_t>& moved);

}  // namespace als
