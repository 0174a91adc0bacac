//! The read-side of the merge engine, factored out as a trait so the same
//! `Saving(A, B, G)` machinery (panel extraction, Case-1/Case-2 problem building,
//! merge evaluation) runs against two backings:
//!
//! * the authoritative [`MergeEngine`](super::MergeEngine) itself, and
//! * the copy-on-write [`PlanningEngine`](super::plan::PlanningEngine) overlay that
//!   shard workers use to plan merges against a frozen iteration view.
//!
//! Keeping the problem builders generic (rather than duplicated) is what guarantees
//! planning and application agree on the encoding semantics.
//!
//! The machinery operates on **pruned** summaries natively: hierarchies re-entering
//! the engine via `MergeEngine::from_summary` — and, since the streaming engine
//! prunes its maintained summary in place after every batch, the live hierarchy
//! itself — carry roots of arbitrary arity and edges at any tree level.
//! [`side_panel`] models every non-binary side as a single opaque cell, which is
//! always sound (see its docs), so merge evaluation and application need no
//! special cases for pruned shapes.
//!
//! # Panel blocks
//!
//! Merge evaluation is the innermost loop of the pipeline: every candidate pair of
//! every set of every iteration needs a Case-1 problem plus one Case-2 problem per
//! common adjacent root.  [`evaluate_merge`] builds them from [`Block`]s — the
//! p/n-edges between two roots' panels, 3×3 at most — obtained from a
//! [`BlockSource`]: the authoritative engine probes each block afresh
//! ([`ProbeBlocks`]), the planning overlay serves repeats from a per-set cache
//! (see [`super::plan`]).  The probe builders [`case1_problem`] /
//! [`case2_problem`] build the same problems straight from edge probes; they serve
//! [`resolve_merge_into`] (the apply path) and, in debug builds, check every
//! block-built evaluation.
//!
//! # Bound-and-skip
//!
//! Before any block is read, one sweep of the two roots' adjacency counts
//! ([`sweep_commons`]) collects the common adjacent roots and counts the old
//! edges the merge could re-encode; [`saving_upper_bound`] turns that count into
//! a bit-exact upper bound on the saving.  [`evaluate_merge`] returns `None`
//! without building a panel when the caller's
//! [`MergeCutoff`](super::MergeCutoff) excludes the bound, so blocks and memo
//! solves run only for pairs that could still win (see [`crate::merge`]).  The
//! sweep is the one the full evaluation needs for its Case-2 partners anyway,
//! which is why the bound costs a survivor almost nothing.
//!
//! # Allocation discipline
//!
//! The problem builders are engineered to perform **no heap allocation per
//! evaluation**:
//!
//! * panels are constant-size, so cells, panel supernodes and old panel edges live in
//!   inline arrays ([`InlineVec`]); a panel has at most 6 supernodes, hence at most
//!   21 old edges;
//! * per-supernode cell coverage is a `u16` bitmask over the (≤ 4) cell indices
//!   instead of a `Vec<usize>` per panel supernode;
//! * the only unbounded intermediate — the common adjacent roots of the two sides —
//!   is written into a reusable buffer owned by the per-worker
//!   [`MergeCtx`](super::MergeCtx) scratch, as are the Case-2 records a merge
//!   application accumulates.

use super::{Case2Record, MergeCtx, MergeCutoff, MergeEvaluation, ResolvedMerge, RootMeta};
use crate::encoder::{
    pair_index, panel, Case1Problem, Case1Shape, Case2Problem, Case2Shape, EncoderMemo,
};
use crate::model::SupernodeId;

/// Read-only cost/topology queries the merge machinery needs.
///
/// All queries refer to the *current* state of the implementor — for the planning
/// overlay that is "frozen view + this set's own merges".
pub(crate) trait MergeView {
    /// Whether `id` is currently a root.
    fn is_root(&self, id: SupernodeId) -> bool;
    /// Direct children of a supernode (empty for leaves; exactly two during the
    /// merging phase).
    fn children_of(&self, id: SupernodeId) -> &[SupernodeId];
    /// Number of subnodes contained in the supernode.
    fn node_size(&self, id: SupernodeId) -> usize;
    /// Parent of a supernode, if any.
    fn parent_of(&self, id: SupernodeId) -> Option<SupernodeId>;
    /// Signed p/n-edge weight between two supernodes (0 = no edge).
    fn edge_weight(&self, x: SupernodeId, y: SupernodeId) -> i32;
    /// A root's metadata: tree size, height and adjacency counts.
    fn root_meta(&self, root: SupernodeId) -> &RootMeta;
}

/// A fixed-capacity inline vector for the constant-size panel data of the hot path
/// (a `SmallVec` stand-in within the offline dependency whitelist — panels are
/// bounded, so there is no heap spill path).
#[derive(Clone, Copy, Debug)]
pub(crate) struct InlineVec<T: Copy + Default, const N: usize> {
    len: usize,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty buffer.
    pub(crate) fn new() -> Self {
        InlineVec {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// Appends an element; panics if the fixed capacity is exceeded (the panel
    /// bounds make that unreachable from the merge engine).
    #[inline]
    pub(crate) fn push(&mut self, value: T) {
        assert!(self.len < N, "inline buffer overflow");
        self.items[self.len] = value;
        self.len += 1;
    }

    /// Number of elements.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The elements as a slice.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }
}

/// Old p/n-edges of a panel: at most `6 * 7 / 2 = 21` unordered pairs (with
/// self-loops) among the ≤ 6 panel supernodes.
pub(crate) type PanelEdges = InlineVec<(SupernodeId, SupernodeId), 21>;

/// Panel supernodes of one side: the root plus its direct children when the root
/// is **binary**.  Returns (shape_internal, [root, child1, child2]) with unused
/// slots `None`.
///
/// Sides with any other arity enter the panel as a single opaque cell (the root
/// itself).  Leaves have no children to expand; roots with **three or more**
/// children exist when the engine adopts a pruned hierarchy
/// ([`super::MergeEngine::from_summary`], the incremental path) — expanding only
/// two of them would let a solved `C`-level edge cover the dropped children's
/// subnodes and silently change the represented graph.  Opaque is always sound:
/// edges strictly below an opaque side are never enumerated as panel edges, so
/// they stay in place with their coverage intact, and every panel edge touching
/// the side covers exactly the whole tree — the cell it models.
pub(crate) fn side_panel<V: MergeView + ?Sized>(
    view: &V,
    root: SupernodeId,
) -> (bool, [Option<SupernodeId>; 3]) {
    let children = view.children_of(root);
    if children.len() == 2 {
        (true, [Some(root), Some(children[0]), Some(children[1])])
    } else {
        (false, [Some(root), None, None])
    }
}

/// Maps an abstract panel index to the concrete supernode id for a merge of `a`
/// and `b` (with `m` the merged supernode) and an optional orange root `c`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn concrete(
    abstract_id: u8,
    m: SupernodeId,
    a: SupernodeId,
    b: SupernodeId,
    a_kids: &[Option<SupernodeId>; 3],
    b_kids: &[Option<SupernodeId>; 3],
    c: Option<SupernodeId>,
    c_kids: &[Option<SupernodeId>; 3],
) -> SupernodeId {
    match abstract_id {
        panel::M => m,
        panel::A => a,
        panel::B => b,
        panel::A1 => a_kids[1].expect("A1 requested for leaf A"),
        panel::A2 => a_kids[2].expect("A2 requested for leaf A"),
        panel::B1 => b_kids[1].expect("B1 requested for leaf B"),
        panel::B2 => b_kids[2].expect("B2 requested for leaf B"),
        panel::C => c.expect("C requested without orange panel"),
        panel::C1 => c_kids[1].expect("C1 requested for leaf C"),
        panel::C2 => c_kids[2].expect("C2 requested for leaf C"),
        other => unreachable!("unknown abstract panel id {other}"),
    }
}

/// Bitmask (over indices into `cells`) of the cells covered by a concrete panel
/// supernode: the cells it equals or is an ancestor of.  Cells number at most 4, so
/// a `u16` is ample.
#[inline]
fn cell_coverage_mask<V: MergeView + ?Sized>(
    view: &V,
    sup: SupernodeId,
    cells: &[SupernodeId],
) -> u16 {
    let mut mask = 0u16;
    for (idx, &cell) in cells.iter().enumerate() {
        if cell == sup || view.parent_of(cell) == Some(sup) {
            mask |= 1 << idx;
        }
    }
    mask
}

/// Adds a Case-1 panel edge of weight `w` whose endpoints cover the cells in
/// `cov_x` and `cov_y` to `required`: the edge covers the product of the two
/// coverages, and each unordered cell pair counts once (`seen` mask over pair
/// indices).
#[inline]
fn add_case1_edge(required: &mut [i8; 10], k: usize, cov_x: u16, cov_y: u16, w: i32) {
    let mut seen = 0u16;
    let mut mi = cov_x;
    while mi != 0 {
        let ci = mi.trailing_zeros() as usize;
        mi &= mi - 1;
        let mut mj = cov_y;
        while mj != 0 {
            let cj = mj.trailing_zeros() as usize;
            mj &= mj - 1;
            let idx = pair_index(ci.min(cj), ci.max(cj), k);
            if seen & (1 << idx) == 0 {
                seen |= 1 << idx;
                required[idx] = (required[idx] as i32 + w) as i8;
            }
        }
    }
}

/// Adds a Case-2 panel edge of weight `w` between a yellow supernode covering the
/// yellow cells in `cov_y` and an orange one covering the orange cells in `cov_o`
/// (`kc` orange cells) to `required`.
#[inline]
fn add_case2_edge(required: &mut [i8; 8], kc: usize, cov_y: u16, cov_o: u16, w: i32) {
    let mut mi = cov_y;
    while mi != 0 {
        let ci = mi.trailing_zeros() as usize;
        mi &= mi - 1;
        let mut mj = cov_o;
        while mj != 0 {
            let cj = mj.trailing_zeros() as usize;
            mj &= mj - 1;
            let idx = ci * kc + cj;
            required[idx] = (required[idx] as i32 + w) as i8;
        }
    }
}

/// The Case-1 constrained mask over `k` cells: every cell pair spans a subnode
/// pair except a cell paired with itself when it holds a single subnode (bit `i`
/// of `big` set ⇔ cell `i` holds ≥ 2 subnodes).
#[inline]
fn case1_constrained(k: usize, big: u16) -> u16 {
    let mut constrained = 0u16;
    for i in 0..k {
        for j in i..k {
            if i != j || big & (1 << i) != 0 {
                constrained |= 1 << pair_index(i, j, k);
            }
        }
    }
    constrained
}

/// The cells of one merged side in `cells()` order: the two children when internal,
/// the root itself otherwise.
#[inline]
fn push_side_cells(
    internal: bool,
    root: SupernodeId,
    kids: &[Option<SupernodeId>; 3],
    cells: &mut InlineVec<SupernodeId, 4>,
) {
    if internal {
        cells.push(kids[1].expect("internal side has children"));
        cells.push(kids[2].expect("internal side has children"));
    } else {
        cells.push(root);
    }
}

/// The panel supernodes of both merged sides, in `a_kids`-then-`b_kids` order.
#[inline]
fn yellow_panel_supers(
    a_kids: &[Option<SupernodeId>; 3],
    b_kids: &[Option<SupernodeId>; 3],
) -> InlineVec<SupernodeId, 6> {
    let mut supers = InlineVec::new();
    for s in a_kids.iter().chain(b_kids.iter()).flatten() {
        supers.push(*s);
    }
    supers
}

/// Builds the Case-1 problem for merging roots `a` and `b`: the cell-pair
/// requirements induced by the existing panel edges, plus the list of those edges.
pub(crate) fn case1_problem<V: MergeView + ?Sized>(
    view: &V,
    a: SupernodeId,
    b: SupernodeId,
) -> (Case1Problem, PanelEdges) {
    let (a_internal, a_kids) = side_panel(view, a);
    let (b_internal, b_kids) = side_panel(view, b);
    let shape = Case1Shape {
        a_internal,
        b_internal,
    };
    // Concrete supernode of each cell, in the shape's canonical A-then-B order.
    let mut cell_concrete: InlineVec<SupernodeId, 4> = InlineVec::new();
    push_side_cells(a_internal, a, &a_kids, &mut cell_concrete);
    push_side_cells(b_internal, b, &b_kids, &mut cell_concrete);
    let cells = cell_concrete.as_slice();
    let k = cells.len();
    let mut big = 0u16;
    for (i, &cell) in cells.iter().enumerate() {
        if view.node_size(cell) >= 2 {
            big |= 1 << i;
        }
    }
    let constrained = case1_constrained(k, big);
    // Existing panel edges: all p/n-edges among the panel supernodes of both sides.
    let panel_supers = yellow_panel_supers(&a_kids, &b_kids);
    let supers = panel_supers.as_slice();
    let mut coverage = [0u16; 6];
    for (slot, &s) in coverage.iter_mut().zip(supers.iter()) {
        *slot = cell_coverage_mask(view, s, cells);
    }
    let mut required = [0i8; 10];
    let mut old_edges = PanelEdges::new();
    for (i, &x) in supers.iter().enumerate() {
        for (j, &y) in supers.iter().enumerate().skip(i) {
            let w = view.edge_weight(x, y);
            if w == 0 {
                continue;
            }
            old_edges.push((x, y));
            add_case1_edge(&mut required, k, coverage[i], coverage[j], w);
        }
    }
    (
        Case1Problem {
            shape,
            required,
            constrained,
        },
        old_edges,
    )
}

/// The pair-invariant (yellow) half of a Case-2 problem: everything about the
/// about-to-be-merged `A`/`B` side that does not depend on the orange root `C`.
/// A merge evaluation builds this **once** and reuses it across every common
/// adjacent root — on hub-heavy regions the commons loop dominates the merge
/// planner, and the yellow side is identical for all of them.
pub(crate) struct Case2Yellow {
    a_internal: bool,
    b_internal: bool,
    yellow_supers: InlineVec<SupernodeId, 6>,
    yellow_cov: [u16; 6],
}

/// Builds the yellow half for merging roots `a` and `b` (see [`Case2Yellow`]).
pub(crate) fn case2_yellow<V: MergeView + ?Sized>(
    view: &V,
    a: SupernodeId,
    b: SupernodeId,
) -> Case2Yellow {
    let (a_internal, a_kids) = side_panel(view, a);
    let (b_internal, b_kids) = side_panel(view, b);
    let mut yellow_cells: InlineVec<SupernodeId, 4> = InlineVec::new();
    push_side_cells(a_internal, a, &a_kids, &mut yellow_cells);
    push_side_cells(b_internal, b, &b_kids, &mut yellow_cells);
    let yellow_supers = yellow_panel_supers(&a_kids, &b_kids);
    let mut yellow_cov = [0u16; 6];
    for (slot, &s) in yellow_cov.iter_mut().zip(yellow_supers.as_slice().iter()) {
        *slot = cell_coverage_mask(view, s, yellow_cells.as_slice());
    }
    Case2Yellow {
        a_internal,
        b_internal,
        yellow_supers,
        yellow_cov,
    }
}

/// Builds the Case-2 problem between the (about to be merged) roots behind
/// `yellow` and the adjacent root `c`.
pub(crate) fn case2_problem<V: MergeView + ?Sized>(
    view: &V,
    yellow: &Case2Yellow,
    c: SupernodeId,
) -> (Case2Problem, PanelEdges) {
    let (c_internal, c_kids) = side_panel(view, c);
    let shape = Case2Shape {
        a_internal: yellow.a_internal,
        b_internal: yellow.b_internal,
        c_internal,
    };
    let mut orange_cells: InlineVec<SupernodeId, 4> = InlineVec::new();
    push_side_cells(c_internal, c, &c_kids, &mut orange_cells);
    let kc = orange_cells.len();
    let yellow_supers = &yellow.yellow_supers;
    let yellow_cov = &yellow.yellow_cov;
    let mut orange_supers: InlineVec<SupernodeId, 3> = InlineVec::new();
    for s in c_kids.iter().flatten() {
        orange_supers.push(*s);
    }
    let mut orange_cov = [0u16; 3];
    for (slot, &s) in orange_cov.iter_mut().zip(orange_supers.as_slice().iter()) {
        *slot = cell_coverage_mask(view, s, orange_cells.as_slice());
    }
    let mut required = [0i8; 8];
    let mut old_edges = PanelEdges::new();
    for (i, &x) in yellow_supers.as_slice().iter().enumerate() {
        for (j, &y) in orange_supers.as_slice().iter().enumerate() {
            let w = view.edge_weight(x, y);
            if w == 0 {
                continue;
            }
            old_edges.push((x, y));
            add_case2_edge(&mut required, kc, yellow_cov[i], orange_cov[j], w);
        }
    }
    (Case2Problem { shape, required }, old_edges)
}

/// Resolves one merge of roots `a` and `b` (which will become supernode `m`) against
/// the *pre-merge* state of any [`MergeView`]: solves the Case-1 panel, gathers the
/// Case-2 re-encodings of every common adjacent root (`case2` is cleared and then
/// holds exactly this merge's records), and snapshots everything a later
/// application needs (panel children, old edges, cross-edge count).
///
/// This is the read-only, expensive half of a merge application.  Both the
/// authoritative [`MergeEngine`](super::MergeEngine) and the planning overlay
/// ([`super::plan::PlanningEngine`]) apply merges by resolving here first and then
/// replaying the resolution onto their own state, which is what keeps planning and
/// apply byte-identical.
pub(crate) fn resolve_merge_into<V: MergeView + ?Sized>(
    view: &V,
    a: SupernodeId,
    b: SupernodeId,
    m: SupernodeId,
    memo: &mut EncoderMemo,
    commons: &mut Vec<SupernodeId>,
    case2: &mut Vec<Case2Record>,
) -> ResolvedMerge {
    let (_, a_kids) = side_panel(view, a);
    let (_, b_kids) = side_panel(view, b);
    let cross_ab = view.root_meta(a).adjacency_to(b) as u32;
    let (problem1, old1) = case1_problem(view, a, b);
    let sol1 = memo.case1(&problem1);
    sweep_commons(view, a, b, commons);
    case2.clear();
    let yellow = case2_yellow(view, a, b);
    for &c in commons.iter() {
        let (problem2, old2) = case2_problem(view, &yellow, c);
        let sol2 = memo.case2(&problem2);
        let (_, c_kids) = side_panel(view, c);
        case2.push(Case2Record {
            c,
            sol: sol2,
            old: old2,
            c_kids,
        });
    }
    ResolvedMerge {
        a,
        b,
        m,
        cross_ab,
        a_kids,
        b_kids,
        sol1,
        old1,
    }
}

/// The p/n-edge mutation surface a resolved merge is replayed onto — implemented by
/// the authoritative [`MergeEngine`](super::MergeEngine) and by the planning overlay
/// ([`super::plan::PlanningEngine`]), each updating its own root metadata alongside.
pub(crate) trait PnEdgeSink {
    /// Removes the p/n-edge between two supernodes (no-op when absent).
    fn remove_pn_edge(&mut self, x: SupernodeId, y: SupernodeId);
    /// Adds (or rewrites) the p/n-edge between two supernodes with weight `±1`.
    fn add_pn_edge(&mut self, x: SupernodeId, y: SupernodeId, weight: i8);
}

/// Replays a resolved merge's Case-1/Case-2 edge re-encodings onto `sink`: drop the
/// old panel edges, add the solved ones (mapped from abstract panel ids to concrete
/// supernodes).
///
/// Shared by [`MergeEngine::commit_merge`](super::MergeEngine) and the overlay's
/// replay so the two can never drift apart: a plan only reproduces on the engine
/// what it saved on the overlay if both apply the exact same edges.
pub(crate) fn replay_reencodings<S: PnEdgeSink + ?Sized>(
    sink: &mut S,
    rm: &ResolvedMerge,
    case2: &[Case2Record],
) {
    let (a, b, m) = (rm.a, rm.b, rm.m);
    let (a_kids, b_kids) = (&rm.a_kids, &rm.b_kids);
    // Case-1: drop old panel edges, add the solved ones.
    for &(x, y) in rm.old1.as_slice() {
        sink.remove_pn_edge(x, y);
    }
    let none_kids = [None, None, None];
    for e in rm.sol1.edges() {
        let x = concrete(e.a, m, a, b, a_kids, b_kids, None, &none_kids);
        let y = concrete(e.b, m, a, b, a_kids, b_kids, None, &none_kids);
        sink.add_pn_edge(x, y, e.weight);
    }
    // Case-2 re-encodings, one per common adjacent root.
    for rec in case2 {
        for &(x, y) in rec.old.as_slice() {
            sink.remove_pn_edge(x, y);
        }
        for e in rec.sol.edges() {
            let x = concrete(e.a, m, a, b, a_kids, b_kids, Some(rec.c), &rec.c_kids);
            let y = concrete(e.b, m, a, b, a_kids, b_kids, Some(rec.c), &rec.c_kids);
            sink.add_pn_edge(x, y, e.weight);
        }
    }
}

/// One sweep over the adjacency counts of roots `a` and `b`: fills `commons`
/// with the roots adjacent to both trees, excluding the pair itself (the Case-2
/// partner set), and returns the number of p/n-edges a merge of the two may
/// re-encode:
///
/// `S = adj_a[a] + adj_b[b] + adj_a[b] + Σ_{c ∈ commons} (adj_a[c] + adj_b[c])`.
///
/// Every old Case-1 panel edge lies within or between the two trees and every
/// old Case-2 panel edge between one of them and a common root, so `S` bounds
/// the old edges the merge's re-encodings drop.  Probes the larger map with the
/// smaller one's keys.  Shared by merge evaluation, which needs `S` for its
/// bound, and merge resolution, which needs only `commons`: collecting the
/// partners and summing their counts in one pass is what keeps the bound cheap
/// (a separate pass over the commons costs more than the bound saves).
pub(crate) fn sweep_commons<V: MergeView + ?Sized>(
    view: &V,
    a: SupernodeId,
    b: SupernodeId,
    commons: &mut Vec<SupernodeId>,
) -> usize {
    let (meta_a, meta_b) = (view.root_meta(a), view.root_meta(b));
    let mut reencodable = meta_a.adjacency_to(a) + meta_b.adjacency_to(b) + meta_a.adjacency_to(b);
    commons.clear();
    let (small, large) = if meta_a.adjacency.len() <= meta_b.adjacency.len() {
        (&meta_a.adjacency, &meta_b.adjacency)
    } else {
        (&meta_b.adjacency, &meta_a.adjacency)
    };
    for (&r, &n) in small {
        if r == a || r == b {
            continue;
        }
        if let Some(&m) = large.get(&r) {
            commons.push(r);
            reencodable += (n + m) as usize;
        }
    }
    reencodable
}

/// The p/n-edges between the panels of two roots `x` and `c`, probed once and
/// then reusable by every evaluation that meets the pair (see [`BlockSource`]).
///
/// A *cross* block (`x ≠ c`) holds the signed weights between `x`'s and `c`'s
/// panel supernodes; an *intra* block (`x = c`) holds the edges among `x`'s own
/// panel supernodes plus which of `x`'s cells hold at least two subnodes.  Both
/// record `c`'s shape, so a side's shape is read off its intra block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Block {
    /// `w[i][j]`: weight between `x`'s `i`-th and `c`'s `j`-th panel supernode,
    /// both in [`side_panel`] order (0 = no edge).  An intra block fills only
    /// `i ≤ j`.
    w: [[i8; 3]; 3],
    /// Whether `c` is binary (its panel is the root plus two children) rather
    /// than an opaque single cell.
    internal: bool,
    /// Intra blocks only: bit `k` set ⇔ `x`'s `k`-th cell holds ≥ 2 subnodes.
    big_cells: u8,
    /// Number of non-zero weights: the old panel edges the block contributes.
    edges: u8,
}

/// Probes the [`Block`] of roots `x` and `c` (`x = c` for the intra block).
pub(crate) fn probe_block<V: MergeView + ?Sized>(
    view: &V,
    x: SupernodeId,
    c: SupernodeId,
) -> Block {
    let (x_internal, x_panel) = side_panel(view, x);
    let (internal, c_panel) = side_panel(view, c);
    let mut block = Block {
        internal,
        ..Block::default()
    };
    for (i, sx) in x_panel.iter().enumerate() {
        let Some(sx) = *sx else { continue };
        let first = if x == c { i } else { 0 };
        for (j, sc) in c_panel.iter().enumerate().skip(first) {
            let Some(sc) = *sc else { continue };
            let w = view.edge_weight(sx, sc);
            if w != 0 {
                block.w[i][j] = w as i8;
                block.edges += 1;
            }
        }
    }
    if x == c {
        let cells = if x_internal {
            &x_panel[1..]
        } else {
            &x_panel[..1]
        };
        for (k, cell) in cells.iter().enumerate() {
            if view.node_size(cell.expect("panel cell")) >= 2 {
                block.big_cells |= 1 << k;
            }
        }
    }
    block
}

/// Where a merge evaluation gets its panel [`Block`]s.
pub(crate) trait BlockSource {
    /// The block of roots `x` and `c` in `view`'s current state.
    fn block<V: MergeView + ?Sized>(&mut self, view: &V, x: SupernodeId, c: SupernodeId) -> Block;
}

/// Probes every block afresh: the authoritative engine's source, whose state
/// changes between any two evaluations.
pub(crate) struct ProbeBlocks;

impl BlockSource for ProbeBlocks {
    fn block<V: MergeView + ?Sized>(&mut self, view: &V, x: SupernodeId, c: SupernodeId) -> Block {
        probe_block(view, x, c)
    }
}

/// Number of cells of a side: its two children when binary, itself otherwise.
#[inline]
fn side_cells(internal: bool) -> usize {
    if internal {
        2
    } else {
        1
    }
}

/// Cell coverage of a side's panel supernodes in [`side_panel`] order, with the
/// side's cells numbered from `offset`: a binary root covers both children's
/// cells and each child its own; an opaque root is its own single cell.  Equal to
/// [`cell_coverage_mask`] without the parent probes.
#[inline]
fn side_coverage(internal: bool, offset: usize) -> [u16; 3] {
    if internal {
        [0b11 << offset, 0b01 << offset, 0b10 << offset]
    } else {
        [1 << offset, 0, 0]
    }
}

/// The Case-1 problem of merging `a` and `b` and its old-edge count, built from
/// the intra blocks `aa` and `bb` and the cross block `ab` (all zero when the
/// two trees share no edge) — the block-built equal of [`case1_problem`].
fn case1_from_blocks(aa: &Block, bb: &Block, ab: &Block) -> (Case1Problem, usize) {
    let shape = Case1Shape {
        a_internal: aa.internal,
        b_internal: bb.internal,
    };
    let ka = side_cells(aa.internal);
    let k = ka + side_cells(bb.internal);
    let cov_a = side_coverage(aa.internal, 0);
    let cov_b = side_coverage(bb.internal, ka);
    let mut required = [0i8; 10];
    for (block, cov_x, cov_y) in [
        (aa, &cov_a, &cov_a),
        (bb, &cov_b, &cov_b),
        (ab, &cov_a, &cov_b),
    ] {
        for (i, row) in block.w.iter().enumerate() {
            for (j, &w) in row.iter().enumerate() {
                if w != 0 {
                    add_case1_edge(&mut required, k, cov_x[i], cov_y[j], w as i32);
                }
            }
        }
    }
    let big = aa.big_cells as u16 | (bb.big_cells as u16) << ka;
    let problem = Case1Problem {
        shape,
        required,
        constrained: case1_constrained(k, big),
    };
    let old = aa.edges as usize + bb.edges as usize + ab.edges as usize;
    (problem, old)
}

/// The Case-2 problem between the merged sides (shapes `a_internal`,
/// `b_internal`) and a common root `c`, and its old-edge count, built from the
/// cross blocks `ac` and `bc` — the block-built equal of [`case2_problem`].
fn case2_from_blocks(
    a_internal: bool,
    b_internal: bool,
    ac: &Block,
    bc: &Block,
) -> (Case2Problem, usize) {
    debug_assert_eq!(ac.internal, bc.internal);
    let shape = Case2Shape {
        a_internal,
        b_internal,
        c_internal: ac.internal,
    };
    let kc = side_cells(ac.internal);
    let cov_a = side_coverage(a_internal, 0);
    let cov_b = side_coverage(b_internal, side_cells(a_internal));
    let cov_c = side_coverage(ac.internal, 0);
    let mut required = [0i8; 8];
    for (block, cov_y) in [(ac, &cov_a), (bc, &cov_b)] {
        for (i, row) in block.w.iter().enumerate() {
            for (j, &w) in row.iter().enumerate() {
                if w != 0 {
                    add_case2_edge(&mut required, kc, cov_y[i], cov_c[j], w as i32);
                }
            }
        }
    }
    let old = ac.edges as usize + bc.edges as usize;
    (Case2Problem { shape, required }, old)
}

/// `Saving(A, B, G)` (Eq. 8) of a merge taking the pair's cost from
/// `cost_before` to `cost_after` (`−∞` for a cost-free pair).  The evaluation
/// and its upper bound both go through this one `f64` expression: it is
/// monotone in `cost_after`, so a bound on `cost_after` gives a bound on the
/// saving that holds bit-exactly.
#[inline]
fn saving_of(cost_before: usize, cost_after: usize) -> f64 {
    if cost_before == 0 {
        f64::NEG_INFINITY
    } else {
        1.0 - cost_after as f64 / cost_before as f64
    }
}

/// The upper bound on `Saving(A, B, G)` of a pair costing `cost_before` whose
/// merge may re-encode `reencodable` old edges (see [`sweep_commons`]).
///
/// A merge adds 2 hierarchy edges, drops at most `reencodable` old panel edges
/// and adds back a non-negative number of solved ones, so
/// `cost_after ≥ max(0, cost_before + 2 − reencodable)`.
///
/// Do not tighten this to "every non-empty panel re-encodes to at least one
/// edge": a panel's p- and n-edges can cancel to an all-zero requirement that
/// re-encodes to no edge, and that variant was measured to overshoot real
/// savings on the LJ stand-in and on caveman graphs.
#[inline]
pub(crate) fn saving_upper_bound(cost_before: usize, reencodable: usize) -> f64 {
    let least_after = (cost_before as i64 + 2 - reencodable as i64).max(0) as usize;
    saving_of(cost_before, least_after)
}

/// Evaluates `Saving(A, B, G)` (Eq. 8) against any [`MergeView`] without mutating
/// it, reading the panel edges through `blocks` — or returns `None` when the
/// pair's saving provably cannot clear `cutoff`.
///
/// One sweep of the two roots' adjacency counts ([`sweep_commons`]) yields both
/// the common adjacent roots and the bound [`saving_upper_bound`]; a pair whose
/// bound `cutoff` excludes is skipped before any block is read or any panel is
/// solved.  Otherwise the Case-1 problem comes from the two intra blocks plus
/// the `a`–`b` cross block (skipped when the trees share no edge), each Case-2
/// problem from the `(a, c)` and `(b, c)` cross blocks.  Debug builds check
/// every problem against the probe builders [`case1_problem`] /
/// [`case2_problem`], and the saving against its bound.
pub(crate) fn evaluate_merge<V: MergeView + ?Sized, B: BlockSource>(
    view: &V,
    blocks: &mut B,
    a: SupernodeId,
    b: SupernodeId,
    ctx: &mut MergeCtx,
    cutoff: &MergeCutoff,
) -> Option<MergeEvaluation> {
    debug_assert!(view.is_root(a) && view.is_root(b) && a != b);
    let MergeCtx { memo, scratch } = ctx;
    let (meta_a, meta_b) = (view.root_meta(a), view.root_meta(b));
    let cross = meta_a.adjacency_to(b);
    let cost_before = meta_a.cost() + meta_b.cost() - cross;

    // Case 2 re-encodes only roots adjacent to both sides: for roots adjacent to
    // exactly one side the existing encoding remains optimal within the panel, so
    // the re-encoding is skipped both here and during application (keeping the two
    // paths consistent is what makes the evaluation exact).
    let reencodable = sweep_commons(view, a, b, &mut scratch.commons);
    let bound = saving_upper_bound(cost_before, reencodable);
    if cutoff.excludes(bound) {
        return None;
    }

    // Case 1.
    let aa = blocks.block(view, a, a);
    let bb = blocks.block(view, b, b);
    let ab = if cross == 0 {
        Block::default()
    } else {
        blocks.block(view, a, b)
    };
    let (problem1, old1) = case1_from_blocks(&aa, &bb, &ab);
    if cfg!(debug_assertions) {
        let (reference, old) = case1_problem(view, a, b);
        assert_eq!(
            (problem1, old1),
            (reference, old.len()),
            "Case-1 of ({a}, {b})"
        );
    }
    let sol1 = memo.case1(&problem1);
    let mut delta = sol1.cost as i64 - old1 as i64;

    // Case 2.  A common root without panel edges to either side has an all-zero
    // problem, solved by no edges: it contributes nothing and is skipped.
    let yellow = cfg!(debug_assertions).then(|| case2_yellow(view, a, b));
    for &c in scratch.commons.iter() {
        let ac = blocks.block(view, a, c);
        let bc = blocks.block(view, b, c);
        if ac.edges == 0 && bc.edges == 0 {
            if let Some(yellow) = &yellow {
                let (_, old) = case2_problem(view, yellow, c);
                assert_eq!(old.len(), 0, "skipped common root {c} of ({a}, {b})");
            }
            continue;
        }
        let (problem2, old2) = case2_from_blocks(aa.internal, bb.internal, &ac, &bc);
        if let Some(yellow) = &yellow {
            let (reference, old) = case2_problem(view, yellow, c);
            assert_eq!(
                (problem2, old2),
                (reference, old.len()),
                "Case-2 of ({a}, {b}) with {c}"
            );
        }
        let sol2 = memo.case2(&problem2);
        delta += sol2.cost as i64 - old2 as i64;
    }

    // +2 hierarchy edges for attaching A and B below the new root.
    let cost_after = (cost_before as i64 + 2 + delta).max(0) as usize;
    let saving = saving_of(cost_before, cost_after);
    debug_assert!(
        saving <= bound,
        "saving {saving} of ({a}, {b}) exceeds its bound {bound}"
    );
    Some(MergeEvaluation {
        saving,
        cost_before,
        cost_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MergeEngine;
    use crate::incremental::{IncrementalConfig, IncrementalSummarizer};
    use crate::{Slugger, SluggerConfig};
    use slugger_graph::gen::{caveman, rmat, CavemanConfig, RmatConfig};
    use slugger_graph::stream::{stream_batches, StreamConfig};
    use slugger_graph::Graph;

    /// The engine over a stream's maintained summary after several batches:
    /// pruned, so it carries n-edges and roots of every arity.
    fn streamed_engine(target: &Graph) -> MergeEngine {
        let (initial, batches) = stream_batches(
            target,
            &StreamConfig {
                initial_fraction: 0.7,
                num_batches: 4,
                churn: 0.25,
                seed: 3,
            },
        );
        let slugger = Slugger::new(SluggerConfig {
            iterations: 5,
            ..SluggerConfig::default()
        });
        let mut stream =
            IncrementalSummarizer::bootstrap(&initial, &slugger, IncrementalConfig::default());
        for delta in &batches {
            stream.resummarize(delta);
        }
        MergeEngine::from_summary(stream.summary().clone())
    }

    /// Asserts `saving ≤ UB` for every pair of live roots of a streamed engine;
    /// returns the engine's n-edge count and number of roots of arity > 2.
    fn assert_bound_is_sound(name: &str, target: &Graph) -> (usize, usize) {
        let engine = streamed_engine(target);
        let roots = engine.roots();
        let mut ctx = MergeCtx::new();
        let mut commons = Vec::new();
        for (i, &a) in roots.iter().enumerate() {
            for &b in &roots[i + 1..] {
                let eval = engine.evaluate_merge(a, b, &mut ctx);
                let bound = saving_upper_bound(
                    eval.cost_before,
                    sweep_commons(&engine, a, b, &mut commons),
                );
                assert!(
                    eval.saving <= bound,
                    "{name}: saving {} of ({a}, {b}) exceeds its bound {bound}",
                    eval.saving
                );
            }
        }
        let summary = engine.summary();
        let wide = roots
            .iter()
            .filter(|&&r| summary.children(r).len() > 2)
            .count();
        (summary.num_n_edges(), wide)
    }

    #[test]
    fn saving_bound_is_sound_on_pruned_signed_hierarchies() {
        let caveman = caveman(&CavemanConfig {
            num_nodes: 300,
            num_cliques: 40,
            ..CavemanConfig::default()
        });
        let rmat = rmat(&RmatConfig {
            scale: 9,
            num_edges: 2_000,
            ..RmatConfig::default()
        });
        // The shapes the bound must survive: n-edges that cancel p-edges within
        // a panel, and opaque roots of arity > 2.
        for (name, graph) in [("caveman", &caveman), ("rmat", &rmat)] {
            let (n_edges, wide_roots) = assert_bound_is_sound(name, graph);
            assert!(n_edges > 0, "{name}: no n-edges");
            assert!(wide_roots > 0, "{name}: no root of arity > 2");
        }
    }
}
