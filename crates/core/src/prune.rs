//! The pruning step (Sect. III-B4, Algorithm 3): removes supernodes that do not
//! contribute to a concise encoding, without changing the represented graph.
//!
//! Three substeps, each exposed individually so the Table IV experiment can measure
//! the state after each one:
//!
//! 1. [`prune_step1`] — drop internal/root supernodes with no incident p/n-edge,
//!    re-parenting their children (saves one h-edge per removal, or more for roots).
//! 2. [`prune_step2`] — drop a non-leaf root with exactly one incident (non-loop)
//!    p/n-edge by pushing that edge down to its children (saves at least one edge).
//! 3. [`prune_step3`] — for every adjacent root pair, compare the current encoding of
//!    the edges between the two trees against the *flat* (Navlakha-style) optimal
//!    encoding of the same subedges and keep the cheaper of the two.  This is the
//!    bridge to the non-hierarchical model, which is a special case of ours
//!    (Sect. II-B), and it also clears internal-node edges so further rounds of
//!    substeps 1–2 can prune more.
//!
//! # One implementation, two entry points
//!
//! Each substep has one implementation, restricted to a set of *region* roots:
//! the trees of those roots and the root pairs they form with their
//! summary-adjacent partners.  [`prune_region`] runs the rounds over a given
//! region; the incremental re-summarizer ([`crate::incremental`]) calls it after
//! every delta batch with the batch's dirty roots plus their frontier, so the
//! per-batch pruning cost is proportional to the dirty region, not to the whole
//! summary.  [`prune_all`] and the public substeps are the same code with every
//! root as the region: whole-summary pruning is the region prune over
//! `roots()`.
//!
//! Substep 3 keeps its pair bookkeeping on dense arena-indexed scratch arrays,
//! so hub-adjacent regions (many partners per root) pay no hash-map costs.  The
//! original hash-map bookkeeping survives only in this module's tests, as the
//! byte-identity reference.
//!
//! # One host: the live engine
//!
//! Every substep takes the [`MergeEngine`] whose summary it prunes: edge edits
//! go through the engine's p/n-edge bookkeeping sink and structural removals
//! through [`MergeEngine::prune_supernode`] — an internal node shrinks its tree
//! in place, a root goes through the engine's one split commit — so every
//! root's `Saving(A, B, G)` metadata (adjacency counts, tree sizes, heights)
//! stays exact while the summary is pruned in place.  [`crate::Slugger`]
//! prunes its live engine once, after the merge iterations; the incremental
//! re-summarizer prunes its maintained engine after every batch.  A caller
//! holding only a bare summary wraps it in [`MergeEngine::from_summary`] and
//! reads [`MergeEngine::summary`] back.  The batch and the streaming path run
//! the same code through the same sink, so they can never disagree about what
//! pruning means.
//!
//! All substeps are **content-deterministic**: supernodes are visited in sorted-id
//! order and each root pair's re-encoding depends only on that pair's edges, so the
//! result is a pure function of the model's content — never of hash-map layout.
//! This is what lets the streaming invariance tests pin byte-identical summaries
//! across `parallelism` settings even with pruning enabled.

use crate::engine::view::PnEdgeSink;
use crate::engine::MergeEngine;
use crate::model::{HierarchicalSummary, SupernodeId};
use slugger_graph::{AdjacencyList, NodeId};

/// Summary of what a pruning pass changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Supernodes removed by substep 1.
    pub step1_removed: usize,
    /// Supernodes removed by substep 2.
    pub step2_removed: usize,
    /// Root pairs re-encoded flat by substep 3.
    pub step3_reencoded: usize,
}

impl PruneReport {
    /// Total number of structural changes.
    pub fn total_changes(&self) -> usize {
        self.step1_removed + self.step2_removed + self.step3_reencoded
    }

    /// Accumulates another report.
    pub fn absorb(&mut self, other: PruneReport) {
        self.step1_removed += other.step1_removed;
        self.step2_removed += other.step2_removed;
        self.step3_reencoded += other.step3_reencoded;
    }
}

/// Cap on the subnode pairs `|A| · |B|` substep 3 considers for one root pair:
/// it guards against enumerating astronomically many subnode pairs for two huge
/// roots.  Pairs above the cap are skipped (they are never profitable to flatten
/// in practice).
const MAX_PAIR_PRODUCT: usize = 4_000_000;

/// Every current root, ascending: the region of whole-summary pruning.
fn all_roots(engine: &MergeEngine) -> Vec<SupernodeId> {
    engine.summary().roots().collect()
}

/// Substep 1: removes every alive non-leaf supernode with no incident p/n-edge.
/// Returns the number of supernodes removed.
pub fn prune_step1(engine: &mut MergeEngine) -> usize {
    prune_step1_region(engine, &mut all_roots(engine))
}

/// Substep 1 restricted to the trees of `region` roots (distinct ids).  When a
/// *root* of the region is removed, its promoted children are appended to
/// `region` (they are new region roots for the following substeps).  Returns the
/// number removed.
fn prune_step1_region(engine: &mut MergeEngine, region: &mut Vec<SupernodeId>) -> usize {
    // Only internal nodes are candidates, so leaves are never collected.  The
    // trees are disjoint, so every node is collected once.
    let summary = engine.summary();
    let mut nodes: Vec<SupernodeId> = Vec::new();
    let mut stack: Vec<SupernodeId> = Vec::new();
    for &r in region.iter() {
        if summary.is_root(r) && !summary.supernode(r).is_leaf() {
            stack.push(r);
        }
        while let Some(x) = stack.pop() {
            nodes.push(x);
            stack.extend(
                summary
                    .children(x)
                    .iter()
                    .filter(|&&c| !summary.supernode(c).is_leaf()),
            );
        }
    }
    // Sorted-id order.  Pruning a node never makes another node newly edge-free
    // (it has no edges to move) nor turns one into a leaf, so one pass suffices.
    nodes.sort_unstable();
    let mut removed = 0usize;
    for id in nodes {
        let summary = engine.summary();
        if summary.incident_count(id) == 0 {
            if summary.is_root(id) {
                region.extend_from_slice(summary.children(id));
            }
            engine.prune_supernode(id);
            removed += 1;
        }
    }
    removed
}

/// Substep 2: removes every alive non-leaf **root** whose only incident p/n-edge is a
/// single non-loop edge `(A, B)`, pushing that edge down to `A`'s children (flipping
/// against existing opposite-sign edges).  Returns the number of roots removed.
pub fn prune_step2(engine: &mut MergeEngine) -> usize {
    prune_step2_region(engine, &mut all_roots(engine))
}

/// Substep 2 restricted to `region` roots, as a work loop over a root queue
/// (LIFO, so a sorted region is processed in descending-id order; promoted
/// children re-enter the queue).  Promoted children also join `region`, so
/// callers keep their region root set current.
fn prune_step2_region(engine: &mut MergeEngine, region: &mut Vec<SupernodeId>) -> usize {
    let mut queue: Vec<SupernodeId> = region.clone();
    let mut removed = 0usize;
    while let Some(a) = queue.pop() {
        let summary = engine.summary();
        if !summary.is_alive(a) || !summary.is_root(a) || summary.supernode(a).is_leaf() {
            continue;
        }
        if summary.incident_count(a) != 1 {
            continue;
        }
        let b = summary.incident(a).next().expect("one incident edge");
        if b == a {
            continue; // the single edge is a self-loop: not eligible
        }
        let sign = summary.edge_sign(a, b).expect("incident edge");
        let children: Vec<SupernodeId> = summary.children(a).to_vec();
        // Guard (see module docs of `encoder`): the push-down is net-preserving only
        // when no child already carries a same-sign edge to `b`.
        let conflict = children
            .iter()
            .any(|&c| summary.edge_sign(c, b) == Some(sign));
        if conflict {
            continue;
        }
        // Remove A (drops (A, B) and the |children| h-edges, making children roots).
        engine.prune_supernode(a);
        removed += 1;
        for &c in &children {
            match engine.summary().edge_sign(c, b) {
                // Opposite sign: +1 and −1 cancelled before, so simply drop it.
                Some(existing) if existing != sign => {
                    engine.remove_pn_edge(c, b);
                }
                Some(_) => unreachable!("conflict guard"),
                None => {
                    engine.add_pn_edge(c, b, sign.weight() as i8);
                }
            }
            // Newly promoted roots may themselves become eligible.
            queue.push(c);
        }
        region.extend_from_slice(&children);
    }
    removed
}

/// Substep 3: for every root pair (including a root with itself) connected by at least
/// one p/n-edge between their trees, re-encode the subedges between the two member
/// sets with the flat-model optimum when that is strictly cheaper.  Returns the number
/// of pairs re-encoded.
pub fn prune_step3<G: AdjacencyList>(engine: &mut MergeEngine, graph: &G) -> usize {
    let roots = all_roots(engine);
    prune_step3_region_flat(engine, graph, &roots)
}

/// Root of `x` through a lazy arena-indexed memo (`SupernodeId::MAX` = not yet
/// computed), stamping the whole parent chain on first touch.  Valid only while
/// tree structure is unchanged — substep 3 rewrites edges, never structure.
fn memo_root_of(
    summary: &HierarchicalSummary,
    memo: &mut [SupernodeId],
    chain: &mut Vec<SupernodeId>,
    x: SupernodeId,
) -> SupernodeId {
    let mut cur = x;
    chain.clear();
    loop {
        let m = memo[cur as usize];
        if m != SupernodeId::MAX {
            for &c in chain.iter() {
                memo[c as usize] = m;
            }
            return m;
        }
        chain.push(cur);
        match summary.parent(cur) {
            Some(p) => cur = p,
            None => {
                for &c in chain.iter() {
                    memo[c as usize] = cur;
                }
                return cur;
            }
        }
    }
}

/// Substep 3 restricted to pairs with at least one root in `region` (sorted):
/// each region root is paired with every root its tree shares a p/n-edge with
/// (its summary-adjacent partners, and itself for intra-tree edges).  Roots are
/// visited in ascending order, and an in-region pair is handled at its smaller
/// root's turn.  All bookkeeping lives on dense arena-indexed scratch: a lazy
/// leaf/supernode → root memo, a partner → slot array reset via a touched list,
/// and per-slot edge buckets and subedge counters reused across roots.  Pinned
/// pair-for-pair identical to the hash-map reference in this module's tests.
///
/// The visit order cannot change the result: the pairs' edge sets are disjoint
/// and re-encoding one pair touches only edges between its own two trees.  The
/// subedge totals are counted lazily at each root's turn; the graph never
/// changes during the substep, and counting pair `(a, b)` fully from `a`'s
/// member adjacency (`u < w` within the pair itself) counts every subedge
/// between the two trees once.
fn prune_step3_region_flat<G: AdjacencyList>(
    engine: &mut MergeEngine,
    graph: &G,
    region: &[SupernodeId],
) -> usize {
    let arena_len = engine.summary().arena_len();
    let mut node_root: Vec<SupernodeId> = vec![SupernodeId::MAX; arena_len];
    let mut chain: Vec<SupernodeId> = Vec::new();
    // Dense partner index: arena-indexed slot table, reset between roots through
    // the touched list; buckets and counters are pooled per slot.
    let mut partner_slot: Vec<u32> = vec![u32::MAX; arena_len];
    let mut partners_touched: Vec<SupernodeId> = Vec::new();
    let mut partner_edges: Vec<Vec<(SupernodeId, SupernodeId)>> = Vec::new();
    let mut partner_subedges: Vec<usize> = Vec::new();
    let mut partners: Vec<SupernodeId> = Vec::new();
    let mut incident: Vec<SupernodeId> = Vec::new();
    let mut tree: Vec<SupernodeId> = Vec::new();
    let mut reencoded = 0usize;
    for &a in region {
        if !engine.summary().is_root(a) {
            continue; // removed by an earlier substep of this pass
        }
        for &p in &partners_touched {
            partner_slot[p as usize] = u32::MAX;
        }
        partners_touched.clear();
        let summary = engine.summary();
        // One depth-first scan over the tree's incident edges, bucketed by
        // partner root; edge-free nodes are passed over.
        tree.clear();
        tree.push(a);
        while let Some(x) = tree.pop() {
            tree.extend_from_slice(summary.children(x));
            if summary.incident_count(x) == 0 {
                continue;
            }
            incident.clear();
            incident.extend(summary.incident(x));
            incident.sort_unstable();
            for &y in &incident {
                let partner = memo_root_of(summary, &mut node_root, &mut chain, y);
                // Intra-tree edges are seen from both endpoints; record them once
                // (self-loops appear once in the incidence set already).
                if partner == a && y < x {
                    continue;
                }
                let mut slot = partner_slot[partner as usize];
                if slot == u32::MAX {
                    slot = partners_touched.len() as u32;
                    partner_slot[partner as usize] = slot;
                    partners_touched.push(partner);
                    if partner_edges.len() <= slot as usize {
                        partner_edges.push(Vec::new());
                        partner_subedges.push(0);
                    }
                    partner_edges[slot as usize].clear();
                    partner_subedges[slot as usize] = 0;
                }
                partner_edges[slot as usize].push((x, y));
            }
        }
        // An in-region pair is handled at its smaller root's (earlier) turn.
        // With no pair left to decide, the member sweep below is skipped.
        partners.clear();
        partners.extend(
            partners_touched
                .iter()
                .copied()
                .filter(|&b| b >= a || region.binary_search(&b).is_err()),
        );
        if partners.is_empty() {
            continue;
        }
        partners.sort_unstable();
        // Full subedge totals for every partner pair, in one sweep over the
        // member adjacency: each subedge once — from `a`'s side for cross pairs,
        // `u < w` within the pair itself.
        for &u in summary.members(a) {
            for &w in graph.neighbors(u) {
                let r = memo_root_of(summary, &mut node_root, &mut chain, w as SupernodeId);
                if r != a || u < w {
                    let slot = partner_slot[r as usize];
                    if slot != u32::MAX {
                        partner_subedges[slot as usize] += 1;
                    }
                }
            }
        }
        for &b in &partners {
            let slot = partner_slot[b as usize] as usize;
            let existing = partner_subedges[slot];
            if flatten_pair_if_cheaper(engine, graph, a, b, &partner_edges[slot], existing) {
                reencoded += 1;
            }
        }
    }
    reencoded
}

/// The substep-3 decision for one root pair: given the pair's current p/n-edges
/// (`edges`) and the number of subedges between the two member sets
/// (`existing`), re-encode flat (sparse p-edges, or superedge + n-edges) when
/// strictly cheaper.  Pairs above [`MAX_PAIR_PRODUCT`] are left as they are.
/// Returns whether the pair was re-encoded.
fn flatten_pair_if_cheaper<G: AdjacencyList>(
    engine: &mut MergeEngine,
    graph: &G,
    root_a: SupernodeId,
    root_b: SupernodeId,
    edges: &[(SupernodeId, SupernodeId)],
    existing: usize,
) -> bool {
    let summary = engine.summary();
    let size_a = summary.members(root_a).len();
    let size_b = summary.members(root_b).len();
    let total_pairs = if root_a == root_b {
        size_a * (size_a.saturating_sub(1)) / 2
    } else {
        size_a * size_b
    };
    if total_pairs == 0 || total_pairs > MAX_PAIR_PRODUCT {
        return false;
    }
    let current_cost = edges.len();
    let sparse_cost = existing; // one p-edge per subedge
    let dense_cost = total_pairs - existing + 1; // superedge + one n-edge per non-edge
    let flat_cost = sparse_cost.min(dense_cost);
    if flat_cost >= current_cost {
        return false;
    }
    // Remove the current encoding of this pair ...
    for &(x, y) in edges {
        engine.remove_pn_edge(x, y);
    }
    // ... and re-encode flat.
    if sparse_cost <= dense_cost {
        let mut pairs = Vec::new();
        collect_subedges_between(engine.summary(), graph, root_a, root_b, &mut pairs);
        for (u, v) in pairs {
            engine.add_pn_edge(u, v, 1);
        }
    } else {
        engine.add_pn_edge(root_a, root_b, 1);
        let mut missing = Vec::new();
        collect_missing_pairs_between(engine.summary(), graph, root_a, root_b, &mut missing);
        for (u, v) in missing {
            engine.add_pn_edge(u, v, -1);
        }
    }
    true
}

/// Collects the subedges of `graph` with one endpoint in each root's member set
/// (or both endpoints in the same set when `root_a == root_b`), sweeping the
/// smaller member set's adjacency and finding each neighbor's root by parent
/// chasing.  Runs only for a pair that is being re-encoded sparse.
fn collect_subedges_between<G: AdjacencyList>(
    summary: &HierarchicalSummary,
    graph: &G,
    root_a: SupernodeId,
    root_b: SupernodeId,
    out: &mut Vec<(NodeId, NodeId)>,
) {
    let (iterate, other) = if summary.members(root_a).len() <= summary.members(root_b).len() {
        (root_a, root_b)
    } else {
        (root_b, root_a)
    };
    for &u in summary.members(iterate) {
        for &w in graph.neighbors(u) {
            if summary.root_of(w as SupernodeId) != other {
                continue;
            }
            if root_a == root_b {
                if u < w {
                    out.push((u, w));
                }
            } else {
                out.push((u, w));
            }
        }
    }
}

/// Collects the *non*-adjacent subnode pairs between the two roots' member sets.
fn collect_missing_pairs_between<G: AdjacencyList>(
    summary: &HierarchicalSummary,
    graph: &G,
    root_a: SupernodeId,
    root_b: SupernodeId,
    out: &mut Vec<(NodeId, NodeId)>,
) {
    if root_a == root_b {
        let members = summary.members(root_a);
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                if !graph.has_edge(u, v) {
                    out.push((u, v));
                }
            }
        }
    } else {
        for &u in summary.members(root_a) {
            for &v in summary.members(root_b) {
                if !graph.has_edge(u, v) {
                    out.push((u, v));
                }
            }
        }
    }
}

/// Whole-summary pruning: [`prune_region`] with every current root as the
/// region.  `rounds` passes of substeps 1 → 2 → 3 (the paper notes the substeps
/// "can be repeated a few times"), stopping early once a pass changes nothing.
pub fn prune_all<G: AdjacencyList>(
    engine: &mut MergeEngine,
    graph: &G,
    rounds: usize,
) -> PruneReport {
    let roots = all_roots(engine);
    prune_region(engine, graph, &roots, rounds)
}

/// Region-restricted pruning: `rounds` passes of substeps 1 → 2 → 3 over the trees
/// of `region` roots and the root pairs they form with their summary-adjacent
/// partners, stopping early once a pass changes nothing.
///
/// Work is proportional to the region's trees and their incident edges, never to
/// the whole summary — this is the per-batch pruning primitive of the streaming
/// engine (see the module docs).  Roots promoted by substeps 1–2 (children of a
/// removed region root) join the region for the remaining substeps and rounds.
/// Region ids that stop being roots are skipped, so the caller may pass a stale
/// superset.
pub fn prune_region<G: AdjacencyList>(
    engine: &mut MergeEngine,
    graph: &G,
    region: &[SupernodeId],
    rounds: usize,
) -> PruneReport {
    prune_region_rounds(engine, region, rounds, |engine, region| {
        prune_step3_region_flat(engine, graph, region)
    })
}

/// The round loop of [`prune_region`], with substep 3 passed in so this
/// module's tests can drive the hash-map reference through the same rounds.
fn prune_region_rounds(
    engine: &mut MergeEngine,
    region: &[SupernodeId],
    rounds: usize,
    mut step3: impl FnMut(&mut MergeEngine, &[SupernodeId]) -> usize,
) -> PruneReport {
    let mut region: Vec<SupernodeId> = region
        .iter()
        .copied()
        .filter(|&r| engine.summary().is_root(r))
        .collect();
    region.sort_unstable();
    region.dedup();
    let mut report = PruneReport::default();
    for _ in 0..rounds {
        if region.is_empty() {
            break;
        }
        let step1_removed = prune_step1_region(engine, &mut region);
        let step2_removed = prune_step2_region(engine, &mut region);
        // Promoted children entered `region` unsorted; restore the deterministic
        // sorted visit order and drop stale ids before the pair stage.
        region.retain(|&r| engine.summary().is_root(r));
        region.sort_unstable();
        region.dedup();
        let pass = PruneReport {
            step1_removed,
            step2_removed,
            step3_reencoded: step3(engine, &region),
        };
        let changed = pass.total_changes() > 0;
        report.absorb(pass);
        if !changed {
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::verify_lossless;
    use crate::engine::MergeCtx;
    use crate::model::EdgeSign;
    use slugger_graph::hash::{FxHashMap, FxHashSet};
    use slugger_graph::Graph;

    #[inline]
    fn pair_key(a: SupernodeId, b: SupernodeId) -> (SupernodeId, SupernodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// The original hash-map bookkeeping of the region-restricted substep 3, kept
    /// as the reference [`prune_step3_region_flat`] must match pair for pair.
    fn prune_step3_region<G: AdjacencyList>(
        engine: &mut MergeEngine,
        graph: &G,
        region: &[SupernodeId],
    ) -> usize {
        // Subedge counts for every pair a region root participates in, from ONE
        // sweep over the region's leaf adjacency (graph side — immutable during
        // this substep; substep 3 rewrites edges, never tree structure).
        let region_set: FxHashSet<SupernodeId> = region.iter().copied().collect();
        let mut subedge_count: FxHashMap<(SupernodeId, SupernodeId), usize> = FxHashMap::default();
        {
            let summary = engine.summary();
            for &a in region {
                if !summary.is_root(a) {
                    continue;
                }
                for &u in summary.members(a) {
                    for &w in graph.neighbors(u) {
                        let partner = summary.root_of(w as SupernodeId);
                        // Each subedge must count once: intra-pair when `u < w`,
                        // both-in-region pairs at the smaller root's sweep, and
                        // region-frontier pairs at the (only) region sweep.
                        let counted = if partner == a {
                            u < w
                        } else if region_set.contains(&partner) {
                            a < partner
                        } else {
                            true
                        };
                        if counted {
                            *subedge_count.entry(pair_key(a, partner)).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        let mut reencoded = 0usize;
        let mut seen: FxHashSet<(SupernodeId, SupernodeId)> = FxHashSet::default();
        let mut incident: Vec<SupernodeId> = Vec::new();
        for &a in region {
            if !engine.summary().is_root(a) {
                continue; // removed by an earlier substep of this pass
            }
            // One scan over the tree's incident edges, bucketed by partner root.
            let summary = engine.summary();
            let mut by_partner: FxHashMap<SupernodeId, Vec<(SupernodeId, SupernodeId)>> =
                FxHashMap::default();
            for x in summary.tree_supernodes(a) {
                incident.clear();
                incident.extend(summary.incident(x));
                incident.sort_unstable();
                for &y in &incident {
                    let partner = summary.root_of(y);
                    // Intra-tree edges are seen from both endpoints; record them
                    // once (self-loops appear once in the incidence set already).
                    if partner == a && y < x {
                        continue;
                    }
                    by_partner.entry(partner).or_default().push((x, y));
                }
            }
            let mut partners: Vec<SupernodeId> = by_partner.keys().copied().collect();
            partners.sort_unstable();
            for b in partners {
                let key = pair_key(a, b);
                if !seen.insert(key) {
                    continue;
                }
                let edges = &by_partner[&b];
                let existing = subedge_count.get(&key).copied().unwrap_or(0);
                if flatten_pair_if_cheaper(engine, graph, a, b, edges, existing) {
                    reencoded += 1;
                }
            }
        }
        reencoded
    }

    #[test]
    fn step1_removes_edge_free_internal_nodes() {
        let mut s = HierarchicalSummary::identity(4);
        let m01 = s.merge_roots(0, 1);
        let m = s.merge_roots(m01, 2);
        // Only the top supernode carries an edge; m01 is edge-free and prunable.
        s.set_edge(m, 3, EdgeSign::Positive);
        let cost_before = s.encoding_cost();
        let mut engine = MergeEngine::from_summary(s);
        let removed = prune_step1(&mut engine);
        assert_eq!(removed, 1);
        let s = engine.summary();
        assert!(!s.is_alive(m01));
        assert!(s.encoding_cost() < cost_before);
        engine.validate().unwrap();
    }

    #[test]
    fn step1_keeps_nodes_with_edges() {
        let mut s = HierarchicalSummary::identity(3);
        let m = s.merge_roots(0, 1);
        s.set_edge(m, 2, EdgeSign::Positive);
        let mut engine = MergeEngine::from_summary(s);
        assert_eq!(prune_step1(&mut engine), 0);
        assert!(engine.summary().is_alive(m));
    }

    #[test]
    fn step2_pushes_single_edge_down() {
        // Root m = {0, 1} whose only edge is (m, 2); removing m re-attaches the edge to
        // its children 0 and 1 (cost 2+1=3 -> 2).
        let mut s = HierarchicalSummary::identity(3);
        let m = s.merge_roots(0, 1);
        s.set_edge(m, 2, EdgeSign::Positive);
        let graph = Graph::from_edges(3, vec![(0, 2), (1, 2)]);
        verify_lossless(&s, &graph).unwrap();
        let before = s.encoding_cost();
        let mut engine = MergeEngine::from_summary(s);
        let removed = prune_step2(&mut engine);
        assert_eq!(removed, 1);
        let s = engine.summary();
        assert!(!s.is_alive(m));
        assert!(s.encoding_cost() < before);
        verify_lossless(s, &graph).unwrap();
        engine.validate().unwrap();
    }

    #[test]
    fn step2_cancels_opposite_child_edges() {
        // m = {0, 1}; edges: p (m, 2) and n (0, 2): node 0 is NOT adjacent to 2 but 1 is.
        let mut s = HierarchicalSummary::identity(3);
        let m = s.merge_roots(0, 1);
        s.set_edge(m, 2, EdgeSign::Positive);
        s.set_edge(0, 2, EdgeSign::Negative);
        let graph = Graph::from_edges(3, vec![(1, 2)]);
        verify_lossless(&s, &graph).unwrap();
        // m has one incident edge? No: (m,2) only — (0,2) is incident to the leaf 0.
        let mut engine = MergeEngine::from_summary(s);
        let removed = prune_step2(&mut engine);
        assert_eq!(removed, 1);
        // After pushing down: the n-edge (0,2) cancels, leaving just p (1,2).
        let s = engine.summary();
        assert_eq!(s.num_p_edges(), 1);
        assert_eq!(s.num_n_edges(), 0);
        verify_lossless(s, &graph).unwrap();
        engine.validate().unwrap();
    }

    #[test]
    fn step2_skips_roots_with_multiple_edges() {
        let mut s = HierarchicalSummary::identity(4);
        let m = s.merge_roots(0, 1);
        s.set_edge(m, 2, EdgeSign::Positive);
        s.set_edge(m, 3, EdgeSign::Positive);
        let mut engine = MergeEngine::from_summary(s);
        assert_eq!(prune_step2(&mut engine), 0);
        assert!(engine.summary().is_alive(m));
    }

    #[test]
    fn step3_flattens_wasteful_encodings() {
        // Build a summary where the hierarchical encoding of a sparse connection is
        // wasteful: supernode {0,1} and {2,3} joined by a p-edge plus two n-edges,
        // even though only one subedge (0,2) exists.  Flat encoding costs 1.
        let graph = Graph::from_edges(4, vec![(0, 2)]);
        let mut s = HierarchicalSummary::identity(4);
        let a = s.merge_roots(0, 1);
        let b = s.merge_roots(2, 3);
        s.set_edge(a, b, EdgeSign::Positive);
        s.set_edge(0, 3, EdgeSign::Negative);
        s.set_edge(1, 2, EdgeSign::Negative);
        s.set_edge(1, 3, EdgeSign::Negative);
        verify_lossless(&s, &graph).unwrap();
        let before = s.num_p_edges() + s.num_n_edges();
        let mut engine = MergeEngine::from_summary(s);
        let changed = prune_step3(&mut engine, &graph);
        assert_eq!(changed, 1);
        let s = engine.summary();
        let after = s.num_p_edges() + s.num_n_edges();
        assert!(after < before, "{after} !< {before}");
        assert_eq!(after, 1);
        verify_lossless(s, &graph).unwrap();
        engine.validate().unwrap();
    }

    #[test]
    fn step3_prefers_dense_superedge_encoding() {
        // Two supernodes {0,1}, {2,3} that are fully connected except (1,3): the dense
        // encoding (superedge + one n-edge) costs 2 and beats three leaf p-edges.
        let graph = Graph::from_edges(4, vec![(0, 2), (0, 3), (1, 2)]);
        // Current encoding: one leaf-level p-edge per subedge (the sparse optimum,
        // cost 3); the dense encoding (superedge + n-edge (1,3)) costs 2 and wins.
        let mut s = HierarchicalSummary::identity(4);
        let a = s.merge_roots(0, 1);
        let b = s.merge_roots(2, 3);
        s.set_edge(0, 2, EdgeSign::Positive);
        s.set_edge(0, 3, EdgeSign::Positive);
        s.set_edge(1, 2, EdgeSign::Positive);
        verify_lossless(&s, &graph).unwrap();
        let mut engine = MergeEngine::from_summary(s);
        let changed = prune_step3(&mut engine, &graph);
        // Sparse cost (3) == current cost (3): nothing to do; dense cost is 2 via
        // superedge + n-edge, which IS cheaper, so the pair must be re-encoded.
        assert_eq!(changed, 1);
        let s = engine.summary();
        assert_eq!(s.num_p_edges() + s.num_n_edges(), 2);
        assert_eq!(s.edge_sign(a, b), Some(EdgeSign::Positive));
        verify_lossless(s, &graph).unwrap();
        engine.validate().unwrap();
    }

    /// Eight nodes, two of them hubs over a merged 4-node tree: real engine
    /// merges leave internal nodes and edges for every substep to act on.
    fn hub_fixture() -> (Graph, MergeEngine) {
        let graph = Graph::from_edges(
            8,
            vec![
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 5),
                (6, 0),
                (7, 1),
                (6, 7),
            ],
        );
        let mut engine = MergeEngine::new(&graph);
        let mut ctx = MergeCtx::new();
        let m1 = engine.apply_merge(2, 3, &mut ctx);
        let m2 = engine.apply_merge(4, 5, &mut ctx);
        let _m3 = engine.apply_merge(m1, m2, &mut ctx);
        (graph, engine)
    }

    /// Caveman-120 after 40 deterministic merges, which pile up hierarchical
    /// (often wasteful) encodings.
    fn caveman_fixture() -> (Graph, MergeEngine) {
        use slugger_graph::gen::{caveman, CavemanConfig};
        let graph = caveman(&CavemanConfig {
            num_nodes: 120,
            num_cliques: 15,
            min_clique: 5,
            max_clique: 9,
            rewire_probability: 0.05,
            seed: 42,
        });
        let mut engine = MergeEngine::new(&graph);
        let mut ctx = MergeCtx::new();
        for i in 0..40u32 {
            let (a, b) = (3 * i % 120, (3 * i + 1) % 120);
            if engine.summary().is_root(a) && engine.summary().is_root(b) {
                engine.apply_merge(a, b, &mut ctx);
            }
        }
        (graph, engine)
    }

    #[test]
    fn full_pruning_preserves_losslessness_after_real_merges() {
        // Run real merges through the engine, then prune, and confirm the decoded
        // graph never changes.
        let (graph, mut engine) = hub_fixture();
        verify_lossless(engine.summary(), &graph).unwrap();
        let report = prune_all(&mut engine, &graph, 3);
        let summary = engine.summary();
        assert!(report.total_changes() > 0 || summary.encoding_cost() <= graph.num_edges());
        verify_lossless(summary, &graph).unwrap();
        engine.validate().unwrap();
    }

    #[test]
    fn live_engine_prune_matches_a_rebuilt_engine_prune() {
        // `Slugger::summarize` prunes the engine its merges left behind; a caller
        // with a bare summary prunes an engine rebuilt around it.  Both must
        // produce the identical summary, with exact engine bookkeeping after.
        for (graph, mut live) in [hub_fixture(), caveman_fixture()] {
            let mut rebuilt = MergeEngine::from_summary(live.summary().clone());
            let report_live = prune_all(&mut live, &graph, 3);
            let report_rebuilt = prune_all(&mut rebuilt, &graph, 3);
            assert!(report_live.total_changes() > 0, "fixture must prune");
            assert_eq!(report_live, report_rebuilt);
            assert_summaries_identical(live.summary(), rebuilt.summary());
            for engine in [&live, &rebuilt] {
                engine.validate().unwrap();
                verify_lossless(engine.summary(), &graph).unwrap();
            }
        }
    }

    #[test]
    fn region_prune_only_touches_the_region() {
        // Two independent wasteful encodings; pruning the region around one must
        // leave the other untouched.
        let graph = Graph::from_edges(8, vec![(0, 2), (4, 6)]);
        let mut s = HierarchicalSummary::identity(8);
        let a = s.merge_roots(0, 1);
        let b = s.merge_roots(2, 3);
        s.set_edge(a, b, EdgeSign::Positive);
        s.set_edge(0, 3, EdgeSign::Negative);
        s.set_edge(1, 2, EdgeSign::Negative);
        s.set_edge(1, 3, EdgeSign::Negative);
        let c = s.merge_roots(4, 5);
        let d = s.merge_roots(6, 7);
        s.set_edge(c, d, EdgeSign::Positive);
        s.set_edge(4, 7, EdgeSign::Negative);
        s.set_edge(5, 6, EdgeSign::Negative);
        s.set_edge(5, 7, EdgeSign::Negative);
        verify_lossless(&s, &graph).unwrap();
        let mut engine = MergeEngine::from_summary(s);
        let report = prune_region(&mut engine, &graph, &[a], 3);
        assert!(report.total_changes() > 0);
        verify_lossless(engine.summary(), &graph).unwrap();
        // The (c, d) pair kept its wasteful encoding: the region never reached it.
        assert_eq!(engine.summary().edge_sign(c, d), Some(EdgeSign::Positive));
        // A region prune of `[c, d]` afterwards cleans it up.
        let report = prune_region(&mut engine, &graph, &[c, d], 3);
        assert!(report.total_changes() > 0);
        assert_eq!(engine.summary().edge_sign(c, d), None);
        verify_lossless(engine.summary(), &graph).unwrap();
        engine.validate().unwrap();
    }

    /// Byte-level comparison of two summaries (arena structure + p/n-edges).
    fn assert_summaries_identical(a: &HierarchicalSummary, b: &HierarchicalSummary) {
        assert_eq!(a.arena_len(), b.arena_len());
        for id in 0..a.arena_len() as SupernodeId {
            assert_eq!(a.parent(id), b.parent(id), "parent of {id}");
            assert_eq!(a.children(id), b.children(id), "children of {id}");
            assert_eq!(a.members(id), b.members(id), "members of {id}");
            assert_eq!(a.is_alive(id), b.is_alive(id), "alive of {id}");
        }
        let mut ea: Vec<_> = a.pn_edges().collect();
        let mut eb: Vec<_> = b.pn_edges().collect();
        ea.sort_unstable_by_key(|&(k, _)| k);
        eb.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(ea, eb);
    }

    #[test]
    fn flat_pair_index_is_byte_identical_to_the_hash_path() {
        let (graph, engine) = caveman_fixture();
        let base = engine.summary().clone();
        let roots: Vec<SupernodeId> = base.roots().collect();
        // A full region, then a strict sub-region: the latter exercises the
        // in-region vs frontier split of the smaller-root-first dedup and the
        // subedge counting rules.
        let sub: Vec<SupernodeId> = roots.iter().copied().step_by(3).collect();
        for (region, full) in [(&roots, true), (&sub, false)] {
            let mut flat = MergeEngine::from_summary(base.clone());
            let mut hash = MergeEngine::from_summary(base.clone());
            let report_flat = prune_region(&mut flat, &graph, region, 3);
            let report_hash = prune_region_rounds(&mut hash, region, 3, |engine, region| {
                prune_step3_region(engine, &graph, region)
            });
            assert_eq!(report_flat, report_hash);
            if full {
                assert!(
                    report_flat.total_changes() > 0,
                    "fixture must exercise pruning"
                );
            }
            assert_summaries_identical(flat.summary(), hash.summary());
            verify_lossless(flat.summary(), &graph).unwrap();
        }
    }
}
