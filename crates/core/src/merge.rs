//! The merging step (Algorithm 2): within each candidate set, repeatedly pick a random
//! root `A`, find the partner `B` maximizing `Saving(A, B, G)` (Eq. 8), and merge the
//! pair when the saving clears the iteration threshold `θ(t)` (Eq. 9).
//!
//! # Bound-and-skip
//!
//! Only the argmax matters, and only if it reaches `θ(t)`.  The partner search
//! therefore passes its current best saving and the threshold down as a
//! [`MergeCutoff`]: the evaluation first bounds the pair's saving from its two
//! roots' adjacency counts and skips the pair — no panel read, no Case-1/Case-2
//! solve — when the bound cannot beat the best so far (the search keeps the first
//! of equal savings) or cannot reach `θ(t)`.  The bound holds bit-exactly, so the
//! first-position argmax is never skipped, every `θ(t)` decision is unchanged and
//! the RNG stream is untouched: plans are identical to evaluating every pair,
//! which `testsupport::reference_plan_candidate_set` still does as the oracle.

use crate::engine::apply::{MergeRef, PlannedMerge};
use crate::engine::{MergeCtx, MergeCutoff, MergeState};
use crate::model::SupernodeId;
use rand::rngs::StdRng;
use rand::RngExt;
use slugger_graph::hash::FxHashMap;

/// The merging threshold `θ(t)` of Eq. 9: high early on (so only clearly beneficial
/// pairs merge first), zero at the final iteration (so any non-worsening merge is
/// taken).
pub fn merging_threshold(iteration: usize, total_iterations: usize) -> f64 {
    if iteration >= total_iterations {
        0.0
    } else {
        1.0 / (1.0 + iteration as f64)
    }
}

/// Statistics of one merging pass over a single candidate set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Number of candidate pairs considered as pivot–partner pairs (live roots
    /// within the height bound), whether evaluated in full or bounded out.
    pub evaluated: usize,
    /// Considered pairs skipped because an upper bound on their saving showed
    /// they could not beat the best partner so far or reach `θ(t)`.
    pub bounded_out: usize,
    /// Number of merges performed.
    pub merged: usize,
    /// Panel blocks the planning overlay probed from the edge map (see
    /// [`crate::engine::plan`]); 0 when planning in place on the engine, which
    /// probes every block.
    pub panel_blocks_built: usize,
    /// Panel block requests the planning overlay served from its per-set cache.
    pub panel_blocks_served: usize,
}

impl MergeStats {
    /// Accumulates another batch of statistics.
    pub fn absorb(&mut self, other: MergeStats) {
        self.evaluated += other.evaluated;
        self.bounded_out += other.bounded_out;
        self.merged += other.merged;
        self.panel_blocks_built += other.panel_blocks_built;
        self.panel_blocks_served += other.panel_blocks_served;
    }
}

/// Options for the merging step.
#[derive(Clone, Copy, Debug)]
pub struct MergeOptions {
    /// Threshold `θ(t)` for the current iteration.
    pub threshold: f64,
    /// Optional upper bound on the hierarchy-tree height (the Table V variant): a merge
    /// is skipped when the resulting tree would exceed this height.
    pub height_bound: Option<usize>,
}

/// Plans one candidate set `D` (Algorithm 2): merges greedily until every root has
/// been considered once as the pivot `A`, recording each merge as a
/// [`PlannedMerge`] so the sequence can be replayed on the authoritative engine by
/// the [`crate::engine::apply`] reconciliation layer.  Partners that provably
/// cannot win are bounded out rather than evaluated (see the module docs).
///
/// The merges *are applied* to the given [`MergeState`] — in the sharded pipeline
/// that is a per-set copy-on-write overlay over the frozen iteration view; planning
/// directly on the authoritative [`crate::engine::MergeEngine`] is the in-place
/// special case (this module's tests).
pub fn plan_candidate_set<E: MergeState>(
    engine: &mut E,
    ctx: &mut MergeCtx,
    candidate_set: &[SupernodeId],
    options: &MergeOptions,
    rng: &mut StdRng,
) -> (Vec<PlannedMerge>, MergeStats) {
    let mut stats = MergeStats::default();
    // The pivot queue and the planned-product index are pooled in the context's
    // scratch (taken out for the duration of the call so the evaluate/apply calls
    // below can still borrow `ctx`); the merges vector is recycled from the pool
    // when a consumer has returned one.
    let mut merges: Vec<PlannedMerge> = ctx.scratch.merge_pool.pop().unwrap_or_default();
    merges.clear();
    // Supernodes created by this set's own merges, mapped to their plan position so
    // later merges can reference them positionally (engine-local ids are not stable
    // across a replay).
    let mut planned_ids: FxHashMap<SupernodeId, usize> =
        std::mem::take(&mut ctx.scratch.planned_ids);
    planned_ids.clear();
    // Q ← D; in the sharded pipeline candidate sets are disjoint, but stay defensive
    // against callers feeding stale ids (e.g. hand-built sets in tests).
    let mut queue: Vec<SupernodeId> = std::mem::take(&mut ctx.scratch.plan_queue);
    queue.clear();
    queue.extend(candidate_set.iter().copied().filter(|&r| engine.is_root(r)));
    while queue.len() > 1 {
        // Pick and remove a random pivot A.
        let idx = rng.random_range(0..queue.len());
        let a = queue.swap_remove(idx);
        if !engine.is_root(a) {
            continue;
        }
        // Find the partner with maximum saving.
        let mut best: Option<(usize, f64)> = None;
        for (pos, &z) in queue.iter().enumerate() {
            if z == a || !engine.is_root(z) {
                continue;
            }
            if let Some(bound) = options.height_bound {
                let new_height = engine.root_height(a).max(engine.root_height(z)) + 1;
                if new_height > bound {
                    continue;
                }
            }
            stats.evaluated += 1;
            let cutoff = MergeCutoff {
                best: best.map(|(_, s)| s),
                threshold: options.threshold,
            };
            let Some(eval) = engine.evaluate_merge_bounded(a, z, ctx, &cutoff) else {
                stats.bounded_out += 1;
                continue;
            };
            if best.is_none_or(|(_, s)| eval.saving > s) {
                best = Some((pos, eval.saving));
            }
        }
        let Some((pos, saving)) = best else { continue };
        if saving >= options.threshold {
            let b = queue[pos];
            let as_ref = |id: SupernodeId| match planned_ids.get(&id) {
                Some(&i) => MergeRef::Planned(i),
                None => MergeRef::Root(id),
            };
            merges.push(PlannedMerge {
                a: as_ref(a),
                b: as_ref(b),
            });
            let merged = engine.apply_merge(a, b, ctx);
            planned_ids.insert(merged, merges.len() - 1);
            stats.merged += 1;
            // Q ← (Q \ {B}) ∪ {A ∪ B}
            queue[pos] = merged;
        }
    }
    ctx.scratch.plan_queue = queue;
    ctx.scratch.planned_ids = planned_ids;
    (merges, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MergeEngine;
    use rand::SeedableRng;
    use slugger_graph::Graph;

    #[test]
    fn threshold_schedule_matches_eq9() {
        assert!((merging_threshold(1, 20) - 0.5).abs() < 1e-12);
        assert!((merging_threshold(2, 20) - 1.0 / 3.0).abs() < 1e-12);
        assert!((merging_threshold(19, 20) - 0.05).abs() < 1e-12);
        assert_eq!(merging_threshold(20, 20), 0.0);
        assert_eq!(merging_threshold(25, 20), 0.0);
    }

    fn twin_heavy_graph() -> Graph {
        // Two hubs (0, 1) and six twin spokes attached to both: ideal merge fodder.
        let mut edges = Vec::new();
        for spoke in 2..8u32 {
            edges.push((0, spoke));
            edges.push((1, spoke));
        }
        edges.push((0, 1));
        Graph::from_edges(8, edges)
    }

    #[test]
    fn processing_a_candidate_set_merges_twins() {
        let g = twin_heavy_graph();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut rng = StdRng::seed_from_u64(3);
        let spokes: Vec<SupernodeId> = (2..8).collect();
        let before = engine.summary().encoding_cost();
        let (merges, stats) = plan_candidate_set(
            &mut engine,
            &mut ctx,
            &spokes,
            &MergeOptions {
                threshold: 0.0,
                height_bound: None,
            },
            &mut rng,
        );
        ctx.recycle_merges(merges);
        assert!(stats.evaluated > 0);
        assert!(
            stats.merged >= 4,
            "expected most twins to merge, got {stats:?}"
        );
        // Merging twins is cost-neutral before pruning (saved p-edges pay for the new
        // h-edges); the gain appears once edge-free internal supernodes are pruned.
        let after = engine.summary().encoding_cost();
        assert!(after <= before, "cost must not grow ({before} -> {after})");
        crate::prune::prune_all(&mut engine, &g, 2);
        let summary = engine.summary();
        assert!(
            summary.encoding_cost() < before,
            "pruned cost should drop ({before} -> {})",
            summary.encoding_cost()
        );
        crate::decode::verify_lossless(summary, &g).unwrap();
    }

    #[test]
    fn high_threshold_blocks_marginal_merges() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut rng = StdRng::seed_from_u64(5);
        let all: Vec<SupernodeId> = (0..4).collect();
        let (merges, stats) = plan_candidate_set(
            &mut engine,
            &mut ctx,
            &all,
            &MergeOptions {
                threshold: 0.9,
                height_bound: None,
            },
            &mut rng,
        );
        ctx.recycle_merges(merges);
        assert_eq!(stats.merged, 0);
        assert_eq!(engine.num_roots(), 4);
    }

    #[test]
    fn height_bound_limits_tree_growth() {
        let g = twin_heavy_graph();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut rng = StdRng::seed_from_u64(9);
        let spokes: Vec<SupernodeId> = (2..8).collect();
        // Height bound 1: only leaf-leaf merges allowed, so every merged tree has
        // exactly two leaves.
        let (merges, _stats) = plan_candidate_set(
            &mut engine,
            &mut ctx,
            &spokes,
            &MergeOptions {
                threshold: 0.0,
                height_bound: Some(1),
            },
            &mut rng,
        );
        ctx.recycle_merges(merges);
        for root in engine.roots() {
            assert!(engine.root_height(root) <= 1);
            assert!(engine.summary().members(root).len() <= 2);
        }
        engine.summary().validate().unwrap();
    }

    #[test]
    fn stale_candidates_are_skipped() {
        let g = twin_heavy_graph();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut rng = StdRng::seed_from_u64(1);
        // Merge 2 and 3 beforehand; the candidate set still names them.
        let m = engine.apply_merge(2, 3, &mut ctx);
        let candidates: Vec<SupernodeId> = vec![2, 3, 4, 5, m];
        let (merges, stats) = plan_candidate_set(
            &mut engine,
            &mut ctx,
            &candidates,
            &MergeOptions {
                threshold: 0.0,
                height_bound: None,
            },
            &mut rng,
        );
        ctx.recycle_merges(merges);
        // No panic, and some work happened on the live roots.
        assert!(stats.evaluated > 0);
        engine.summary().validate().unwrap();
    }
}
