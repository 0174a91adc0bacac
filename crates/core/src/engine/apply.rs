//! The **apply** (reconciliation) stage of the sharded merge pipeline.
//!
//! Shard workers plan merges speculatively on copy-on-write overlays of the frozen
//! iteration view ([`super::plan::PlanningEngine`]); this module replays those plans
//! against the one authoritative engine.  Replaying goes through the same
//! resolve-then-commit machinery as [`MergeEngine::apply_merge`], i.e. the full
//! Case-1/Case-2 panel re-encoding of Sect. III-B3, so the p/n/h-edge bookkeeping of
//! `Saving(A, B, G)` stays exact on the authoritative state no matter how the
//! planning work was sharded.
//!
//! Replay is serial, in ascending set-index order; that order *is* the pipeline's
//! deterministic reconciliation contract, so the summary is identical for every
//! `parallelism` setting (pinned by `crates/core/tests/apply_invariance.rs`).
//!
//! # Disjointness invariant
//!
//! Correctness rests on the candidate sets being **disjoint**: a plan only ever
//! merges roots drawn from its own candidate set (or supernodes created by its own
//! earlier merges), and no other set names those roots.  Merges applied for other
//! sets can therefore re-encode *edges* incident to this set's trees, but can never
//! merge the trees themselves away — every planned operand is still a root when its
//! turn comes, which [`apply_set_plan`] asserts.

use super::{MergeCtx, MergeEngine};
use crate::merge::MergeStats;
use crate::model::SupernodeId;

/// One operand of a planned merge.
///
/// Supernode ids allocated by a forked engine during planning need not match the ids
/// the authoritative engine will allocate, so plans refer to merge *products*
/// positionally instead of by id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeRef {
    /// A root that already existed when the iteration started (stable id).
    Root(SupernodeId),
    /// The product of the `i`-th earlier merge of the same set plan.
    Planned(usize),
}

/// One planned merge: both operands must resolve to current roots at apply time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedMerge {
    /// First operand (`A` in the paper's notation).
    pub a: MergeRef,
    /// Second operand (`B`).
    pub b: MergeRef,
}

/// The merges planned for one candidate set, in the order they must be applied.
#[derive(Clone, Debug)]
pub struct SetPlan {
    /// Index of the candidate set within the iteration (also the RNG stream index).
    pub set_index: usize,
    /// Ordered merges.
    pub merges: Vec<PlannedMerge>,
    /// Planning statistics (pairs evaluated, merges planned).
    pub stats: MergeStats,
}

/// Replays one set plan on the authoritative engine.  The ids of the created
/// supernodes are left in the context's pooled `created` buffer (in plan order), so
/// replaying allocates nothing per plan.
pub fn apply_set_plan(engine: &mut MergeEngine, ctx: &mut MergeCtx, plan: &SetPlan) {
    let mut created = std::mem::take(&mut ctx.scratch.created);
    created.clear();
    for merge in &plan.merges {
        let a = resolve(&created, merge.a);
        let b = resolve(&created, merge.b);
        debug_assert!(
            engine.summary().is_root(a) && engine.summary().is_root(b),
            "planned operands must still be roots (candidate sets are disjoint)"
        );
        created.push(engine.apply_merge(a, b, ctx));
    }
    ctx.scratch.created = created;
}

/// Replays every set plan in ascending `set_index` order (the deterministic
/// reconciliation order of the pipeline) and returns the aggregated statistics.
pub fn apply_plans(engine: &mut MergeEngine, ctx: &mut MergeCtx, plans: &[SetPlan]) -> MergeStats {
    debug_assert!(
        plans.windows(2).all(|w| w[0].set_index <= w[1].set_index),
        "plans must arrive in set order"
    );
    let mut stats = MergeStats::default();
    for plan in plans {
        stats.absorb(plan.stats);
        apply_set_plan(engine, ctx, plan);
    }
    stats
}

fn resolve(created: &[SupernodeId], r: MergeRef) -> SupernodeId {
    match r {
        MergeRef::Root(id) => id,
        MergeRef::Planned(i) => created[i],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slugger_graph::Graph;

    fn double_star() -> Graph {
        // Two hubs (0, 1), five twin spokes (2..7) attached to both.
        let mut edges = vec![(0, 1)];
        for s in 2..7u32 {
            edges.push((0, s));
            edges.push((1, s));
        }
        Graph::from_edges(7, edges)
    }

    #[test]
    fn replayed_plan_matches_direct_merging() {
        let g = double_star();
        // Direct: merge 2+3, then (2∪3)+4.
        let mut direct = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let m = direct.apply_merge(2, 3, &mut ctx);
        direct.apply_merge(m, 4, &mut ctx);

        // Replayed from a plan with positional references.
        let mut replayed = MergeEngine::new(&g);
        let plan = SetPlan {
            set_index: 0,
            merges: vec![
                PlannedMerge {
                    a: MergeRef::Root(2),
                    b: MergeRef::Root(3),
                },
                PlannedMerge {
                    a: MergeRef::Planned(0),
                    b: MergeRef::Root(4),
                },
            ],
            stats: MergeStats::default(),
        };
        apply_set_plan(&mut replayed, &mut ctx, &plan);
        let created = ctx.scratch.created.clone();
        assert_eq!(created.len(), 2);
        assert_eq!(
            direct.summary().encoding_cost(),
            replayed.summary().encoding_cost()
        );
        assert_eq!(replayed.summary().members(created[1]), &[2, 3, 4]);
        replayed.summary().validate().unwrap();
    }

    #[test]
    fn plans_over_disjoint_sets_apply_in_any_shard_interleaving() {
        let g = double_star();
        let mut ctx = MergeCtx::new();
        let plan_a = SetPlan {
            set_index: 0,
            merges: vec![PlannedMerge {
                a: MergeRef::Root(2),
                b: MergeRef::Root(3),
            }],
            stats: MergeStats::default(),
        };
        let plan_b = SetPlan {
            set_index: 1,
            merges: vec![PlannedMerge {
                a: MergeRef::Root(4),
                b: MergeRef::Root(5),
            }],
            stats: MergeStats::default(),
        };
        let mut engine = MergeEngine::new(&g);
        let stats = apply_plans(&mut engine, &mut ctx, &[plan_a, plan_b]);
        assert_eq!(stats.merged, 0, "stats come from planning, not replay");
        assert_eq!(engine.num_roots(), 5); // 7 roots - 2 merges
        engine.summary().validate().unwrap();
    }
}
