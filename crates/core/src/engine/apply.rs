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
//! # Disjointness invariant
//!
//! Correctness rests on the candidate sets being **disjoint**: a plan only ever
//! merges roots drawn from its own candidate set (or supernodes created by its own
//! earlier merges), and no other set names those roots.  Merges applied for other
//! sets can therefore re-encode *edges* incident to this set's trees, but can never
//! merge the trees themselves away — every planned operand is still a root when its
//! turn comes, which [`apply_set_plan`] asserts.
//!
//! # Conflict-partitioned parallel replay
//!
//! Serial replay processes plans in ascending set-index order; that order *is* the
//! pipeline's deterministic reconciliation contract.  [`apply_plans_with`] reproduces
//! it byte-identically on multiple worker threads by exploiting how narrow a plan's
//! actual state footprint is:
//!
//! * Applying a plan only ever **reads and writes** state belonging to the roots its
//!   merges touch and to the roots adjacent to those (panel children, cross edges,
//!   adjacency metadata of Case-2 partners).  Its *touched-or-adjacent* root set on
//!   the frozen iteration view — the **footprint**, computed by [`plan_footprint`]
//!   from the buffers the plans already carry — therefore over-approximates
//!   everything it can interact with: merges never create adjacency between roots
//!   that were not already adjacent, so the frozen footprint stays an upper bound
//!   throughout the stage.
//! * Two plans **conflict** iff their footprints intersect.  [`conflict_batches`]
//!   layers the plans greedily in ascending set-index order: a plan's batch is one
//!   past the highest batch of any earlier conflicting plan.  This yields batches
//!   whose plans are pairwise independent *and* preserves the serial order between
//!   every conflicting pair (`i < j` conflicting ⟹ `batch(i) < batch(j)`).
//! * Each batch is then **resolved in parallel** — every plan replays on a
//!   [`PlanningEngine`] overlay over the authoritative engine, producing the solved
//!   panel re-encodings — and **committed serially** in ascending set-index order.
//!   Supernode ids are precomputed from the serial order (plan `p`'s merges occupy
//!   the arena slots `start(p)..start(p) + |merges(p)|` where `start` is the prefix
//!   sum over ascending set index), so committing batches out of set-index order
//!   still builds the identical arena: [`crate::model::HierarchicalSummary::merge_roots_at`]
//!   writes each merge into its forced slot.
//!
//! Since batch resolution only reads state no same-batch plan writes (disjoint
//! footprints) and every conflicting earlier plan is already committed (batch
//! layering), each resolution sees exactly the state the serial replay would have
//! seen — and the commit path is literally the serial code.  The summary is
//! therefore **byte-identical** to the serial replay for every `parallelism` /
//! `shards` setting, pinned by `crates/core/tests/apply_invariance.rs` and the
//! conflict-batch property test.

use super::plan::{PlanScratch, PlanningEngine};
use super::{Case2Record, MergeCtx, MergeEngine, ResolvedMerge};
use crate::merge::MergeStats;
use crate::model::SupernodeId;
use crate::pipeline::partition_sets;
use slugger_graph::hash::FxHashMap;

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

/// Minimum number of merges in a conflict batch before its resolution is dealt
/// across worker threads; smaller batches resolve inline on the calling thread
/// (the fork-join round trip would dominate).  Pure scheduling: never affects the
/// output.
const SPAWN_THRESHOLD: usize = 16;

/// Counters of one [`apply_plans_with`] invocation's conflict partitioning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyProfile {
    /// Conflict batches executed (0 when the serial path ran).
    pub batches: usize,
    /// Plans that went through the conflict-partitioned parallel path.
    pub batched_plans: usize,
}

/// Reusable worker state of the parallel apply stage.
///
/// Create one per run (alongside the driver's [`MergeCtx`]) and pass it to every
/// [`apply_plans_with`] call: the workers' encoder memos and overlay pools then
/// persist across iterations instead of being rebuilt cold each time.  Workers are
/// forked lazily — a run whose batches all resolve inline materializes one.
#[derive(Default)]
pub struct ApplyWorkers {
    workers: Vec<ApplyWorker>,
}

impl ApplyWorkers {
    /// An empty pool; workers are forked on first use.
    pub fn new() -> Self {
        ApplyWorkers::default()
    }

    /// At least `count` workers, each with its own memo-enabled context.
    fn ensure(&mut self, count: usize) -> &mut [ApplyWorker] {
        while self.workers.len() < count {
            self.workers.push(ApplyWorker {
                ctx: MergeCtx::new(),
                scratch: PlanScratch::new(),
                tracked: Vec::new(),
            });
        }
        &mut self.workers[..count]
    }
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

/// Replays every set plan with up to `threads` worker threads via conflict
/// partitioning (see the module docs), falling back to the serial
/// [`apply_plans`] for `threads <= 1`.
///
/// The resulting engine state is byte-identical to the serial replay for every
/// thread count.
pub fn apply_plans_with(
    engine: &mut MergeEngine,
    ctx: &mut MergeCtx,
    workers: &mut ApplyWorkers,
    plans: &[SetPlan],
    threads: usize,
) -> (MergeStats, ApplyProfile) {
    if threads <= 1 || plans.len() <= 1 {
        return (apply_plans(engine, ctx, plans), ApplyProfile::default());
    }
    debug_assert!(
        plans.windows(2).all(|w| w[0].set_index <= w[1].set_index),
        "plans must arrive in set order"
    );
    let mut stats = MergeStats::default();
    for plan in plans {
        stats.absorb(plan.stats);
    }

    // The arena slot of every merge, fixed by the *serial* replay order: plan `p`'s
    // merges occupy `starts[p]..starts[p] + |merges(p)|` no matter when `p` commits.
    let mut starts: Vec<usize> = Vec::with_capacity(plans.len());
    let mut next = engine.summary().arena_len();
    for plan in plans {
        starts.push(next);
        next += plan.merges.len();
    }

    let batch_of = conflict_batches(engine, plans);
    let num_batches = batch_of.iter().copied().max().map_or(0, |b| b + 1);
    let mut batches: Vec<Vec<usize>> = vec![Vec::new(); num_batches];
    for (i, &b) in batch_of.iter().enumerate() {
        if !plans[i].merges.is_empty() {
            batches[b].push(i);
        }
    }
    batches.retain(|batch| !batch.is_empty());
    let profile = ApplyProfile {
        batches: batches.len(),
        batched_plans: batches.iter().map(|b| b.len()).sum(),
    };

    for batch in &batches {
        // Tiny batches are not worth a fork-join round trip (the substrate spawns
        // OS threads per scope); resolve them inline.  Pure scheduling — resolution
        // is deterministic no matter where it runs.
        let batch_merges: usize = batch.iter().map(|&i| plans[i].merges.len()).sum();
        if batch.len() == 1 || batch_merges < SPAWN_THRESHOLD {
            let worker = &mut workers.ensure(1)[0];
            for &i in batch {
                let resolved = resolve_plan(engine, &plans[i], starts[i], worker);
                commit_plan(engine, &resolved);
            }
            continue;
        }
        // Parallel resolve: deal the batch's plans across workers by
        // longest-processing-time over their merge counts, resolve every plan
        // against the batch-start engine state…
        let costs: Vec<u64> = batch
            .iter()
            .map(|&i| plans[i].merges.len() as u64)
            .collect();
        let workers_used = threads.min(batch.len());
        let assignment = partition_sets(&costs, workers_used);
        let mut resolved: Vec<Option<ResolvedPlan>> = Vec::with_capacity(batch.len());
        resolved.resize_with(batch.len(), || None);
        let frozen: &MergeEngine = engine;
        let starts: &[usize] = &starts;
        let batch: &[usize] = batch;
        let produced: Vec<Vec<(usize, ResolvedPlan)>> = rayon::scope(|scope| {
            let handles: Vec<_> = workers
                .ensure(workers_used)
                .iter_mut()
                .zip(assignment.shards().iter())
                .filter(|(_, shard)| !shard.is_empty())
                .map(|(worker, shard)| {
                    scope.spawn(move || {
                        shard
                            .iter()
                            .map(|&pos| {
                                let i = batch[pos];
                                (pos, resolve_plan(frozen, &plans[i], starts[i], worker))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for (pos, plan) in produced.into_iter().flatten() {
            resolved[pos] = Some(plan);
        }
        // …then commit serially in ascending set-index order.
        for plan in resolved {
            commit_plan(engine, &plan.expect("every batched plan is resolved"));
        }
    }
    (stats, profile)
}

/// Fills `out` with the sorted, deduplicated **footprint** of a plan on the frozen
/// engine: every root its merges touch plus every root adjacent to those.  Two plans
/// whose footprints are disjoint cannot read or write any common state while being
/// applied (see the module docs).
pub fn plan_footprint(engine: &MergeEngine, plan: &SetPlan, out: &mut Vec<SupernodeId>) {
    out.clear();
    for merge in &plan.merges {
        for operand in [merge.a, merge.b] {
            if let MergeRef::Root(root) = operand {
                out.push(root);
                if let Some(meta) = engine.root_meta(root) {
                    out.extend(meta.adjacency.keys().copied());
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// Assigns every plan to a conflict batch (returned per plan, in input order).
///
/// Plans are layered greedily in ascending set-index order: a plan's batch is one
/// past the highest batch of any earlier plan whose [`plan_footprint`] intersects
/// its own.  Within a batch no two plans share a touched-or-adjacent root, and every
/// conflicting pair is committed in serial order because the earlier plan's batch is
/// strictly smaller.
pub fn conflict_batches(engine: &MergeEngine, plans: &[SetPlan]) -> Vec<usize> {
    let mut batch_of = Vec::with_capacity(plans.len());
    let mut last_batch: FxHashMap<SupernodeId, usize> = FxHashMap::default();
    let mut footprint: Vec<SupernodeId> = Vec::new();
    for plan in plans {
        plan_footprint(engine, plan, &mut footprint);
        let mut batch = 0usize;
        for r in &footprint {
            if let Some(&b) = last_batch.get(r) {
                batch = batch.max(b + 1);
            }
        }
        for &r in &footprint {
            last_batch.insert(r, batch);
        }
        batch_of.push(batch);
    }
    batch_of
}

/// Per-worker state of the parallel resolve phase.
struct ApplyWorker {
    ctx: MergeCtx,
    scratch: PlanScratch,
    /// Reused buffer for the roots a plan's merges touch.
    tracked: Vec<SupernodeId>,
}

/// One plan's recorded resolution: every merge solved against the exact state the
/// serial replay would have seen, with concrete (forced) supernode ids, ready to be
/// committed verbatim.
struct ResolvedPlan {
    merges: Vec<ResolvedMerge>,
    case2: Vec<Case2Record>,
}

/// Resolves a plan's merges on a replay overlay whose local ids start at the plan's
/// precomputed arena slot.
fn resolve_plan(
    engine: &MergeEngine,
    plan: &SetPlan,
    start: usize,
    worker: &mut ApplyWorker,
) -> ResolvedPlan {
    worker.tracked.clear();
    for merge in &plan.merges {
        for operand in [merge.a, merge.b] {
            if let MergeRef::Root(root) = operand {
                worker.tracked.push(root);
            }
        }
    }
    worker.tracked.sort_unstable();
    worker.tracked.dedup();
    let mut overlay =
        PlanningEngine::for_replay(engine, &worker.tracked, start, &mut worker.scratch);
    let mut merges = Vec::with_capacity(plan.merges.len());
    let mut case2 = Vec::new();
    for merge in &plan.merges {
        let a = forced_ref(start, merge.a);
        let b = forced_ref(start, merge.b);
        merges.push(overlay.replay_merge_recorded(a, b, &mut worker.ctx, &mut case2));
    }
    ResolvedPlan { merges, case2 }
}

/// Commits a resolved plan's merges onto the authoritative engine.
fn commit_plan(engine: &mut MergeEngine, plan: &ResolvedPlan) {
    for rm in &plan.merges {
        debug_assert!(
            engine.summary().is_root(rm.a) && engine.summary().is_root(rm.b),
            "resolved operands must still be roots (candidate sets are disjoint)"
        );
        engine.commit_merge(rm, &plan.case2);
    }
}

/// The concrete id of a merge operand under forced ids: the `i`-th planned product
/// of a plan starting at slot `start` is exactly `start + i`.
#[inline]
fn forced_ref(start: usize, r: MergeRef) -> SupernodeId {
    match r {
        MergeRef::Root(id) => id,
        MergeRef::Planned(i) => (start + i) as SupernodeId,
    }
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
    use crate::decode::decode_full;
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

    #[test]
    fn conflict_batches_order_conflicting_plans() {
        let g = double_star();
        let engine = MergeEngine::new(&g);
        let plan = |set_index: usize, a: u32, b: u32| SetPlan {
            set_index,
            merges: vec![PlannedMerge {
                a: MergeRef::Root(a),
                b: MergeRef::Root(b),
            }],
            stats: MergeStats::default(),
        };
        // Every spoke is adjacent to both hubs, so all three plans share the hubs in
        // their footprints and must land in strictly increasing batches.
        let plans = [plan(0, 2, 3), plan(1, 4, 5), plan(2, 6, 2)];
        let batches = conflict_batches(&engine, &plans);
        assert_eq!(batches, vec![0, 1, 2]);

        // Two cliques with no adjacency between them: independent plans share batch 0.
        let g2 = Graph::from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let engine2 = MergeEngine::new(&g2);
        let plans2 = [plan(0, 0, 1), plan(1, 3, 4)];
        assert_eq!(conflict_batches(&engine2, &plans2), vec![0, 0]);
    }

    #[test]
    fn parallel_apply_is_byte_identical_to_serial() {
        // Four disjoint triangles chained pairwise: plans 0/1 conflict through the
        // bridge edges, plans 2/3 are independent of them.
        let mut edges = Vec::new();
        for t in 0..4u32 {
            let base = t * 3;
            edges.push((base, base + 1));
            edges.push((base + 1, base + 2));
            edges.push((base, base + 2));
        }
        edges.push((2, 3)); // bridge between triangles 0 and 1
        let g = Graph::from_edges(12, edges);
        let plan = |set_index: usize, a: u32, b: u32, c: u32| SetPlan {
            set_index,
            merges: vec![
                PlannedMerge {
                    a: MergeRef::Root(a),
                    b: MergeRef::Root(b),
                },
                PlannedMerge {
                    a: MergeRef::Planned(0),
                    b: MergeRef::Root(c),
                },
            ],
            stats: MergeStats::default(),
        };
        let plans = [
            plan(0, 0, 1, 2),
            plan(1, 3, 4, 5),
            plan(2, 6, 7, 8),
            plan(3, 9, 10, 11),
        ];
        let mut serial = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        apply_plans(&mut serial, &mut ctx, &plans);
        for threads in [2usize, 3, 8] {
            let mut parallel = MergeEngine::new(&g);
            let mut pctx = MergeCtx::new();
            let mut workers = ApplyWorkers::new();
            let (_, profile) =
                apply_plans_with(&mut parallel, &mut pctx, &mut workers, &plans, threads);
            assert!(profile.batches >= 2, "bridged plans must be layered");
            assert_eq!(profile.batched_plans, 4);
            assert_eq!(
                serial.summary().encoding_cost(),
                parallel.summary().encoding_cost()
            );
            assert_eq!(serial.roots(), parallel.roots());
            assert_eq!(
                decode_full(serial.summary()).edge_set(),
                decode_full(parallel.summary()).edge_set()
            );
            for id in 0..serial.summary().arena_len() as SupernodeId {
                assert_eq!(
                    serial.summary().parent(id),
                    parallel.summary().parent(id),
                    "parent of {id} diverged"
                );
                assert_eq!(
                    serial.summary().children(id),
                    parallel.summary().children(id)
                );
                assert_eq!(serial.summary().members(id), parallel.summary().members(id));
            }
            parallel.summary().validate().unwrap();
        }
    }
}
