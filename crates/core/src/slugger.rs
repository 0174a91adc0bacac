//! The SLUGGER driver (Algorithm 1): `T` iterations of candidate generation followed
//! by greedy merging, then pruning.
//!
//! Each iteration is one merge pass (`MergePass`) through the sharded pipeline of
//! [`crate::pipeline`] (candidates → shard → merge → apply): candidate sets are
//! dealt across one shard per worker thread, each set's merges are planned on a
//! copy-on-write overlay of the iteration's frozen engine, and the plans are
//! replayed on the authoritative engine in deterministic order.
//! [`SluggerConfig::parallelism`] picks the thread count and never changes the
//! result.  The streaming maintainer ([`crate::incremental`]) runs the same pass
//! over its dirty region, with its persistent candidate index.

use crate::candidates::{candidate_sets_with, CandidateConfig, CandidateIndex, CandidateScratch};
use crate::engine::apply::{apply_plans, SetPlan};
use crate::engine::plan::{PlanScratch, PlanningEngine};
use crate::engine::{MergeCtx, MergeEngine};
use crate::incremental::pass_shingle_seed;
use crate::merge::{merging_threshold, plan_candidate_set, MergeOptions, MergeStats};
use crate::metrics::SummaryMetrics;
use crate::model::{HierarchicalSummary, SupernodeId};
use crate::pipeline::{plan_shards_pooled, set_rng, Parallelism, PlannerPool, ShardWorker};
use crate::prune::{prune_all, PruneReport};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use slugger_graph::{AdjacencyList, Graph};

/// Configuration of a SLUGGER run.  The defaults reproduce the paper's experimental
/// setting (T = 20, candidate sets of at most 500 roots, at most 10 shingle splits,
/// unbounded hierarchy height, pruning enabled).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SluggerConfig {
    /// Number of candidate-generation + merging iterations `T` (paper default: 20).
    pub iterations: usize,
    /// Maximum candidate-set size (paper: 500).
    pub max_candidate_size: usize,
    /// Maximum shingle-based splits before random splitting (paper: 10).
    pub max_shingle_splits: usize,
    /// Optional upper bound `H_b` on hierarchy-tree height (Table V variant); `None`
    /// leaves the height unbounded as in the main algorithm.
    pub height_bound: Option<usize>,
    /// Number of pruning rounds (each round runs substeps 1 → 2 → 3); 0 disables
    /// pruning entirely.
    pub pruning_rounds: usize,
    /// Random seed controlling candidate grouping and pivot selection.
    pub seed: u64,
    /// How many OS threads plan the candidate sets (one shard each) and run the
    /// candidate-generation fold (the apply stage is always one serial replay).
    /// Pure throughput knob: every candidate set is planned against the same
    /// frozen iteration view with its own RNG stream, so for a fixed seed every
    /// setting produces the identical summary.
    #[serde(default)]
    pub parallelism: Parallelism,
}

impl Default for SluggerConfig {
    fn default() -> Self {
        SluggerConfig {
            iterations: 20,
            max_candidate_size: 500,
            max_shingle_splits: 10,
            height_bound: None,
            pruning_rounds: 2,
            seed: 0,
            parallelism: Parallelism::Sequential,
        }
    }
}

/// Per-iteration progress record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Merging threshold θ(t) used.
    pub threshold: f64,
    /// Candidate sets processed.
    pub candidate_sets: usize,
    /// Candidate pairs considered by the partner search.
    pub pairs_evaluated: usize,
    /// Considered pairs skipped without a full evaluation: an upper bound on
    /// their saving showed they could not win (see [`crate::merge`]).
    pub pairs_bounded_out: usize,
    /// Merges performed.
    pub merges: usize,
    /// Panel blocks probed by the planning overlays (per-set cache misses).
    pub panel_blocks_built: usize,
    /// Panel block requests served from the overlays' per-set caches.
    pub panel_blocks_served: usize,
    /// Encoding cost at the end of the iteration.
    pub cost: usize,
    /// Number of roots at the end of the iteration.
    pub roots: usize,
}

/// Wall-clock time spent in each pipeline stage, accumulated over all iterations.
///
/// `candidates` + `plan` + `apply` + `prune` cover the pipeline stages, not all
/// of `elapsed`.  Outside them a batch run spends time on engine construction
/// (`MergeEngine::new`, a visible share of a short run), on updating the tracked
/// roots and recording the cost after every iteration, and on the final metrics.
/// e2ebench reports that remainder as `slugger.other_s`.  The streaming path
/// ([`crate::incremental`]) reuses the struct per batch and additionally fills
/// `localize` and `dissolve` (always zero for a batch [`Slugger`] run, which has
/// no dirty region to localize); outside its stages a batch spends time on
/// applying the delta, on arena compaction (a large share of a compacting batch)
/// and on snapshot publication
/// ([`BatchReport::publish_elapsed`](crate::incremental::BatchReport::publish_elapsed)).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageProfile {
    /// Candidate generation (min-hash shingle grouping; stage 1).
    pub candidates: std::time::Duration,
    /// Merge planning on the sharded substrate (stages 2–3).
    pub plan: std::time::Duration,
    /// Plan reconciliation on the authoritative engine (stage 4).
    pub apply: std::time::Duration,
    /// Pruning after the last iteration (stage 5).
    pub prune: std::time::Duration,
    /// Dirty-region localization (streaming step 2: affected roots, context
    /// expansion, frontier) — zero for batch runs.
    pub localize: std::time::Duration,
    /// Dirty-region dissolution and leaf-edge restoration (streaming step 3) —
    /// zero for batch runs.
    pub dissolve: std::time::Duration,
}

/// Result of a SLUGGER run: the summary plus bookkeeping used by the experiments.
#[derive(Clone, Debug)]
pub struct SluggerOutcome {
    /// The hierarchical summary (already pruned when pruning is enabled).
    pub summary: HierarchicalSummary,
    /// Output metrics against the input graph.
    pub metrics: SummaryMetrics,
    /// Per-iteration progress.
    pub iterations: Vec<IterationRecord>,
    /// What pruning changed (all zeros when pruning is disabled).
    pub prune_report: PruneReport,
    /// Wall-clock duration of the whole run.
    pub elapsed: std::time::Duration,
    /// Per-stage wall-clock breakdown of `elapsed`.
    pub stages: StageProfile,
}

/// The SLUGGER algorithm (Algorithm 1 of the paper).
///
/// ```
/// use slugger_core::{Slugger, SluggerConfig};
/// use slugger_graph::gen::{caveman, CavemanConfig};
///
/// let graph = caveman(&CavemanConfig { num_nodes: 150, ..CavemanConfig::default() });
/// let outcome = Slugger::new(SluggerConfig {
///     iterations: 5,
///     seed: 42,
///     ..SluggerConfig::default()
/// })
/// .summarize(&graph);
/// // Lossless: decoding the summary reproduces the input graph exactly.
/// slugger_core::decode::verify_lossless(&outcome.summary, &graph).unwrap();
/// // Structured graphs compress below one output edge per input edge.
/// assert!(outcome.metrics.cost <= graph.num_edges());
/// ```
pub struct Slugger {
    config: SluggerConfig,
}

impl Slugger {
    /// Creates a runner with the given configuration.
    pub fn new(config: SluggerConfig) -> Self {
        Slugger { config }
    }

    /// Creates a runner with the paper's default configuration.
    pub fn with_defaults() -> Self {
        Slugger::new(SluggerConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &SluggerConfig {
        &self.config
    }

    /// Summarizes a graph: initializes the model to the input (every subedge a p-edge
    /// between singleton supernodes), runs `T` iterations of the sharded pipeline
    /// (candidates → shard → merge → apply), prunes, and returns the outcome.
    pub fn summarize(&self, graph: &Graph) -> SluggerOutcome {
        let start = std::time::Instant::now();
        let config = &self.config;
        let mut engine = MergeEngine::new(graph);
        let mut pass = MergePass::new(*config);
        let mut roots = engine.roots();
        let mut stages = StageProfile::default();
        let mut iterations = Vec::with_capacity(config.iterations);
        for t in 1..=config.iterations {
            let (stats, candidate_sets) =
                pass.run(&mut engine, graph, &mut roots, t, t, None, &mut stages);
            debug_assert_eq!(roots, engine.roots(), "the tracked roots drifted");
            iterations.push(IterationRecord {
                iteration: t,
                threshold: merging_threshold(t, config.iterations),
                candidate_sets,
                pairs_evaluated: stats.evaluated,
                pairs_bounded_out: stats.bounded_out,
                merges: stats.merged,
                panel_blocks_built: stats.panel_blocks_built,
                panel_blocks_served: stats.panel_blocks_served,
                cost: engine.summary().encoding_cost(),
                roots: engine.num_roots(),
            });
        }

        let stage_start = std::time::Instant::now();
        let prune_report = if config.pruning_rounds > 0 {
            prune_all(&mut engine, graph, config.pruning_rounds)
        } else {
            PruneReport::default()
        };
        stages.prune = stage_start.elapsed();
        let summary = engine.into_summary();
        let metrics = SummaryMetrics::compute(&summary, graph.num_edges());
        SluggerOutcome {
            summary,
            metrics,
            iterations,
            prune_report,
            elapsed: start.elapsed(),
            stages,
        }
    }
}

/// One pass of Algorithm 1's loop body — candidates, then sharded planning, then
/// apply — over a tracked root list.  The batch driver runs it once per
/// iteration over every root; the streaming maintainer runs it over its dirty
/// region, with its persistent [`CandidateIndex`].
///
/// The pass owns the state that warms up across passes: the planner pool, the
/// apply-side [`MergeCtx`] and the candidate scratch.
/// None of it ever changes the output (see `SluggerShardWorker::reset`), so
/// encoder memos and overlay pools warm up once per run or stream, not once per
/// pass.
pub(crate) struct MergePass {
    config: SluggerConfig,
    planner_pool: PlannerPool<SluggerPlanner>,
    ctx: MergeCtx,
    candidate_scratch: CandidateScratch,
}

impl MergePass {
    /// Cold pass state for the pipeline knobs of `config` (its `pruning_rounds`
    /// is not read: pruning runs outside the pass).
    pub(crate) fn new(config: SluggerConfig) -> Self {
        MergePass {
            config,
            planner_pool: PlannerPool::new(),
            ctx: MergeCtx::new(),
            candidate_scratch: CandidateScratch::default(),
        }
    }

    /// The candidate sets of pass `t` over `roots`, under the shingle seed
    /// [`pass_shingle_seed`]`(seed, t)`.  With an `index`, the engine's pending
    /// retirements are flushed into it first and the fill goes through it.
    pub(crate) fn candidate_sets<G: AdjacencyList + Sync>(
        &mut self,
        engine: &mut MergeEngine,
        graph: &G,
        roots: &[SupernodeId],
        t: usize,
        mut index: Option<&mut CandidateIndex>,
    ) -> Vec<Vec<SupernodeId>> {
        if let Some(index) = index.as_deref_mut() {
            engine.flush_retired(index);
        }
        let config = &self.config;
        candidate_sets_with(
            engine.summary(),
            graph,
            roots,
            pass_shingle_seed(config.seed, t),
            &CandidateConfig {
                max_group_size: config.max_candidate_size,
                max_shingle_splits: config.max_shingle_splits,
            },
            config.parallelism.threads(),
            &mut self.candidate_scratch,
            index,
        )
    }

    /// Runs pass `t` of `T` over `roots` and accumulates its stage times into
    /// `stages`.  Merge planning draws from the RNG streams
    /// [`set_rng`]`(seed, rng_index, set)`.  On return `roots` holds the
    /// region's current roots: the survivors in their order, then the merge
    /// products in ascending arena order.  Merges only append ids, so a list that
    /// started sorted stays sorted.  Returns the pass's statistics and its
    /// candidate-set count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<G: AdjacencyList + Sync>(
        &mut self,
        engine: &mut MergeEngine,
        graph: &G,
        roots: &mut Vec<SupernodeId>,
        t: usize,
        rng_index: usize,
        index: Option<&mut CandidateIndex>,
        stages: &mut StageProfile,
    ) -> (MergeStats, usize) {
        let stage_start = std::time::Instant::now();
        let sets = self.candidate_sets(engine, graph, roots, t, index);
        stages.candidates += stage_start.elapsed();
        let config = &self.config;
        // Merge stage: plan every candidate set against the frozen engine (on
        // copy-on-write overlays, one shard per worker thread)…
        let worker = SluggerShardWorker {
            view: &*engine,
            options: MergeOptions {
                threshold: merging_threshold(t, config.iterations),
                height_bound: config.height_bound,
            },
        };
        let seed = config.seed;
        let stage_start = std::time::Instant::now();
        let plans = plan_shards_pooled(
            &worker,
            &sets,
            config.parallelism.threads(),
            config.parallelism,
            &|set_index| set_rng(seed, rng_index, set_index),
            &mut self.planner_pool,
        );
        stages.plan += stage_start.elapsed();
        // …then replay the plans on the authoritative engine, serially in set order.
        let arena_before = engine.summary().arena_len() as SupernodeId;
        let stage_start = std::time::Instant::now();
        let stats = apply_plans(engine, &mut self.ctx, &plans);
        stages.apply += stage_start.elapsed();
        self.planner_pool.recycle_plans(plans);
        let summary = engine.summary();
        roots.retain(|&r| summary.is_root(r));
        roots.extend(
            (arena_before..summary.arena_len() as SupernodeId).filter(|&id| summary.is_root(id)),
        );
        (stats, sets.len())
    }
}

/// SLUGGER's shard worker: the frozen iteration view plus the merge options.
///
/// Forking is cheap — the per-shard state is a [`SluggerPlanner`]: a [`MergeCtx`]
/// (a private encoder memo — the memo only caches deterministic solver results, so
/// sharing or not sharing it never changes output — plus reusable evaluation
/// scratch) and a pooled [`PlanScratch`].  Each candidate set is then planned on a
/// copy-on-write [`PlanningEngine`] overlay over the frozen view built from that
/// scratch, whose construction cost is proportional to the set, not to the graph —
/// and which, once the pools are warm, allocates nothing per set.
struct SluggerShardWorker<'a> {
    view: &'a MergeEngine,
    options: MergeOptions,
}

/// Per-shard planning state: evaluation context plus the pooled overlay scratch,
/// kept warm across passes by [`MergePass`]'s planner pool.
struct SluggerPlanner {
    ctx: MergeCtx,
    overlay: PlanScratch,
}

impl PlannerPool<SluggerPlanner> {
    /// Returns the spent plans' merge vectors to the pooled planners
    /// (round-robin), so the next pass's sets pop them instead of allocating.
    fn recycle_plans(&mut self, plans: Vec<SetPlan>) {
        if self.is_empty() {
            return;
        }
        let mut planners: Vec<_> = self.iter_mut().collect();
        let n = planners.len();
        for (i, plan) in plans.into_iter().enumerate() {
            planners[i % n].ctx.recycle_merges(plan.merges);
        }
    }
}

impl ShardWorker for SluggerShardWorker<'_> {
    type Planner = SluggerPlanner;
    type Plan = SetPlan;

    fn fork(&self) -> SluggerPlanner {
        SluggerPlanner {
            ctx: MergeCtx::new(),
            overlay: PlanScratch::new(),
        }
    }

    fn reset(&self, _planner: &mut SluggerPlanner) {
        // Deliberate no-op: the memo caches deterministic solver results and the
        // overlay scratch clears per set, so warmed planner state can never change
        // the output — keeping it is what makes steady-state planning
        // allocation-free across shards *and* iterations.
    }

    fn plan_set(
        &self,
        planner: &mut SluggerPlanner,
        set_index: usize,
        set: &[SupernodeId],
        rng: &mut StdRng,
    ) -> SetPlan {
        let SluggerPlanner { ctx, overlay } = planner;
        let mut overlay = PlanningEngine::new(self.view, set, overlay);
        let (merges, mut stats) = plan_candidate_set(&mut overlay, ctx, set, &self.options, rng);
        stats.panel_blocks_built = overlay.panel_blocks_built();
        stats.panel_blocks_served = overlay.panel_blocks_served();
        SetPlan {
            set_index,
            merges,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::verify_lossless;
    use slugger_graph::gen::{caveman, erdos_renyi, nested_sbm, CavemanConfig, NestedSbmConfig};

    fn quick_config(iterations: usize, seed: u64) -> SluggerConfig {
        SluggerConfig {
            iterations,
            max_candidate_size: 64,
            max_shingle_splits: 5,
            seed,
            ..SluggerConfig::default()
        }
    }

    #[test]
    fn summarize_is_lossless_on_structured_graph() {
        let graph = caveman(&CavemanConfig {
            num_nodes: 150,
            num_cliques: 20,
            min_clique: 4,
            max_clique: 8,
            rewire_probability: 0.02,
            seed: 1,
        });
        let outcome = Slugger::new(quick_config(5, 7)).summarize(&graph);
        verify_lossless(&outcome.summary, &graph).unwrap();
        outcome.summary.validate().unwrap();
        assert!(outcome.metrics.cost > 0);
        assert_eq!(outcome.iterations.len(), 5);
    }

    #[test]
    fn summarize_compresses_structured_graph() {
        let graph = caveman(&CavemanConfig {
            num_nodes: 300,
            num_cliques: 40,
            min_clique: 5,
            max_clique: 9,
            rewire_probability: 0.0,
            seed: 3,
        });
        let outcome = Slugger::new(quick_config(8, 1)).summarize(&graph);
        assert!(
            outcome.metrics.relative_size < 0.8,
            "expected compression on a clique-heavy graph, got {}",
            outcome.metrics.relative_size
        );
        verify_lossless(&outcome.summary, &graph).unwrap();
    }

    #[test]
    fn summarize_is_lossless_on_random_graph() {
        // Random graphs barely compress, but losslessness must still hold.
        let graph = erdos_renyi(120, 360, 5);
        let outcome = Slugger::new(quick_config(4, 2)).summarize(&graph);
        verify_lossless(&outcome.summary, &graph).unwrap();
    }

    #[test]
    fn more_iterations_never_hurt_much() {
        let graph = nested_sbm(&NestedSbmConfig {
            num_nodes: 240,
            levels: 2,
            branching: 4,
            base_probability: 0.004,
            level_boost: 18.0,
            seed: 9,
        });
        let short = Slugger::new(quick_config(1, 4)).summarize(&graph);
        let long = Slugger::new(quick_config(8, 4)).summarize(&graph);
        assert!(
            long.metrics.cost <= short.metrics.cost,
            "T=8 ({}) should not be worse than T=1 ({})",
            long.metrics.cost,
            short.metrics.cost
        );
        verify_lossless(&long.summary, &graph).unwrap();
    }

    #[test]
    fn height_bound_is_respected() {
        let graph = caveman(&CavemanConfig {
            num_nodes: 200,
            num_cliques: 30,
            ..CavemanConfig::default()
        });
        let config = SluggerConfig {
            height_bound: Some(2),
            pruning_rounds: 0,
            ..quick_config(6, 11)
        };
        let outcome = Slugger::new(config).summarize(&graph);
        for root in outcome.summary.roots().collect::<Vec<_>>() {
            assert!(outcome.summary.tree_height(root) <= 2);
        }
        verify_lossless(&outcome.summary, &graph).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let graph = caveman(&CavemanConfig {
            num_nodes: 120,
            ..CavemanConfig::default()
        });
        let a = Slugger::new(quick_config(4, 42)).summarize(&graph);
        let b = Slugger::new(quick_config(4, 42)).summarize(&graph);
        assert_eq!(a.metrics.cost, b.metrics.cost);
        assert_eq!(a.metrics.p_edges, b.metrics.p_edges);
        assert_eq!(a.metrics.h_edges, b.metrics.h_edges);
    }

    #[test]
    fn pruning_never_increases_cost() {
        let graph = caveman(&CavemanConfig {
            num_nodes: 160,
            ..CavemanConfig::default()
        });
        let unpruned = Slugger::new(SluggerConfig {
            pruning_rounds: 0,
            ..quick_config(5, 21)
        })
        .summarize(&graph);
        let pruned = Slugger::new(SluggerConfig {
            pruning_rounds: 2,
            ..quick_config(5, 21)
        })
        .summarize(&graph);
        assert!(pruned.metrics.cost <= unpruned.metrics.cost);
        verify_lossless(&pruned.summary, &graph).unwrap();
    }

    #[test]
    fn empty_and_tiny_graphs_are_handled() {
        let empty = Graph::empty(5);
        let outcome = Slugger::new(quick_config(2, 0)).summarize(&empty);
        assert_eq!(outcome.metrics.cost, 0);
        verify_lossless(&outcome.summary, &empty).unwrap();

        let single_edge = Graph::from_edges(2, vec![(0, 1)]);
        let outcome = Slugger::new(quick_config(2, 0)).summarize(&single_edge);
        verify_lossless(&outcome.summary, &single_edge).unwrap();
        assert!(outcome.metrics.cost <= 3);
    }
}
