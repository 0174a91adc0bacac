//! Batch-incremental (streaming) re-summarization: maintain a
//! [`HierarchicalSummary`] under a fully dynamic edge stream, re-running the
//! pipeline only over the **dirty region** of each delta batch.
//!
//! SLUGGER summarizes a static graph; [`IncrementalSummarizer`] keeps that summary
//! (and the [`MergeEngine`] bookkeeping around it) alive across
//! [`GraphDelta`] batches of edge insertions and deletions, so a small delta costs
//! work proportional to the touched region instead of `O(|V| + |E|)` per update —
//! the hierarchical counterpart of the MoSSo baseline's online maintenance
//! (`slugger_baselines::mosso`), but batch-oriented and built on the exact sharded
//! pipeline of [`crate::pipeline`].
//!
//! # The dirty-region contract
//!
//! A batch [`IncrementalSummarizer::resummarize`] proceeds in four steps:
//!
//! 1. **Apply** the delta to the maintained [`DynamicGraph`] (deletions first,
//!    then insertions, each idempotently).
//! 2. **Localize**: the *affected* roots are the current summary roots containing
//!    an endpoint of any applied operation.  The **dirty set** is the affected
//!    roots plus their summary-adjacent roots on the frozen pre-batch view whose
//!    supernode holds at most [`IncrementalConfig::adjacent_cap`] subnodes, i.e.
//!    the touched ∪ adjacent roots.  Affected roots are always dirty; the cap
//!    only bounds how much *context* is re-opened around them.
//! 3. **Re-expand**: each affected root is dissolved **subtree-granularly**
//!    ([`MergeEngine::dissolve_partial`]): only the ancestor spine of its touched
//!    leaves is killed, the maximal intact sibling subtrees survive as split-out
//!    roots with the tree's edges re-attached exactly, and context roots stay
//!    whole — so dissolution cost tracks `|delta|`, not the region.  The touched
//!    leaves then get back exact leaf-level p-edges for every current-graph edge
//!    incident to them (their coverage is exactly zero after the split).  The
//!    summary is again a lossless encoding of the *post-delta* graph after this
//!    step, with everything outside the dirty region untouched — see
//!    ARCHITECTURE.md's subtree-detach lifecycle section for why exactly the
//!    spine's encodings (and nothing else) are invalidated.
//! 4. **Re-summarize**: [`IncrementalConfig::iterations`] passes of the batch
//!    driver's own merge pass (candidates → shard → merge → apply; see
//!    [`crate::slugger`]) run with the candidate-root list **restricted to the
//!    region's roots** (the dissolved leaves, then their merge products).  Each
//!    pass's candidate stage goes through the persistent [`CandidateIndex`]
//!    ([`crate::candidates::candidate_sets_with`] given the index), which
//!    re-hashes only the roots retired since their signatures were cached.  The
//!    pass's planner pool and apply workers persist across batches too, so
//!    encoder memos and overlay pools warm up once per stream, not once per
//!    batch.
//!
//! Steps 3–4 only ever *preserve* the represented graph, so after **any** sequence
//! of deltas the maintained summary decodes to exactly the current graph — the
//! lossless invariant the streaming tests pin after every batch.
//!
//! # Determinism
//!
//! A stream run is a pure function of `(initial state, delta sequence, seed)`:
//! dirty sets are computed in sorted order, dissolution removes edges in sorted
//! order, and the pipeline stages inherit the output-invariance of
//! [`crate::pipeline`] — [`IncrementalConfig::parallelism`] never changes the
//! summary (pinned by `crates/core/tests/incremental_invariance.rs`).
//! Merge-planning RNG streams are indexed by a monotone *epoch* counter (total
//! pipeline iterations so far), so no decision stream is ever reused across
//! batches; shingle seeds are deliberately **batch-stable**
//! ([`pass_shingle_seed`]) — pass `t` of every batch hashes with the same seed,
//! which is what lets the persistent candidate index
//! ([`IncrementalSummarizer::candidate_index`]) reuse clean roots' signatures
//! across batches instead of re-shingling the unchanged world.
//!
//! # Pruning and compaction
//!
//! The maintained summary is pruned **incrementally**: after each batch's pipeline
//! passes, the three pruning substeps of [`crate::prune`] re-run over the dirty
//! region and its summary-adjacent frontier only ([`crate::prune::prune_region`]),
//! hosted *by the engine* — edge edits go through the engine's bookkeeping sink and
//! structural removals through [`MergeEngine::prune_supernode`], so the
//! `Saving(A, B, G)` metadata stays exact and no snapshot is ever cloned.  The
//! per-report pruning cost is therefore proportional to the dirty region, not to
//! the summary ([`IncrementalConfig::prune_rounds`]; 0 restores the old
//! maintain-unpruned behavior, with [`IncrementalSummarizer::pruned_summary`]
//! still available for snapshot-pruned costs).
//!
//! Dissolution and pruning leave dead arena slots behind; once they exceed
//! [`IncrementalConfig::compact_dead_ratio`] of the arena, the summary is
//! compacted ([`HierarchicalSummary::compact`]) and the engine rebuilt around the
//! renumbered ids, so steady-state memory is proportional to the **live** summary,
//! not to the stream length.  The remap preserves id order, hence compaction never
//! changes subsequent batch outputs (in id-free canonical form) — pinned by
//! `tests/incremental_prune_compact.rs`.
//!
//! ```
//! use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
//! use slugger_graph::stream::GraphDelta;
//! use slugger_graph::Graph;
//!
//! let graph = Graph::from_edges(6, vec![(0, 1), (1, 2), (3, 4)]);
//! let mut inc = IncrementalSummarizer::from_graph(&graph, IncrementalConfig::default());
//! let delta = GraphDelta {
//!     deletions: vec![(3, 4)],
//!     insertions: vec![(2, 3), (4, 5)],
//! };
//! inc.resummarize(&delta);
//! inc.verify_lossless().unwrap();
//! ```

use crate::candidates::CandidateIndex;
use crate::engine::MergeEngine;
use crate::model::{HierarchicalSummary, SupernodeId};
use crate::pipeline::Parallelism;
use crate::prune::{prune_all, prune_region, PruneReport};
use crate::slugger::MergePass;
use crate::SluggerConfig;
use serde::{Deserialize, Serialize};
use slugger_graph::stream::{DynamicGraph, GraphDelta};
use slugger_graph::{Graph, NodeId};

/// Configuration of the incremental re-summarizer.  The pipeline knobs mirror
/// [`crate::SluggerConfig`]; `iterations` counts merge passes **per batch** and is
/// deliberately small (the dirty region is small), and `adjacent_cap` bounds the
/// dirty-region expansion (step 2 of the module docs).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IncrementalConfig {
    /// Candidate-generation + merging passes per delta batch.
    pub iterations: usize,
    /// Maximum candidate-set size (paper: 500).
    pub max_candidate_size: usize,
    /// Maximum shingle-based splits before random splitting (paper: 10).
    pub max_shingle_splits: usize,
    /// Optional upper bound on hierarchy-tree height, as in [`crate::SluggerConfig`].
    pub height_bound: Option<usize>,
    /// A summary-adjacent root joins the dirty set only while its supernode holds
    /// at most this many subnodes (affected roots always join).  `0` disables the
    /// adjacency expansion entirely; large values re-open more context around each
    /// delta at proportionally higher per-batch cost.
    pub adjacent_cap: usize,
    /// Pruning rounds run over the dirty region (and its summary-adjacent
    /// frontier) after each batch's pipeline passes, hosted by the engine so the
    /// maintained summary stays pruned with exact metadata.  `0` keeps the
    /// maintained summary unpruned (the pre-incremental-pruning behavior).
    pub prune_rounds: usize,
    /// Arena compaction triggers at the end of a batch once dead slots exceed
    /// this fraction of the arena (`0.5` = compact when half the slots are dead,
    /// bounding resident memory at `live / (1 - ratio)`).  `0.0` disables
    /// compaction; the arena then grows with the stream.
    pub compact_dead_ratio: f64,
    /// Periodic self-check: every N batches, run [`MergeEngine::validate`]
    /// (bookkeeping vs a from-scratch rebuild) plus
    /// [`HierarchicalSummary::validate`] and **panic** on any inconsistency —
    /// a corrupted maintained summary must never silently keep streaming.  `0`
    /// (the default) disables the check; it costs `O(arena + edges)` per run,
    /// so it is meant for soak tests and canary deployments, not every batch of
    /// a hot stream.  `tests/incremental_prune_compact.rs` runs it every batch.
    pub validate_every: usize,
    /// Random seed of the per-batch pipeline runs.
    pub seed: u64,
    /// Worker threads (pure throughput, never changes output).
    pub parallelism: Parallelism,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            iterations: 3,
            max_candidate_size: 500,
            max_shingle_splits: 10,
            height_bound: None,
            adjacent_cap: 32,
            prune_rounds: 2,
            compact_dead_ratio: 0.5,
            validate_every: 0,
            seed: 0,
            parallelism: Parallelism::Sequential,
        }
    }
}

/// What one [`IncrementalSummarizer::resummarize`] batch did.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchReport {
    /// 1-based batch number within this summarizer's stream.
    pub batch: usize,
    /// Edge deletions actually applied (absent edges are no-ops).
    pub deleted: usize,
    /// Edge insertions actually applied (present edges are no-ops).
    pub inserted: usize,
    /// Roots dissolved (affected plus capped summary-adjacent expansion).
    pub dirty_roots: usize,
    /// Internal supernodes killed by the dissolution.
    pub dissolved_supernodes: usize,
    /// Subnodes re-expanded into singleton roots: the touched leaves, plus
    /// every member of a tree that fell back to whole-tree dissolution.
    pub dissolved_subnodes: usize,
    /// Subnodes held by the dirty roots before dissolution — the denominator of
    /// the `dissolved_subnodes / region_subnodes` ratio (e2ebench's
    /// `incremental.dissolved_over_region`; the smaller, the more of the region
    /// partial dissolution kept intact).
    pub region_subnodes: usize,
    /// Exact leaf-level p-edges restored for the region.
    pub restored_edges: usize,
    /// Roots whose shingle signatures the candidate stage had to (re-)hash this
    /// batch, summed over the pipeline passes: the roots retired since their
    /// signatures were cached in the candidate index.
    pub reshingled_roots: usize,
    /// Roots whose cached shingle signatures the candidate index served without
    /// re-hashing, summed over the pipeline passes.
    pub cached_roots: usize,
    /// Candidate pairs the per-batch pipeline passes' partner searches considered.
    pub pairs_evaluated: usize,
    /// Considered pairs skipped without a full evaluation because their saving
    /// provably could not win (see [`crate::merge`]).
    pub pairs_bounded_out: usize,
    /// Merges performed by the per-batch pipeline passes.
    pub merges: usize,
    /// Panel blocks the passes' planning overlays probed (per-set cache misses).
    pub panel_blocks_built: usize,
    /// Panel block requests served from the overlays' per-set caches.
    pub panel_blocks_served: usize,
    /// What the post-batch region prune changed (all zeros when
    /// [`IncrementalConfig::prune_rounds`] is 0).
    pub prune: PruneReport,
    /// Dead arena slots reclaimed by compaction at the end of this batch (0 when
    /// the dead-slot ratio stayed below the threshold).
    pub compacted_slots: usize,
    /// Arena length (allocated supernode slots, dead included) after the batch.
    pub arena_len: usize,
    /// Dead arena slots remaining after the batch.
    pub dead_slots: usize,
    /// Encoding cost of the maintained summary after the batch (pruned when
    /// [`IncrementalConfig::prune_rounds`] > 0).
    pub cost: usize,
    /// Wall-clock cost of publishing the post-batch epoch snapshot (clone +
    /// validate + slot swap) — zero when no [`crate::snapshot::SnapshotSlot`]
    /// is attached.  Included in `elapsed`: publication is part of the batch
    /// from the write loop's point of view, and e2ebench reports it
    /// (`snapshot.publish`) so the read path's cost to the writer stays honest.
    pub publish_elapsed: std::time::Duration,
    /// Wall-clock duration of the whole batch.
    pub elapsed: std::time::Duration,
    /// Per-stage wall-clock breakdown of `elapsed`: the pipeline stages
    /// accumulated over the batch's passes, plus the streaming-only `localize`
    /// and `dissolve` stages.  `stages.prune` is the post-batch region prune
    /// alone, bounded by the dirty region's size, not by the summary.
    pub stages: crate::slugger::StageProfile,
}

/// The shingle seed of pipeline pass `t` (1-based; batch-local in a stream).
/// Both drivers use it: iteration `t` of a batch [`crate::Slugger`] run and
/// pass `t` of every streaming batch.
///
/// Deliberately **batch-stable**: pass `t` of every batch hashes with the same
/// seed, which is what makes signatures cacheable across batches at all — a
/// clean root's pass-`t` signature this batch *is* its pass-`t` signature last
/// batch.  Bounded memory falls out too: the whole stream only ever touches
/// `iterations` distinct seeds (times the per-pass split rounds).  Re-using
/// shingle seeds across batches costs nothing statistically — shingles only
/// bucket structurally similar roots, and the merge-planning RNG
/// ([`crate::pipeline::set_rng`]) stays indexed by the monotone epoch, so no
/// *decision* stream is ever reused.  Batch-local `t` also keeps recovery
/// deterministic: a resumed stream re-derives the same seeds without any
/// persisted counter.
pub fn pass_shingle_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(t as u64)
}

/// The batch-incremental re-summarization engine (see the module docs).
///
/// ```
/// use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
/// use slugger_graph::stream::GraphDelta;
/// use slugger_graph::Graph;
///
/// let graph = Graph::from_edges(6, vec![(0, 1), (1, 2), (3, 4)]);
/// let mut inc = IncrementalSummarizer::from_graph(&graph, IncrementalConfig::default());
/// let report = inc.resummarize(&GraphDelta {
///     deletions: vec![(3, 4)],
///     insertions: vec![(2, 3), (4, 5)],
/// });
/// // The maintained summary is pruned incrementally and decodes to the current
/// // graph after every batch; the report carries the per-batch accounting.
/// assert_eq!((report.deleted, report.inserted), (1, 2));
/// inc.verify_lossless().unwrap();
/// assert_eq!(inc.summary().encoding_cost(), report.cost);
/// ```
pub struct IncrementalSummarizer {
    config: IncrementalConfig,
    engine: MergeEngine,
    graph: DynamicGraph,
    /// Monotone pipeline-pass counter across all batches: the RNG stream index, so
    /// no `(seed, iteration, set)` stream is ever reused between batches.
    epoch: usize,
    batches: usize,
    /// Persistent pipeline state, warm across batches.
    pass: MergePass,
    /// Persistent batch-to-batch shingle cache (see the module docs, step 4).
    /// Never persisted: recovery rebuilds it cold (an empty cache just recomputes,
    /// so recovery identity is untouched).
    index: CandidateIndex,
    /// Per-subnode dirty flag, cleared after every batch (allocated once).
    dirty_mark: Vec<bool>,
    /// Reused buffer of the leaf-level p-edges each batch restores.
    restore_buf: Vec<(SupernodeId, SupernodeId)>,
    /// Publication point for epoch snapshots of the maintained summary
    /// ([`IncrementalSummarizer::attach_snapshots`]); `None` keeps the batch
    /// loop free of any read-path cost.
    snapshots: Option<crate::snapshot::SnapshotSlot>,
}

impl IncrementalSummarizer {
    /// Starts a stream from an existing summary known (by the caller) to be a
    /// lossless encoding of `graph` — typically [`crate::Slugger`] output on the
    /// initial snapshot, or a summary reloaded through
    /// [`crate::storage::read_summary`] between sessions.
    ///
    /// Only the node counts are checked here (verifying losslessness costs
    /// `O(|E|)`; call [`IncrementalSummarizer::verify_lossless`] when in doubt).
    pub fn from_summary(
        summary: HierarchicalSummary,
        graph: &Graph,
        config: IncrementalConfig,
    ) -> Result<Self, String> {
        if summary.num_subnodes() != graph.num_nodes() {
            return Err(format!(
                "summary covers {} subnodes but the graph has {} nodes",
                summary.num_subnodes(),
                graph.num_nodes()
            ));
        }
        Ok(Self::with_engine(
            MergeEngine::from_summary(summary),
            graph,
            config,
        ))
    }

    /// Resumes a stream from persisted state: like
    /// [`IncrementalSummarizer::from_summary`], but additionally restores the
    /// deterministic sequencing counters — the pipeline-pass `epoch` (the RNG
    /// stream index) and the processed-batch count — so the resumed stream draws
    /// the **same** RNG streams an uninterrupted run would have drawn.  This is
    /// the recovery entry point of [`crate::storage::durable`]: a checkpoint
    /// stores exactly `(summary, epoch, batches)`, and replaying the delta WAL
    /// through [`IncrementalSummarizer::resummarize`] afterwards reproduces the
    /// uninterrupted run's summary in id-free canonical form.
    pub fn resume(
        summary: HierarchicalSummary,
        graph: &Graph,
        config: IncrementalConfig,
        epoch: usize,
        batches: usize,
    ) -> Result<Self, String> {
        let mut inc = Self::from_summary(summary, graph, config)?;
        inc.epoch = epoch;
        inc.batches = batches;
        Ok(inc)
    }

    /// Starts a stream from the trivial (identity) summary of `graph`: every
    /// subedge a p-edge between singleton supernodes.  Structure then builds up as
    /// batches touch the graph; use [`IncrementalSummarizer::bootstrap`] to start
    /// from a full SLUGGER run instead.
    pub fn from_graph(graph: &Graph, config: IncrementalConfig) -> Self {
        Self::with_engine(MergeEngine::new(graph), graph, config)
    }

    /// The shared constructor: wraps a lossless `engine` over `graph` with cold
    /// per-stream state (empty candidate index, fresh planner pools, epoch 0).
    fn with_engine(mut engine: MergeEngine, graph: &Graph, config: IncrementalConfig) -> Self {
        engine.enable_index_log();
        IncrementalSummarizer {
            pass: MergePass::new(SluggerConfig {
                iterations: config.iterations,
                max_candidate_size: config.max_candidate_size,
                max_shingle_splits: config.max_shingle_splits,
                height_bound: config.height_bound,
                seed: config.seed,
                parallelism: config.parallelism,
                ..SluggerConfig::default()
            }),
            config,
            engine,
            graph: DynamicGraph::from_graph(graph),
            epoch: 0,
            batches: 0,
            index: CandidateIndex::new(),
            dirty_mark: vec![false; graph.num_nodes()],
            restore_buf: Vec::new(),
            snapshots: None,
        }
    }

    /// Runs a full SLUGGER pass over `graph` (with `slugger`'s configuration) and
    /// adopts the resulting summary as the stream's starting point.
    pub fn bootstrap(graph: &Graph, slugger: &crate::Slugger, config: IncrementalConfig) -> Self {
        let outcome = slugger.summarize(graph);
        Self::from_summary(outcome.summary, graph, config)
            .expect("a summarize outcome always matches its input graph")
    }

    /// The active configuration.
    pub fn config(&self) -> &IncrementalConfig {
        &self.config
    }

    /// The maintained summary — incrementally pruned when
    /// [`IncrementalConfig::prune_rounds`] > 0.  Decodes to exactly the current
    /// graph after every batch.
    pub fn summary(&self) -> &HierarchicalSummary {
        self.engine.summary()
    }

    /// The maintained current graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Number of delta batches processed so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// The monotone pipeline-pass counter (the RNG stream index).  Together with
    /// [`IncrementalSummarizer::batches`] this is the deterministic-resume state
    /// a durability checkpoint must persist — see
    /// [`IncrementalSummarizer::resume`].
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// A whole-summary pruned snapshot of the maintained summary: a clone run
    /// through [`prune_all`] (the region prune over every root) on a throwaway
    /// engine rebuilt around it, leaving the maintained engine untouched.  With
    /// incremental pruning enabled the maintained summary is already
    /// region-pruned, so this mostly confirms there is little left to prune;
    /// with [`IncrementalConfig::prune_rounds`] = 0 it is the only way to report
    /// pruned costs.  Returns the snapshot and what pruning changed.
    pub fn pruned_summary(&self, rounds: usize) -> (HierarchicalSummary, PruneReport) {
        let mut snapshot = MergeEngine::from_summary(self.engine.summary().clone());
        let report = prune_all(&mut snapshot, &self.graph, rounds);
        (snapshot.into_summary(), report)
    }

    /// Verifies the lossless invariant: the maintained summary must decode to
    /// exactly the current graph.  `O(|V| + |E|)` — meant for tests and debugging,
    /// not the per-batch hot path.
    pub fn verify_lossless(&self) -> Result<(), String> {
        crate::decode::verify_lossless(self.engine.summary(), &self.graph.to_graph())
    }

    /// Exhaustive consistency check of the engine's incremental bookkeeping
    /// (union-find, root metadata, summary invariants) against a from-scratch
    /// rebuild — see [`MergeEngine::validate`].  `O(arena + edges)`; tests and
    /// debugging only.
    pub fn validate(&self) -> Result<(), String> {
        self.engine.validate()
    }

    /// Ingests one delta batch: applies it to the current graph, re-expands the
    /// dirty region, and re-summarizes that region through the sharded pipeline.
    /// See the module docs for the four-step contract.
    pub fn resummarize(&mut self, delta: &GraphDelta) -> BatchReport {
        let start = std::time::Instant::now();
        self.batches += 1;
        let mut report = BatchReport {
            batch: self.batches,
            ..BatchReport::default()
        };

        // Step 1: apply the delta (deletions first), remembering the endpoints of
        // every operation that actually changed the graph.
        let mut touched: Vec<NodeId> = Vec::new();
        for &(u, v) in &delta.deletions {
            if self.graph.remove_edge(u, v) {
                report.deleted += 1;
                touched.push(u);
                touched.push(v);
            }
        }
        for &(u, v) in &delta.insertions {
            if self.graph.insert_edge(u, v) {
                report.inserted += 1;
                touched.push(u);
                touched.push(v);
            }
        }
        if touched.is_empty() {
            report.cost = self.engine.summary().encoding_cost();
            report.arena_len = self.engine.summary().arena_len();
            report.dead_slots = self.engine.summary().num_dead_slots();
            self.maybe_self_check();
            report.publish_elapsed = self.publish_or_die();
            report.elapsed = start.elapsed();
            return report;
        }

        // Step 2: localize.  Affected roots, then the capped summary-adjacent
        // expansion — everything in sorted order so the batch is a pure function
        // of the engine's *content* (hash-map iteration orders are not).
        let localize_start = std::time::Instant::now();
        let mut affected: Vec<SupernodeId> =
            touched.iter().map(|&u| self.engine.root_of(u)).collect();
        affected.sort_unstable();
        affected.dedup();
        let mut dirty = affected.clone();
        if self.config.adjacent_cap > 0 {
            let mut adjacent: Vec<SupernodeId> = Vec::new();
            for &r in &affected {
                adjacent.extend(self.engine.adjacent_roots(r));
            }
            adjacent.sort_unstable();
            adjacent.dedup();
            let summary = self.engine.summary();
            dirty.extend(
                adjacent
                    .into_iter()
                    .filter(|&r| summary.members(r).len() <= self.config.adjacent_cap),
            );
            dirty.sort_unstable();
            dirty.dedup();
        }
        report.dirty_roots = dirty.len();

        // Roots adjacent to the dirty set that stay intact: dissolving the region
        // moves every edge between their trees and the region down to leaf level
        // (their own internal/root-level edges included), so they are exactly the
        // **frontier** the post-batch prune must revisit alongside the region.
        let mut frontier: Vec<SupernodeId> = Vec::new();
        if self.config.prune_rounds > 0 {
            for &r in &dirty {
                frontier.extend(self.engine.adjacent_roots(r));
            }
            frontier.sort_unstable();
            frontier.dedup();
            frontier.retain(|r| dirty.binary_search(r).is_err());
        }
        report.stages.localize = localize_start.elapsed();
        for &r in &dirty {
            report.region_subnodes += self.engine.summary().members(r).len();
        }

        // Step 3: re-expand, subtree-granularly.  Each affected root dissolves
        // only the ancestor spine of its touched leaves
        // ([`MergeEngine::dissolve_partial`]), intact sibling subtrees survive as
        // split-out roots, and context roots stay whole — all of them join the
        // region as merge candidates.  Then restore exact leaf-level p-edges for
        // the current graph's edges incident to the re-expanded leaves (their
        // coverage is exactly zero after dissolution).
        let dissolve_start = std::time::Instant::now();
        let mut leaves: Vec<NodeId> = Vec::new();
        let mut region_roots: Vec<SupernodeId> = Vec::new();
        // Touched leaves grouped by affected root, both in ascending order.
        let mut by_root: Vec<(SupernodeId, NodeId)> = touched
            .iter()
            .map(|&u| (self.engine.root_of(u), u))
            .collect();
        by_root.sort_unstable();
        by_root.dedup();
        let mut i = 0;
        while i < by_root.len() {
            let r = by_root[i].0;
            let mut j = i;
            while j < by_root.len() && by_root[j].0 == r {
                j += 1;
            }
            let touched_leaves: Vec<SupernodeId> = by_root[i..j].iter().map(|&(_, u)| u).collect();
            let part = self.engine.dissolve_partial(r, &touched_leaves);
            report.dissolved_supernodes += part.killed;
            leaves.extend(part.restore_leaves.iter().copied());
            region_roots.extend(part.new_roots);
            i = j;
        }
        // Intact context roots join the region as merge candidates.
        region_roots.extend(
            dirty
                .iter()
                .copied()
                .filter(|r| affected.binary_search(r).is_err()),
        );
        region_roots.sort_unstable();
        region_roots.dedup();
        leaves.sort_unstable();
        report.dissolved_subnodes = leaves.len();
        for &u in &leaves {
            self.dirty_mark[u as usize] = true;
        }
        self.restore_buf.clear();
        for &u in &leaves {
            for &w in self.graph.neighbors(u) {
                // Dirty-dirty pairs are seen from both sides; restore them once.
                if !self.dirty_mark[w as usize] || u < w {
                    self.restore_buf.push((u, w));
                }
            }
        }
        report.restored_edges = self.restore_buf.len();
        let restore_buf = std::mem::take(&mut self.restore_buf);
        self.engine.restore_leaf_edges(&restore_buf);
        self.restore_buf = restore_buf;
        report.stages.dissolve = dissolve_start.elapsed();

        // Step 4: re-summarize the region: the batch driver's merge pass over
        // `active`, the region's current roots (the pass keeps it current).
        let mut active: Vec<SupernodeId> = region_roots;
        for t in 1..=self.config.iterations {
            if active.len() < 2 {
                break;
            }
            self.epoch += 1;
            let (stats, _) = self.pass.run(
                &mut self.engine,
                &self.graph,
                &mut active,
                t,
                self.epoch,
                Some(&mut self.index),
                &mut report.stages,
            );
            let (reshingled, cached) = self.index.take_batch_stats();
            report.reshingled_roots += reshingled;
            report.cached_roots += cached;
            report.pairs_evaluated += stats.evaluated;
            report.pairs_bounded_out += stats.bounded_out;
            report.merges += stats.merged;
            report.panel_blocks_built += stats.panel_blocks_built;
            report.panel_blocks_served += stats.panel_blocks_served;
        }

        for &u in &leaves {
            self.dirty_mark[u as usize] = false;
        }

        // Step 5: engine-hosted pruning of the region plus its frontier (exact
        // metadata, cost proportional to the dirty region), then arena compaction
        // once dead slots outweigh the configured ratio.
        let prune_start = std::time::Instant::now();
        if self.config.prune_rounds > 0 {
            let mut region = active;
            region.extend(frontier);
            report.prune = prune_region(
                &mut self.engine,
                &self.graph,
                &region,
                self.config.prune_rounds,
            );
        }
        report.stages.prune = prune_start.elapsed();
        report.compacted_slots = self.maybe_compact();

        let summary = self.engine.summary();
        report.arena_len = summary.arena_len();
        report.dead_slots = summary.num_dead_slots();
        report.cost = summary.encoding_cost();
        self.maybe_self_check();
        report.publish_elapsed = self.publish_or_die();
        report.elapsed = start.elapsed();
        report
    }

    /// In-batch publication: a summary that fails validation at publish time is
    /// corruption, and a stream that kept serving (or silently stopped
    /// publishing) would hand readers wrong answers — same policy as
    /// [`IncrementalSummarizer::maybe_self_check`].
    fn publish_or_die(&self) -> std::time::Duration {
        self.publish_snapshot().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the periodic self-check when [`IncrementalConfig::validate_every`]
    /// says this batch is due: full engine bookkeeping validation plus model
    /// invariants.  Panics on any inconsistency — a stream that keeps going on a
    /// corrupted summary would silently persist wrong state.
    fn maybe_self_check(&self) {
        let every = self.config.validate_every;
        if every == 0 || !self.batches.is_multiple_of(every) {
            return;
        }
        self.engine
            .validate()
            .unwrap_or_else(|e| panic!("self-check failed after batch {}: {e}", self.batches));
        self.engine
            .summary()
            .validate()
            .unwrap_or_else(|e| panic!("self-check failed after batch {}: {e}", self.batches));
    }

    /// Compacts when dead slots exceed `compact_dead_ratio` of the arena;
    /// returns the number of slots reclaimed (0 when below the threshold or
    /// compaction is disabled).
    fn maybe_compact(&mut self) -> usize {
        let ratio = self.config.compact_dead_ratio;
        if ratio <= 0.0 {
            return 0;
        }
        let summary = self.engine.summary();
        let dead = summary.num_dead_slots();
        if (dead as f64) <= ratio * summary.arena_len() as f64 {
            return 0;
        }
        self.compact_engine()
    }

    /// Compacts the engine and keeps the candidate index aligned: the
    /// order-preserving [`crate::model::CompactionMap`] renumbers the cached
    /// entries in place (sorted runs stay sorted), so compaction never costs the
    /// index its warm state — pinned by `tests/candidate_index.rs`.  Buffered
    /// retirements are remapped inside [`MergeEngine::compact_mapped`].
    fn compact_engine(&mut self) -> usize {
        match self.engine.compact_mapped() {
            Some(map) => {
                self.index.remap(&map);
                map.reclaimed()
            }
            None => 0,
        }
    }

    /// Prunes the whole maintained summary in place through [`prune_all`] — the
    /// per-batch region prune with every root as the region — hosted by the
    /// engine, so its metadata stays exact.  Useful before persisting a summary
    /// through [`crate::storage`].
    pub fn prune_now(&mut self, rounds: usize) -> PruneReport {
        prune_all(&mut self.engine, &self.graph, rounds)
    }

    /// Forces arena compaction regardless of the dead-slot ratio; returns the
    /// number of slots reclaimed.  Compaction renumbers supernode ids
    /// order-preservingly and never changes the id-free canonical form or any
    /// subsequent batch's output.
    pub fn compact_now(&mut self) -> usize {
        self.compact_engine()
    }

    /// Attaches a [`crate::snapshot::SnapshotSlot`] and immediately publishes
    /// the current state, so readers have a snapshot before the next batch.
    /// From here on every [`IncrementalSummarizer::resummarize`] call ends by
    /// publishing a fresh epoch snapshot (see [`crate::snapshot`] for the
    /// publish → pin → retire lifecycle).  Fails — without attaching — when
    /// the current summary does not validate.
    pub fn attach_snapshots(&mut self, slot: crate::snapshot::SnapshotSlot) -> Result<(), String> {
        self.snapshots = Some(slot);
        match self.publish_snapshot() {
            Ok(_) => Ok(()),
            Err(e) => {
                self.snapshots = None;
                Err(e)
            }
        }
    }

    /// Detaches the snapshot slot, if any: already-published snapshots stay
    /// pinnable, but no further epochs are published.
    pub fn detach_snapshots(&mut self) -> Option<crate::snapshot::SnapshotSlot> {
        self.snapshots.take()
    }

    /// Publishes an epoch snapshot of the current state to the attached slot
    /// right now — the hook for maintenance points outside the batch loop
    /// ([`IncrementalSummarizer::prune_now`] / `compact_now`, recovery).  A
    /// no-op `Ok` when no slot is attached.
    pub fn publish_snapshot_now(&mut self) -> Result<(), String> {
        self.publish_snapshot().map(|_| ())
    }

    /// Clone + validate + publish to the attached slot; returns the time it
    /// took (zero when no slot is attached).
    fn publish_snapshot(&self) -> Result<std::time::Duration, String> {
        let Some(slot) = &self.snapshots else {
            return Ok(std::time::Duration::ZERO);
        };
        let start = std::time::Instant::now();
        let snapshot = crate::snapshot::SummarySnapshot::new(
            self.engine.summary().clone(),
            self.epoch,
            self.batches,
        )
        .map_err(|e| format!("snapshot publication after batch {}: {e}", self.batches))?;
        slot.publish(snapshot);
        Ok(start.elapsed())
    }

    /// Read access to the persistent candidate index — its cached-entry count
    /// and per-batch hit statistics drive the invalidation-soundness tests.
    pub fn candidate_index(&self) -> &CandidateIndex {
        &self.index
    }

    /// Invalidation-soundness oracle hook: computes the candidate sets a
    /// pass-`t` run over `roots` would see through the persistent index —
    /// pending invalidations flushed first, the live index warmed exactly as a
    /// real pass would warm it.  `roots` may be all current roots or a strict
    /// subset (the shape a region pass sees).  The result must be
    /// byte-identical to [`crate::testsupport::reference_candidate_sets`] on the
    /// same view with [`pass_shingle_seed`]`(seed, t)` — see
    /// [`crate::testsupport::assert_oracle`].  Warming the index here never
    /// changes any subsequent batch's output (only its speed).
    pub fn probe_candidate_sets(
        &mut self,
        t: usize,
        roots: &[SupernodeId],
    ) -> Vec<Vec<SupernodeId>> {
        self.pass.candidate_sets(
            &mut self.engine,
            &self.graph,
            roots,
            t,
            Some(&mut self.index),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_full;
    use crate::{Slugger, SluggerConfig};
    use slugger_graph::gen::{caveman, CavemanConfig};
    use slugger_graph::stream::{stream_batches, StreamConfig};

    fn test_graph(seed: u64) -> Graph {
        caveman(&CavemanConfig {
            num_nodes: 200,
            num_cliques: 25,
            min_clique: 5,
            max_clique: 9,
            rewire_probability: 0.02,
            seed,
        })
    }

    fn quick_slugger(seed: u64) -> Slugger {
        Slugger::new(SluggerConfig {
            iterations: 5,
            max_candidate_size: 64,
            max_shingle_splits: 5,
            seed,
            ..SluggerConfig::default()
        })
    }

    #[test]
    fn stream_of_batches_stays_lossless() {
        let target = test_graph(3);
        let (initial, batches) = stream_batches(
            &target,
            &StreamConfig {
                initial_fraction: 0.75,
                num_batches: 5,
                churn: 0.3,
                seed: 9,
            },
        );
        let mut inc = IncrementalSummarizer::bootstrap(
            &initial,
            &quick_slugger(1),
            IncrementalConfig {
                seed: 11,
                ..IncrementalConfig::default()
            },
        );
        inc.verify_lossless().unwrap();
        for (i, delta) in batches.iter().enumerate() {
            let report = inc.resummarize(delta);
            assert_eq!(report.batch, i + 1);
            assert!(report.dirty_roots > 0);
            inc.summary().validate().unwrap();
            inc.verify_lossless()
                .unwrap_or_else(|e| panic!("batch {i}: {e}"));
        }
        // The stream converged to the target graph, and so did the summary.
        assert_eq!(
            decode_full(inc.summary()).edge_set(),
            target.edge_set(),
            "final summary must decode to the target graph"
        );
        assert_eq!(inc.batches(), 5);
    }

    #[test]
    fn deletion_only_batches_are_handled() {
        let graph = test_graph(5);
        let mut inc = IncrementalSummarizer::bootstrap(
            &graph,
            &quick_slugger(2),
            IncrementalConfig::default(),
        );
        let victims: Vec<(u32, u32)> = graph.edges().take(17).collect();
        let report = inc.resummarize(&GraphDelta {
            deletions: victims.clone(),
            insertions: Vec::new(),
        });
        assert_eq!(report.deleted, victims.len());
        assert_eq!(report.inserted, 0);
        inc.verify_lossless().unwrap();
        assert_eq!(inc.graph().num_edges(), graph.num_edges() - victims.len());
    }

    #[test]
    fn empty_and_no_op_deltas_change_nothing() {
        let graph = test_graph(7);
        let mut inc = IncrementalSummarizer::bootstrap(
            &graph,
            &quick_slugger(3),
            IncrementalConfig::default(),
        );
        let cost = inc.summary().encoding_cost();
        let report = inc.resummarize(&GraphDelta::new());
        assert_eq!(report.dirty_roots, 0);
        assert_eq!(report.cost, cost);
        // Deleting an absent edge and re-inserting a present one are both no-ops.
        let (u, v) = graph.edges().next().unwrap();
        let report = inc.resummarize(&GraphDelta {
            deletions: vec![(198, 199)],
            insertions: vec![(u, v)],
        });
        assert_eq!((report.deleted, report.inserted), (0, 0));
        assert_eq!(report.cost, cost);
        inc.verify_lossless().unwrap();
    }

    #[test]
    fn incremental_keeps_compressing_the_touched_region() {
        // Stream in a brand-new clique: the re-summarizer must compress it rather
        // than leaving it at the trivial leaf-edge encoding.
        let base = test_graph(11);
        let mut inc = IncrementalSummarizer::bootstrap(
            &base,
            &quick_slugger(4),
            IncrementalConfig::default(),
        );
        let members: Vec<u32> = (0..14).map(|i| i * 13 % 200).collect();
        let mut insertions = Vec::new();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                if !base.has_edge(a, b) && a != b {
                    insertions.push((a, b));
                }
            }
        }
        let trivial_extra = insertions.len();
        let (pruned_before, _) = inc.pruned_summary(2);
        let before = pruned_before.encoding_cost();
        let report = inc.resummarize(&GraphDelta::from_insertions(insertions));
        assert!(report.merges > 0, "a dense clique must trigger merges");
        inc.verify_lossless().unwrap();
        // The maintained summary is unpruned, so compare pruned snapshots: the new
        // clique must come out clearly cheaper than one p-edge per inserted edge.
        let (pruned_after, _) = inc.pruned_summary(2);
        let after = pruned_after.encoding_cost();
        assert!(
            after < before + trivial_extra,
            "expected compression of the new clique: {before} -> {after} \
             (trivial would be {})",
            before + trivial_extra
        );
    }

    #[test]
    fn from_graph_starts_from_the_identity_encoding() {
        let graph = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        let mut inc = IncrementalSummarizer::from_graph(&graph, IncrementalConfig::default());
        assert_eq!(inc.summary().encoding_cost(), 2);
        inc.verify_lossless().unwrap();
        inc.resummarize(&GraphDelta::from_insertions([(1, 2)]));
        inc.verify_lossless().unwrap();
        assert_eq!(inc.graph().num_edges(), 3);
    }

    #[test]
    fn from_summary_rejects_mismatched_node_counts() {
        let summary = HierarchicalSummary::identity(3);
        let graph = Graph::empty(4);
        assert!(
            IncrementalSummarizer::from_summary(summary, &graph, IncrementalConfig::default())
                .is_err()
        );
    }

    #[test]
    fn pruned_snapshot_is_lossless_and_never_more_expensive() {
        let target = test_graph(13);
        let (initial, batches) = stream_batches(&target, &StreamConfig::default());
        let mut inc = IncrementalSummarizer::bootstrap(
            &initial,
            &quick_slugger(5),
            IncrementalConfig::default(),
        );
        for delta in &batches {
            inc.resummarize(delta);
        }
        let (pruned, _report) = inc.pruned_summary(2);
        assert!(pruned.encoding_cost() <= inc.summary().encoding_cost());
        crate::decode::verify_lossless(&pruned, &target).unwrap();
        // The maintained state is untouched by the snapshot.
        inc.verify_lossless().unwrap();
    }

    #[test]
    fn adjacent_cap_zero_disables_context_expansion() {
        let graph = test_graph(17);
        let mut narrow = IncrementalSummarizer::bootstrap(
            &graph,
            &quick_slugger(6),
            IncrementalConfig {
                adjacent_cap: 32,
                ..IncrementalConfig::default()
            },
        );
        let mut wide = IncrementalSummarizer::bootstrap(
            &graph,
            &quick_slugger(6),
            IncrementalConfig {
                adjacent_cap: usize::MAX,
                ..IncrementalConfig::default()
            },
        );
        let delta = GraphDelta::from_insertions([(0, 100), (50, 150)]);
        let narrow_report = narrow.resummarize(&delta);
        let wide_report = wide.resummarize(&delta);
        assert!(narrow_report.dirty_roots <= wide_report.dirty_roots);
        narrow.verify_lossless().unwrap();
        wide.verify_lossless().unwrap();
    }
}
