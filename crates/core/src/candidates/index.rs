//! Persistent batch-to-batch candidate index: cached min-hash shingles keyed by
//! structural generation, so the incremental re-summarizer stops re-shingling
//! the unchanged world every batch.  There is no separate indexed driver:
//! [`candidate_sets_with`](super::candidate_sets_with) takes the index as an
//! optional argument and routes its round-0 fill through it.
//!
//! # Why a cache is possible at all
//!
//! A root's shingle under a fixed permutation seed depends on exactly two
//! inputs: the root's member (leaf) set, and the **current-graph** neighborhood
//! of each member.  Neither input changes unless (a) a delta touches an edge
//! incident to a member — in which case the root is *affected* and the
//! incremental step always dissolves it — or (b) a structural event rewrites
//! the root itself (merge, dissolution, split, root-level prune, compaction).
//! The incremental pipeline's shingle seeds are **batch-stable** (a pure
//! function of the configured seed and the within-batch pass index, see
//! [`crate::incremental::pass_shingle_seed`]), so a shingle computed in batch
//! `n` is byte-identical to what batch `n + k` would recompute — as long as no
//! invalidating event hit the root in between.
//!
//! # Invalidation protocol
//!
//! The index keeps a **generation counter per supernode id**.  Every cached
//! entry records the generation it was computed at; an entry is valid only
//! while the generations still match.  [`MergeEngine`](crate::engine::MergeEngine)
//! records every root retirement in an internal log (enabled only when an
//! index is attached, so the batch pipeline pays nothing) and the owner flushes
//! it into the index through the [`IndexSink`] trait — the same threading
//! pattern as the engine's p/n-edge bookkeeping sink.  The emitting events:
//!
//! * `commit_merge(a, b → m)` retires `a` and `b` (`m` is a fresh id, never
//!   cached);
//! * the engine's one split commit — behind partial and whole-tree
//!   dissolution and `prune_supernode` on a **root** — retires the split root
//!   plus every dropped leaf and promoted survivor (belt-and-braces: the
//!   promoted ids could not hold a *valid* entry, but a generation bump is one
//!   array write);
//! * `prune_supernode` on an **internal** node deliberately emits nothing —
//!   the root's member set (and hence its shingle) is unchanged, which is
//!   precisely the case the cache is designed to survive;
//! * `compact` does **not** invalidate: the id-order-preserving
//!   [`CompactionMap`] is applied to the index ([`CandidateIndex::remap`]), so
//!   cached signatures survive arena compaction (pinned by
//!   `tests/candidate_index.rs`).
//!
//! On durable recovery the index is rebuilt **cold** (an empty cache merely
//! recomputes every shingle), so recovery identity holds trivially — see
//! `crate::storage::durable`.
//!
//! # Splice-aware bucketing
//!
//! Cached runs are stored pre-sorted by `(shingle, root)` — exactly the order
//! [`candidate_sets_with`](super::candidate_sets_with) produces by sorting when
//! it runs without an index.
//! A batch's fill therefore only sorts the freshly hashed (dirty) roots and
//! **merges** that run with the cached run's valid in-group entries, instead
//! of re-sorting the whole region: the full sort of the index-free path
//! becomes a 2-way splice whose cost tracks the dirty set.  The output is
//! byte-identical to the index-free path by construction (two sorted sequences
//! over disjoint root sets merge to the same total order the full sort
//! reaches), and `tests/candidate_index.rs` pins it against
//! [`crate::testsupport::reference_candidate_sets`] through random
//! delta/prune/compact/recovery interleavings.

use super::{fill_keyed, CandidateScratch};
use crate::model::{CompactionMap, HierarchicalSummary, SupernodeId};
use slugger_graph::hash::FxHashMap;
use slugger_graph::AdjacencyList;

/// Receiver of structural invalidation events, threaded through the engine the
/// same way [`crate::engine`]'s p/n-edge bookkeeping sink is.  Implemented by
/// [`CandidateIndex`] (generation bump); the engine buffers events internally
/// and flushes them through `MergeEngine::flush_retired`.
pub trait IndexSink {
    /// `root` stopped being a root (merged away, dissolved, split, pruned) or
    /// was re-promoted with different content: any cached signature for it is
    /// stale from now on.
    fn retire_root(&mut self, root: SupernodeId);
}

/// One cached signature: the shingle of `root` under some round seed, computed
/// at generation `gen` (valid while the index's generation for `root` still
/// equals `gen`).
#[derive(Clone, Copy, Debug)]
struct IndexEntry {
    shingle: u64,
    root: SupernodeId,
    gen: u32,
}

/// The persistent batch-to-batch candidate index (see the module docs).
///
/// Owned by `crate::incremental::IncrementalSummarizer` across batches, like
/// the merge pass's planner pool and apply workers.  Memory is bounded by the number of
/// distinct round seeds (batch-stable: the per-batch pass count, not the
/// stream length) times the live roots ever cached; compaction remaps entries
/// in place and stale entries are dropped on the next fill of their run.
#[derive(Clone, Default)]
pub struct CandidateIndex {
    /// Structural generation per supernode id; bumped by [`IndexSink::retire_root`].
    gen: Vec<u32>,
    /// Per-round-seed cached runs, each sorted by `(shingle, root)`.
    runs: FxHashMap<u64, Vec<IndexEntry>>,
    /// Roots re-hashed since the last [`CandidateIndex::take_batch_stats`].
    reshingled: usize,
    /// Cache hits served since the last [`CandidateIndex::take_batch_stats`].
    cached: usize,
    /// Current stamp of the membership/coverage marks below.
    stamp: u32,
    /// Group-membership mark per supernode id (valid while equal to `stamp`).
    group_stamp: Vec<u32>,
    /// Cache-hit coverage mark per supernode id (valid while equal to `stamp`).
    covered_stamp: Vec<u32>,
    /// Valid in-group cached entries of the current fill (sorted).
    hits: Vec<(u64, SupernodeId)>,
    /// Roots of the current fill that need fresh hashing.
    fresh: Vec<SupernodeId>,
    /// Merge buffer: cached hits spliced with the fresh run (sorted).
    merged: Vec<(u64, SupernodeId)>,
}

impl IndexSink for CandidateIndex {
    fn retire_root(&mut self, root: SupernodeId) {
        // Ids beyond the vector were never cached; nothing to invalidate.
        if let Some(g) = self.gen.get_mut(root as usize) {
            *g = g.wrapping_add(1);
        }
    }
}

impl CandidateIndex {
    /// A fresh, empty index (every lookup misses until the first fill).
    pub fn new() -> Self {
        CandidateIndex::default()
    }

    /// Drops every cached signature but keeps the allocations (and the
    /// generation history, so retired ids can never resurrect stale entries).
    pub fn clear(&mut self) {
        for run in self.runs.values_mut() {
            run.clear();
        }
    }

    /// Number of cached entries across all runs (tests/debugging).
    pub fn num_entries(&self) -> usize {
        self.runs.values().map(|r| r.len()).sum()
    }

    /// Takes and resets the per-batch effectiveness counters:
    /// `(reshingled, cached)` — roots hashed fresh vs served from the cache
    /// since the last call.
    pub fn take_batch_stats(&mut self) -> (usize, usize) {
        let out = (self.reshingled, self.cached);
        self.reshingled = 0;
        self.cached = 0;
        out
    }

    /// Applies an id-order-preserving arena compaction to the index: every
    /// entry's root id is remapped (dead ids dropped) and the generation vector
    /// is renumbered.  Because the remap preserves id order, every run stays
    /// sorted by `(shingle, root)` without re-sorting — cached signatures
    /// survive compaction.
    pub fn remap(&mut self, map: &CompactionMap) {
        let gen = &self.gen;
        for run in self.runs.values_mut() {
            run.retain_mut(|e| {
                if gen.get(e.root as usize) != Some(&e.gen) {
                    return false; // stale anyway; drop instead of remapping
                }
                match map.remap(e.root) {
                    Some(new) => {
                        e.root = new;
                        true
                    }
                    None => false,
                }
            });
        }
        // Order-preserving remap: live old ids keep their relative order, so
        // pushing their generations in old-id order indexes them by new id.
        let mut new_gen = Vec::with_capacity(self.gen.len());
        for (old, &g) in self.gen.iter().enumerate() {
            if map.remap(old as SupernodeId).is_some() {
                new_gen.push(g);
            }
        }
        self.gen = new_gen;
    }

    /// Grows the per-id vectors to cover `max_id`.
    fn ensure_capacity(&mut self, max_id: SupernodeId) {
        let need = max_id as usize + 1;
        if self.gen.len() < need {
            self.gen.resize(need, 0);
            self.group_stamp.resize(need, 0);
            self.covered_stamp.resize(need, 0);
        }
    }

    /// Advances the stamp, resetting the mark vectors on (theoretical) wrap.
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.group_stamp.fill(0);
            self.covered_stamp.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    /// The cache-aware counterpart of [`fill_keyed`] + sort: leaves
    /// `scratch.keyed` holding the sorted `(shingle, root)` pairs of `group`
    /// under `seed`, hashing only the roots without a valid cached entry and
    /// splicing the rest out of the cached run.  Updates the run in place
    /// (valid out-of-group entries are retained, stale ones dropped).
    pub(super) fn fill_keyed_cached<G: AdjacencyList + Sync>(
        &mut self,
        summary: &HierarchicalSummary,
        graph: &G,
        group: &[SupernodeId],
        seed: u64,
        threads: usize,
        scratch: &mut CandidateScratch,
    ) {
        let max_id = group.iter().copied().max().unwrap_or(0);
        self.ensure_capacity(max_id);
        let stamp = self.next_stamp();
        let CandidateIndex {
            gen,
            runs,
            reshingled,
            cached,
            group_stamp,
            covered_stamp,
            hits,
            fresh,
            merged,
            ..
        } = self;
        for &r in group {
            group_stamp[r as usize] = stamp;
        }
        // Valid in-group cached entries, in run order (sorted by construction).
        hits.clear();
        if let Some(run) = runs.get(&seed) {
            for e in run {
                let i = e.root as usize;
                if group_stamp[i] == stamp && gen[i] == e.gen {
                    hits.push((e.shingle, e.root));
                    covered_stamp[i] = stamp;
                }
            }
        }
        // Hash the uncovered (dirty or never-seen) roots fresh, then sort just
        // that run — the splice below replaces the full-region re-sort.
        fresh.clear();
        fresh.extend(
            group
                .iter()
                .copied()
                .filter(|&r| covered_stamp[r as usize] != stamp),
        );
        fill_keyed(summary, graph, fresh, seed, threads, scratch);
        scratch.keyed.sort_unstable();
        *reshingled += fresh.len();
        *cached += hits.len();
        // Splice: cached hits + fresh run, both sorted, disjoint root sets.
        merged.clear();
        merged.reserve(hits.len() + scratch.keyed.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < hits.len() && j < scratch.keyed.len() {
            if hits[i] <= scratch.keyed[j] {
                merged.push(hits[i]);
                i += 1;
            } else {
                merged.push(scratch.keyed[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&hits[i..]);
        merged.extend_from_slice(&scratch.keyed[j..]);
        debug_assert!(merged.windows(2).all(|w| w[0] < w[1]));
        // Refresh the run: valid out-of-group entries (context roots cached in
        // an earlier batch that sat this one out keep their signatures) spliced
        // with the group's entries at their current generations.
        let old_run = runs.remove(&seed).unwrap_or_default();
        let mut new_run = Vec::with_capacity(old_run.len() + merged.len());
        let mut keep = old_run.iter().filter(|e| {
            let i = e.root as usize;
            group_stamp[i] != stamp && gen[i] == e.gen
        });
        let mut next_keep = keep.next();
        let mut m = 0usize;
        while m < merged.len() || next_keep.is_some() {
            let take_keep = match (next_keep, merged.get(m)) {
                (Some(k), Some(&(sh, r))) => (k.shingle, k.root) <= (sh, r),
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_keep {
                new_run.push(*next_keep.unwrap());
                next_keep = keep.next();
            } else {
                let (shingle, root) = merged[m];
                new_run.push(IndexEntry {
                    shingle,
                    root,
                    gen: gen[root as usize],
                });
                m += 1;
            }
        }
        runs.insert(seed, new_run);
        std::mem::swap(&mut scratch.keyed, merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{candidate_sets_with, CandidateConfig};
    use slugger_graph::gen::{caveman, CavemanConfig};
    use slugger_graph::Graph;

    fn setup(num_nodes: usize) -> (HierarchicalSummary, Vec<SupernodeId>, Graph) {
        let g = caveman(&CavemanConfig {
            num_nodes,
            num_cliques: (num_nodes / 8).max(4),
            ..CavemanConfig::default()
        });
        let summary = HierarchicalSummary::identity(g.num_nodes());
        let roots: Vec<SupernodeId> = summary.roots().collect();
        (summary, roots, g)
    }

    #[test]
    fn cold_index_matches_the_index_free_path() {
        let (summary, roots, g) = setup(240);
        let config = CandidateConfig {
            max_group_size: 24,
            max_shingle_splits: 4,
        };
        for seed in [0u64, 7, 99] {
            let mut scratch = CandidateScratch::default();
            let mut index = CandidateIndex::new();
            let indexed = candidate_sets_with(
                &summary,
                &g,
                &roots,
                seed,
                &config,
                1,
                &mut scratch,
                Some(&mut index),
            );
            let mut scratch2 = CandidateScratch::default();
            let plain =
                candidate_sets_with(&summary, &g, &roots, seed, &config, 1, &mut scratch2, None);
            assert_eq!(indexed, plain, "seed {seed}");
            assert!(index.num_entries() > 0, "round-0 run must be cached");
        }
    }

    #[test]
    fn warm_index_serves_hits_and_stays_identical() {
        let (summary, roots, g) = setup(300);
        let config = CandidateConfig::default();
        let mut scratch = CandidateScratch::default();
        let mut index = CandidateIndex::new();
        let first = candidate_sets_with(
            &summary,
            &g,
            &roots,
            5,
            &config,
            1,
            &mut scratch,
            Some(&mut index),
        );
        let (reshingled, cached) = index.take_batch_stats();
        assert_eq!(reshingled, roots.len());
        assert_eq!(cached, 0);
        // Nothing changed: the second call must be all hits, same output.
        let second = candidate_sets_with(
            &summary,
            &g,
            &roots,
            5,
            &config,
            1,
            &mut scratch,
            Some(&mut index),
        );
        assert_eq!(first, second);
        let (reshingled, cached) = index.take_batch_stats();
        assert_eq!(reshingled, 0);
        assert_eq!(cached, roots.len());
    }

    #[test]
    fn retirement_forces_a_rehash_of_only_the_retired_roots() {
        let (summary, roots, g) = setup(300);
        let config = CandidateConfig::default();
        let mut scratch = CandidateScratch::default();
        let mut index = CandidateIndex::new();
        candidate_sets_with(
            &summary,
            &g,
            &roots,
            5,
            &config,
            1,
            &mut scratch,
            Some(&mut index),
        );
        index.take_batch_stats();
        for &r in &roots[..10] {
            index.retire_root(r);
        }
        let sets = candidate_sets_with(
            &summary,
            &g,
            &roots,
            5,
            &config,
            1,
            &mut scratch,
            Some(&mut index),
        );
        let (reshingled, cached) = index.take_batch_stats();
        assert_eq!(reshingled, 10);
        assert_eq!(cached, roots.len() - 10);
        let mut scratch2 = CandidateScratch::default();
        let plain = candidate_sets_with(&summary, &g, &roots, 5, &config, 1, &mut scratch2, None);
        assert_eq!(sets, plain);
    }

    #[test]
    fn out_of_group_entries_survive_a_smaller_fill() {
        // A fill over a subset must not evict the cached signatures of roots
        // that sat the round out: the follow-up full fill still hits on them.
        let (summary, roots, g) = setup(280);
        let config = CandidateConfig::default();
        let mut scratch = CandidateScratch::default();
        let mut index = CandidateIndex::new();
        candidate_sets_with(
            &summary,
            &g,
            &roots,
            3,
            &config,
            1,
            &mut scratch,
            Some(&mut index),
        );
        index.take_batch_stats();
        let subset: Vec<SupernodeId> = roots.iter().copied().step_by(2).collect();
        candidate_sets_with(
            &summary,
            &g,
            &subset,
            3,
            &config,
            1,
            &mut scratch,
            Some(&mut index),
        );
        index.take_batch_stats();
        candidate_sets_with(
            &summary,
            &g,
            &roots,
            3,
            &config,
            1,
            &mut scratch,
            Some(&mut index),
        );
        let (reshingled, cached) = index.take_batch_stats();
        assert_eq!(reshingled, 0, "full-set entries must have survived");
        assert_eq!(cached, roots.len());
    }
}
