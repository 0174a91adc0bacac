//! Candidate generation (Sect. III-B2): grouping root supernodes that are likely to be
//! merged profitably.
//!
//! Merging two roots at distance ≥ 3 always increases the encoding cost (Lemma 1), so
//! SLUGGER groups roots within distance 2 using **min-hash shingles**, exactly as SWeG
//! does: for a random permutation `h` of the subnodes, the shingle of a root `A` is the
//! minimum of `h(w)` over all subnodes `w` in the closed neighborhood of `A`'s members.
//! Two roots within distance 2 share a subnode in their closed neighborhoods and hence
//! collide with non-trivial probability; distant roots essentially never do.
//!
//! Groups larger than the configured cap are split further: first by re-hashing with
//! fresh permutations (at most [`CandidateConfig::max_shingle_splits`] times, 10 in the
//! paper), then randomly (the paper caps candidate sets at 500 roots).
//!
//! # Hot-path design
//!
//! This stage runs once per iteration over every root and used to dominate late
//! iterations, so it is engineered around three ideas:
//!
//! * **Lazy per-node hashing.**  The permutation `h(w) = splitmix64(w ^ splitmix64(seed))`
//!   is a pure function, so instead of materialising a `Vec<u64>` of hashes for *all*
//!   `|V|` subnodes on every [`shingles`] call (O(|V|) work and memory traffic even for
//!   a ten-root group), small groups hash each touched node inline during the fold,
//!   with the seed mix hoisted once per round.  Only near-full groups — where the
//!   lookups amortize the build — go through a per-seed hash table kept in the
//!   reusable [`CandidateScratch`] (see `TABLE_FOLD_FACTOR`); both modes compute
//!   the identical permutation.
//! * **Sort-based bucketing.**  Splitting a group by shingle value sorts a reusable
//!   `(shingle, root)` buffer (allocation-free unstable sort; root ids are unique, so
//!   the order is total) and walks the equal-shingle runs, instead of filling a fresh
//!   hash map of `Vec`s per round.  Buckets therefore come out in ascending shingle
//!   order with roots ascending inside — deterministic by construction, independent
//!   of any hash map's internal layout — and small buckets are emitted as candidate
//!   sets immediately instead of round-tripping through the work queue.
//! * **Parallel shingle fold.**  For large groups (the first split of every iteration
//!   touches all roots) the fold is dealt in contiguous chunks across the `rayon`
//!   substrate already used by [`crate::pipeline`].  The fold is a pure map, so the
//!   chunking — and hence the thread count — never changes the grouping; byte-identical
//!   output for a fixed seed is pinned by `tests/candidate_determinism.rs` against the
//!   straightforward [`crate::testsupport::reference_candidate_sets`] oracle.

use crate::model::{HierarchicalSummary, SupernodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use slugger_graph::hash::splitmix64;
use slugger_graph::AdjacencyList;

pub mod index;

pub use index::{CandidateIndex, IndexSink};

/// Tuning knobs of the candidate-generation step.
#[derive(Clone, Copy, Debug)]
pub struct CandidateConfig {
    /// Maximum number of roots per candidate set (paper: 500).
    pub max_group_size: usize,
    /// Maximum number of shingle-based splitting rounds before falling back to random
    /// splitting (paper: 10).
    pub max_shingle_splits: usize,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            max_group_size: 500,
            max_shingle_splits: 10,
        }
    }
}

/// Minimum group size for which the shingle fold is dealt across worker threads.
/// Below this the per-thread spawn cost of the `rayon` substrate outweighs the fold.
/// Public so tests can size inputs against it; the cutoff never affects the
/// grouping, only wall-clock time.
pub const PARALLEL_SHINGLE_THRESHOLD: usize = 8_192;

/// A group whose size times this factor reaches `|V|` folds through a per-round hash
/// *table* instead of hashing lazily: for near-full root sets (the first split of an
/// iteration) the O(|V|) table build amortizes over the many lookups, while for the
/// small re-split groups — the common case, where the old per-call rebuild was pure
/// waste — lazy hashing touches only the group's own neighborhood.  Both modes
/// compute the identical permutation, so the cutoff never affects the grouping.
const TABLE_FOLD_FACTOR: usize = 4;

/// Reusable buffers of [`candidate_sets_with`], so the split rounds of an iteration
/// (and consecutive iterations sharing the scratch) perform no per-round allocations
/// beyond the emitted candidate sets themselves.
#[derive(Default)]
pub struct CandidateScratch {
    /// `(shingle, root)` pairs of the group currently being split.
    keyed: Vec<(u64, SupernodeId)>,
    /// Per-node hash table for table-mode folds, valid for `node_hash_seed`.
    node_hash: Vec<u64>,
    /// The round seed `node_hash` is currently filled for.
    node_hash_seed: Option<u64>,
}

/// The min-hash shingle of one root under the hoisted seed mix:
/// `min_{u ∈ A} min_{w ∈ N(u) ∪ {u}} splitmix64(w ^ seed_mix)`.
#[inline]
fn root_shingle<G: AdjacencyList>(
    summary: &HierarchicalSummary,
    graph: &G,
    root: SupernodeId,
    seed_mix: u64,
) -> u64 {
    let mut best = u64::MAX;
    for &u in summary.members(root) {
        best = best.min(splitmix64(u as u64 ^ seed_mix));
        for &w in graph.neighbors(u) {
            best = best.min(splitmix64(w as u64 ^ seed_mix));
        }
    }
    best
}

/// Computes the min-hash shingle of every given root under the permutation derived
/// from `seed`.  The shingle of root `A` is
/// `min_{u ∈ A} min_{w ∈ N(u) ∪ {u}} h(w)` with `h(w) = hash_node_with_seed(w, seed)`.
pub fn shingles<G: AdjacencyList>(
    summary: &HierarchicalSummary,
    graph: &G,
    roots: &[SupernodeId],
    seed: u64,
) -> Vec<u64> {
    let seed_mix = splitmix64(seed);
    roots
        .iter()
        .map(|&root| root_shingle(summary, graph, root, seed_mix))
        .collect()
}

/// The min-hash shingle of one root by table lookup (table mode).
#[inline]
fn root_shingle_table<G: AdjacencyList>(
    summary: &HierarchicalSummary,
    graph: &G,
    root: SupernodeId,
    node_hash: &[u64],
) -> u64 {
    let mut best = u64::MAX;
    for &u in summary.members(root) {
        best = best.min(node_hash[u as usize]);
        for &w in graph.neighbors(u) {
            best = best.min(node_hash[w as usize]);
        }
    }
    best
}

/// Fills `scratch.keyed` with the `(shingle, root)` pair of every root in `group`,
/// folding in parallel when the group is large enough and more than one thread is
/// allowed.  Large groups go through a (reused, per-seed) node-hash table, small ones
/// hash lazily; the fold is a pure map either way, so neither the chunking nor the
/// table cutoff ever affects the values.
pub(crate) fn fill_keyed<G: AdjacencyList + Sync>(
    summary: &HierarchicalSummary,
    graph: &G,
    group: &[SupernodeId],
    seed: u64,
    threads: usize,
    scratch: &mut CandidateScratch,
) {
    let seed_mix = splitmix64(seed);
    let n = graph.num_nodes();
    let table = group.len().saturating_mul(TABLE_FOLD_FACTOR) >= n;
    // The cached table is valid only for this (seed, |V|) combination — a scratch
    // may be reused across graphs, and round seeds repeat across calls.
    if table && (scratch.node_hash_seed != Some(seed) || scratch.node_hash.len() != n) {
        scratch.node_hash.clear();
        scratch
            .node_hash
            .extend((0..n as u64).map(|u| splitmix64(u ^ seed_mix)));
        scratch.node_hash_seed = Some(seed);
    }
    let node_hash = &scratch.node_hash[..];
    let shingle_of = |root: SupernodeId| -> u64 {
        if table {
            root_shingle_table(summary, graph, root, node_hash)
        } else {
            root_shingle(summary, graph, root, seed_mix)
        }
    };
    let keyed = &mut scratch.keyed;
    keyed.clear();
    if threads <= 1 || group.len() < PARALLEL_SHINGLE_THRESHOLD {
        keyed.extend(group.iter().map(|&root| (shingle_of(root), root)));
        return;
    }
    keyed.resize(group.len(), (0, 0));
    let chunk = group.len().div_ceil(threads);
    rayon::scope(|scope| {
        for (roots, out) in group.chunks(chunk).zip(keyed.chunks_mut(chunk)) {
            let shingle_of = &shingle_of;
            scope.spawn(move || {
                for (slot, &root) in out.iter_mut().zip(roots.iter()) {
                    *slot = (shingle_of(root), root);
                }
            });
        }
    });
}

/// Randomly splits a group into chunks of at most `max_group_size`, dropping
/// singleton leftovers (the terminal splitter once shingle rounds are exhausted).
pub(crate) fn random_split(
    group: Vec<SupernodeId>,
    max_group_size: usize,
    rng: &mut StdRng,
    result: &mut Vec<Vec<SupernodeId>>,
) {
    let mut shuffled = group;
    shuffled.shuffle(rng);
    for chunk in shuffled.chunks(max_group_size) {
        if chunk.len() >= 2 {
            result.push(chunk.to_vec());
        }
    }
}

/// Generates candidate sets for one iteration: groups of roots (each of size ≥ 2 and
/// ≤ `config.max_group_size`) within which the merging step searches for pairs.
///
/// Equivalent to [`candidate_sets_with`] on a single thread with throwaway scratch.
pub fn candidate_sets<G: AdjacencyList + Sync>(
    summary: &HierarchicalSummary,
    graph: &G,
    roots: &[SupernodeId],
    seed: u64,
    config: &CandidateConfig,
) -> Vec<Vec<SupernodeId>> {
    let mut scratch = CandidateScratch::default();
    candidate_sets_with(summary, graph, roots, seed, config, 1, &mut scratch, None)
}

/// [`candidate_sets`] with explicit worker-thread count, reusable scratch and an
/// optional persistent [`CandidateIndex`].
///
/// `threads` is a pure throughput knob (the shingle fold is a pure map dealt in
/// contiguous chunks), so every thread count produces the identical grouping.
///
/// With an `index`, the initial (round-0) shingle fill hashes only the roots the
/// index cannot serve and splices the cached run into the sort-based bucketing
/// (see [`index`]); the output is byte-identical to the index-free call.  Deeper
/// re-split rounds hash fresh either way — they only ever see oversized buckets,
/// which are bounded by the group cap and rare after the first split.  The caller
/// owns the invalidation contract: every root whose member set or member
/// neighborhoods changed since its entry was cached must have been retired
/// through [`IndexSink::retire_root`].  `tests/candidate_index.rs` pins the
/// equivalence with [`crate::testsupport::reference_candidate_sets`] under random
/// interleavings.
#[allow(clippy::too_many_arguments)]
pub fn candidate_sets_with<G: AdjacencyList + Sync>(
    summary: &HierarchicalSummary,
    graph: &G,
    roots: &[SupernodeId],
    seed: u64,
    config: &CandidateConfig,
    threads: usize,
    scratch: &mut CandidateScratch,
    mut index: Option<&mut CandidateIndex>,
) -> Vec<Vec<SupernodeId>> {
    let mut result = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe_f00d_d00d);
    // Work queue of (group, split_round); every queued group needs splitting (it is
    // the initial round-0 group or exceeds the size cap).
    let mut queue: Vec<(Vec<SupernodeId>, usize)> = Vec::new();
    if roots.len() >= 2 {
        queue.push((roots.to_vec(), 0));
    }
    while let Some((group, round)) = queue.pop() {
        if round >= config.max_shingle_splits {
            random_split(group, config.max_group_size, &mut rng, &mut result);
            continue;
        }
        // Shingle-based split with a per-round permutation.
        let round_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(round as u64 + 1);
        // Buckets are the equal-shingle runs after sorting.  The whole-pair unstable
        // sort is allocation-free and fully deterministic (root ids are unique):
        // buckets come out in ascending shingle order, roots ascending within each.
        match index.as_deref_mut() {
            // The full-region fill — the dominant cost — goes through the cache.
            Some(index) if round == 0 => {
                index.fill_keyed_cached(summary, graph, &group, round_seed, threads, scratch)
            }
            _ => {
                fill_keyed(summary, graph, &group, round_seed, threads, scratch);
                scratch.keyed.sort_unstable();
            }
        }
        if scratch.keyed.last().map(|&(s, _)| s) == scratch.keyed.first().map(|&(s, _)| s)
            && round > 0
        {
            // Splitting made no progress (e.g. a dense clique); split randomly right
            // away instead of re-enqueueing through the remaining shingle rounds.
            random_split(group, config.max_group_size, &mut rng, &mut result);
            continue;
        }
        for run in scratch.keyed.chunk_by(|a, b| a.0 == b.0) {
            if run.len() >= 2 {
                let bucket: Vec<SupernodeId> = run.iter().map(|&(_, r)| r).collect();
                if run.len() <= config.max_group_size {
                    // Already small enough: emit directly instead of re-enqueueing
                    // (the old round trip re-checked — and at round 0 re-split —
                    // buckets that were already done).
                    result.push(bucket);
                } else {
                    queue.push((bucket, round + 1));
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{reference_candidate_sets, reference_shingles};
    use slugger_graph::gen::{caveman, CavemanConfig};
    use slugger_graph::Graph;

    fn identity_and_roots(graph: &Graph) -> (HierarchicalSummary, Vec<SupernodeId>) {
        let summary = HierarchicalSummary::identity(graph.num_nodes());
        let roots: Vec<SupernodeId> = summary.roots().collect();
        (summary, roots)
    }

    #[test]
    fn shingles_are_deterministic_and_seed_sensitive() {
        let g = Graph::from_edges(6, vec![(0, 1), (1, 2), (3, 4), (4, 5)]);
        let (s, roots) = identity_and_roots(&g);
        let a = shingles(&s, &g, &roots, 7);
        let b = shingles(&s, &g, &roots, 7);
        let c = shingles(&s, &g, &roots, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn lazy_shingles_match_the_reference_table() {
        let g = caveman(&CavemanConfig {
            num_nodes: 120,
            ..CavemanConfig::default()
        });
        let (s, roots) = identity_and_roots(&g);
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(
                shingles(&s, &g, &roots, seed),
                reference_shingles(&s, &g, &roots, seed),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn adjacent_nodes_share_shingles() {
        // In a triangle all closed neighborhoods coincide, so all shingles are equal.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2), (0, 2)]);
        let (s, roots) = identity_and_roots(&g);
        let sh = shingles(&s, &g, &roots, 3);
        assert_eq!(sh[0], sh[1]);
        assert_eq!(sh[1], sh[2]);
    }

    #[test]
    fn distant_components_end_up_in_distinct_groups() {
        // Two far-apart cliques: candidate sets must never mix them (their closed
        // neighborhoods are disjoint, so shingle collisions would require a hash
        // collision).
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5u32 {
                edges.push((u, v));
                edges.push((u + 5, v + 5));
            }
        }
        let g = Graph::from_edges(10, edges);
        let (s, roots) = identity_and_roots(&g);
        let sets = candidate_sets(&s, &g, &roots, 1, &CandidateConfig::default());
        for set in &sets {
            let in_first = set.iter().filter(|&&r| r < 5).count();
            assert!(in_first == 0 || in_first == set.len(), "mixed set {set:?}");
        }
    }

    #[test]
    fn groups_respect_size_cap() {
        let g = caveman(&CavemanConfig {
            num_nodes: 400,
            num_cliques: 50,
            ..CavemanConfig::default()
        });
        let (s, roots) = identity_and_roots(&g);
        let config = CandidateConfig {
            max_group_size: 16,
            max_shingle_splits: 4,
        };
        let sets = candidate_sets(&s, &g, &roots, 11, &config);
        assert!(!sets.is_empty());
        for set in &sets {
            assert!(set.len() >= 2);
            assert!(set.len() <= 16, "oversized candidate set: {}", set.len());
        }
    }

    #[test]
    fn different_seeds_vary_the_grouping() {
        let g = caveman(&CavemanConfig {
            num_nodes: 200,
            ..CavemanConfig::default()
        });
        let (s, roots) = identity_and_roots(&g);
        let config = CandidateConfig {
            max_group_size: 32,
            max_shingle_splits: 4,
        };
        let a = candidate_sets(&s, &g, &roots, 1, &config);
        let b = candidate_sets(&s, &g, &roots, 2, &config);
        // Not a strict requirement, but with overwhelming probability the groupings
        // differ between seeds (this is what lets SLUGGER explore more pairs over
        // iterations).
        assert_ne!(a, b);
    }

    #[test]
    fn isolated_roots_are_dropped() {
        let g = Graph::from_edges(4, vec![(0, 1)]);
        let (s, roots) = identity_and_roots(&g);
        let sets = candidate_sets(&s, &g, &roots, 5, &CandidateConfig::default());
        // Nodes 2 and 3 are isolated: they may appear in a set only alongside others,
        // and singleton sets must never be emitted.
        for set in &sets {
            assert!(set.len() >= 2);
        }
    }

    #[test]
    fn thread_count_never_changes_the_grouping() {
        let g = caveman(&CavemanConfig {
            num_nodes: 300,
            num_cliques: 30,
            ..CavemanConfig::default()
        });
        let (s, roots) = identity_and_roots(&g);
        let config = CandidateConfig {
            max_group_size: 24,
            max_shingle_splits: 4,
        };
        let baseline = candidate_sets(&s, &g, &roots, 13, &config);
        for threads in [2usize, 4, 8] {
            let mut scratch = CandidateScratch::default();
            let sets =
                candidate_sets_with(&s, &g, &roots, 13, &config, threads, &mut scratch, None);
            assert_eq!(sets, baseline, "grouping changed at {threads} threads");
        }
    }

    #[test]
    fn scratch_reuse_never_changes_the_grouping() {
        let g = caveman(&CavemanConfig {
            num_nodes: 250,
            ..CavemanConfig::default()
        });
        let (s, roots) = identity_and_roots(&g);
        let config = CandidateConfig {
            max_group_size: 20,
            max_shingle_splits: 3,
        };
        let mut scratch = CandidateScratch::default();
        for seed in 0..6u64 {
            let reused = candidate_sets_with(&s, &g, &roots, seed, &config, 1, &mut scratch, None);
            let fresh = candidate_sets(&s, &g, &roots, seed, &config);
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn scratch_survives_switching_graphs() {
        // The node-hash table cache is keyed by (seed, |V|): reusing one scratch
        // across graphs of different sizes — with colliding round seeds — must
        // neither panic nor change the grouping (regression: the cache used to be
        // validated by seed alone and indexed out of bounds on the larger graph).
        let small = caveman(&CavemanConfig {
            num_nodes: 100,
            ..CavemanConfig::default()
        });
        let large = caveman(&CavemanConfig {
            num_nodes: 4000,
            num_cliques: 400,
            ..CavemanConfig::default()
        });
        let config = CandidateConfig::default();
        let mut scratch = CandidateScratch::default();
        for (graph, other) in [(&small, &large), (&large, &small), (&small, &large)] {
            for g in [graph, other] {
                let (s, roots) = identity_and_roots(g);
                let reused = candidate_sets_with(&s, g, &roots, 5, &config, 1, &mut scratch, None);
                assert_eq!(reused, candidate_sets(&s, g, &roots, 5, &config));
            }
        }
    }

    #[test]
    fn matches_reference_implementation() {
        let g = caveman(&CavemanConfig {
            num_nodes: 350,
            num_cliques: 35,
            ..CavemanConfig::default()
        });
        let (s, roots) = identity_and_roots(&g);
        for (cap, splits) in [(500usize, 10usize), (16, 4), (8, 0), (12, 1)] {
            let config = CandidateConfig {
                max_group_size: cap,
                max_shingle_splits: splits,
            };
            for seed in [0u64, 3, 99] {
                assert_eq!(
                    candidate_sets(&s, &g, &roots, seed, &config),
                    reference_candidate_sets(&s, &g, &roots, seed, &config),
                    "cap {cap} splits {splits} seed {seed}"
                );
            }
        }
    }
}
