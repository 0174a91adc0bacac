//! Shared invariance-test machinery.
//!
//! The byte-identity pins (`apply_invariance`, `incremental_invariance`,
//! `query_snapshot`, `scenario_matrix`, ...) all compare summaries through the
//! same canonical form and sweep the same thread-count lattice, and
//! the candidate-stage pins (`candidate_determinism`, `candidate_index`,
//! `scenario_matrix`) all compare against the same naive candidate oracle
//! ([`reference_candidate_sets`], checked against a live stream by
//! [`assert_oracle`]).  The bounded merge planner is held to the unbounded
//! partner search ([`reference_plan_candidate_set`]).  This module is that
//! machinery's single home; it ships in the library (not
//! `#[cfg(test)]`) so integration tests *and* downstream crates' tests can use
//! it, but it is documented as test support and carries no stability promise
//! beyond what the tests themselves pin.

use crate::candidates::{random_split, CandidateConfig};
use crate::engine::apply::{MergeRef, PlannedMerge};
use crate::engine::{MergeCtx, MergeState};
use crate::incremental::{pass_shingle_seed, IncrementalSummarizer};
use crate::merge::{MergeOptions, MergeStats};
use crate::model::{HierarchicalSummary, SupernodeId};
use crate::pipeline::Parallelism;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use slugger_graph::hash::{hash_node_with_seed, FxHashMap};
use slugger_graph::{Graph, NodeId};

/// One arena slot of the canonical form: `(parent, children, members, alive)`.
pub type CanonicalSlot = (Option<u32>, Vec<u32>, Vec<u32>, bool);

/// The canonical form of a summary: every observable byte of the model, with
/// the (layout-dependent) hash maps flattened into sorted vectors.  Two
/// summaries with equal canonical forms are byte-identical as far as any
/// consumer can tell — this is the **id-exact** comparison; for the id-free
/// (structural) comparison used across compaction/recovery boundaries see
/// [`crate::decode::canonical_form`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalSummary {
    /// Subnode-universe size.
    pub num_subnodes: usize,
    /// Every arena slot in id order (dead slots included).
    pub arena: Vec<CanonicalSlot>,
    /// Sorted `((a, b), weight)` p/n-edge list.
    pub edges: Vec<((u32, u32), i32)>,
}

/// Flattens a summary into its canonical form (see [`CanonicalSummary`]).
pub fn canonical(summary: &HierarchicalSummary) -> CanonicalSummary {
    let arena = (0..summary.arena_len() as u32)
        .map(|id| {
            (
                summary.parent(id),
                summary.children(id).to_vec(),
                summary.members(id).to_vec(),
                summary.is_alive(id),
            )
        })
        .collect();
    let mut edges: Vec<((u32, u32), i32)> = summary
        .pn_edges()
        .map(|(key, sign)| (key, sign.weight()))
        .collect();
    edges.sort_unstable();
    CanonicalSummary {
        num_subnodes: summary.num_subnodes(),
        arena,
        edges,
    }
}

/// Thread counts the invariance lattice sweeps.
pub const PARALLELISM_LEVELS: [usize; 4] = [1, 2, 4, 8];

/// One point of the thread-count invariance lattice.
#[derive(Clone, Copy, Debug)]
pub struct LatticePoint {
    /// The swept thread count (1 maps to [`Parallelism::Sequential`]).
    pub threads: usize,
    /// The pipeline parallelism setting for `threads`.
    pub parallelism: Parallelism,
}

/// The 4-point lattice `threads {1, 2, 4, 8}`, with `threads == 1` mapped to
/// [`Parallelism::Sequential`] (one shard planned in ascending set order, the
/// result every other point must reproduce).
pub fn lattice() -> Vec<LatticePoint> {
    PARALLELISM_LEVELS
        .iter()
        .map(|&threads| LatticePoint {
            threads,
            parallelism: if threads == 1 {
                Parallelism::Sequential
            } else {
                Parallelism::Fixed(threads)
            },
        })
        .collect()
}

/// Reference [`crate::candidates::shingles`]: the naive oracle of the
/// optimized shingle fold.  Hashes *every* subnode up front (O(|V|) per call),
/// then folds each root's closed neighborhood.
pub fn reference_shingles(
    summary: &HierarchicalSummary,
    graph: &Graph,
    roots: &[SupernodeId],
    seed: u64,
) -> Vec<u64> {
    let n = graph.num_nodes();
    let mut node_hash: Vec<u64> = vec![0; n];
    for u in 0..n as NodeId {
        node_hash[u as usize] = hash_node_with_seed(u, seed);
    }
    roots
        .iter()
        .map(|&root| {
            let mut best = u64::MAX;
            for &u in summary.members(root) {
                best = best.min(node_hash[u as usize]);
                for &w in graph.neighbors(u) {
                    best = best.min(node_hash[w as usize]);
                }
            }
            best
        })
        .collect()
}

/// Reference [`crate::candidates::candidate_sets`]: the naive oracle of the
/// candidate stage.
///
/// Identical algorithm and identical output to
/// [`crate::candidates::candidate_sets_with`], with or without a candidate
/// index, for every seed, but written
/// the obvious way: every shingle pass goes through [`reference_shingles`] and
/// runs on one thread with fresh allocations.  `tests/candidate_determinism.rs`
/// pins the byte-for-byte equivalence.
pub fn reference_candidate_sets(
    summary: &HierarchicalSummary,
    graph: &Graph,
    roots: &[SupernodeId],
    seed: u64,
    config: &CandidateConfig,
) -> Vec<Vec<SupernodeId>> {
    let mut result = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe_f00d_d00d);
    let mut queue: Vec<(Vec<SupernodeId>, usize)> = Vec::new();
    if roots.len() >= 2 {
        queue.push((roots.to_vec(), 0));
    }
    while let Some((group, round)) = queue.pop() {
        if round >= config.max_shingle_splits {
            random_split(group, config.max_group_size, &mut rng, &mut result);
            continue;
        }
        let round_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(round as u64 + 1);
        let sh = reference_shingles(summary, graph, &group, round_seed);
        let mut keyed: Vec<(u64, SupernodeId)> =
            sh.into_iter().zip(group.iter().copied()).collect();
        keyed.sort_unstable();
        if keyed.first().map(|&(s, _)| s) == keyed.last().map(|&(s, _)| s) && round > 0 {
            random_split(group, config.max_group_size, &mut rng, &mut result);
            continue;
        }
        let mut start = 0;
        while start < keyed.len() {
            let shingle = keyed[start].0;
            let mut end = start + 1;
            while end < keyed.len() && keyed[end].0 == shingle {
                end += 1;
            }
            let len = end - start;
            if len >= 2 {
                let bucket: Vec<SupernodeId> = keyed[start..end].iter().map(|&(_, r)| r).collect();
                if len <= config.max_group_size {
                    result.push(bucket);
                } else {
                    queue.push((bucket, round + 1));
                }
            }
            start = end;
        }
    }
    result
}

/// Asserts that the candidate sets a stream computes through its warm
/// persistent index equal [`reference_candidate_sets`] recomputed from scratch
/// on the same view, for every per-batch pass seed — over all current roots and
/// over a strict subset (every other root), the shape a region pass sees.  Any
/// missed invalidation (a structural event that changes a root's shingle
/// without retiring its cached signature) shows up here as a divergence.
pub fn assert_oracle(inc: &mut IncrementalSummarizer, context: &str) {
    let config = *inc.config();
    let candidate_config = CandidateConfig {
        max_group_size: config.max_candidate_size,
        max_shingle_splits: config.max_shingle_splits,
    };
    let graph = inc.graph().to_graph();
    let all: Vec<SupernodeId> = inc.summary().roots().collect();
    let subset: Vec<SupernodeId> = all.iter().copied().step_by(2).collect();
    for (roots, which) in [(&all, "all roots"), (&subset, "every other root")] {
        for t in 1..=config.iterations {
            let indexed = inc.probe_candidate_sets(t, roots);
            let expected = reference_candidate_sets(
                inc.summary(),
                &graph,
                roots,
                pass_shingle_seed(config.seed, t),
                &candidate_config,
            );
            assert_eq!(
                indexed, expected,
                "{context}: oracle diverged at pass {t} over {which}"
            );
        }
    }
}

/// The unbounded partner search: Algorithm 2 over one candidate set exactly as
/// [`plan_candidate_set`](crate::merge::plan_candidate_set) plans it, except that
/// every considered pair is evaluated in full through
/// [`MergeState::evaluate_merge`] — no bound, no skip, fresh allocations.  It is
/// the oracle `tests/bounded_planning.rs` holds the bounded production loop to:
/// identical plans, `merged` and `evaluated` (its `bounded_out` is always 0).
pub fn reference_plan_candidate_set<E: MergeState>(
    engine: &mut E,
    ctx: &mut MergeCtx,
    candidate_set: &[SupernodeId],
    options: &MergeOptions,
    rng: &mut StdRng,
) -> (Vec<PlannedMerge>, MergeStats) {
    let mut stats = MergeStats::default();
    let mut merges = Vec::new();
    let mut planned_ids: FxHashMap<SupernodeId, usize> = FxHashMap::default();
    let mut queue: Vec<SupernodeId> = candidate_set
        .iter()
        .copied()
        .filter(|&r| engine.is_root(r))
        .collect();
    while queue.len() > 1 {
        let a = queue.swap_remove(rng.random_range(0..queue.len()));
        if !engine.is_root(a) {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (pos, &z) in queue.iter().enumerate() {
            if z == a || !engine.is_root(z) {
                continue;
            }
            if let Some(bound) = options.height_bound {
                if engine.root_height(a).max(engine.root_height(z)) + 1 > bound {
                    continue;
                }
            }
            let saving = engine.evaluate_merge(a, z, ctx).saving;
            stats.evaluated += 1;
            if best.is_none_or(|(_, s)| saving > s) {
                best = Some((pos, saving));
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
            queue[pos] = merged;
        }
    }
    (merges, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Slugger, SluggerConfig};
    use slugger_graph::Graph;

    #[test]
    fn lattice_has_four_points_and_maps_one_to_sequential() {
        let points = lattice();
        assert_eq!(points.len(), 4);
        for p in &points {
            match p.parallelism {
                Parallelism::Sequential => assert_eq!(p.threads, 1),
                Parallelism::Fixed(n) => assert_eq!(n, p.threads),
                other => panic!("unexpected lattice parallelism {other:?}"),
            }
        }
    }

    #[test]
    fn canonical_distinguishes_structurally_different_summaries() {
        let a = Slugger::new(SluggerConfig {
            iterations: 3,
            seed: 1,
            ..SluggerConfig::default()
        })
        .summarize(&Graph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (3, 4)]));
        let b = Slugger::new(SluggerConfig {
            iterations: 3,
            seed: 1,
            ..SluggerConfig::default()
        })
        .summarize(&Graph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (4, 5)]));
        assert_eq!(canonical(&a.summary), canonical(&a.summary));
        assert_ne!(canonical(&a.summary), canonical(&b.summary));
    }
}
