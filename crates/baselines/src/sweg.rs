//! SWeG (Shin et al., "SWeG: Lossless and Lossy Summarization of Web-Scale Graphs",
//! WWW 2019) restricted to its lossless setting (ε = 0), which is how the SLUGGER
//! paper evaluates it.
//!
//! SWeG alternates, for `T` iterations, (a) dividing supernodes into groups by
//! min-hash shingles and (b) greedily merging within each group, selecting partners by
//! **SuperJaccard similarity** (cheap) and accepting a merge only when the actual
//! flat-model saving clears the threshold `θ(t) = (1 + t)⁻¹`.  A final encoding phase
//! computes the optimal `P`, `C+`, `C−` for the resulting grouping.
//!
//! The per-iteration execution runs on the **same sharded pipeline substrate as
//! SLUGGER** ([`slugger_core::pipeline`]): shingle groups are dealt across a fixed
//! number of worker shards, each shard plans its merges on a clone of the frozen
//! grouping with a per-group RNG stream, and the planned merges are replayed on
//! the authoritative grouping in deterministic group order.
//! [`SwegConfig::parallelism`] only chooses the thread count and never changes
//! the result.

use crate::flat::{merge_saving, FlatSummary, GroupId, Grouping};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use slugger_core::pipeline::{plan_shards, set_rng, Parallelism, ShardWorker};
use slugger_graph::hash::{hash_node_with_seed, FxHashMap};
use slugger_graph::{Graph, NodeId};

/// Parameters of the SWeG baseline.
#[derive(Clone, Copy, Debug)]
pub struct SwegConfig {
    /// Number of iterations `T` (paper setting: 20).
    pub iterations: usize,
    /// Maximum group size before random splitting (matching SLUGGER's 500).
    pub max_group_size: usize,
    /// Random seed.
    pub seed: u64,
    /// Thread knob for shard execution; never affects results.
    pub parallelism: Parallelism,
}

impl Default for SwegConfig {
    fn default() -> Self {
        SwegConfig {
            iterations: 20,
            max_group_size: 500,
            seed: 0,
            parallelism: Parallelism::Sequential,
        }
    }
}

/// Worker shards per iteration.  SWeG's output depends on it (see
/// `SwegShardWorker`), so it is fixed rather than following the thread count.
const SHARDS: usize = 8;

/// SWeG's shard worker: the frozen grouping of the iteration; forking clones it.
///
/// Unlike SLUGGER (which plans each set on a copy-on-write overlay), SWeG pays one
/// O(|V|) `Grouping` clone per non-empty shard per iteration — cheap next to the
/// SuperJaccard evaluations, and what makes a shard's plan self-consistent across
/// its groups.  Consequently SWeG's output *does* depend on the shard count (but
/// never on the thread count).
struct SwegShardWorker<'a> {
    graph: &'a Graph,
    view: &'a Grouping,
    threshold: f64,
}

impl ShardWorker for SwegShardWorker<'_> {
    type Planner = Grouping;
    /// Merges as `(survivor, absorbed)` pairs; flat-model group ids are stable, so no
    /// positional references are needed (unlike the hierarchical engine's plans).
    type Plan = Vec<(GroupId, GroupId)>;

    fn fork(&self) -> Grouping {
        self.view.clone()
    }

    fn plan_set(
        &self,
        planner: &mut Grouping,
        _set_index: usize,
        set: &[GroupId],
        rng: &mut StdRng,
    ) -> Vec<(GroupId, GroupId)> {
        plan_within_group(self.graph, planner, set, self.threshold, rng)
    }
}

/// Runs SWeG (lossless) and returns the flat summary.
pub fn sweg_summarize(graph: &Graph, config: &SwegConfig) -> FlatSummary {
    let n = graph.num_nodes();
    let mut grouping = Grouping::singletons(n);
    for t in 1..=config.iterations {
        let threshold = if t >= config.iterations {
            0.0
        } else {
            1.0 / (1.0 + t as f64)
        };
        let groups = shingle_groups(graph, &grouping, config, t as u64);
        let worker = SwegShardWorker {
            graph,
            view: &grouping,
            threshold,
        };
        let plans = plan_shards(
            &worker,
            &groups,
            SHARDS,
            config.parallelism,
            &|group_index| set_rng(config.seed, t, group_index),
        );
        // Apply stage: groups are disjoint, so replaying the planned merges in group
        // order reproduces each shard's planned grouping exactly.
        for plan in &plans {
            for &(survivor, absorbed) in plan {
                grouping.merge_groups(survivor, absorbed);
            }
        }
    }
    FlatSummary::build(graph, grouping)
}

/// Groups the current supernodes by min-hash shingle, randomly splitting oversized
/// buckets.
fn shingle_groups(
    graph: &Graph,
    grouping: &Grouping,
    config: &SwegConfig,
    iteration: u64,
) -> Vec<Vec<GroupId>> {
    let seed = config
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(iteration);
    let n = graph.num_nodes();
    let mut node_hash: Vec<u64> = vec![0; n];
    for u in 0..n as NodeId {
        node_hash[u as usize] = hash_node_with_seed(u, seed);
    }
    let mut buckets: FxHashMap<u64, Vec<GroupId>> = FxHashMap::default();
    for g in grouping.group_ids() {
        let mut best = u64::MAX;
        for &u in grouping.members(g) {
            best = best.min(node_hash[u as usize]);
            for &w in graph.neighbors(u) {
                best = best.min(node_hash[w as usize]);
            }
        }
        buckets.entry(best).or_default().push(g);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_ef01_2345_6789);
    let mut out = Vec::new();
    for (_, mut bucket) in buckets {
        if bucket.len() < 2 {
            continue;
        }
        if bucket.len() <= config.max_group_size {
            out.push(bucket);
        } else {
            bucket.shuffle(&mut rng);
            for chunk in bucket.chunks(config.max_group_size) {
                if chunk.len() >= 2 {
                    out.push(chunk.to_vec());
                }
            }
        }
    }
    out
}

/// The SuperJaccard similarity between two supernodes: the weighted Jaccard of their
/// members' neighborhoods (each neighbor counted once per member adjacent to it).
fn super_jaccard(graph: &Graph, grouping: &Grouping, a: GroupId, b: GroupId) -> f64 {
    let weights_a = neighbor_weights(graph, grouping, a);
    let weights_b = neighbor_weights(graph, grouping, b);
    let mut intersection = 0usize;
    let mut union = 0usize;
    for (node, &wa) in &weights_a {
        let wb = weights_b.get(node).copied().unwrap_or(0);
        intersection += wa.min(wb);
        union += wa.max(wb);
    }
    for (node, &wb) in &weights_b {
        if !weights_a.contains_key(node) {
            union += wb;
        }
    }
    if union == 0 {
        0.0
    } else {
        intersection as f64 / union as f64
    }
}

fn neighbor_weights(graph: &Graph, grouping: &Grouping, g: GroupId) -> FxHashMap<NodeId, usize> {
    let mut weights: FxHashMap<NodeId, usize> = FxHashMap::default();
    for &u in grouping.members(g) {
        for &w in graph.neighbors(u) {
            *weights.entry(w).or_insert(0) += 1;
        }
    }
    weights
}

/// Greedy merging within one group (the merge stage of the shared pipeline): the
/// pivot order is random; each pivot merges with its most SuperJaccard-similar
/// partner when the flat saving clears the threshold.  The merges are applied to the
/// given (per-shard) grouping *and* returned as `(survivor, absorbed)` pairs so the
/// apply stage can replay them on the authoritative grouping.
fn plan_within_group(
    graph: &Graph,
    grouping: &mut Grouping,
    group: &[GroupId],
    threshold: f64,
    rng: &mut StdRng,
) -> Vec<(GroupId, GroupId)> {
    let mut merges: Vec<(GroupId, GroupId)> = Vec::new();
    let mut queue: Vec<GroupId> = group
        .iter()
        .copied()
        .filter(|&g| !grouping.members(g).is_empty())
        .collect();
    while queue.len() > 1 {
        let idx = rng.random_range(0..queue.len());
        let pivot = queue.swap_remove(idx);
        if grouping.members(pivot).is_empty() {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (pos, &other) in queue.iter().enumerate() {
            if other == pivot || grouping.members(other).is_empty() {
                continue;
            }
            let sim = super_jaccard(graph, grouping, pivot, other);
            if best.is_none_or(|(_, s)| sim > s) {
                best = Some((pos, sim));
            }
        }
        let Some((pos, _)) = best else { continue };
        let partner = queue[pos];
        let saving = merge_saving(graph, grouping, pivot, partner);
        if saving >= threshold {
            let survivor = grouping.merge_groups(pivot, partner);
            merges.push((pivot, partner));
            queue[pos] = survivor;
        }
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use slugger_graph::gen::{caveman, erdos_renyi, CavemanConfig};

    #[test]
    fn sweg_is_lossless_on_structured_and_random_graphs() {
        let structured = caveman(&CavemanConfig {
            num_nodes: 150,
            num_cliques: 25,
            ..CavemanConfig::default()
        });
        let random = erdos_renyi(100, 300, 3);
        for g in [structured, random] {
            let summary = sweg_summarize(
                &g,
                &SwegConfig {
                    iterations: 5,
                    max_group_size: 64,
                    seed: 1,
                    ..SwegConfig::default()
                },
            );
            summary.verify_lossless(&g).unwrap();
            summary.grouping.validate().unwrap();
        }
    }

    #[test]
    fn sweg_compresses_clique_heavy_graph() {
        let g = caveman(&CavemanConfig {
            num_nodes: 300,
            num_cliques: 40,
            min_clique: 6,
            max_clique: 10,
            rewire_probability: 0.0,
            seed: 2,
        });
        let summary = sweg_summarize(
            &g,
            &SwegConfig {
                iterations: 8,
                max_group_size: 64,
                seed: 4,
                ..SwegConfig::default()
            },
        );
        summary.verify_lossless(&g).unwrap();
        assert!(
            summary.relative_size() < 0.95,
            "relative size {}",
            summary.relative_size()
        );
    }

    #[test]
    fn super_jaccard_identical_twins_is_one() {
        let g = Graph::from_edges(4, vec![(0, 2), (0, 3), (1, 2), (1, 3)]);
        let grouping = Grouping::singletons(4);
        let sim = super_jaccard(&g, &grouping, 0, 1);
        assert!((sim - 1.0).abs() < 1e-12);
        let dissim = super_jaccard(&g, &grouping, 0, 2);
        assert!(dissim < 0.5);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = caveman(&CavemanConfig {
            num_nodes: 100,
            ..CavemanConfig::default()
        });
        let cfg = SwegConfig {
            iterations: 4,
            max_group_size: 64,
            seed: 9,
            ..SwegConfig::default()
        };
        assert_eq!(
            sweg_summarize(&g, &cfg).total_cost(),
            sweg_summarize(&g, &cfg).total_cost()
        );
    }

    #[test]
    fn parallel_execution_reproduces_the_sequential_grouping() {
        // SWeG rides the same pipeline substrate as SLUGGER, so the same contract
        // holds: the thread knob must never change the output.
        let g = caveman(&CavemanConfig {
            num_nodes: 200,
            num_cliques: 30,
            ..CavemanConfig::default()
        });
        let base = SwegConfig {
            iterations: 5,
            max_group_size: 64,
            seed: 6,
            ..SwegConfig::default()
        };
        let sequential = sweg_summarize(&g, &base);
        for parallelism in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(8),
            Parallelism::Auto,
        ] {
            let parallel = sweg_summarize(
                &g,
                &SwegConfig {
                    parallelism,
                    ..base
                },
            );
            assert_eq!(
                sequential.total_cost(),
                parallel.total_cost(),
                "thread knob changed SWeG's output at {parallelism:?}"
            );
            parallel.verify_lossless(&g).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------------
// Lossy variant (SWeG's dropping phase)
// ---------------------------------------------------------------------------------

/// Report of a lossy run: how many corrections were dropped and the realized error.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LossyReport {
    /// Positive corrections dropped (edges removed from the decoded graph).
    pub dropped_c_plus: usize,
    /// Negative corrections dropped (spurious edges appearing in the decoded graph).
    pub dropped_c_minus: usize,
    /// Maximum realized per-node error ratio (changed neighbors / degree).
    pub max_error_ratio: f64,
}

/// Lossy SWeG (Sect. V of the SLUGGER paper, "without changing more than ε of the
/// neighbors of each node"): run lossless SWeG, then greedily drop correction edges as
/// long as neither endpoint's neighborhood changes by more than `epsilon · degree`.
///
/// `epsilon = 0` reproduces the lossless output exactly.
pub fn sweg_summarize_lossy(
    graph: &Graph,
    config: &SwegConfig,
    epsilon: f64,
) -> (FlatSummary, LossyReport) {
    assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
    let mut summary = sweg_summarize(graph, config);
    if epsilon == 0.0 {
        return (summary, LossyReport::default());
    }
    // Per-node error budgets: floor(epsilon * degree).
    let mut budget: Vec<usize> = (0..graph.num_nodes() as NodeId)
        .map(|u| (epsilon * graph.degree(u) as f64).floor() as usize)
        .collect();
    let mut report = LossyReport::default();
    let spend = |u: NodeId, v: NodeId, budget: &mut Vec<usize>| -> bool {
        if budget[u as usize] >= 1 && budget[v as usize] >= 1 {
            budget[u as usize] -= 1;
            budget[v as usize] -= 1;
            true
        } else {
            false
        }
    };
    // Corrections are cheapest to drop: each affects exactly one node pair.  Dropping a
    // C+ edge removes a true edge; dropping a C− edge introduces a false edge.
    let c_plus = std::mem::take(&mut summary.encoding.c_plus);
    summary.encoding.c_plus = c_plus
        .into_iter()
        .filter(|&(u, v)| {
            if spend(u, v, &mut budget) {
                report.dropped_c_plus += 1;
                false
            } else {
                true
            }
        })
        .collect();
    let c_minus = std::mem::take(&mut summary.encoding.c_minus);
    summary.encoding.c_minus = c_minus
        .into_iter()
        .filter(|&(u, v)| {
            if spend(u, v, &mut budget) {
                report.dropped_c_minus += 1;
                false
            } else {
                true
            }
        })
        .collect();
    // Realized error per node: spent budget / degree.
    report.max_error_ratio = (0..graph.num_nodes() as NodeId)
        .map(|u| {
            let degree = graph.degree(u);
            if degree == 0 {
                0.0
            } else {
                let initial = (epsilon * degree as f64).floor() as usize;
                (initial - budget[u as usize]) as f64 / degree as f64
            }
        })
        .fold(0.0, f64::max);
    (summary, report)
}

#[cfg(test)]
mod lossy_tests {
    use super::*;
    use slugger_graph::gen::{caveman, CavemanConfig};
    use slugger_graph::NodeId;

    fn test_graph() -> Graph {
        caveman(&CavemanConfig {
            num_nodes: 150,
            num_cliques: 25,
            min_clique: 4,
            max_clique: 8,
            rewire_probability: 0.08,
            seed: 6,
        })
    }

    fn config() -> SwegConfig {
        SwegConfig {
            iterations: 5,
            max_group_size: 64,
            seed: 2,
            ..SwegConfig::default()
        }
    }

    #[test]
    fn epsilon_zero_is_exactly_lossless() {
        let g = test_graph();
        let (summary, report) = sweg_summarize_lossy(&g, &config(), 0.0);
        assert_eq!(report, LossyReport::default());
        summary.verify_lossless(&g).unwrap();
    }

    #[test]
    fn lossy_output_is_smaller_and_respects_the_error_bound() {
        let g = test_graph();
        let lossless = sweg_summarize(&g, &config());
        let epsilon = 0.3;
        let (lossy, report) = sweg_summarize_lossy(&g, &config(), epsilon);
        assert!(lossy.total_cost() <= lossless.total_cost());
        assert!(report.dropped_c_plus + report.dropped_c_minus > 0);
        assert!(report.max_error_ratio <= epsilon + 1e-9);
        // Verify the per-node error bound against the actually decoded graph.
        let decoded = lossy.decode();
        for u in 0..g.num_nodes() as NodeId {
            let original: std::collections::HashSet<NodeId> =
                g.neighbors(u).iter().copied().collect();
            let reconstructed: std::collections::HashSet<NodeId> =
                decoded.neighbors(u).iter().copied().collect();
            let changed = original.symmetric_difference(&reconstructed).count();
            let allowed = (epsilon * g.degree(u) as f64).floor() as usize;
            assert!(
                changed <= allowed,
                "node {u}: {changed} changed neighbors exceeds budget {allowed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_is_rejected() {
        let g = test_graph();
        let _ = sweg_summarize_lossy(&g, &config(), 1.5);
    }
}
