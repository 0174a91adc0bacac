//! Nested (hierarchical) stochastic block model.
//!
//! Sect. I of the paper motivates the hierarchical summarization model with graphs in
//! which "a group of nodes with similar connectivity have subgroups with higher
//! similarity, which in turn have subgroups with even higher similarity" (students of a
//! university → department → advisor).  This generator produces exactly that: a
//! balanced hierarchy of blocks with edge probability increasing with the depth of the
//! lowest common block of the two endpoints.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the nested stochastic block model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NestedSbmConfig {
    /// Total number of nodes.
    pub num_nodes: usize,
    /// Number of levels in the block hierarchy (≥ 1). Level 0 is "the whole graph".
    pub levels: usize,
    /// Branching factor: every block splits into this many child blocks.
    pub branching: usize,
    /// Edge probability between two nodes whose lowest common block is the root.
    pub base_probability: f64,
    /// Multiplicative probability boost per extra shared level.  With boost `b`, two
    /// nodes sharing a depth-`d` block connect with probability
    /// `min(1, base_probability · b^d)`.
    pub level_boost: f64,
    /// Seed for the random number generator.
    pub seed: u64,
}

impl Default for NestedSbmConfig {
    fn default() -> Self {
        NestedSbmConfig {
            num_nodes: 1_000,
            levels: 3,
            branching: 4,
            base_probability: 0.001,
            level_boost: 8.0,
            seed: 0,
        }
    }
}

/// Identifier of the block containing `node` at `depth` levels below the root, for a
/// balanced hierarchy over `num_nodes` nodes with the given branching factor.
///
/// Exposed so that experiments and tests can recover the planted hierarchy (e.g. to
/// compare it against the hierarchy SLUGGER discovers).
pub fn block_at_depth(node: NodeId, num_nodes: usize, branching: usize, depth: usize) -> usize {
    let blocks = branching.pow(depth as u32);
    let width = num_nodes.div_ceil(blocks);
    (node as usize) / width.max(1)
}

/// Generates a nested-SBM graph (see [`NestedSbmConfig`]).
///
/// The expected edge count grows with `base_probability`; callers that need a target
/// edge count should tune `base_probability` (as `slugger-datasets` does).
pub fn nested_sbm(config: &NestedSbmConfig) -> Graph {
    let n = config.num_nodes;
    assert!(n >= 2, "nested_sbm requires at least 2 nodes");
    assert!(config.levels >= 1, "nested_sbm requires at least 1 level");
    assert!(config.branching >= 2, "branching factor must be at least 2");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut builder = GraphBuilder::new(n);

    // Probability of an edge given the deepest shared level d (0 = only the root).
    let probs: Vec<f64> = (0..=config.levels)
        .map(|d| (config.base_probability * config.level_boost.powi(d as i32)).min(1.0))
        .collect();

    // Sampling strategy: iterate over depths from deepest shared block to shallowest
    // and sample within-block pairs with the *incremental* probability at that depth,
    // using geometric skipping so the cost is proportional to the number of edges, not
    // to n².  For simplicity and because dataset stand-ins are modest (≤ ~100k nodes),
    // we instead sample per-block pairs at the deepest level exactly and use sparse
    // skip-sampling across blocks.
    //
    // Concretely: for every unordered node pair we would need the probability of its
    // deepest shared level.  Equivalent decomposition: at each depth d from 1..=levels,
    // add edges *within* depth-d blocks with probability p_extra(d) such that the union
    // over depths reproduces probs[shared_depth]; a pair sharing depth D participates
    // in draws for every d ≤ D.  Choosing p_extra so that
    //   1 - Π_{d ≤ D}(1 - p_extra(d)) = probs[D]
    // gives p_extra(d) = 1 - (1 - probs[d]) / (1 - probs[d-1]).
    let mut p_extra = vec![0.0f64; config.levels + 1];
    p_extra[0] = probs[0];
    for d in 1..=config.levels {
        let prev = 1.0 - probs[d - 1];
        p_extra[d] = if prev <= f64::EPSILON {
            0.0
        } else {
            (1.0 - (1.0 - probs[d]) / prev).clamp(0.0, 1.0)
        };
    }

    for (depth, &p) in p_extra.iter().enumerate().take(config.levels + 1) {
        if p <= 0.0 {
            continue;
        }
        let blocks = config.branching.pow(depth as u32);
        let width = n.div_ceil(blocks).max(1);
        for block in 0..blocks {
            let lo = block * width;
            if lo >= n {
                break;
            }
            let hi = ((block + 1) * width).min(n);
            sample_pairs_within(&mut builder, &mut rng, lo as NodeId, hi as NodeId, p);
        }
    }
    builder.build()
}

/// Adds each unordered pair in `[lo, hi)` independently with probability `p`, using
/// geometric skipping (O(#edges) instead of O(range²) when `p` is small).
fn sample_pairs_within(
    builder: &mut GraphBuilder,
    rng: &mut StdRng,
    lo: NodeId,
    hi: NodeId,
    p: f64,
) {
    let range = (hi - lo) as u64;
    if range < 2 {
        return;
    }
    let total_pairs = range * (range - 1) / 2;
    if p >= 1.0 {
        for u in lo..hi {
            for v in (u + 1)..hi {
                builder.add_edge(u, v);
            }
        }
        return;
    }
    let log1mp = (1.0 - p).ln();
    let mut pairs = PairCursor::new(range);
    let mut idx: u64 = 0;
    loop {
        let r: f64 = rng.random::<f64>();
        let skip = ((1.0 - r).ln() / log1mp).floor() as u64;
        idx = idx.saturating_add(skip);
        if idx >= total_pairs {
            break;
        }
        let (u, v) = pairs.pair(idx);
        builder.add_edge(lo + u as NodeId, lo + v as NodeId);
        idx += 1;
        if idx >= total_pairs {
            break;
        }
    }
}

/// Maps the linear indices in `[0, C(range, 2))` of one sampling pass to unordered
/// pairs `(u, v)` with `u < v < range`, enumerating pairs row by row.
///
/// A pass asks for ascending indices, so the row only moves forward and the whole
/// pass costs O(range + samples); the top block spans the whole graph, so a per-sample
/// row search would cost O(range) for each of its edges.
struct PairCursor {
    range: u64,
    /// Current row.
    u: u64,
    /// Linear index of row `u`'s first pair.
    row_start: u64,
}

impl PairCursor {
    fn new(range: u64) -> Self {
        PairCursor {
            range,
            u: 0,
            row_start: 0,
        }
    }

    /// The pair at `index`, which must not be below any earlier index asked for.
    fn pair(&mut self, index: u64) -> (u64, u64) {
        debug_assert!(index >= self.row_start, "indices must not decrease");
        // Row u contributes (range - 1 - u) pairs.
        while index - self.row_start >= self.range - 1 - self.u {
            self.row_start += self.range - 1 - self.u;
            self.u += 1;
        }
        (self.u, self.u + 1 + (index - self.row_start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_index_enumerates_all_pairs() {
        let range = 7u64;
        let total = range * (range - 1) / 2;
        let mut cursor = PairCursor::new(range);
        let pairs: Vec<(u64, u64)> = (0..total).map(|idx| cursor.pair(idx)).collect();
        // Row by row: index order is the lexicographic order of the pairs.
        let rows: Vec<(u64, u64)> = (0..range)
            .flat_map(|u| (u + 1..range).map(move |v| (u, v)))
            .collect();
        assert_eq!(pairs, rows);
        // Skipping indices, as sampling does, lands on the same pairs.
        let mut skipping = PairCursor::new(range);
        for idx in (0..total).step_by(4) {
            assert_eq!(skipping.pair(idx), rows[idx as usize]);
        }
    }

    #[test]
    fn block_assignment_is_balanced() {
        assert_eq!(block_at_depth(0, 100, 2, 1), 0);
        assert_eq!(block_at_depth(49, 100, 2, 1), 0);
        assert_eq!(block_at_depth(50, 100, 2, 1), 1);
        assert_eq!(block_at_depth(99, 100, 2, 1), 1);
    }

    #[test]
    fn deeper_blocks_are_denser() {
        let config = NestedSbmConfig {
            num_nodes: 400,
            levels: 2,
            branching: 4,
            base_probability: 0.002,
            level_boost: 20.0,
            seed: 13,
        };
        let g = nested_sbm(&config);
        g.validate().unwrap();
        // Measure empirical density within deepest blocks vs across the whole graph.
        let deepest_blocks = config.branching.pow(config.levels as u32);
        let width = config.num_nodes.div_ceil(deepest_blocks);
        let mut inside = 0usize;
        let mut inside_pairs = 0usize;
        for b in 0..deepest_blocks {
            let lo = (b * width) as NodeId;
            let hi = (((b + 1) * width).min(config.num_nodes)) as NodeId;
            for u in lo..hi {
                for v in (u + 1)..hi {
                    inside_pairs += 1;
                    if g.has_edge(u, v) {
                        inside += 1;
                    }
                }
            }
        }
        let total_pairs = config.num_nodes * (config.num_nodes - 1) / 2;
        let overall_density = g.num_edges() as f64 / total_pairs as f64;
        let inside_density = inside as f64 / inside_pairs as f64;
        assert!(
            inside_density > 3.0 * overall_density,
            "inside {inside_density} vs overall {overall_density}"
        );
    }

    #[test]
    fn deterministic() {
        let config = NestedSbmConfig::default();
        assert_eq!(
            nested_sbm(&config).edge_set(),
            nested_sbm(&config).edge_set()
        );
    }

    #[test]
    fn full_probability_block_is_clique() {
        let config = NestedSbmConfig {
            num_nodes: 12,
            levels: 1,
            branching: 3,
            base_probability: 0.0,
            level_boost: 1.0,
            seed: 3,
        };
        // base 0 and boost 1 => no edges at all.
        let g = nested_sbm(&config);
        assert_eq!(g.num_edges(), 0);
    }
}
