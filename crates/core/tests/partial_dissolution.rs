//! Acceptance tests for subtree-granular **partial dissolution** (the streaming
//! engine's localized re-expansion of the dirty region):
//!
//! * a proptest runs a random delta stream — interleaved with forced global
//!   prunes and forced compactions — through a maintained summary and asserts
//!   after **every** operation that it decodes to the live graph and passes the
//!   full engine-bookkeeping validation (`MergeEngine::validate`), and that each
//!   batch re-expands at most the dirty region
//!   (`dissolved_subnodes ≤ region_subnodes`);
//! * a regression test pins the headline case — a delta touching exactly one
//!   leaf of a deep multi-level tree kills only that leaf's root spine, leaving
//!   the off-spine sibling subtree alive as a surviving supernode.

// The vendored `proptest!` macro expands recursively per statement.
#![recursion_limit = "1024"]

use proptest::prelude::*;
use slugger_core::engine::{MergeCtx, MergeEngine};
use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
use slugger_core::{Slugger, SluggerConfig};
use slugger_graph::gen::{caveman, CavemanConfig};
use slugger_graph::stream::{stream_batches, DynamicGraph, GraphDelta, StreamConfig};
use slugger_graph::Graph;

fn proptest_target(seed: u64) -> Graph {
    caveman(&CavemanConfig {
        num_nodes: 140,
        num_cliques: 18,
        min_clique: 5,
        max_clique: 9,
        rewire_probability: 0.03,
        seed,
    })
}

/// The proptest body (a plain function so the vendored `proptest!` macro — which
/// recurses per statement — only has to expand a single call): random delta
/// batches with interleaved `prune_now`/`compact_now` operations.
fn check_partial_dissolution_stays_lossless(graph_seed: u64, stream_seed: u64, ops: &[u8]) {
    let target = proptest_target(graph_seed);
    let (initial, batches) = stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.75,
            num_batches: ops.len(),
            churn: 0.3,
            seed: stream_seed,
        },
    );
    let config = IncrementalConfig {
        iterations: 3,
        max_candidate_size: 48,
        max_shingle_splits: 4,
        prune_rounds: 1,
        compact_dead_ratio: 0.25,
        seed: stream_seed,
        ..IncrementalConfig::default()
    };
    let slugger = Slugger::new(SluggerConfig {
        iterations: 4,
        max_candidate_size: 64,
        max_shingle_splits: 5,
        seed: graph_seed,
        ..SluggerConfig::default()
    });
    let mut inc = IncrementalSummarizer::bootstrap(&initial, &slugger, config);
    let mut current = DynamicGraph::from_graph(&initial);
    for (i, (delta, &op)) in batches.iter().zip(ops.iter()).enumerate() {
        delta.apply_to(&mut current);
        let report = inc.resummarize(delta);
        assert!(
            report.dissolved_subnodes <= report.region_subnodes,
            "batch {i}: partial dissolution re-expanded {} of {} region subnodes",
            report.dissolved_subnodes,
            report.region_subnodes
        );
        match op {
            1 => {
                inc.prune_now(1);
            }
            2 => {
                inc.compact_now();
            }
            3 => {
                inc.prune_now(2);
                inc.compact_now();
            }
            _ => {}
        }
        inc.verify_lossless()
            .unwrap_or_else(|e| panic!("batch {i}: not lossless: {e}"));
        inc.validate()
            .unwrap_or_else(|e| panic!("batch {i}: engine bookkeeping: {e}"));
        assert_eq!(
            slugger_core::decode::decode_full(inc.summary()).edge_set(),
            current.to_graph().edge_set(),
            "batch {i}: summary diverged from the live graph"
        );
    }
    // The stream converged to the target graph.
    assert_eq!(
        slugger_core::decode::decode_full(inc.summary()).edge_set(),
        target.edge_set()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn partial_dissolution_stays_lossless_under_prune_and_compact_interleavings(
        graph_seed in 0u64..500,
        stream_seed in 0u64..500,
        ops in proptest::collection::vec(0u8..4, 5usize),
    ) {
        check_partial_dissolution_stays_lossless(graph_seed, stream_seed, &ops);
    }
}

/// The headline regression: a delta touching exactly **one** leaf of a deep
/// three-level tree dissolves only that leaf's root spine.  The off-spine
/// sibling subtree (`m1 = {2, 3}`) survives intact as a root, the spine nodes
/// die, and the dissolution accounting reports exactly the touched leaves.
#[test]
fn delta_touching_one_leaf_of_a_deep_tree_dissolves_only_its_spine() {
    // Double-star: hubs 0 and 1 are adjacent and both see every spoke 2..=5;
    // node 6 starts isolated and is wired to spoke 4 by the delta.
    let graph = Graph::from_edges(
        7,
        vec![
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 3),
            (1, 3),
            (0, 4),
            (1, 4),
            (0, 5),
            (1, 5),
        ],
    );
    // Hand-build the deep tree m3{ m2{ m1{2, 3}, 4 }, 5 } over the spokes.
    let mut engine = MergeEngine::new(&graph);
    let mut ctx = MergeCtx::new();
    let m1 = engine.apply_merge(2, 3, &mut ctx);
    let m2 = engine.apply_merge(m1, 4, &mut ctx);
    let m3 = engine.apply_merge(m2, 5, &mut ctx);
    let summary = engine.into_summary();

    // Zero pipeline iterations and no pruning pin the post-dissolution
    // structure so the assertions below see exactly what dissolution left.
    let config = IncrementalConfig {
        iterations: 0,
        prune_rounds: 0,
        compact_dead_ratio: 0.0,
        ..IncrementalConfig::default()
    };
    let mut inc = IncrementalSummarizer::from_summary(summary, &graph, config)
        .expect("engine-built summary must be lossless");
    let delta = GraphDelta {
        deletions: Vec::new(),
        insertions: vec![(4, 6)],
    };
    let report = inc.resummarize(&delta);

    // Touched leaves: 4 (inside the deep tree) and 6 (a singleton root).  Only
    // those two re-expand; the spine {m2, m3} is the only casualty.
    assert_eq!(
        report.dissolved_subnodes, 2,
        "only the touched leaves re-expand"
    );
    assert_eq!(
        report.dissolved_supernodes, 2,
        "only the spine {{m2, m3}} dies"
    );
    assert!(
        report.region_subnodes >= 4,
        "the dirty region spans at least the deep tree's four spokes, got {}",
        report.region_subnodes
    );

    let summary = inc.summary();
    assert!(summary.is_alive(m1), "off-spine subtree m1 must survive");
    assert!(summary.is_root(m1), "m1 must be promoted to a root");
    assert_eq!(summary.members(m1), &[2, 3]);
    assert!(!summary.is_alive(m2), "spine node m2 must die");
    assert!(!summary.is_alive(m3), "spine node m3 must die");

    inc.verify_lossless()
        .expect("partial dissolution + restore must stay lossless");
    inc.validate().expect("engine bookkeeping must stay valid");
    let mut live = DynamicGraph::from_graph(&graph);
    delta.apply_to(&mut live);
    assert_eq!(
        slugger_core::decode::decode_full(inc.summary()).edge_set(),
        live.to_graph().edge_set()
    );
}
