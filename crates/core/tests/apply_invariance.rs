//! Output-invariance regression tests for the merge pipeline: sweeping the thread
//! count (which varies planning, its one-shard-per-thread split and the
//! candidate fold) must produce, against the sequential single-shard run whose
//! plans are replayed serially in ascending set-index order, a summary that is
//! **byte-identical** — not merely cost-equal, but identical arena structure
//! (ids, parents, children, members, liveness) and identical p/n-edge content —
//! and the same per-iteration trajectory (merges, costs, roots and panel-block
//! counters).

use slugger_core::testsupport::{canonical, lattice};
use slugger_core::{Parallelism, Slugger, SluggerConfig};
use slugger_graph::gen::{caveman, rmat, CavemanConfig, RmatConfig};
use slugger_graph::Graph;

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "caveman",
            caveman(&CavemanConfig {
                num_nodes: 300,
                num_cliques: 40,
                min_clique: 5,
                max_clique: 9,
                rewire_probability: 0.03,
                seed: 11,
            }),
        ),
        (
            "rmat",
            rmat(&RmatConfig {
                scale: 11,
                num_edges: 12_000,
                seed: 5,
                ..RmatConfig::default()
            }),
        ),
    ]
}

fn config(parallelism: Parallelism, seed: u64) -> SluggerConfig {
    SluggerConfig {
        iterations: 6,
        max_candidate_size: 64,
        max_shingle_splits: 5,
        seed,
        parallelism,
        ..SluggerConfig::default()
    }
}

#[test]
fn parallel_apply_summary_is_byte_identical_across_parallelism_and_shards() {
    for (name, graph) in graphs() {
        let seed = 3u64;
        // Sequential planning and candidate fold: the reference every lattice
        // point must reproduce exactly.
        let baseline = Slugger::new(config(Parallelism::Sequential, seed)).summarize(&graph);
        let expected = canonical(&baseline.summary);
        assert!(
            baseline
                .iterations
                .iter()
                .any(|r| r.panel_blocks_served > 0),
            "{name}: the planner must serve panel blocks from its cache"
        );
        for point in lattice() {
            let outcome = Slugger::new(config(point.parallelism, seed)).summarize(&graph);
            assert_eq!(
                canonical(&outcome.summary),
                expected,
                "{name}: summary diverged at parallelism {}",
                point.threads
            );
            // The per-iteration trajectory must agree too (same merges, same
            // costs, in the same order).
            for (a, b) in baseline.iterations.iter().zip(outcome.iterations.iter()) {
                assert_eq!(a.merges, b.merges, "{name}: iteration {}", a.iteration);
                assert_eq!(a.cost, b.cost, "{name}: iteration {}", a.iteration);
                assert_eq!(a.roots, b.roots, "{name}: iteration {}", a.iteration);
                // The panel-block cache is per candidate set, so its counters are
                // a pure function of the sets and their RNG streams.
                assert_eq!(
                    (a.panel_blocks_built, a.panel_blocks_served),
                    (b.panel_blocks_built, b.panel_blocks_served),
                    "{name}: iteration {}",
                    a.iteration
                );
            }
        }
    }
}

#[test]
fn parallel_apply_handles_degenerate_graphs() {
    for parallelism in [Parallelism::Fixed(2), Parallelism::Fixed(8)] {
        let empty = Graph::empty(5);
        let outcome = Slugger::new(config(parallelism, 0)).summarize(&empty);
        assert_eq!(outcome.metrics.cost, 0);
        let single = Graph::from_edges(2, vec![(0, 1)]);
        let outcome = Slugger::new(config(parallelism, 0)).summarize(&single);
        slugger_core::decode::verify_lossless(&outcome.summary, &single).unwrap();
    }
}
