//! Integration tests of the sharded merge pipeline: thread-count invariance,
//! losslessness at every parallelism level, and determinism of the shard structure.
//!
//! The pipeline's contract (see `slugger_core::pipeline`) is that the
//! [`Parallelism`] knob, and with it the one-shard-per-thread split, is pure
//! scheduling: for a fixed seed the summary must be bit-for-bit equivalent no
//! matter how many threads and shards execute the planning.  These tests pin
//! that down on structured (caveman) and skewed (RMAT) graphs.

use slugger_core::decode::{decode_full, verify_lossless};
use slugger_core::{Parallelism, Slugger, SluggerConfig};
use slugger_graph::gen::{caveman, rmat, CavemanConfig, RmatConfig};
use slugger_graph::Graph;

fn caveman_graph() -> Graph {
    caveman(&CavemanConfig {
        num_nodes: 300,
        num_cliques: 40,
        min_clique: 5,
        max_clique: 9,
        rewire_probability: 0.03,
        seed: 11,
    })
}

fn rmat_graph() -> Graph {
    rmat(&RmatConfig {
        scale: 11,
        num_edges: 12_000,
        seed: 5,
        ..RmatConfig::default()
    })
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

const LEVELS: [Parallelism; 3] = [
    Parallelism::Sequential,
    Parallelism::Fixed(2),
    Parallelism::Fixed(8),
];

#[test]
fn lossless_roundtrip_at_every_parallelism_level() {
    for graph in [caveman_graph(), rmat_graph()] {
        for parallelism in LEVELS {
            let outcome = Slugger::new(config(parallelism, 3)).summarize(&graph);
            // Full Algorithm-4 decode must reproduce the input edge set exactly.
            let decoded = decode_full(&outcome.summary);
            assert_eq!(
                decoded.edge_set(),
                graph.edge_set(),
                "decode mismatch at {parallelism:?}"
            );
            verify_lossless(&outcome.summary, &graph).unwrap();
            outcome.summary.validate().unwrap();
        }
    }
}

#[test]
fn parallel_runs_reproduce_the_sequential_summary() {
    for (graph, seed) in [(caveman_graph(), 42u64), (rmat_graph(), 7u64)] {
        let sequential = Slugger::new(config(Parallelism::Sequential, seed)).summarize(&graph);
        for parallelism in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(8),
            Parallelism::Auto,
        ] {
            let parallel = Slugger::new(config(parallelism, seed)).summarize(&graph);
            assert_eq!(
                sequential.metrics.cost, parallel.metrics.cost,
                "encoding cost diverged at {parallelism:?}"
            );
            assert_eq!(sequential.metrics.p_edges, parallel.metrics.p_edges);
            assert_eq!(sequential.metrics.n_edges, parallel.metrics.n_edges);
            assert_eq!(sequential.metrics.h_edges, parallel.metrics.h_edges);
            // Stronger than cost equality: the decoded graphs and the per-iteration
            // trajectories must agree too.
            assert_eq!(
                decode_full(&sequential.summary).edge_set(),
                decode_full(&parallel.summary).edge_set()
            );
            for (a, b) in sequential.iterations.iter().zip(parallel.iterations.iter()) {
                assert_eq!(a.merges, b.merges, "iteration {} diverged", a.iteration);
                assert_eq!(a.cost, b.cost, "iteration {} diverged", a.iteration);
            }
        }
    }
}

#[test]
fn neither_shard_count_nor_thread_count_changes_the_result() {
    // Every candidate set is planned against the frozen iteration view with its own
    // RNG stream, so the thread count (one shard per thread) is pure scheduling:
    // the summary is a function of (graph, seed) alone.
    let graph = caveman_graph();
    let baseline = Slugger::new(config(Parallelism::Sequential, 9)).summarize(&graph);
    for parallelism in [Parallelism::Sequential, Parallelism::Fixed(8)] {
        let outcome = Slugger::new(config(parallelism, 9)).summarize(&graph);
        assert_eq!(
            baseline.metrics.cost, outcome.metrics.cost,
            "result changed at {parallelism:?}"
        );
        verify_lossless(&outcome.summary, &graph).unwrap();
    }
}

#[test]
fn empty_and_tiny_graphs_survive_parallel_execution() {
    for parallelism in LEVELS {
        let empty = Graph::empty(4);
        let outcome = Slugger::new(config(parallelism, 0)).summarize(&empty);
        assert_eq!(outcome.metrics.cost, 0);
        let single = Graph::from_edges(2, vec![(0, 1)]);
        let outcome = Slugger::new(config(parallelism, 0)).summarize(&single);
        verify_lossless(&outcome.summary, &single).unwrap();
    }
}
