//! Golden outputs of the merge planner: encoding cost, pairs evaluated, merges and
//! pairs bounded out of fixed batch and streaming runs, pinned to recorded numbers.
//! The whole-summary pruning step is pinned the same way: the encoding cost after
//! each substep and the report of a two-round prune of the unpruned summaries.
//!
//! The invariance suites compare settings against each other (thread counts,
//! scenarios), so a planner change that alters results the same
//! way under every setting passes them all.  This suite compares against a
//! baseline instead: a planner optimization must leave every number below
//! exactly as it was.  If a change alters the algorithm on purpose, re-record
//! the numbers and say so in the change description.

use slugger::core::engine::MergeEngine;
use slugger::core::incremental::{IncrementalConfig, IncrementalSummarizer};
use slugger::core::prune::{prune_all, prune_step1, prune_step2, prune_step3, PruneReport};
use slugger::datasets::{dataset, DatasetKey};
use slugger::graph::gen::{rmat, RmatConfig};
use slugger::graph::stream::{stream_batches, StreamConfig};
use slugger::prelude::*;

/// The default configuration with T = 5.
fn slugger() -> Slugger {
    Slugger::new(SluggerConfig {
        iterations: 5,
        ..SluggerConfig::default()
    })
}

fn rmat_graph() -> Graph {
    rmat(&RmatConfig {
        scale: 11,
        num_edges: 6_000,
        ..RmatConfig::default()
    })
}

/// (encoding cost, Σ pairs evaluated, Σ merges, Σ pairs bounded out) of a batch
/// summarize.
fn batch_numbers(graph: &Graph) -> (usize, usize, usize, usize) {
    let outcome = slugger().summarize(graph);
    verify_lossless(&outcome.summary, graph).unwrap();
    let pairs = outcome.iterations.iter().map(|r| r.pairs_evaluated).sum();
    let merges = outcome.iterations.iter().map(|r| r.merges).sum();
    let bounded_out = outcome.iterations.iter().map(|r| r.pairs_bounded_out).sum();
    (outcome.metrics.cost, pairs, merges, bounded_out)
}

/// (encoding cost after substeps 1, 2 and 3, report of a two-round
/// `prune_all`) on the T = 5 batch summary produced without pruning.
fn prune_numbers(graph: &Graph) -> ([usize; 3], PruneReport) {
    let unpruned = Slugger::new(SluggerConfig {
        iterations: 5,
        pruning_rounds: 0,
        ..SluggerConfig::default()
    })
    .summarize(graph)
    .summary;
    let mut stepped = MergeEngine::from_summary(unpruned.clone());
    prune_step1(&mut stepped);
    let after1 = stepped.summary().encoding_cost();
    prune_step2(&mut stepped);
    let after2 = stepped.summary().encoding_cost();
    prune_step3(&mut stepped, graph);
    let after3 = stepped.summary().encoding_cost();
    verify_lossless(stepped.summary(), graph).unwrap();
    let mut pruned = MergeEngine::from_summary(unpruned);
    let report = prune_all(&mut pruned, graph, 2);
    verify_lossless(pruned.summary(), graph).unwrap();
    ([after1, after2, after3], report)
}

#[test]
fn lj_stand_in_batch_summarize_matches_the_golden_numbers() {
    let graph = dataset(DatasetKey::LJ).generate(0.3);
    assert_eq!((graph.num_nodes(), graph.num_edges()), (4_500, 12_101));
    assert_eq!(batch_numbers(&graph), (11_420, 39_357, 1_678, 22_802));
}

#[test]
fn rmat_batch_summarize_matches_the_golden_numbers() {
    let graph = rmat_graph();
    assert_eq!(graph.num_edges(), 5_259);
    assert_eq!(batch_numbers(&graph), (5_027, 34_773, 220, 31_128));
}

#[test]
fn rmat_stream_matches_the_golden_numbers() {
    let target = rmat_graph();
    let (initial, batches) = stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.8,
            num_batches: 6,
            churn: 0.25,
            seed: 1,
        },
    );
    let mut stream =
        IncrementalSummarizer::bootstrap(&initial, &slugger(), IncrementalConfig::default());
    let (mut pairs, mut merges, mut bounded_out) = (0, 0, 0);
    for delta in &batches {
        let report = stream.resummarize(delta);
        pairs += report.pairs_evaluated;
        merges += report.merges;
        bounded_out += report.pairs_bounded_out;
    }
    verify_lossless(stream.summary(), &target).unwrap();
    assert_eq!(
        (stream.summary().encoding_cost(), pairs, merges, bounded_out),
        (5_047, 122_697, 1_165, 99_384)
    );
}

#[test]
fn lj_stand_in_prune_substeps_match_the_golden_numbers() {
    let graph = dataset(DatasetKey::LJ).generate(0.3);
    assert_eq!(
        prune_numbers(&graph),
        (
            [11_518, 11_420, 11_420],
            PruneReport {
                step1_removed: 473,
                step2_removed: 98,
                step3_reencoded: 0,
            }
        )
    );
}

#[test]
fn rmat_prune_substeps_match_the_golden_numbers() {
    assert_eq!(
        prune_numbers(&rmat_graph()),
        (
            [5_090, 5_030, 5_027],
            PruneReport {
                step1_removed: 70,
                step2_removed: 60,
                step3_reencoded: 2,
            }
        )
    );
}
