//! Output-invariance regression tests for the incremental re-summarizer: a delta
//! stream must produce a summary **byte-identical** across every thread count,
//! after *every* batch — the `apply_invariance`
//! contract extended to the streaming path (dirty-region localization,
//! dissolution, re-expansion and the per-batch pipeline passes must all be pure
//! functions of the engine's content, never of hash-map layout or thread
//! scheduling).

use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
use slugger_core::testsupport::{canonical, lattice, CanonicalSummary};
use slugger_core::{Parallelism, Slugger, SluggerConfig};
use slugger_graph::gen::{caveman, rmat, CavemanConfig, RmatConfig};
use slugger_graph::stream::{stream_batches, StreamConfig};
use slugger_graph::Graph;

fn targets() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "caveman",
            caveman(&CavemanConfig {
                num_nodes: 260,
                num_cliques: 32,
                min_clique: 5,
                max_clique: 9,
                rewire_probability: 0.03,
                seed: 21,
            }),
        ),
        (
            "rmat",
            rmat(&RmatConfig {
                scale: 10,
                num_edges: 6_000,
                seed: 4,
                ..RmatConfig::default()
            }),
        ),
    ]
}

/// One batch's observations: the canonical summary and the panel-block counters
/// (built, served).
type BatchObservation = (CanonicalSummary, (usize, usize));

/// Runs the full stream under one pipeline setting, returning what every batch
/// left behind.
fn run_stream(
    initial: &Graph,
    batches: &[slugger_graph::stream::GraphDelta],
    parallelism: Parallelism,
) -> Vec<BatchObservation> {
    let bootstrap = Slugger::new(SluggerConfig {
        iterations: 4,
        max_candidate_size: 64,
        max_shingle_splits: 5,
        seed: 7,
        // The bootstrap run itself is pinned invariant by apply_invariance.rs; use
        // the same knobs here so the incremental engine starts from the identical
        // summary under every setting.
        parallelism,
        ..SluggerConfig::default()
    });
    let mut inc = IncrementalSummarizer::bootstrap(
        initial,
        &bootstrap,
        IncrementalConfig {
            iterations: 3,
            max_candidate_size: 48,
            max_shingle_splits: 4,
            seed: 13,
            parallelism,
            ..IncrementalConfig::default()
        },
    );
    batches
        .iter()
        .map(|delta| {
            let report = inc.resummarize(delta);
            (
                canonical(inc.summary()),
                (report.panel_blocks_built, report.panel_blocks_served),
            )
        })
        .collect()
}

#[test]
fn incremental_stream_is_byte_identical_across_parallelism_and_shards() {
    for (name, target) in targets() {
        let (initial, batches) = stream_batches(
            &target,
            &StreamConfig {
                initial_fraction: 0.8,
                num_batches: 4,
                churn: 0.3,
                seed: 5,
            },
        );
        let baseline = run_stream(&initial, &batches, Parallelism::Sequential);
        assert!(
            baseline.iter().any(|(_, (_, served))| *served > 0),
            "{name}: the planner must serve panel blocks from its cache"
        );
        for point in lattice() {
            let run = run_stream(&initial, &batches, point.parallelism);
            for (batch, (got, expected)) in run.iter().zip(baseline.iter()).enumerate() {
                assert_eq!(
                    got.0, expected.0,
                    "{name}: summary diverged after batch {batch} at parallelism {}",
                    point.threads
                );
                // The panel-block cache is per candidate set, so its counters
                // are a pure function of the sets and their RNG streams.
                assert_eq!(
                    got.1, expected.1,
                    "{name}: panel-block counters diverged after batch {batch} at \
                     parallelism {}",
                    point.threads
                );
            }
        }
    }
}
