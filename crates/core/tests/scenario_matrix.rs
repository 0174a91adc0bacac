//! The scenario matrix: every invariance-lattice property, re-proven for every
//! registered streaming scenario (`slugger-scenarios`) at smoke scale.
//!
//! The per-feature suites (`apply_invariance`, `incremental_invariance`,
//! `candidate_index`, `partial_dissolution`, `durable_recovery`,
//! `query_snapshot`) each pin one guarantee on one or two curated workloads.
//! This harness turns those guarantees into a property that holds **per
//! workload class**: for each scenario — hub death, community merge/split,
//! delete-heavy phases, power-law bursts, no-op storms, temporal locality —
//! it asserts
//!
//! 1. **decode-identity** after every batch: the summary decodes to exactly
//!    the live graph a consumer applying the same deltas holds, the engine
//!    validates, and partial dissolution re-expands at most the dirty region;
//! 2. **byte-identity across the lattice**: identical canonical summaries at
//!    every `parallelism {1, 2, 4, 8}` point, per batch;
//! 3. **candidate-index soundness**: after every batch, the candidate sets the
//!    persistent index serves equal the naive reference oracle's, over all
//!    roots and over a strict subset;
//! 4. **kill/recover identity**: a mid-stream crash (fault-injected `MemIo`)
//!    recovers to a run indistinguishable (id-free canonical form) from an
//!    uninterrupted one.

use slugger_core::decode::{canonical_form, decode_full};
use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
use slugger_core::storage::durable::fault::{FaultPlan, MemIo};
use slugger_core::storage::durable::{DurableError, DurablePolicy, DurableSummarizer};
use slugger_core::testsupport::{assert_oracle, canonical, lattice, CanonicalSummary};
use slugger_core::{Parallelism, Slugger, SluggerConfig};
use slugger_graph::{DynamicGraph, Graph, GraphDelta};
use slugger_scenarios::{registry, CollectedScenario};

/// Smoke scale: large enough that every churn program has real structure to
/// demolish, small enough for debug-mode tier-1.
const SCALE: f64 = 0.015;
const BATCHES: usize = 4;
const STREAM_SEED: u64 = 29;

fn smoke_stream(scenario: &slugger_scenarios::Scenario) -> CollectedScenario {
    scenario
        .instantiate(SCALE, BATCHES, STREAM_SEED)
        .collect_stream()
}

fn bootstrap_slugger(parallelism: Parallelism) -> Slugger {
    Slugger::new(SluggerConfig {
        iterations: 3,
        max_candidate_size: 48,
        max_shingle_splits: 4,
        seed: 7,
        parallelism,
        ..SluggerConfig::default()
    })
}

fn incremental_config(parallelism: Parallelism) -> IncrementalConfig {
    IncrementalConfig {
        iterations: 2,
        max_candidate_size: 32,
        max_shingle_splits: 3,
        seed: 13,
        parallelism,
        ..IncrementalConfig::default()
    }
}

/// Drives the full stream under `config`, returning the canonical summary
/// after every batch.
fn run_canonical(
    initial: &Graph,
    batches: &[GraphDelta],
    bootstrap: &Slugger,
    config: IncrementalConfig,
) -> Vec<CanonicalSummary> {
    let mut inc = IncrementalSummarizer::bootstrap(initial, bootstrap, config);
    batches
        .iter()
        .map(|delta| {
            inc.resummarize(delta);
            canonical(inc.summary())
        })
        .collect()
}

#[test]
fn registry_covers_the_required_scenario_classes() {
    let scenarios = registry();
    assert!(
        scenarios.len() >= 6,
        "the matrix needs at least 6 scenarios, found {}",
        scenarios.len()
    );
    for required in ["hub-death", "community-merge", "delete-heavy", "burst"] {
        assert!(
            scenarios.iter().any(|s| s.name.contains(required)),
            "no registered scenario covers the {required:?} class"
        );
    }
}

#[test]
fn decode_identity_holds_after_every_batch_of_every_scenario() {
    for scenario in registry() {
        let stream = smoke_stream(&scenario);
        let config = incremental_config(Parallelism::Sequential);
        let mut inc = IncrementalSummarizer::bootstrap(
            &stream.initial,
            &bootstrap_slugger(Parallelism::Sequential),
            config,
        );
        // The consumer's live graph, maintained independently of the engine.
        let mut live = DynamicGraph::from_graph(&stream.initial);
        for (i, delta) in stream.batches.iter().enumerate() {
            let report = inc.resummarize(delta);
            delta.apply_to(&mut live);
            assert!(
                report.dissolved_subnodes <= report.region_subnodes,
                "{}: batch {i} re-expanded {} of {} region subnodes",
                scenario.name,
                report.dissolved_subnodes,
                report.region_subnodes
            );
            assert_eq!(
                decode_full(inc.summary()).edge_set(),
                live.to_graph().edge_set(),
                "{}: decode-identity broke after batch {i}",
                scenario.name
            );
            inc.validate().unwrap_or_else(|e| {
                panic!("{}: engine invalid after batch {i}: {e}", scenario.name)
            });
        }
        assert_eq!(inc.batches(), stream.batches.len());
    }
}

#[test]
fn summaries_are_byte_identical_across_the_lattice_for_every_scenario() {
    for scenario in registry() {
        let stream = smoke_stream(&scenario);
        let baseline = run_canonical(
            &stream.initial,
            &stream.batches,
            &bootstrap_slugger(Parallelism::Sequential),
            incremental_config(Parallelism::Sequential),
        );
        for point in lattice() {
            let run = run_canonical(
                &stream.initial,
                &stream.batches,
                &bootstrap_slugger(point.parallelism),
                incremental_config(point.parallelism),
            );
            for (batch, (got, expected)) in run.iter().zip(baseline.iter()).enumerate() {
                assert_eq!(
                    got, expected,
                    "{}: summary diverged after batch {batch} at parallelism {}",
                    scenario.name, point.threads
                );
            }
        }
    }
}

#[test]
fn candidate_index_matches_the_reference_oracle_for_every_scenario() {
    for scenario in registry() {
        let stream = smoke_stream(&scenario);
        let mut inc = IncrementalSummarizer::bootstrap(
            &stream.initial,
            &bootstrap_slugger(Parallelism::Sequential),
            incremental_config(Parallelism::Sequential),
        );
        for (i, delta) in stream.batches.iter().enumerate() {
            inc.resummarize(delta);
            assert_oracle(&mut inc, &format!("{}: batch {i}", scenario.name));
        }
    }
}

#[test]
fn kill_recover_matches_the_uninterrupted_run_for_every_scenario() {
    for scenario in registry() {
        let stream = smoke_stream(&scenario);
        let config = incremental_config(Parallelism::Sequential);
        let policy = DurablePolicy {
            checkpoint_every_batches: 2,
            checkpoint_wal_bytes: 0,
        };

        // Uninterrupted in-memory control.
        let mut control = IncrementalSummarizer::bootstrap(
            &stream.initial,
            &bootstrap_slugger(Parallelism::Sequential),
            config,
        );
        for delta in &stream.batches {
            control.resummarize(delta);
        }
        let control_form = format!("{:?}", canonical_form(control.summary()));

        // Drives a durable run over `io` to stream completion.
        let drive = |io: MemIo| -> Result<String, DurableError> {
            let (mut durable, _report) =
                DurableSummarizer::open_or_create(config, policy, io, || {
                    IncrementalSummarizer::bootstrap(
                        &stream.initial,
                        &bootstrap_slugger(Parallelism::Sequential),
                        config,
                    )
                })?;
            while durable.batches() < stream.batches.len() {
                durable.ingest(&stream.batches[durable.batches()])?;
            }
            Ok(format!("{:?}", canonical_form(durable.summary())))
        };

        // Probe a clean run for its fault-point count; it must already match.
        let probe = MemIo::new();
        let clean = drive(probe.clone()).expect("clean durable run");
        assert_eq!(
            clean, control_form,
            "{}: durable run diverged from in-memory control",
            scenario.name
        );

        // Crash mid-stream (truncating the last unsynced write to a torn
        // 3-byte tail) and recover until the stream completes.
        let at_op = probe.ops() / 2;
        let io = MemIo::new();
        io.arm(FaultPlan {
            at_op,
            keep_bytes: 3,
        });
        let mut attempts = 0;
        let recovered = loop {
            match drive(io.clone()) {
                Ok(form) => break form,
                Err(_) => {
                    attempts += 1;
                    assert!(
                        attempts <= 3,
                        "{}: fault at op {at_op}: recovery did not converge",
                        scenario.name
                    );
                    let mut crashed = io.clone();
                    crashed.crash(0);
                }
            }
        };
        assert_eq!(
            recovered, control_form,
            "{}: post-recovery state diverged from the uninterrupted run",
            scenario.name
        );
    }
}
