//! Checkpoint-corruption fallback (`slugger_core::storage::durable`).
//!
//! Property under test: damage to the **newest** checkpoint — any single flipped
//! byte, or a randomly splattered byte range — makes recovery either fall back
//! to the previous checkpoint (replaying the longer WAL tail to the *same*
//! summary an uninterrupted run produces) or fail with a typed
//! [`DurableError`].  Never a panic, and never a silently wrong summary: every
//! `Ok` recovery is checked against the uninterrupted run's canonical form.

// The vendored `proptest!` macro expands recursively per statement.
#![recursion_limit = "256"]

use proptest::prelude::*;
use slugger_core::decode::canonical_form;
use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
use slugger_core::storage::durable::fault::MemIo;
use slugger_core::storage::durable::{DurableError, DurablePolicy, DurableSummarizer};
use slugger_graph::gen::{caveman, CavemanConfig};
use slugger_graph::stream::{stream_batches, GraphDelta, StreamConfig};
use slugger_graph::Graph;

fn small_stream() -> (Graph, Vec<GraphDelta>) {
    let target = caveman(&CavemanConfig {
        num_nodes: 70,
        num_cliques: 9,
        min_clique: 5,
        max_clique: 8,
        rewire_probability: 0.02,
        seed: 19,
    });
    stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.8,
            num_batches: 4,
            churn: 0.3,
            seed: 13,
        },
    )
}

fn config() -> IncrementalConfig {
    IncrementalConfig {
        iterations: 2,
        seed: 29,
        ..IncrementalConfig::default()
    }
}

fn policy() -> DurablePolicy {
    DurablePolicy {
        checkpoint_every_batches: 2,
        checkpoint_wal_bytes: 0,
    }
}

/// A durable directory holding a mid-stream state with **two** checkpoints on
/// disk (seqs 1 and 2 after batches 2 and 4) plus the WAL covering the gap, and
/// the uninterrupted run's canonical form for the full stream.
fn corrupted_fixture() -> (MemIo, String) {
    let (initial, batches) = small_stream();
    let cfg = config();
    let mut plain = IncrementalSummarizer::from_graph(&initial, cfg);
    for delta in &batches {
        plain.resummarize(delta);
    }
    let expected = format!("{:?}", canonical_form(plain.summary()));

    let io = MemIo::new();
    let inner = IncrementalSummarizer::from_graph(&initial, cfg);
    let mut durable = DurableSummarizer::create(inner, policy(), io.clone()).unwrap();
    for delta in &batches {
        durable.ingest(delta).unwrap();
    }
    drop(durable);
    (io, expected)
}

/// Runs recovery on the (tampered) directory and checks the contract: `Ok` must
/// fall back past the damaged newest checkpoint *and* match the uninterrupted
/// run after finishing the stream; `Err` must be a typed corruption-class error.
fn check_recovery_contract(io: MemIo, expected: &str, what: &str) -> Result<(), String> {
    let (_, batches) = small_stream();
    match DurableSummarizer::open(config(), policy(), io) {
        Ok((mut recovered, report)) => {
            prop_assert!(
                report.checkpoints_skipped >= 1,
                "{what}: damaged newest checkpoint was accepted"
            );
            while recovered.batches() < batches.len() {
                recovered.ingest(&batches[recovered.batches()]).unwrap();
            }
            prop_assert_eq!(
                format!("{:?}", canonical_form(recovered.summary())),
                expected.to_string(),
                "{}: fallback recovery diverged from the uninterrupted run",
                what
            );
        }
        // Typed failure is acceptable; a panic (which would abort the test
        // runner) or a silently wrong summary is not.
        Err(DurableError::Corrupt { .. })
        | Err(DurableError::NoCheckpoint)
        | Err(DurableError::Storage(_))
        | Err(DurableError::State(_)) => {}
        Err(DurableError::Io(e)) => {
            return Err(format!("{what}: unexpected I/O error: {e}"));
        }
        // Ingest-time validation only; recovery must never report it.
        Err(e @ DurableError::InvalidDelta { .. }) => {
            return Err(format!("{what}: recovery returned {e}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_byte_flip_in_newest_checkpoint_falls_back_or_errors(
        pos_milli in 0usize..1000,
        bit in 0u8..8,
    ) {
        let (io, expected) = corrupted_fixture();
        let newest = io
            .names()
            .into_iter()
            .filter(|n| n.starts_with("ckpt-"))
            .max()
            .unwrap();
        let len = io.file(&newest).unwrap().len();
        let pos = (pos_milli * len / 1000).min(len - 1);
        io.tamper(&newest, |data| data[pos] ^= 1 << bit);
        check_recovery_contract(io, &expected, "single flip")?;
    }

    #[test]
    fn splattered_byte_range_in_newest_checkpoint_falls_back_or_errors(
        start_milli in 0usize..1000,
        garbage in proptest::collection::vec(0u8..=255u8, 1usize..64),
    ) {
        let (io, expected) = corrupted_fixture();
        let newest = io
            .names()
            .into_iter()
            .filter(|n| n.starts_with("ckpt-"))
            .max()
            .unwrap();
        let len = io.file(&newest).unwrap().len();
        let start = (start_milli * len / 1000).min(len - 1);
        io.tamper(&newest, |data| {
            for (i, b) in garbage.iter().enumerate() {
                if start + i < data.len() {
                    data[start + i] = *b;
                } else {
                    data.push(*b);
                }
            }
        });
        check_recovery_contract(io, &expected, "splatter")?;
    }

    #[test]
    fn truncated_newest_checkpoint_falls_back_or_errors(
        keep_milli in 0usize..1000,
    ) {
        let (io, expected) = corrupted_fixture();
        let newest = io
            .names()
            .into_iter()
            .filter(|n| n.starts_with("ckpt-"))
            .max()
            .unwrap();
        let len = io.file(&newest).unwrap().len();
        let keep = (keep_milli * len / 1000).min(len.saturating_sub(1));
        io.tamper(&newest, |data| data.truncate(keep));
        check_recovery_contract(io, &expected, "truncation")?;
    }
}

/// The non-property base case: with both checkpoints intact, recovery prefers
/// the newest and skips nothing.
#[test]
fn intact_directory_loads_the_newest_checkpoint() {
    let (io, expected) = corrupted_fixture();
    let (_, batches) = small_stream();
    let (recovered, report) = DurableSummarizer::open(config(), policy(), io).unwrap();
    assert_eq!(report.checkpoints_skipped, 0);
    assert_eq!(recovered.batches(), batches.len());
    assert_eq!(
        format!("{:?}", canonical_form(recovered.summary())),
        expected
    );
}
