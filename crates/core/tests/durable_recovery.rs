//! Kill-and-recover sweep of the durability protocol
//! (`slugger_core::storage::durable`).
//!
//! The central claim under test is **determinism of recovery**: no matter where
//! a crash lands — any mutating I/O operation of any protocol step, with or
//! without a torn tail — recovering and finishing the stream produces a summary
//! whose id-free canonical form is identical to an uninterrupted in-memory run.
//! The sweep enumerates *every* fault point (probed by counting the mutating
//! operations of a clean run) rather than sampling a few, and the sweep runs
//! at every thread count of the scheduling lattice (sequential, 2, 4 and 8
//! threads) like the other invariance tests.
//!
//! On top of the crash sweep, tampering scenarios cover damage the crash model
//! itself can't produce: duplicated tail records (re-sent appends), truncated
//! WAL tails, and bit flips in the middle of a synced segment.

use slugger_core::decode::canonical_form;
use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
use slugger_core::storage::durable::fault::{FaultPlan, MemIo};
use slugger_core::storage::durable::{DurableError, DurableIo, DurablePolicy, DurableSummarizer};
use slugger_core::Parallelism;
use slugger_graph::gen::{caveman, CavemanConfig};
use slugger_graph::stream::{stream_batches, GraphDelta, StreamConfig};
use slugger_graph::Graph;

/// Small stream so the full fault sweep stays fast in debug mode (tier-1 runs
/// `cargo test -q` unoptimized).
fn small_stream() -> (Graph, Vec<GraphDelta>) {
    let target = caveman(&CavemanConfig {
        num_nodes: 80,
        num_cliques: 10,
        min_clique: 5,
        max_clique: 8,
        rewire_probability: 0.02,
        seed: 11,
    });
    stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.8,
            num_batches: 4,
            churn: 0.3,
            seed: 7,
        },
    )
}

fn config_for(parallelism: Parallelism) -> IncrementalConfig {
    IncrementalConfig {
        iterations: 2,
        seed: 23,
        parallelism,
        ..IncrementalConfig::default()
    }
}

fn policy() -> DurablePolicy {
    DurablePolicy {
        checkpoint_every_batches: 2,
        checkpoint_wal_bytes: 0,
    }
}

/// Uninterrupted in-memory reference run.
fn reference(initial: &Graph, batches: &[GraphDelta], config: IncrementalConfig) -> String {
    let mut inc = IncrementalSummarizer::from_graph(initial, config);
    for delta in batches {
        inc.resummarize(delta);
    }
    format!("{:?}", canonical_form(inc.summary()))
}

/// Drives a full durable stream over `io`: create-or-open, then ingest every
/// batch the directory does not already hold.  Any error (an injected fault, or
/// inconsistent state behind a fault that already fired) is returned so the
/// caller can crash and retry — exactly how a supervised service would run it.
fn drive(
    io: MemIo,
    initial: &Graph,
    batches: &[GraphDelta],
    config: IncrementalConfig,
) -> Result<String, DurableError> {
    let (mut durable, _report) = DurableSummarizer::open_or_create(config, policy(), io, || {
        IncrementalSummarizer::from_graph(initial, config)
    })?;
    while durable.batches() < batches.len() {
        durable.ingest(&batches[durable.batches()])?;
    }
    Ok(format!("{:?}", canonical_form(durable.summary())))
}

/// The crash sweep for one scheduling configuration: probe the clean run's op
/// count, then for every op index, inject a fault there (cycling short-write
/// budgets), crash with an alternating unsynced-tail keep, recover, finish, and
/// demand identity with the uninterrupted run.
fn sweep_all_fault_points(parallelism: Parallelism) {
    let (initial, batches) = small_stream();
    let config = config_for(parallelism);
    let expected = reference(&initial, &batches, config);

    // Probe: clean run, counting mutating I/O ops = the fault points.
    let probe = MemIo::new();
    let clean = drive(probe.clone(), &initial, &batches, config).expect("clean run");
    assert_eq!(clean, expected, "durable run must match the in-memory run");
    let total_ops = probe.ops();
    assert!(total_ops > 10, "the protocol should have many fault points");

    for op in 0..total_ops {
        let io = MemIo::new();
        io.arm(FaultPlan {
            at_op: op,
            // Cycle through a clean failure and 1- and 3-byte short writes;
            // with the 2-cycle of crash keeps below, every combination of
            // short write and kept torn tail occurs every 6 ops.
            keep_bytes: [0, 1, 3][(op % 3) as usize],
        });
        let mut attempts = 0;
        let got = loop {
            match drive(io.clone(), &initial, &batches, config) {
                Ok(s) => break s,
                Err(_) => {
                    attempts += 1;
                    assert!(
                        attempts <= 3,
                        "op {op}/{total_ops}: recovery did not converge"
                    );
                    // Crash: drop unsynced data, alternately keeping a torn tail.
                    let mut crashed = io.clone();
                    crashed.crash(if op % 2 == 0 { 2 } else { 0 });
                }
            }
        };
        assert_eq!(
            got, expected,
            "kill-and-recover at op {op}/{total_ops} diverged from the uninterrupted run"
        );
        // Double-crash leg: everything the finished run acknowledged must
        // survive one more clean crash.  In particular, batches ingested after
        // a torn-tail recovery must not sit behind the old torn bytes (the
        // active segment is healed to its intact prefix), or the second
        // recovery's stop-at-first-torn-record parse would silently drop them.
        let mut settled = io.clone();
        settled.crash(0);
        let (reopened, _) = DurableSummarizer::open(config, policy(), settled)
            .unwrap_or_else(|e| panic!("op {op}/{total_ops}: second recovery failed: {e}"));
        assert_eq!(
            reopened.batches(),
            batches.len(),
            "op {op}/{total_ops}: acknowledged batches lost by the second recovery"
        );
        assert_eq!(
            format!("{:?}", canonical_form(reopened.summary())),
            expected,
            "op {op}/{total_ops}: second recovery diverged from the uninterrupted run"
        );
    }
}

#[test]
fn fault_sweep_sequential_one_shard() {
    sweep_all_fault_points(Parallelism::Sequential);
}

#[test]
fn fault_sweep_two_threads() {
    sweep_all_fault_points(Parallelism::Fixed(2));
}

#[test]
fn fault_sweep_four_threads() {
    sweep_all_fault_points(Parallelism::Fixed(4));
}

#[test]
fn fault_sweep_eight_threads() {
    sweep_all_fault_points(Parallelism::Fixed(8));
}

/// The torn-tail double-crash scenario in isolation: a crash mid-append leaves
/// a torn tail; recovery discards it and **heals** the active segment down to
/// its intact prefix, so batches acknowledged after that recovery land inside
/// the parseable region and a *second* recovery still sees them.  (Without the
/// heal, post-recovery appends would land after the torn bytes, where the next
/// recovery's stop-at-first-torn-record parse never reaches — acknowledged,
/// fsynced batches would silently vanish.)
#[test]
fn batches_ingested_after_torn_tail_recovery_survive_a_second_crash() {
    let (initial, batches) = small_stream();
    let config = config_for(Parallelism::Sequential);
    let expected = reference(&initial, &batches, config);

    // No automatic checkpoints: the second recovery leans entirely on the WAL.
    let no_ckpt = DurablePolicy {
        checkpoint_every_batches: 0,
        checkpoint_wal_bytes: 0,
    };
    let io = MemIo::new();
    let inner = IncrementalSummarizer::from_graph(&initial, config);
    let mut durable = DurableSummarizer::create(inner, no_ckpt, io.clone()).unwrap();
    durable.ingest(&batches[0]).unwrap();
    // Crash mid-append of batch 2: a 5-byte short write becomes the torn tail.
    io.arm(FaultPlan {
        at_op: 0,
        keep_bytes: 5,
    });
    assert!(durable.ingest(&batches[1]).is_err());
    drop(durable);
    let mut crashed = io.clone();
    crashed.crash(usize::MAX); // the torn fragment reached the platter

    // First recovery: batch 1 survives, the torn tail is discarded.
    let (mut recovered, report) = DurableSummarizer::open(config, no_ckpt, crashed).unwrap();
    assert!(report.torn_tail);
    assert_eq!(recovered.batches(), 1);
    // Re-feed batch 2 and push batch 3; ingest acknowledged both (fsynced).
    recovered.ingest(&batches[1]).unwrap();
    recovered.ingest(&batches[2]).unwrap();
    drop(recovered);

    // Second crash loses nothing that was synced — so the acknowledged batches
    // must come back.
    let mut crashed2 = io.clone();
    crashed2.crash(0);
    let (mut recovered2, report2) = DurableSummarizer::open(config, no_ckpt, crashed2).unwrap();
    assert_eq!(
        recovered2.batches(),
        3,
        "batches acknowledged after a torn-tail recovery were lost by the next recovery"
    );
    assert!(!report2.torn_tail, "the healed segment must parse clean");
    recovered2.ingest(&batches[3]).unwrap();
    assert_eq!(
        format!("{:?}", canonical_form(recovered2.summary())),
        expected
    );
}

/// A duplicated tail record (an append retried after an unacknowledged sync)
/// is skipped by batch index during replay.
#[test]
fn duplicated_tail_record_is_skipped() {
    let (initial, batches) = small_stream();
    let config = config_for(Parallelism::Sequential);
    let expected = reference(&initial, &batches, config);

    let io = MemIo::new();
    let inner = IncrementalSummarizer::from_graph(&initial, config);
    let mut durable = DurableSummarizer::create(inner, policy(), io.clone()).unwrap();
    for delta in &batches[..3] {
        durable.ingest(delta).unwrap();
    }
    drop(durable);
    // Duplicate the live WAL segment's tail record "on the platter".
    let wal = io
        .names()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .max()
        .unwrap();
    io.tamper(&wal, |data| {
        // Records follow the 17-byte segment header; the last record of this
        // segment is batch 3 (checkpoint at batch 2 started a fresh segment).
        let tail = data[17..].to_vec();
        data.extend_from_slice(&tail);
    });
    let mut crashed = io.clone();
    crashed.crash(usize::MAX); // keep everything, including the duplicate
    let (mut recovered, report) = DurableSummarizer::open(config, policy(), crashed).unwrap();
    assert_eq!(recovered.batches(), 3, "duplicate must not double-apply");
    assert_eq!(report.replayed_batches, 1);
    for delta in &batches[3..] {
        recovered.ingest(delta).unwrap();
    }
    assert_eq!(
        format!("{:?}", canonical_form(recovered.summary())),
        expected
    );
}

/// Truncating the WAL tail (any number of bytes) is tolerated: recovery keeps
/// the intact prefix and the driver re-feeds the rest of the stream.
#[test]
fn truncated_wal_tail_recovers_at_every_cut() {
    let (initial, batches) = small_stream();
    let config = config_for(Parallelism::Sequential);
    let expected = reference(&initial, &batches, config);

    let io = MemIo::new();
    let inner = IncrementalSummarizer::from_graph(&initial, config);
    let mut durable = DurableSummarizer::create(inner, policy(), io.clone()).unwrap();
    for delta in &batches[..3] {
        durable.ingest(delta).unwrap();
    }
    drop(durable);
    let wal = io
        .names()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .max()
        .unwrap();
    let full = io.file(&wal).unwrap();
    for cut in 0..=full.len() {
        // Rebuild the directory from the healthy one, with the WAL cut short.
        let io2 = MemIo::new();
        let mut h = io2.clone();
        for name in io.names() {
            let bytes = if name == wal {
                full[..cut].to_vec()
            } else {
                io.file(&name).unwrap()
            };
            h.write(&name, &bytes).unwrap();
            h.sync(&name).unwrap();
        }
        let (mut recovered, _report) = DurableSummarizer::open(config, policy(), io2)
            .unwrap_or_else(|e| panic!("cut at {cut}/{}: {e}", full.len()));
        assert!(
            recovered.batches() >= 2,
            "checkpointed batches must survive"
        );
        while recovered.batches() < batches.len() {
            recovered.ingest(&batches[recovered.batches()]).unwrap();
        }
        assert_eq!(
            format!("{:?}", canonical_form(recovered.summary())),
            expected,
            "cut at {cut}/{} diverged",
            full.len()
        );
    }
}

/// A bit flip inside a synced WAL segment makes the damaged record and
/// everything after it a torn tail: recovery keeps the consistent prefix (never
/// panics, never applies the damaged record) and the driver re-feeds the rest.
#[test]
fn bit_flipped_wal_record_truncates_to_the_consistent_prefix() {
    let (initial, batches) = small_stream();
    let config = config_for(Parallelism::Sequential);
    let expected = reference(&initial, &batches, config);

    // Policy with no checkpoints after creation: the whole stream lives in one
    // WAL segment, so a mid-segment flip has records before *and* after it.
    let no_ckpt = DurablePolicy {
        checkpoint_every_batches: 0,
        checkpoint_wal_bytes: 0,
    };
    let io = MemIo::new();
    let inner = IncrementalSummarizer::from_graph(&initial, config);
    let mut durable = DurableSummarizer::create(inner, no_ckpt, io.clone()).unwrap();
    for delta in &batches[..3] {
        durable.ingest(delta).unwrap();
    }
    drop(durable);
    let wal = io
        .names()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .max()
        .unwrap();
    let len = io.file(&wal).unwrap().len();
    // Flip a byte in the middle record region (past the 17-byte header).
    let pos = 17 + (len - 17) / 2;
    io.tamper(&wal, |data| data[pos] ^= 0x10);
    let mut crashed = io.clone();
    crashed.crash(usize::MAX);
    match DurableSummarizer::open(config, no_ckpt, crashed) {
        Ok((mut recovered, _)) => {
            assert!(recovered.batches() < 3, "the damaged record must not apply");
            while recovered.batches() < batches.len() {
                recovered.ingest(&batches[recovered.batches()]).unwrap();
            }
            assert_eq!(
                format!("{:?}", canonical_form(recovered.summary())),
                expected
            );
        }
        // A flip in a record's *length field* can masquerade as structural
        // damage past the torn-tail rules — a typed error is the other
        // acceptable outcome, never a panic.
        Err(DurableError::Corrupt { .. }) | Err(DurableError::NoCheckpoint) => {}
        Err(other) => panic!("unexpected error class: {other}"),
    }
}
