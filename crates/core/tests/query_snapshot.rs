//! Snapshot-vs-oracle equivalence for the summary-native read path
//! (`slugger_core::snapshot`):
//!
//! - **Oracle**: across randomized delta / prune / compact / recovery
//!   interleavings, every published epoch snapshot must answer neighbor and
//!   degree queries byte-identically to `decode_full` of that epoch's summary,
//!   for **every** node — through the `QueryEngine` (i.e. through its cache),
//!   not just the raw snapshot accessors.
//! - **Pinning**: a reader pinned to an early epoch keeps serving that epoch's
//!   exact answers while the stream moves on, prunes and compacts underneath
//!   it — snapshots own their state, arena renumbering cannot reach them.
//! - **Lattice**: the published answers are identical across
//!   parallelism {1, 2, 4, 8} — scheduling is invisible to
//!   readers, same as the existing canonical-form invariance pins.
//! - **Durability**: a mid-stream kill/recover (fault-injected `MemIo`)
//!   republishes a snapshot whose answers match an uninterrupted control run
//!   at every batch boundary.
//! - **No panics**: arbitrary `u32` ids (way past the arena) never panic any
//!   query entry point — they return typed errors or empty views (proptest).
//! - **Sweeps**: `QueryEngine::{pagerank, bfs_distances}` run on the
//!   snapshot's once-decoded adjacency, yet return bit-identical results to
//!   the same algorithms over Algorithm 4 (`SummaryNeighborView`), for every
//!   published snapshot, from concurrent readers, and across epochs.
//! - **Readers during publication**: reader threads re-pinning the slot while
//!   the writer streams always answer exactly as the epoch they pinned.

// The vendored `proptest!` macro expands recursively per statement.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use slugger_algos::PageRankConfig;
use slugger_core::decode::{decode_full, try_neighbors_of, DecodeError, SummaryNeighborView};
use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
use slugger_core::snapshot::{QueryEngine, SnapshotSlot, SummarySnapshot};
use slugger_core::storage::durable::fault::{FaultPlan, MemIo};
use slugger_core::storage::durable::{DurableError, DurablePolicy, DurableSummarizer};
use slugger_core::{Parallelism, Slugger, SluggerConfig};
use slugger_graph::gen::{caveman, CavemanConfig};
use slugger_graph::stream::{stream_batches, StreamConfig};
use slugger_graph::{Graph, NeighborAccess, NodeId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn target_graph(seed: u64) -> Graph {
    caveman(&CavemanConfig {
        num_nodes: 260,
        num_cliques: 32,
        min_clique: 5,
        max_clique: 9,
        rewire_probability: 0.03,
        seed,
    })
}

fn bootstrap_slugger(seed: u64) -> Slugger {
    Slugger::new(SluggerConfig {
        iterations: 4,
        max_candidate_size: 64,
        max_shingle_splits: 5,
        seed,
        ..SluggerConfig::default()
    })
}

fn stream_config(seed: u64) -> IncrementalConfig {
    IncrementalConfig {
        iterations: 3,
        max_candidate_size: 48,
        max_shingle_splits: 4,
        seed,
        ..IncrementalConfig::default()
    }
}

/// The full answer surface of one snapshot: for every node, the neighbor list
/// the engine serves (and, implicitly, the degree).
fn engine_answers(engine: &mut QueryEngine) -> Vec<Vec<NodeId>> {
    (0..engine.snapshot().num_subnodes() as NodeId)
        .map(|v| {
            let neighbors = engine
                .neighbors(v)
                .unwrap_or_else(|e| panic!("in-range node {v}: {e}"))
                .to_vec();
            let degree = engine.degree(v).unwrap();
            assert_eq!(degree, neighbors.len(), "degree disagrees at node {v}");
            neighbors
        })
        .collect()
}

/// Asserts the engine's answers (through the cache: every node queried twice)
/// equal `decode_full` of the snapshot's own summary.
fn assert_snapshot_matches_decode(slot: &SnapshotSlot, context: &str) {
    let snapshot = slot
        .latest()
        .unwrap_or_else(|| panic!("{context}: no snapshot published"));
    let decoded = decode_full(snapshot.summary());
    let mut engine = QueryEngine::new(Arc::clone(&snapshot));
    for sweep in 0..2 {
        for v in 0..snapshot.num_subnodes() as NodeId {
            let got = engine
                .neighbors(v)
                .unwrap_or_else(|e| panic!("{context}: node {v}: {e}"));
            assert_eq!(
                got,
                decoded.neighbors(v),
                "{context}: sweep {sweep}: engine answer diverged at node {v}"
            );
        }
    }
    assert!(
        engine.cache_hits() > 0,
        "{context}: the second sweep must be served from the cache"
    );
    assert_sweeps_match_algorithm4(&mut engine, context);
    assert_eq!(snapshot.adjacency(), &decoded, "{context}: adjacency");
}

/// PageRank of `snapshot` over Algorithm 4 (per-node partial decompression),
/// as bit patterns — the oracle the engine's decoded-adjacency sweeps must
/// reproduce exactly.
fn algorithm4_pagerank_bits(snapshot: &SummarySnapshot) -> Vec<u64> {
    let view = SummaryNeighborView::new(snapshot.summary());
    bits(&slugger_algos::pagerank(&view, &PageRankConfig::default()))
}

fn bits(ranks: &[f64]) -> Vec<u64> {
    ranks.iter().map(|r| r.to_bits()).collect()
}

/// Asserts the engine's whole-graph sweeps equal the same algorithms run over
/// Algorithm 4: PageRank bit for bit, full BFS from a spread of sources.
fn assert_sweeps_match_algorithm4(engine: &mut QueryEngine, context: &str) {
    let snapshot = Arc::clone(engine.snapshot());
    assert_eq!(
        bits(&engine.pagerank(&PageRankConfig::default())),
        algorithm4_pagerank_bits(&snapshot),
        "{context}: PageRank diverged from Algorithm 4"
    );
    let view = SummaryNeighborView::new(snapshot.summary());
    let n = snapshot.num_subnodes() as NodeId;
    for source in [0, n / 3, n / 2, n - 1] {
        assert_eq!(
            engine.bfs_distances(source).unwrap(),
            slugger_algos::bfs_distances(&view, source),
            "{context}: full BFS from {source} diverged from Algorithm 4"
        );
    }
}

#[test]
fn random_interleavings_publish_oracle_identical_snapshots() {
    let target = target_graph(21);
    let (initial, batches) = stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.75,
            num_batches: 8,
            churn: 0.35,
            seed: 5,
        },
    );
    let config = stream_config(13);
    let slot = SnapshotSlot::new();
    let mut inc = IncrementalSummarizer::bootstrap(&initial, &bootstrap_slugger(7), config);
    inc.attach_snapshots(slot.clone()).unwrap();
    assert_snapshot_matches_decode(&slot, "bootstrap");
    for (i, delta) in batches.iter().enumerate() {
        inc.resummarize(delta);
        assert_eq!(
            slot.latest_epoch().map(|(_, batch)| batch),
            Some(inc.batches()),
            "batch {i}: publication must track the batch counter"
        );
        assert_snapshot_matches_decode(&slot, &format!("batch {i}"));
        // Deterministic "random" interleaving of the maintenance events.
        if i % 2 == 1 {
            inc.prune_now(2);
            inc.publish_snapshot_now().unwrap();
            assert_snapshot_matches_decode(&slot, &format!("batch {i} after prune"));
        }
        if i % 3 == 2 {
            inc.compact_now();
            inc.publish_snapshot_now().unwrap();
            assert_snapshot_matches_decode(&slot, &format!("batch {i} after compact"));
        }
        if i % 4 == 3 {
            // Crash/recover from exactly the durable checkpoint state: the
            // recovered summarizer re-attaches the slot and must republish a
            // snapshot answering identically to its own summary.
            inc = IncrementalSummarizer::resume(
                inc.summary().clone(),
                &inc.graph().to_graph(),
                config,
                inc.epoch(),
                inc.batches(),
            )
            .unwrap();
            inc.attach_snapshots(slot.clone()).unwrap();
            assert_snapshot_matches_decode(&slot, &format!("batch {i} after recovery"));
        }
    }
    // The stream converged to the target, and so does the served view.
    let snapshot = slot.latest().unwrap();
    assert_eq!(
        decode_full(snapshot.summary()).edge_set(),
        target.edge_set()
    );
}

#[test]
fn concurrent_sweeps_share_one_decode_bit_identically() {
    let target = target_graph(61);
    let outcome = bootstrap_slugger(61).summarize(&target);
    let expected = {
        // A separate snapshot of the same summary, swept on one thread.
        let alone = SummarySnapshot::new(outcome.summary.clone(), 0, 0).unwrap();
        bits(&QueryEngine::new(Arc::new(alone)).pagerank(&PageRankConfig::default()))
    };
    let shared = Arc::new(SummarySnapshot::new(outcome.summary, 0, 0).unwrap());
    assert_eq!(expected, algorithm4_pagerank_bits(&shared));
    let start = Barrier::new(2);
    let results: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let snapshot = Arc::clone(&shared);
                let start = &start;
                scope.spawn(move || {
                    let engine = QueryEngine::new(snapshot);
                    start.wait();
                    bits(&engine.pagerank(&PageRankConfig::default()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread panicked"))
            .collect()
    });
    for (thread, got) in results.iter().enumerate() {
        assert_eq!(got, &expected, "thread {thread}: concurrent PageRank");
    }
    assert_eq!(shared.adjacency(), &decode_full(shared.summary()));
}

/// Readers re-pin the slot in a loop while the writer streams and publishes:
/// every answer must match `decode_full` of the very epoch the reader pinned
/// (never a torn or mixed view), pins only move forward, and each reader's
/// last pin — taken after the writer stopped — lands on the final epoch.
#[test]
fn concurrent_readers_match_the_epoch_they_pinned_during_publication() {
    let target = target_graph(83);
    let (initial, batches) = stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.7,
            num_batches: 10,
            churn: 0.3,
            seed: 5,
        },
    );
    let slot = SnapshotSlot::new();
    let mut inc =
        IncrementalSummarizer::bootstrap(&initial, &bootstrap_slugger(13), stream_config(23));
    inc.attach_snapshots(slot.clone()).unwrap();
    let num_nodes = initial.num_nodes() as NodeId;
    let done = AtomicBool::new(false);
    let last_pins: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2u64)
            .map(|reader| {
                let (slot, done) = (&slot, &done);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(reader);
                    let sample: Vec<NodeId> =
                        (0..16).map(|_| rng.random_range(0..num_nodes)).collect();
                    let mut engine = QueryEngine::new(slot.latest().expect("published"));
                    loop {
                        // Read the flag before pinning, so the final pass pins
                        // after the writer's last publication.
                        let stop = done.load(Ordering::Acquire);
                        let before = engine.epoch();
                        assert!(engine.pin_latest(slot));
                        let pinned = engine.epoch();
                        assert!(pinned >= before, "reader {reader}: pin went backwards");
                        let decoded = decode_full(engine.snapshot().summary());
                        for &v in &sample {
                            assert_eq!(
                                engine.neighbors(v).unwrap(),
                                decoded.neighbors(v),
                                "reader {reader}: epoch {pinned:?}: node {v}"
                            );
                        }
                        if stop {
                            return pinned;
                        }
                    }
                })
            })
            .collect();
        for delta in &batches {
            inc.resummarize(delta);
        }
        done.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let last = slot.latest_epoch().expect("published");
    assert_eq!(last.1, batches.len());
    for (reader, pinned) in last_pins.iter().enumerate() {
        assert_eq!(*pinned, last, "reader {reader}: final pin");
    }
}

#[test]
fn decoded_adjacency_never_leaks_across_epochs() {
    let target = target_graph(71);
    let (initial, batches) = stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.7,
            num_batches: 2,
            churn: 0.3,
            seed: 3,
        },
    );
    let slot = SnapshotSlot::new();
    let mut inc =
        IncrementalSummarizer::bootstrap(&initial, &bootstrap_slugger(11), stream_config(31));
    inc.attach_snapshots(slot.clone()).unwrap();
    let mut engine = QueryEngine::new(slot.latest().unwrap());
    let first = Arc::clone(engine.snapshot());
    let before = bits(&engine.pagerank(&PageRankConfig::default()));
    assert_eq!(before, algorithm4_pagerank_bits(&first));

    inc.resummarize(&batches[0]);
    let second = slot.latest().unwrap();
    assert_ne!(
        decode_full(second.summary()).edge_set(),
        first.adjacency().edge_set(),
        "the next epoch must represent a different graph"
    );
    assert!(engine.pin_latest(&slot));
    let after = bits(&engine.pagerank(&PageRankConfig::default()));
    assert_eq!(
        after,
        algorithm4_pagerank_bits(&second),
        "a re-pinned engine must rank the new epoch's graph"
    );
    assert_ne!(after, before);
    assert_eq!(second.adjacency(), &decode_full(second.summary()));
    // The old epoch's reader-held view is untouched by the new one.
    assert_eq!(first.adjacency(), &decode_full(first.summary()));
}

#[test]
fn pinned_snapshots_survive_pruning_and_compaction() {
    let target = target_graph(33);
    let (initial, batches) = stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.75,
            num_batches: 6,
            churn: 0.3,
            seed: 9,
        },
    );
    // Automatic compaction off so the forced compact below has real
    // renumbering to do under the pinned reader.
    let config = IncrementalConfig {
        compact_dead_ratio: 0.0,
        ..stream_config(17)
    };
    let slot = SnapshotSlot::new();
    let mut inc = IncrementalSummarizer::bootstrap(&initial, &bootstrap_slugger(3), config);
    inc.attach_snapshots(slot.clone()).unwrap();
    inc.resummarize(&batches[0]);

    // Pin a reader to the epoch published after batch 0 and record its truth.
    let pinned = slot.latest().unwrap();
    let mut reader = QueryEngine::new(Arc::clone(&pinned));
    let frozen = engine_answers(&mut reader);
    let frozen_epoch = reader.epoch();

    // The stream moves on: more churn, a global prune, a forced compaction.
    for delta in &batches[1..] {
        inc.resummarize(delta);
    }
    inc.prune_now(2);
    let reclaimed = inc.compact_now();
    assert!(reclaimed > 0, "forced compaction must reclaim dead slots");
    inc.publish_snapshot_now().unwrap();

    // The pinned reader still serves the frozen epoch's exact answers...
    assert_eq!(reader.epoch(), frozen_epoch);
    assert_eq!(
        engine_answers(&mut reader),
        frozen,
        "a pinned snapshot must be immune to later pruning and compaction"
    );
    // ...while re-pinning to the slot serves the new epoch.
    assert!(reader.pin_latest(&slot), "a newer snapshot is available");
    assert_ne!(reader.epoch(), frozen_epoch);
    assert_snapshot_matches_decode(&slot, "after compaction");
}

#[test]
fn snapshot_answers_are_identical_across_parallelism_and_shards() {
    let target = target_graph(41);
    let (initial, batches) = stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.8,
            num_batches: 4,
            churn: 0.3,
            seed: 11,
        },
    );
    let run = |parallelism: Parallelism| -> Vec<Vec<Vec<NodeId>>> {
        let slot = SnapshotSlot::new();
        let mut inc = IncrementalSummarizer::bootstrap(
            &initial,
            &bootstrap_slugger(5),
            IncrementalConfig {
                parallelism,
                ..stream_config(19)
            },
        );
        inc.attach_snapshots(slot.clone()).unwrap();
        batches
            .iter()
            .map(|delta| {
                inc.resummarize(delta);
                let mut engine = QueryEngine::new(slot.latest().unwrap());
                engine_answers(&mut engine)
            })
            .collect()
    };
    let baseline = run(Parallelism::Sequential);
    for point in slugger_core::testsupport::lattice() {
        let got = run(point.parallelism);
        assert_eq!(
            got, baseline,
            "served answers diverged at parallelism {}",
            point.threads
        );
    }
}

#[test]
fn kill_recover_republishes_identical_snapshots() {
    let target = target_graph(51);
    let (initial, batches) = stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.8,
            num_batches: 4,
            churn: 0.3,
            seed: 7,
        },
    );
    let config = stream_config(23);
    let policy = DurablePolicy {
        checkpoint_every_batches: 2,
        checkpoint_wal_bytes: 0,
    };

    // Uninterrupted in-memory control: the per-batch answer surface.
    let control_slot = SnapshotSlot::new();
    let mut control = IncrementalSummarizer::bootstrap(&initial, &bootstrap_slugger(29), config);
    control.attach_snapshots(control_slot.clone()).unwrap();
    let control_answers: Vec<Vec<Vec<NodeId>>> = batches
        .iter()
        .map(|delta| {
            control.resummarize(delta);
            let mut engine = QueryEngine::new(control_slot.latest().unwrap());
            engine_answers(&mut engine)
        })
        .collect();

    // Durable run over fault-injected memory: one crash per fault phase, then
    // recovery re-opens the directory, re-attaches the slot (publishing the
    // recovered state) and finishes the stream.
    let drive = |io: MemIo, slot: &SnapshotSlot| -> Result<Vec<Vec<Vec<NodeId>>>, DurableError> {
        let (mut durable, _report) = DurableSummarizer::open_or_create(config, policy, io, || {
            IncrementalSummarizer::bootstrap(&initial, &bootstrap_slugger(29), config)
        })?;
        durable
            .attach_snapshots(slot.clone())
            .expect("recovered summary must validate at publication");
        let recovered = slot.latest().expect("open publishes the recovered state");
        assert_eq!(
            decode_full(recovered.summary()).edge_set(),
            decode_full(durable.summary()).edge_set(),
            "the published recovery snapshot must match the recovered summary"
        );
        let mut answers = Vec::new();
        while durable.batches() < batches.len() {
            durable.ingest(&batches[durable.batches()])?;
            let mut engine = QueryEngine::new(slot.latest().unwrap());
            answers.push(engine_answers(&mut engine));
        }
        Ok(answers)
    };

    // Probe a clean run for its fault-point count, then crash at three spread
    // points (the exhaustive sweep lives in durable_recovery.rs — here the
    // claim under test is the *snapshot* equivalence after recovery).
    let probe = MemIo::new();
    let clean_slot = SnapshotSlot::new();
    let clean = drive(probe.clone(), &clean_slot).expect("clean durable run");
    assert_eq!(
        clean.last(),
        control_answers.last(),
        "durable run must serve the control's final answers"
    );
    let total_ops = probe.ops();
    for at_op in [total_ops / 4, total_ops / 2, (3 * total_ops) / 4] {
        let io = MemIo::new();
        io.arm(FaultPlan {
            at_op,
            keep_bytes: if at_op % 2 == 0 { 0 } else { 3 },
        });
        let slot = SnapshotSlot::new();
        let mut attempts = 0;
        let answers = loop {
            match drive(io.clone(), &slot) {
                Ok(answers) => break answers,
                Err(_) => {
                    attempts += 1;
                    assert!(
                        attempts <= 3,
                        "fault at op {at_op}: recovery did not converge"
                    );
                    // Crash: drop unsynced data (clearing the fired fault) so
                    // the "restarted process" can recover and finish the run.
                    let mut crashed = io.clone();
                    crashed.crash(0);
                }
            }
        };
        // Whatever batches the post-recovery run ingested must have served
        // exactly the control's answers for those batch indices.  A fault that
        // lands after the final batch was acknowledged leaves nothing to
        // replay — then the recovered snapshot itself must serve the control's
        // final answers.
        let served = answers.len();
        if served == 0 {
            let mut engine = QueryEngine::new(slot.latest().unwrap());
            assert_eq!(
                engine_answers(&mut engine),
                *control_answers.last().unwrap(),
                "fault at op {at_op}: recovered final snapshot diverged from control"
            );
        } else {
            assert_eq!(
                answers,
                control_answers[batches.len() - served..],
                "fault at op {at_op}: post-recovery snapshots diverged from control"
            );
        }
    }
}

/// The proptest body (a plain function so the vendored `proptest!` macro —
/// which recurses per statement — only has to expand a single call): no query
/// entry point may panic on an arbitrary id, and in-range ids must agree with
/// the decode oracle.
fn check_arbitrary_ids_never_panic(graph_seed: u64, ids: &[u32]) {
    let target = caveman(&CavemanConfig {
        num_nodes: 120,
        num_cliques: 14,
        min_clique: 5,
        max_clique: 8,
        rewire_probability: 0.02,
        seed: graph_seed,
    });
    let outcome = bootstrap_slugger(graph_seed).summarize(&target);
    let slot = SnapshotSlot::new();
    let mut inc =
        IncrementalSummarizer::from_summary(outcome.summary, &target, stream_config(graph_seed))
            .unwrap();
    inc.attach_snapshots(slot.clone()).unwrap();
    let snapshot = slot.latest().unwrap();
    let mut engine = QueryEngine::new(Arc::clone(&snapshot));
    let n = snapshot.num_subnodes();
    let view = SummaryNeighborView::new(snapshot.summary());
    for &v in ids {
        let in_range = (v as usize) < n;
        // Raw decode entry point.
        match try_neighbors_of(snapshot.summary(), v) {
            Ok(_) => assert!(in_range, "node {v}: out-of-range id decoded"),
            Err(DecodeError::NodeOutOfRange { node, num_subnodes }) => {
                assert!(!in_range);
                assert_eq!((node, num_subnodes), (v, n));
            }
            Err(e) => panic!("node {v}: unexpected error {e}"),
        }
        // Snapshot accessors and the engine (cache path included).
        assert_eq!(snapshot.try_neighbors(v).is_ok(), in_range);
        assert_eq!(snapshot.try_degree(v).is_ok(), in_range);
        assert_eq!(engine.neighbors(v).is_ok(), in_range);
        assert_eq!(engine.degree(v).is_ok(), in_range);
        assert_eq!(engine.bfs_within(v, 2).is_ok(), in_range);
        assert_eq!(engine.bfs_distances(v).is_ok(), in_range);
        // The infallible algorithm view: empty instead of a panic.
        if !in_range {
            assert!(view.neighbors_vec(v).is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn arbitrary_ids_never_panic(
        graph_seed in 0u64..200,
        ids in proptest::collection::vec(0u32..u32::MAX, 24usize),
    ) {
        check_arbitrary_ids_never_panic(graph_seed, &ids);
    }
}
