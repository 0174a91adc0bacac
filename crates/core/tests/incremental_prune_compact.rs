//! Acceptance tests for engine-aware incremental pruning and arena compaction
//! (the streaming engine's post-batch prune + compact lifecycle):
//!
//! * after **every** batch of a 10-batch RMAT stream, the incrementally-pruned
//!   maintained summary decodes to the live graph;
//! * a forced mid-stream `compact` (plus an aggressive dead-slot threshold)
//!   changes neither the id-free canonical form nor any subsequent batch's
//!   output, across parallelism {1, 2, 4, 8};
//! * resident arena slots stay bounded by the live summary over the stream
//!   (the dead-slot ratio never exceeds the compaction threshold at batch end);
//! * the incrementally-pruned summary's encoding cost stays within a pinned ε of
//!   a from-scratch `prune_all` snapshot taken off the legacy unpruned stream;
//! * a proptest interleaves random delta batches with `prune_now`/`compact_now`
//!   and asserts decode-identity plus full engine-bookkeeping validation after
//!   every operation, including a mid-stream storage round-trip of a *pruned,
//!   compacted* summary.

// The vendored `proptest!` macro expands recursively per statement.
#![recursion_limit = "1024"]

use proptest::prelude::*;
use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
use slugger_core::model::HierarchicalSummary;
use slugger_core::storage::{read_summary, write_summary};
use slugger_core::testsupport::lattice;
use slugger_core::{Parallelism, Slugger, SluggerConfig};
use slugger_graph::gen::{caveman, rmat, CavemanConfig, RmatConfig};
use slugger_graph::stream::{stream_batches, DynamicGraph, GraphDelta, StreamConfig};
use slugger_graph::Graph;
use std::collections::{BTreeMap, BTreeSet};

/// The id-free canonical form of a summary (see `storage_roundtrip.rs`): alive
/// supernodes keyed by their member sets, each mapped to its parent's member set,
/// plus the p/n-edges keyed by both endpoints' member sets.  Compaction renumbers
/// the arena, so this — not raw ids — is what must be preserved.
type Canonical = (
    usize,
    BTreeMap<Vec<u32>, Option<Vec<u32>>>,
    BTreeSet<(Vec<u32>, Vec<u32>, i32)>,
);

fn canonical(summary: &HierarchicalSummary) -> Canonical {
    let mut nodes: BTreeMap<Vec<u32>, Option<Vec<u32>>> = BTreeMap::new();
    for id in 0..summary.arena_len() as u32 {
        if !summary.is_alive(id) {
            continue;
        }
        let members = summary.members(id).to_vec();
        let parent = summary.parent(id).map(|p| summary.members(p).to_vec());
        assert!(
            nodes.insert(members, parent).is_none(),
            "alive member sets must be unique"
        );
    }
    let mut edges: BTreeSet<(Vec<u32>, Vec<u32>, i32)> = BTreeSet::new();
    for ((a, b), sign) in summary.pn_edges() {
        let ma = summary.members(a).to_vec();
        let mb = summary.members(b).to_vec();
        let (x, y) = if ma <= mb { (ma, mb) } else { (mb, ma) };
        edges.insert((x, y, sign.weight()));
    }
    (summary.num_subnodes(), nodes, edges)
}

const NUM_BATCHES: usize = 10;

fn rmat_stream() -> (Graph, Graph, Vec<GraphDelta>) {
    let target = rmat(&RmatConfig {
        scale: 10,
        num_edges: 4_000,
        seed: 6,
        ..RmatConfig::default()
    });
    let (initial, batches) = stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.8,
            num_batches: NUM_BATCHES,
            churn: 0.3,
            seed: 5,
        },
    );
    (target, initial, batches)
}

fn bootstrap_slugger(parallelism: Parallelism) -> Slugger {
    Slugger::new(SluggerConfig {
        iterations: 4,
        max_candidate_size: 64,
        max_shingle_splits: 5,
        seed: 7,
        parallelism,
        ..SluggerConfig::default()
    })
}

fn stream_config(parallelism: Parallelism) -> IncrementalConfig {
    IncrementalConfig {
        iterations: 3,
        max_candidate_size: 48,
        max_shingle_splits: 4,
        seed: 13,
        parallelism,
        ..IncrementalConfig::default()
    }
}

/// Runs the stream under one pipeline setting; asserts decode-identity against the
/// live graph after every batch and returns the per-batch id-free canonical form.
/// `compaction` enables an aggressive dead-slot threshold plus one forced
/// mid-stream `compact_now`.
fn run_stream(
    initial: &Graph,
    batches: &[GraphDelta],
    parallelism: Parallelism,
    compaction: bool,
) -> Vec<Canonical> {
    let config = IncrementalConfig {
        compact_dead_ratio: if compaction { 0.25 } else { 0.0 },
        ..stream_config(parallelism)
    };
    let mut inc =
        IncrementalSummarizer::bootstrap(initial, &bootstrap_slugger(parallelism), config);
    let mut current = DynamicGraph::from_graph(initial);
    let mut compacted = 0usize;
    let mut out = Vec::with_capacity(batches.len());
    for (i, delta) in batches.iter().enumerate() {
        delta.apply_to(&mut current);
        let report = inc.resummarize(delta);
        compacted += report.compacted_slots;
        if compaction && i == batches.len() / 2 {
            compacted += inc.compact_now();
        }
        assert_eq!(
            slugger_core::decode::decode_full(inc.summary()).edge_set(),
            current.to_graph().edge_set(),
            "batch {i}: maintained summary diverged from the live graph \
             (parallelism {parallelism:?}, compaction {compaction})"
        );
        inc.validate()
            .unwrap_or_else(|e| panic!("batch {i}: engine bookkeeping diverged: {e}"));
        if compaction {
            // Resident arena bounded by the live summary: at batch end the dead
            // fraction must sit at or below the compaction threshold.
            assert!(
                report.dead_slots as f64 <= 0.25 * report.arena_len as f64 + 1.0,
                "batch {i}: dead slots {} of {} exceed the compaction threshold",
                report.dead_slots,
                report.arena_len
            );
        }
        out.push(canonical(inc.summary()));
    }
    if compaction {
        assert!(
            compacted > 0,
            "a churned 10-batch stream must trigger at least one compaction"
        );
    }
    out
}

/// The acceptance sweep: a forced mid-stream compact (and threshold-triggered
/// compactions) must change nothing, and every thread count must
/// produce the identical stream of summaries — all compared in id-free canonical
/// form against the sequential, never-compacting baseline.
#[test]
fn compaction_and_parallelism_never_change_the_stream() {
    let (_, initial, batches) = rmat_stream();
    let baseline = run_stream(&initial, &batches, Parallelism::Sequential, false);
    for point in lattice() {
        let run = run_stream(&initial, &batches, point.parallelism, true);
        for (batch, (got, expected)) in run.iter().zip(baseline.iter()).enumerate() {
            assert_eq!(
                got, expected,
                "summary diverged after batch {batch} at parallelism {} (with compaction)",
                point.threads
            );
        }
    }
}

/// The incrementally-pruned maintained summary must stay cost-competitive with a
/// from-scratch `prune_all` snapshot taken off the legacy (unpruned-maintained)
/// stream.  The two streams legitimately diverge — pruning between batches changes
/// later candidate grouping — so the pin is an ε on encoding cost, not canonical
/// equality.
#[test]
fn incremental_prune_cost_matches_snapshot_prune_within_epsilon() {
    const EPSILON: f64 = 0.05;
    let (_, initial, batches) = rmat_stream();
    let incremental_config = stream_config(Parallelism::Sequential);
    let legacy_config = IncrementalConfig {
        prune_rounds: 0,
        compact_dead_ratio: 0.0,
        ..incremental_config
    };
    let slugger = bootstrap_slugger(Parallelism::Sequential);
    let mut pruned = IncrementalSummarizer::bootstrap(&initial, &slugger, incremental_config);
    let mut legacy = IncrementalSummarizer::bootstrap(&initial, &slugger, legacy_config);
    for (i, delta) in batches.iter().enumerate() {
        let report = pruned.resummarize(delta);
        legacy.resummarize(delta);
        let (snapshot, _) = legacy.pruned_summary(2);
        let incremental_cost = report.cost as f64;
        let snapshot_cost = snapshot.encoding_cost() as f64;
        assert!(
            incremental_cost <= snapshot_cost * (1.0 + EPSILON) + 8.0,
            "batch {i}: incrementally-pruned cost {incremental_cost} exceeds \
             snapshot-pruned cost {snapshot_cost} by more than {EPSILON}"
        );
    }
    // And the maintained summary really is pruned: a global prune pass on top of
    // the per-batch region prunes finds (next to) nothing left to remove.
    let (_, residual) = pruned.pruned_summary(2);
    let live: usize = pruned.summary().arena_len() - pruned.summary().num_dead_slots();
    assert!(
        residual.total_changes() * 20 <= live.max(20),
        "region pruning left {} global opportunities over {} live supernodes",
        residual.total_changes(),
        live
    );
}

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
/// batches interleaved with forced global prunes and forced compactions, under
/// randomized prune/compaction knobs.  Decode-identity and the full
/// engine-bookkeeping validation must hold after every single operation, and a
/// mid-stream storage round-trip of the (pruned, possibly compacted) summary must
/// resume losslessly.
fn check_prune_compact_interleaving(
    graph_seed: u64,
    stream_seed: u64,
    prune_rounds: usize,
    compact_ratio: f64,
    ops: &[u8],
) {
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
        prune_rounds,
        compact_dead_ratio: compact_ratio,
        // The library's own self-check (panics on corrupt bookkeeping), every batch.
        validate_every: 1,
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
        inc.resummarize(delta);
        inc.verify_lossless()
            .unwrap_or_else(|e| panic!("batch {i}: not lossless after batch: {e}"));
        inc.validate()
            .unwrap_or_else(|e| panic!("batch {i}: bookkeeping after batch: {e}"));
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
            .unwrap_or_else(|e| panic!("batch {i}: not lossless after op {op}: {e}"));
        inc.validate()
            .unwrap_or_else(|e| panic!("batch {i}: bookkeeping after op {op}: {e}"));
        inc.summary()
            .validate()
            .unwrap_or_else(|e| panic!("batch {i}: summary invalid: {e}"));
        if i == batches.len() / 2 {
            // Mid-stream persistence of a pruned (op-dependent: compacted)
            // summary: the canonical form must survive the round-trip and the
            // resumed stream must keep the invariant.
            let before = canonical(inc.summary());
            let mut buffer = Vec::new();
            write_summary(inc.summary(), &mut buffer).unwrap();
            let restored = read_summary(&buffer[..]).unwrap();
            assert_eq!(canonical(&restored), before);
            inc =
                IncrementalSummarizer::from_summary(restored, &current.to_graph(), config).unwrap();
            inc.verify_lossless()
                .unwrap_or_else(|e| panic!("batch {i}: reload broke losslessness: {e}"));
        }
    }
    // The stream converged to the target graph, and so did the summary.
    assert_eq!(
        slugger_core::decode::decode_full(inc.summary()).edge_set(),
        target.edge_set()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prune_compact_interleaving_stays_lossless(
        graph_seed in 0u64..500,
        stream_seed in 0u64..500,
        knobs in 0u8..9,
        ops in proptest::collection::vec(0u8..4, 6usize),
    ) {
        // `knobs` packs (prune_rounds ∈ {0,1,2}) × (compact_dead_ratio ∈
        // {0.0, 0.25, 0.75}) — the vendored proptest supports 4 parameters.
        let prune_rounds = (knobs % 3) as usize;
        let compact_ratio = [0.0f64, 0.25, 0.75][(knobs / 3) as usize];
        check_prune_compact_interleaving(
            graph_seed,
            stream_seed,
            prune_rounds,
            compact_ratio,
            &ops,
        );
    }
}
