//! Invalidation-soundness pins for the persistent candidate index
//! (`candidates::index`):
//!
//! - **Oracle**: across randomized delta / prune / compact / recovery
//!   interleavings, the candidate sets computed *through the warm index* must be
//!   byte-identical to the naive reference oracle recomputing everything from
//!   scratch on the same view — after every batch, for every pass seed, over
//!   all roots and over a strict subset (`testsupport::assert_oracle`).  Any
//!   missed invalidation (a structural event that changes a root's shingle
//!   without retiring its cached signature) shows up here as a divergence.
//! - **Compaction**: a mid-stream `compact_now` renumbers the cached entries in
//!   place rather than dropping them — the next batch still serves cache hits.
//!
//! Index-on lattice identity is pinned by `incremental_invariance.rs`.

use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
use slugger_core::testsupport::{assert_oracle, canonical};
use slugger_core::{Slugger, SluggerConfig};
use slugger_graph::gen::{caveman, CavemanConfig};
use slugger_graph::stream::{stream_batches, StreamConfig};
use slugger_graph::Graph;

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

#[test]
fn random_interleavings_match_the_reference_oracle() {
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
    let mut inc = IncrementalSummarizer::bootstrap(&initial, &bootstrap_slugger(7), config);
    // An uninterrupted control stream: the interleaved run (including its
    // recovery swaps) must stay canonically identical to it after every batch.
    let mut control = IncrementalSummarizer::bootstrap(&initial, &bootstrap_slugger(7), config);
    assert_oracle(&mut inc, "bootstrap");
    for (i, delta) in batches.iter().enumerate() {
        inc.resummarize(delta);
        control.resummarize(delta);
        assert_oracle(&mut inc, &format!("batch {i}"));
        // Deterministic "random" interleaving of the maintenance events.
        if i % 2 == 1 {
            inc.prune_now(2);
            control.prune_now(2);
            assert_oracle(&mut inc, &format!("batch {i} after prune"));
        }
        if i % 3 == 2 {
            inc.compact_now();
            control.compact_now();
            assert_oracle(&mut inc, &format!("batch {i} after compact"));
        }
        if i % 4 == 3 {
            // Crash/recover: rebuild from exactly the durable checkpoint state
            // (summary, epoch, batches) — the index comes back cold and must
            // both stay sound and leave the stream's outputs untouched.
            inc = IncrementalSummarizer::resume(
                inc.summary().clone(),
                &inc.graph().to_graph(),
                config,
                inc.epoch(),
                inc.batches(),
            )
            .unwrap();
            assert_oracle(&mut inc, &format!("batch {i} after recovery"));
        }
        inc.verify_lossless()
            .unwrap_or_else(|e| panic!("batch {i}: {e}"));
        assert_eq!(
            canonical(inc.summary()),
            canonical(control.summary()),
            "batch {i}: interleaved run diverged from the uninterrupted control"
        );
    }
}

#[test]
fn mid_stream_compact_remaps_rather_than_drops_the_index() {
    let target = target_graph(41);
    let (initial, batches) = stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.75,
            num_batches: 6,
            churn: 0.3,
            seed: 11,
        },
    );
    // Automatic compaction off: dead slots pile up so the forced compact below
    // has real renumbering to do.
    let config = IncrementalConfig {
        compact_dead_ratio: 0.0,
        ..stream_config(19)
    };
    let mut inc = IncrementalSummarizer::bootstrap(&initial, &bootstrap_slugger(5), config);
    for delta in &batches[..4] {
        inc.resummarize(delta);
    }
    // Warm the cache over every root, then force the remap.
    let roots: Vec<u32> = inc.summary().roots().collect();
    inc.probe_candidate_sets(1, &roots);
    let entries_before = inc.candidate_index().num_entries();
    assert!(entries_before > 0, "stream must have warmed the index");
    assert!(
        inc.summary().num_dead_slots() > 0,
        "stream must have left dead slots to reclaim"
    );
    let reclaimed = inc.compact_now();
    assert!(reclaimed > 0, "forced compaction must reclaim slots");
    assert!(
        inc.candidate_index().num_entries() > 0,
        "compaction must remap the cached entries, not drop them"
    );
    assert_oracle(&mut inc, "after forced compact");
    // The next batch still serves hits from the remapped cache.
    let report = inc.resummarize(&batches[4]);
    assert!(
        report.cached_roots > 0,
        "post-compaction batch must still hit the remapped cache \
         (reshingled {}, cached {})",
        report.reshingled_roots,
        report.cached_roots
    );
    inc.verify_lossless().unwrap();
}
