//! Regression tests pinning the optimized hot paths to straightforward reference
//! behaviour:
//!
//! * the optimized candidate stage (lazy per-node hashing, sort-based bucketing,
//!   scratch reuse, parallel shingle fold) must produce **byte-identical** groups to
//!   the naive [`slugger_core::testsupport::reference_candidate_sets`] oracle
//!   across seeds, graph generators, configurations and thread counts;
//! * the per-worker [`MergeCtx`] scratch buffers must never leak state between
//!   evaluations — evaluating a pair with a heavily reused context must equal
//!   evaluating it with a fresh one (property-tested over random graphs and pairs).

// The vendored `proptest!` macro expands recursively per statement; the property
// tests below are long enough to need a higher limit.
#![recursion_limit = "256"]

use proptest::prelude::*;
use slugger_core::candidates::{self, CandidateConfig, CandidateScratch};
use slugger_core::engine::{MergeCtx, MergeEngine};
use slugger_core::model::HierarchicalSummary;
use slugger_core::testsupport::{reference_candidate_sets, reference_shingles};
use slugger_core::{Slugger, SluggerConfig};
use slugger_graph::gen::{caveman, rmat, CavemanConfig, RmatConfig};
use slugger_graph::Graph;

fn identity_roots(graph: &Graph) -> (HierarchicalSummary, Vec<u32>) {
    let summary = HierarchicalSummary::identity(graph.num_nodes());
    let roots: Vec<u32> = summary.roots().collect();
    (summary, roots)
}

/// The graphs the regression sweeps: structured (caveman) and skewed (RMAT).
fn generator_suite() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "caveman",
            caveman(&CavemanConfig {
                num_nodes: 400,
                num_cliques: 40,
                min_clique: 5,
                max_clique: 10,
                rewire_probability: 0.05,
                seed: 7,
            }),
        ),
        (
            "rmat",
            rmat(&RmatConfig {
                scale: 10,
                num_edges: 6_000,
                seed: 3,
                ..RmatConfig::default()
            }),
        ),
    ]
}

#[test]
fn optimized_candidate_sets_match_reference_across_seeds_and_generators() {
    for (name, graph) in generator_suite() {
        let (summary, roots) = identity_roots(&graph);
        for (cap, splits) in [(500usize, 10usize), (32, 5), (16, 3), (8, 0)] {
            let config = CandidateConfig {
                max_group_size: cap,
                max_shingle_splits: splits,
            };
            let mut scratch = CandidateScratch::default();
            for seed in [0u64, 1, 2, 17, 42, 0xdead_beef] {
                let expected = reference_candidate_sets(&summary, &graph, &roots, seed, &config);
                // Scratch deliberately reused across seeds and configs: reuse must
                // be invisible.
                let optimized = candidates::candidate_sets_with(
                    &summary,
                    &graph,
                    &roots,
                    seed,
                    &config,
                    1,
                    &mut scratch,
                    None,
                );
                assert_eq!(
                    optimized, expected,
                    "grouping diverged on {name} (cap {cap}, splits {splits}, seed {seed})"
                );
            }
        }
    }
}

#[test]
fn optimized_shingles_match_reference() {
    for (name, graph) in generator_suite() {
        let (summary, roots) = identity_roots(&graph);
        for seed in [0u64, 9, 1 << 40, u64::MAX] {
            assert_eq!(
                candidates::shingles(&summary, &graph, &roots, seed),
                reference_shingles(&summary, &graph, &roots, seed),
                "shingles diverged on {name} at seed {seed}"
            );
        }
    }
}

#[test]
fn thread_count_is_invisible_to_the_grouping() {
    for (name, graph) in generator_suite() {
        let (summary, roots) = identity_roots(&graph);
        let config = CandidateConfig {
            max_group_size: 24,
            max_shingle_splits: 5,
        };
        for seed in [5u64, 23] {
            let baseline = candidates::candidate_sets(&summary, &graph, &roots, seed, &config);
            for threads in [2usize, 3, 8] {
                let mut scratch = CandidateScratch::default();
                let grouped = candidates::candidate_sets_with(
                    &summary,
                    &graph,
                    &roots,
                    seed,
                    &config,
                    threads,
                    &mut scratch,
                    None,
                );
                assert_eq!(
                    grouped, baseline,
                    "{name}: {threads} threads changed the grouping at seed {seed}"
                );
            }
        }
    }
}

#[test]
fn parallel_shingle_fold_is_invisible_to_the_grouping() {
    // The suite's other graphs sit below PARALLEL_SHINGLE_THRESHOLD, so this is the
    // test that actually drives the rayon-chunked fold: the root set must exceed
    // the threshold for the first split, and the chunked fold must produce the
    // identical grouping (and match the naive reference) at every thread count.
    let graph = rmat(&RmatConfig {
        scale: 14,
        num_edges: 40_000,
        seed: 1,
        ..RmatConfig::default()
    });
    let (summary, roots) = identity_roots(&graph);
    assert!(
        roots.len() >= candidates::PARALLEL_SHINGLE_THRESHOLD,
        "test graph too small to engage the parallel fold ({} roots)",
        roots.len()
    );
    let config = CandidateConfig::default();
    let seed = 9;
    let expected = reference_candidate_sets(&summary, &graph, &roots, seed, &config);
    for threads in [1usize, 2, 4, 8] {
        let mut scratch = CandidateScratch::default();
        let grouped = candidates::candidate_sets_with(
            &summary,
            &graph,
            &roots,
            seed,
            &config,
            threads,
            &mut scratch,
            None,
        );
        assert_eq!(
            grouped, expected,
            "parallel fold changed the grouping at {threads} threads"
        );
    }
}

#[test]
fn candidate_sets_match_reference_on_a_coarse_summary() {
    // Not just the identity summary: after real merging the members/neighborhood
    // folds span multi-node supernodes, which the lazy hash must handle identically.
    let graph = caveman(&CavemanConfig {
        num_nodes: 300,
        num_cliques: 30,
        ..CavemanConfig::default()
    });
    let outcome = Slugger::new(SluggerConfig {
        iterations: 4,
        max_candidate_size: 64,
        pruning_rounds: 0,
        seed: 11,
        ..SluggerConfig::default()
    })
    .summarize(&graph);
    let summary = outcome.summary;
    let roots: Vec<u32> = summary.roots().collect();
    let config = CandidateConfig {
        max_group_size: 16,
        max_shingle_splits: 4,
    };
    let mut scratch = CandidateScratch::default();
    for seed in 0..8u64 {
        assert_eq!(
            candidates::candidate_sets_with(
                &summary,
                &graph,
                &roots,
                seed,
                &config,
                1,
                &mut scratch,
                None,
            ),
            reference_candidate_sets(&summary, &graph, &roots, seed, &config),
            "coarse-summary grouping diverged at seed {seed}"
        );
    }
}

/// Strategy: a random graph plus a list of candidate root pairs to evaluate.
fn graph_and_pairs() -> impl Strategy<Value = (Graph, Vec<(u32, u32)>)> {
    (6usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 4..80)
            .prop_map(move |e| Graph::from_edges(n, e));
        let pairs = proptest::collection::vec((0..n as u32, 0..n as u32), 1..24);
        (edges, pairs)
    })
}

/// Scratch-buffer reuse must never leak state between evaluations: a context that
/// has evaluated (and memoized) dozens of other pairs must return exactly the same
/// evaluation as a context used for nothing else.
fn check_scratch_reuse_never_leaks(graph: &Graph, pairs: &[(u32, u32)]) {
    let engine = MergeEngine::new(graph);
    let mut reused = MergeCtx::new();
    // Memoization is per-problem and deterministic, so the memo cannot leak either;
    // `disabled` additionally re-solves every panel, exercising the scratch without
    // any caching at all.
    let mut reused_nomemo = MergeCtx::disabled();
    for &(a, b) in pairs {
        if a == b || !graph_has_roots(&engine, a, b) {
            continue;
        }
        let mut fresh = MergeCtx::new();
        let clean = engine.evaluate_merge(a, b, &mut fresh);
        let warm = engine.evaluate_merge(a, b, &mut reused);
        let warm_nomemo = engine.evaluate_merge(a, b, &mut reused_nomemo);
        assert_eq!(clean.cost_before, warm.cost_before, "({a}, {b})");
        assert_eq!(clean.cost_after, warm.cost_after, "({a}, {b})");
        assert_eq!(clean.cost_before, warm_nomemo.cost_before, "({a}, {b})");
        assert_eq!(clean.cost_after, warm_nomemo.cost_after, "({a}, {b})");
        // Evaluate twice in a row on the reused context: the second answer must not
        // drift (the scratch is cleared per call, not per context).
        let again = engine.evaluate_merge(a, b, &mut reused);
        assert_eq!(warm.cost_after, again.cost_after);
    }
}

/// Reusing one context across an entire merge *application* sequence must agree with
/// using a fresh context per step.
fn check_ctx_reuse_invisible_to_applications(graph: &Graph, pairs: &[(u32, u32)]) {
    let mut shared = MergeEngine::new(graph);
    let mut fresh_per_step = MergeEngine::new(graph);
    let mut reused = MergeCtx::new();
    for &(a, b) in pairs {
        if a == b || !graph_has_roots(&shared, a, b) || !graph_has_roots(&fresh_per_step, a, b) {
            continue;
        }
        let m1 = shared.apply_merge(a, b, &mut reused);
        let mut fresh = MergeCtx::new();
        let m2 = fresh_per_step.apply_merge(a, b, &mut fresh);
        assert_eq!(m1, m2);
        assert_eq!(
            shared.summary().encoding_cost(),
            fresh_per_step.summary().encoding_cost()
        );
    }
    shared.summary().validate().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merge_ctx_scratch_reuse_never_leaks_between_evaluations(
        (graph, pairs) in graph_and_pairs()
    ) {
        check_scratch_reuse_never_leaks(&graph, &pairs);
    }

    #[test]
    fn merge_ctx_reuse_is_invisible_to_applications(
        (graph, pairs) in graph_and_pairs()
    ) {
        check_ctx_reuse_invisible_to_applications(&graph, &pairs);
    }
}

fn graph_has_roots(engine: &MergeEngine, a: u32, b: u32) -> bool {
    engine.summary().is_root(a) && engine.summary().is_root(b)
}
