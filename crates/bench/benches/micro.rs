//! Criterion micro-benchmarks for the hot paths of the reproduction:
//!
//! * neighbor retrieval from a summary by partial decompression (Sect. VIII-B),
//! * min-hash candidate generation (Sect. III-B2),
//! * merge evaluation on the authoritative engine, and the planner's real hot
//!   path: planning one candidate set on a copy-on-write overlay,
//! * the local re-encoding solver with and without memoization (Sect. III-B3),
//! * optimal flat encoding of a fixed grouping (the baselines' final phase),
//! * one full SLUGGER run on a small structured graph.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use slugger_baselines::{FlatSummary, Grouping};
use slugger_bench::ExperimentScale;
use slugger_core::candidates::{candidate_sets, CandidateConfig};
use slugger_core::decode::neighbors_of;
use slugger_core::encoder::{pair_index, Case1Problem, Case1Shape, EncoderMemo};
use slugger_core::engine::plan::{PlanScratch, PlanningEngine};
use slugger_core::engine::MergeEngine;
use slugger_core::merge::{merging_threshold, plan_candidate_set, MergeOptions};
use slugger_core::model::HierarchicalSummary;
use slugger_core::pipeline::set_rng;
use slugger_core::MergeCtx;
use slugger_core::{Slugger, SluggerConfig};
use slugger_datasets::{dataset, DatasetKey};
use slugger_graph::NodeId;
use std::hint::black_box;

/// Shared small benchmark input: the PR stand-in at a reduced scale.
fn bench_graph() -> slugger_graph::Graph {
    dataset(DatasetKey::PR).generate(0.4)
}

fn bench_neighbor_query(c: &mut Criterion) {
    let graph = bench_graph();
    let outcome = Slugger::new(SluggerConfig {
        iterations: 10,
        ..SluggerConfig::default()
    })
    .summarize(&graph);
    let summary = outcome.summary;
    let nodes: Vec<NodeId> = (0..graph.num_nodes() as NodeId).step_by(7).collect();
    c.bench_function("neighbor_query_partial_decompression", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &v in &nodes {
                total += neighbors_of(black_box(&summary), v).len();
            }
            black_box(total)
        })
    });
    c.bench_function("neighbor_query_raw_graph", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &v in &nodes {
                total += black_box(&graph).neighbors(v).len();
            }
            black_box(total)
        })
    });
}

fn bench_candidate_generation(c: &mut Criterion) {
    let graph = bench_graph();
    let summary = HierarchicalSummary::identity(graph.num_nodes());
    let roots: Vec<_> = summary.roots().collect();
    c.bench_function("candidate_generation_minhash", |b| {
        b.iter(|| {
            let sets = candidate_sets(
                black_box(&summary),
                black_box(&graph),
                &roots,
                42,
                &CandidateConfig::default(),
            );
            black_box(sets.len())
        })
    });
    // The naive per-call-rehash oracle, kept measurable so the lazy-hash win (and
    // any regression of it) shows up next to the optimized number above.
    c.bench_function("candidate_generation_minhash_reference", |b| {
        b.iter(|| {
            let sets = slugger_core::testsupport::reference_candidate_sets(
                black_box(&summary),
                black_box(&graph),
                &roots,
                42,
                &CandidateConfig::default(),
            );
            black_box(sets.len())
        })
    });
}

fn bench_merge_evaluation(c: &mut Criterion) {
    // Saving(A, B, G) with a reused MergeCtx: the allocation-free inner loop of the
    // merge stage (panel problems built on inline buffers + scratch).
    let graph = bench_graph();
    let engine = MergeEngine::new(&graph);
    let roots: Vec<u32> = engine.roots();
    let pairs: Vec<(u32, u32)> = roots
        .windows(2)
        .step_by(17)
        .map(|w| (w[0], w[1]))
        .take(64)
        .collect();
    let mut ctx = MergeCtx::new();
    c.bench_function("merge_evaluation_reused_ctx", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &(a, b) in &pairs {
                acc += engine
                    .evaluate_merge(black_box(a), black_box(b), &mut ctx)
                    .cost_after;
            }
            black_box(acc)
        })
    });
}

fn bench_plan_candidate_set(c: &mut Criterion) {
    // Algorithm 2 on the largest first-iteration candidate set of the LJ stand-in
    // (a few dozen roots), planned on a `PlanningEngine` overlay with warm
    // per-worker pools: the path the pipeline actually runs (cached panel
    // blocks), unlike the engine-level evaluation above.
    let graph = dataset(DatasetKey::LJ).generate(1.0);
    let engine = MergeEngine::new(&graph);
    let roots = engine.roots();
    let set = candidate_sets(
        engine.summary(),
        &graph,
        &roots,
        1,
        &CandidateConfig::default(),
    )
    .into_iter()
    .max_by_key(|s| s.len())
    .expect("the graph yields candidate sets");
    let options = MergeOptions {
        threshold: merging_threshold(1, 20),
        height_bound: None,
    };
    let mut ctx = MergeCtx::new();
    let mut scratch = PlanScratch::new();
    c.bench_function("plan_candidate_set_lj_overlay", |b| {
        b.iter(|| {
            let mut overlay = PlanningEngine::new(&engine, &set, &mut scratch);
            let mut rng = set_rng(0, 1, 0);
            let (merges, stats) =
                plan_candidate_set(&mut overlay, &mut ctx, black_box(&set), &options, &mut rng);
            ctx.recycle_merges(merges);
            black_box(stats.evaluated)
        })
    });
}

fn bench_encoder(c: &mut Criterion) {
    // A representative Case-1 problem: fully internal panel, dense-minus-one-pair.
    let shape = Case1Shape {
        a_internal: true,
        b_internal: true,
    };
    let mut required = [0i8; 10];
    let mut constrained = 0u16;
    for i in 0..4 {
        for j in i..4 {
            let idx = pair_index(i, j, 4);
            constrained |= 1 << idx;
            required[idx] = if (i, j) == (0, 2) { 0 } else { 1 };
        }
    }
    let problem = Case1Problem {
        shape,
        required,
        constrained,
    };
    c.bench_function("encoder_case1_without_memo", |b| {
        b.iter_batched(
            EncoderMemo::disabled,
            |mut memo| black_box(memo.case1(&problem).cost),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("encoder_case1_with_memo", |b| {
        let mut memo = EncoderMemo::new();
        let _ = memo.case1(&problem); // warm the cache
        b.iter(|| black_box(memo.case1(&problem).cost))
    });
}

fn bench_flat_encoding(c: &mut Criterion) {
    let graph = bench_graph();
    // Group nodes into blocks of 8 (a crude but non-trivial grouping).
    let assignment: Vec<u32> = (0..graph.num_nodes() as u32).map(|u| u / 8 * 8).collect();
    c.bench_function("flat_optimal_encoding", |b| {
        b.iter(|| {
            let summary = FlatSummary::build(
                black_box(&graph),
                Grouping::from_assignment(assignment.clone()),
            );
            black_box(summary.total_cost())
        })
    });
}

fn bench_slugger_end_to_end(c: &mut Criterion) {
    let graph = dataset(DatasetKey::PR).generate(0.2);
    let mut group = c.benchmark_group("slugger_end_to_end");
    group.sample_size(10);
    group.bench_function("pr_scale_0.2_t5", |b| {
        b.iter(|| {
            let outcome = Slugger::new(SluggerConfig {
                iterations: 5,
                ..SluggerConfig::default()
            })
            .summarize(black_box(&graph));
            black_box(outcome.metrics.cost)
        })
    });
    group.finish();
    // Keep the runner's arg parser exercised so the bench target compiles it.
    let _ = ExperimentScale::default();
}

criterion_group!(
    benches,
    bench_neighbor_query,
    bench_candidate_generation,
    bench_merge_evaluation,
    bench_plan_candidate_set,
    bench_encoder,
    bench_flat_encoding,
    bench_slugger_end_to_end
);
criterion_main!(benches);
