//! Ablation: effect of the candidate-set size cap (500 in the paper) on compression
//! and runtime, plus the effect of disabling the re-encoding memo (the paper notes the
//! algorithm becomes "several orders of magnitude slower without memoization").
//!
//! The memo ablation plans iteration 1's candidate sets twice on the same frozen
//! engine — once with a memo-enabled [`MergeCtx`], once with a disabled one —
//! through [`PlanningEngine`] overlays and [`plan_candidate_set`], the planner's
//! production path.  The memo only caches deterministic solver results, so both
//! runs must plan the identical merges with identical statistics (the bounded-out
//! count included, which depends on every evaluated saving); only the planning
//! time differs.

use crate::experiments::heading;
use crate::runner::ExperimentScale;
use crate::table::{fmt_duration, fmt_relative, TableWriter};
use slugger_core::candidates::{candidate_sets, CandidateConfig};
use slugger_core::engine::apply::PlannedMerge;
use slugger_core::engine::plan::{PlanScratch, PlanningEngine};
use slugger_core::engine::MergeEngine;
use slugger_core::incremental::pass_shingle_seed;
use slugger_core::merge::{merging_threshold, plan_candidate_set, MergeOptions, MergeStats};
use slugger_core::model::SupernodeId;
use slugger_core::pipeline::set_rng;
use slugger_core::{MergeCtx, Slugger, SluggerConfig};
use slugger_graph::Graph;
use std::time::{Duration, Instant};

/// Candidate-set caps swept by the ablation.
pub const CANDIDATE_CAPS: [usize; 4] = [50, 125, 250, 500];

/// Plans every candidate set of iteration 1 (of `T = iterations`) on `engine` with
/// `ctx`, drawing each set's RNG stream as the batch driver does.  Returns the
/// plans in set order, their summed statistics and the planning time.
fn plan_iteration_one(
    engine: &MergeEngine,
    sets: &[Vec<SupernodeId>],
    iterations: usize,
    seed: u64,
    mut ctx: MergeCtx,
) -> (Vec<Vec<PlannedMerge>>, MergeStats, Duration) {
    let options = MergeOptions {
        threshold: merging_threshold(1, iterations),
        height_bound: None,
    };
    let mut scratch = PlanScratch::new();
    let mut total = MergeStats::default();
    let start = Instant::now();
    let plans = sets
        .iter()
        .enumerate()
        .map(|(i, set)| {
            let mut overlay = PlanningEngine::new(engine, set, &mut scratch);
            let mut rng = set_rng(seed, 1, i);
            let (merges, stats) =
                plan_candidate_set(&mut overlay, &mut ctx, set, &options, &mut rng);
            total.absorb(stats);
            merges
        })
        .collect();
    (plans, total, start.elapsed())
}

/// The memo ablation on one graph: the planning statistics (identical either
/// way), then the planning time with and without the memo.
fn memo_ablation(graph: &Graph, scale: &ExperimentScale) -> (MergeStats, Duration, Duration) {
    let config = SluggerConfig::default();
    let engine = MergeEngine::new(graph);
    let sets = candidate_sets(
        engine.summary(),
        graph,
        &engine.roots(),
        pass_shingle_seed(scale.seed, 1),
        &CandidateConfig {
            max_group_size: config.max_candidate_size,
            max_shingle_splits: config.max_shingle_splits,
        },
    );
    let plan = |ctx| plan_iteration_one(&engine, &sets, scale.iterations, scale.seed, ctx);
    let (with_memo, stats, on) = plan(MergeCtx::new());
    let (without_memo, stats_off, off) = plan(MergeCtx::disabled());
    assert_eq!(
        (with_memo, stats),
        (without_memo, stats_off),
        "disabling the memo changed the iteration-1 plans"
    );
    (stats, on, off)
}

/// Runs the experiment and returns the report.
pub fn run(scale: &ExperimentScale) -> String {
    let mut cap_table = TableWriter::new(["Dataset", "cap", "relative size", "time"]);
    let mut memo_table = TableWriter::new([
        "Dataset",
        "memoization",
        "pairs evaluated",
        "merges planned",
        "time",
    ]);

    for spec in scale.select_datasets(false) {
        let graph = spec.generate(scale.scale);
        for &cap in &CANDIDATE_CAPS {
            let outcome = Slugger::new(SluggerConfig {
                iterations: scale.iterations,
                max_candidate_size: cap,
                seed: scale.seed,
                ..SluggerConfig::default()
            })
            .summarize(&graph);
            cap_table.row([
                spec.key.label().to_string(),
                cap.to_string(),
                fmt_relative(outcome.metrics.relative_size),
                fmt_duration(outcome.elapsed),
            ]);
        }
        let (stats, on, off) = memo_ablation(&graph, scale);
        for (memoization, time) in [("on", on), ("off", off)] {
            memo_table.row([
                spec.key.label().to_string(),
                memoization.to_string(),
                stats.evaluated.to_string(),
                stats.merged.to_string(),
                fmt_duration(time),
            ]);
        }
    }

    let mut out = heading("Ablation — candidate-set size cap and re-encoding memoization");
    out.push_str("Candidate-set cap (paper default 500):\n\n");
    out.push_str(&cap_table.to_text());
    out.push_str(
        "\nMemoization of the local re-encoding, planning iteration 1's candidate sets \
         (identical plans, different runtime):\n\n",
    );
    out.push_str(&memo_table.to_text());
    out
}
