//! Per-stage wall-time breakdown of the sharded pipeline on a large RMAT graph,
//! plus a head-to-head of the optimized candidate stage against the straightforward
//! reference implementation.
//!
//! The candidate stage used to rebuild a full `|V|`-entry node-hash table on *every*
//! `shingles()` call — once per group per split round — which made it the dominant
//! serial stage as soon as the merge stage was parallelized.  The optimized path
//! hashes lazily per touched node and buckets by sorting (see
//! `slugger_core::candidates`); [`slugger_core::testsupport::reference_candidate_sets`]
//! keeps the naive implementation alive as both the determinism oracle and the
//! baseline this experiment measures against.

use crate::experiments::heading;
use crate::history;
use crate::runner::ExperimentScale;
use crate::table::{fmt_duration, TableWriter};
use slugger_core::candidates::{self, CandidateConfig, CandidateScratch};
use slugger_core::model::HierarchicalSummary;
use slugger_core::testsupport::reference_candidate_sets;
use slugger_core::{Slugger, SluggerConfig};
use slugger_graph::gen::{rmat, RmatConfig};
use std::time::{Duration, Instant};

/// Candidate-stage-specific harness knobs (parsed on top of the shared
/// [`ExperimentScale`] flags; unknown flags are ignored).
#[derive(Clone, Debug, Default)]
pub struct CandidateStageOptions {
    /// Write the measurements as JSON to this path (`--json`).
    pub json_path: Option<String>,
    /// Append a one-line summary record (git SHA + config + stage totals) to
    /// this JSON-Lines history file (`--history`; CI appends to
    /// `BENCH_candidates.json` at the repo root).
    pub history_path: Option<String>,
}

impl CandidateStageOptions {
    /// Parses the candidate-stage flags from an argument list.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = CandidateStageOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--json" => {
                    out.json_path = Some(iter.next().expect("--json needs a path"));
                }
                "--history" => {
                    out.history_path = Some(iter.next().expect("--history needs a path"));
                }
                _ => {}
            }
        }
        out
    }

    /// Parses from the process arguments (skipping the program name).
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }
}

/// One cap's optimized-vs-reference comparison (averaged over the passes).
struct CapRow {
    cap: usize,
    reference_secs: f64,
    optimized_secs: f64,
}

/// Attempted RMAT edges at `--scale 1.0` (realized simple-graph edges land around
/// 144k, matching the issue's target workload).
pub const BASE_EDGES: usize = 150_000;

/// Candidate-stage comparison passes per cap (more passes = steadier numbers).
const COMPARISON_PASSES: usize = 5;

/// Asserts two summaries are structurally identical — same arena (parents,
/// children, members, liveness per id) and same p/n-edge content — not merely
/// equal in aggregate metrics.
fn assert_identical_summaries(a: &HierarchicalSummary, b: &HierarchicalSummary) {
    assert_eq!(
        a.arena_len(),
        b.arena_len(),
        "conflict-partitioned apply diverged from the serial replay (arena size)"
    );
    for id in 0..a.arena_len() as u32 {
        assert_eq!(a.parent(id), b.parent(id), "parent of {id} diverged");
        assert_eq!(a.children(id), b.children(id), "children of {id} diverged");
        assert_eq!(a.members(id), b.members(id), "members of {id} diverged");
        assert_eq!(a.is_alive(id), b.is_alive(id), "liveness of {id} diverged");
    }
    let edges = |s: &HierarchicalSummary| {
        let mut v: Vec<((u32, u32), i32)> = s
            .pn_edges()
            .map(|(key, sign)| (key, sign.weight()))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(edges(a), edges(b), "p/n-edge content diverged");
}

/// Runs the experiment with default options and returns the report.
pub fn run(scale: &ExperimentScale) -> String {
    run_with(scale, &CandidateStageOptions::default())
}

/// Runs the experiment with explicit options and returns the report.
pub fn run_with(scale: &ExperimentScale, options: &CandidateStageOptions) -> String {
    let graph = rmat(&RmatConfig {
        scale: 16,
        num_edges: (BASE_EDGES as f64 * scale.scale).round().max(1.0) as usize,
        seed: scale.seed,
        ..RmatConfig::default()
    });
    let iterations = scale.iterations.min(10);

    // Full pipeline run with per-stage accounting.
    let outcome = Slugger::new(SluggerConfig {
        iterations,
        seed: scale.seed,
        parallelism: scale.parallelism(),
        shards: scale.shards,
        ..SluggerConfig::default()
    })
    .summarize(&graph);
    let stages = outcome.stages;
    let accounted = stages.candidates + stages.plan + stages.apply + stages.prune;
    let share = |d: Duration| -> String {
        format!(
            "{:.1}%",
            100.0 * d.as_secs_f64() / outcome.elapsed.as_secs_f64().max(1e-9)
        )
    };
    let mut table = TableWriter::new(["Stage", "Wall clock", "Share of run"]);
    table.row([
        "candidates".to_string(),
        fmt_duration(stages.candidates),
        share(stages.candidates),
    ]);
    table.row([
        "merge (plan)".to_string(),
        fmt_duration(stages.plan),
        share(stages.plan),
    ]);
    table.row([
        "apply".to_string(),
        fmt_duration(stages.apply),
        share(stages.apply),
    ]);
    table.row([
        "prune".to_string(),
        fmt_duration(stages.prune),
        share(stages.prune),
    ]);
    table.row([
        "total (whole run)".to_string(),
        fmt_duration(outcome.elapsed),
        share(outcome.elapsed),
    ]);

    // Plan-stage breakdown: how many panel-block requests each iteration's
    // per-set caches served instead of probing the edge map.
    let mut blocks = TableWriter::new([
        "Iteration",
        "Pairs evaluated",
        "Blocks built",
        "Blocks served",
        "Served share",
    ]);
    for rec in &outcome.iterations {
        let requests = rec.panel_blocks_built + rec.panel_blocks_served;
        blocks.row([
            rec.iteration.to_string(),
            rec.pairs_evaluated.to_string(),
            rec.panel_blocks_built.to_string(),
            rec.panel_blocks_served.to_string(),
            format!(
                "{:.1}%",
                100.0 * rec.panel_blocks_served as f64 / requests.max(1) as f64
            ),
        ]);
    }

    // Apply stage head-to-head: serial replay vs the conflict-partitioned parallel
    // path (2 workers), asserting the summaries identical — the apply stage's
    // output-invariance contract, exercised at bench scale on every CI run.  The
    // baseline is pinned to Sequential (reusing the main run only when it already
    // was sequential), so the comparison never degenerates into parallel-vs-parallel.
    let run_with = |parallelism: slugger_core::Parallelism| {
        Slugger::new(SluggerConfig {
            iterations,
            seed: scale.seed,
            parallelism,
            shards: scale.shards,
            ..SluggerConfig::default()
        })
        .summarize(&graph)
    };
    let serial_rerun;
    let serial_outcome = if scale.parallelism() == slugger_core::Parallelism::Sequential {
        &outcome
    } else {
        serial_rerun = run_with(slugger_core::Parallelism::Sequential);
        &serial_rerun
    };
    let parallel_outcome = run_with(slugger_core::Parallelism::Fixed(2));
    assert_identical_summaries(&serial_outcome.summary, &parallel_outcome.summary);
    let mut apply_cmp = TableWriter::new([
        "Apply path",
        "Apply wall clock",
        "Conflict batches",
        "Batched plans",
    ]);
    apply_cmp.row([
        "serial replay (Sequential)".to_string(),
        fmt_duration(serial_outcome.stages.apply),
        serial_outcome.stages.apply_batches.to_string(),
        serial_outcome.stages.apply_batched_plans.to_string(),
    ]);
    apply_cmp.row([
        "conflict-partitioned (2 workers)".to_string(),
        fmt_duration(parallel_outcome.stages.apply),
        parallel_outcome.stages.apply_batches.to_string(),
        parallel_outcome.stages.apply_batched_plans.to_string(),
    ]);

    // Candidate stage, optimized vs reference, on the identity summary (the
    // iteration-1 workload: every subnode is a root — the heaviest candidate pass of
    // a run), across the candidate-size-cap ablation dimension.  The smaller the
    // cap, the more re-split rounds — exactly where the old per-call O(|V|) rehash
    // burned its time; at the paper-default cap of 500 the first split dominates
    // and both paths amortize the same table, so the two are at parity there.
    // Outputs are asserted identical every pass: the speedup is pure mechanics.
    let summary = HierarchicalSummary::identity(graph.num_nodes());
    let roots: Vec<u32> = summary.roots().collect();
    let mut cmp = TableWriter::new([
        "Max group size",
        "Reference (O(|V|) rehash/call)",
        "Optimized (lazy hash)",
        "Speedup",
    ]);
    let mut cap_rows: Vec<CapRow> = Vec::new();
    for cap in [500usize, 100, 50, 25] {
        let config = CandidateConfig {
            max_group_size: cap,
            ..CandidateConfig::default()
        };
        let mut scratch = CandidateScratch::default();
        let mut optimized = Duration::ZERO;
        let mut reference = Duration::ZERO;
        for pass in 0..COMPARISON_PASSES {
            let seed = scale.seed.wrapping_add(pass as u64);
            let start = Instant::now();
            let fast = candidates::candidate_sets_with(
                &summary,
                &graph,
                &roots,
                seed,
                &config,
                1, // single-threaded: isolate the lazy-hash win from thread scaling
                &mut scratch,
            );
            optimized += start.elapsed();
            let start = Instant::now();
            let slow = reference_candidate_sets(&summary, &graph, &roots, seed, &config);
            reference += start.elapsed();
            assert_eq!(fast, slow, "optimized grouping diverged from the reference");
        }
        let speedup = reference.as_secs_f64() / optimized.as_secs_f64().max(1e-9);
        cmp.row([
            cap.to_string(),
            fmt_duration(reference / COMPARISON_PASSES as u32),
            fmt_duration(optimized / COMPARISON_PASSES as u32),
            format!("{speedup:.2}x"),
        ]);
        cap_rows.push(CapRow {
            cap,
            reference_secs: reference.as_secs_f64() / COMPARISON_PASSES as f64,
            optimized_secs: optimized.as_secs_f64() / COMPARISON_PASSES as f64,
        });
    }

    let mut out = heading("Candidate stage — per-stage wall time and lazy-hash speedup on RMAT");
    out.push_str(&format!(
        "RMAT graph: |V| = {}, |E| = {}; T = {iterations}, seed {}, {:?} threads.\n\n",
        graph.num_nodes(),
        graph.num_edges(),
        scale.seed,
        scale.parallelism(),
    ));
    out.push_str(&table.to_text());
    out.push_str(&format!(
        "\nStage times cover {} of the {} run; the remainder is engine construction, \
         root collection, cost recording and the final metrics.\n\n",
        fmt_duration(accounted),
        fmt_duration(outcome.elapsed),
    ));
    out.push_str(&blocks.to_text());
    out.push_str(
        "\nEach merge evaluation reads the panel edges of its pair and of every \
         common adjacent root as blocks; a candidate set's planner probes each \
         block once and serves repeats from its per-set cache.\n\n",
    );
    out.push_str(&apply_cmp.to_text());
    out.push_str(
        "\nBoth apply paths produce the identical summary (asserted above); batch \
         counts show how far the conflict graph lets plans replay concurrently — \
         hub-heavy RMAT adjacency makes plans conflict often, so batches stay \
         coarse here, while the per-batch resolve work is what fans out across \
         workers on multi-core hosts.\n\n",
    );
    out.push_str(&cmp.to_text());
    out.push_str(&format!(
        "\nAverages over {COMPARISON_PASSES} passes on the identity summary (all {} \
         subnodes are roots — the heaviest candidate pass of a run); both paths \
         produce byte-identical groupings (asserted every pass).  Small caps force \
         deep re-splitting, where the old per-call rehash was pure waste; at the \
         paper-default cap the single dominant first split amortizes either way and \
         the paths tie.  The optimized fold additionally deals large groups across \
         threads (`--threads N`), which the reference never does.\n",
        graph.num_nodes(),
    ));
    let json = render_json(
        scale,
        &graph,
        iterations,
        &stages,
        outcome.elapsed,
        serial_outcome,
        &parallel_outcome,
        &cap_rows,
    );
    if let Some(path) = &options.json_path {
        match std::fs::write(path, &json) {
            Ok(()) => out.push_str(&format!("\nJSON written to {path}.\n")),
            Err(e) => out.push_str(&format!("\nFailed to write JSON to {path}: {e}.\n")),
        }
    }
    if let Some(path) = &options.history_path {
        // The history record is the same JSON flattened to one line, prefixed
        // with the run identity (git SHA + wall-clock stamp).
        let record = format!(
            "{{\"experiment\": \"candidate_stage\", \"git_sha\": \"{}\", \
             \"unix_time\": {}, {}",
            history::git_sha(),
            history::unix_time(),
            json.replace('\n', " ")
                .trim_start()
                .trim_start_matches('{')
                .trim_start()
        );
        match history::append_line(path, &record) {
            Ok(()) => out.push_str(&format!("\nHistory record appended to {path}.\n")),
            Err(e) => out.push_str(&format!("\nFailed to append history to {path}: {e}.\n")),
        }
    }
    out
}

/// Hand-rolled JSON (the vendored `serde_json` is a Debug-based stand-in, not a
/// codec): the per-stage wall times, the apply-path head-to-head, and the
/// per-cap candidate-stage comparison.
#[allow(clippy::too_many_arguments)]
fn render_json(
    scale: &ExperimentScale,
    graph: &slugger_graph::Graph,
    iterations: usize,
    stages: &slugger_core::StageProfile,
    elapsed: Duration,
    serial: &slugger_core::SluggerOutcome,
    parallel: &slugger_core::SluggerOutcome,
    caps: &[CapRow],
) -> String {
    let mut out = String::from("{ ");
    out.push_str(&format!(
        "\"scale\": {}, \"iterations\": {iterations}, \"seed\": {}, \"threads\": {}, \
         \"shards\": {}, \"num_nodes\": {}, \"num_edges\": {},\n",
        scale.scale,
        scale.seed,
        scale.threads,
        scale.shards,
        graph.num_nodes(),
        graph.num_edges(),
    ));
    out.push_str(&format!(
        "  \"stages\": {{\"candidates_secs\": {:.6}, \"plan_secs\": {:.6}, \
         \"apply_secs\": {:.6}, \"prune_secs\": {:.6}, \"total_secs\": {:.6}}},\n",
        stages.candidates.as_secs_f64(),
        stages.plan.as_secs_f64(),
        stages.apply.as_secs_f64(),
        stages.prune.as_secs_f64(),
        elapsed.as_secs_f64(),
    ));
    out.push_str(&format!(
        "  \"apply\": {{\"serial_secs\": {:.6}, \"parallel_secs\": {:.6}, \
         \"serial_batches\": {}, \"parallel_batches\": {}, \"batched_plans\": {}}},\n",
        serial.stages.apply.as_secs_f64(),
        parallel.stages.apply.as_secs_f64(),
        serial.stages.apply_batches,
        parallel.stages.apply_batches,
        parallel.stages.apply_batched_plans,
    ));
    out.push_str("  \"candidate_caps\": [");
    for (i, row) in caps.iter().enumerate() {
        out.push_str(&format!(
            "{}{{\"cap\": {}, \"reference_secs\": {:.6}, \"optimized_secs\": {:.6}}}",
            if i > 0 { ", " } else { "" },
            row.cap,
            row.reference_secs,
            row.optimized_secs,
        ));
    }
    out.push_str("]\n}\n");
    out
}
