//! Streaming re-summarization: incremental maintenance versus full rebuild versus
//! MoSSo on fully dynamic edge streams (the ROADMAP's "MoSSo-style
//! streaming/incremental updates" scale target).
//!
//! A target graph is split into an initial snapshot plus churned delta batches
//! (deletions re-inserted a batch later) by `slugger_graph::stream::stream_batches`.
//! Per batch the harness measures
//!
//! * **incremental** — `IncrementalSummarizer::resummarize` on the maintained
//!   hierarchical summary (dirty-region re-expansion + localized pipeline passes +
//!   engine-hosted region pruning), including the per-batch **prune time** and the
//!   **resident arena size** (allocated slots, dead slots in parentheses) so the
//!   bench tracks that pruning cost follows the dirty region and memory follows the
//!   live summary — not the stream length;
//! * **rebuild** — a full SLUGGER run on the current graph (what you would pay
//!   without incremental maintenance);
//! * **MoSSo** — the flat-model online baseline consuming the identical
//!   `GraphDelta`;
//!
//! and **asserts decode-identity** after every batch: the maintained summary must
//! decode to exactly the current graph (the lossless invariant the streaming test
//! suite pins).  With incremental pruning enabled (the default) the maintained
//! summary's cost is reported directly; pass `--prune-rounds 0` to reproduce the
//! legacy snapshot-pruned reporting.
//!
//! Extra harness flags (parsed by the `streaming` binary on top of the shared
//! [`ExperimentScale`] flags):
//!
//! * `--prune-rounds N` — per-batch region-prune rounds (default 2; 0 = legacy
//!   unpruned maintenance);
//! * `--compact-ratio R` — arena compaction threshold (default 0.5; 0 disables;
//!   CI forces a low ratio to smoke the compaction path);
//! * `--input PATH` — stream a real SNAP-format edge list (see
//!   `slugger_graph::io::read_snap_file` for the dedup/self-loop policy) instead
//!   of the generated RMAT/caveman graphs;
//! * `--scenario NAME` — stream a named adversarial scenario from the
//!   `slugger-scenarios` registry (topology × churn program: hub deaths,
//!   community merges, delete-heavy phases, bursts, …) instead of the default
//!   churned split; the scenario name lands in the `--json` / `--history`
//!   records and keys the perf gate, so each scenario tracks its own baseline
//!   (an unknown name panics listing the registry);
//! * `--json PATH` — also write the per-batch measurements as JSON, so the bench
//!   trajectory can be tracked across PRs;
//! * `--history PATH` — append a one-line summary record (git SHA + config +
//!   totals) to a JSON-Lines history file (CI appends to `BENCH_streaming.json`
//!   at the repo root);
//! * `--durable-dir DIR` — run the stream through the crash-safe
//!   [`DurableSummarizer`] (checkpoints + delta WAL under `DIR/<stream>/`):
//!   a fresh directory bootstraps and checkpoints, an existing one **recovers**
//!   and resumes mid-stream, and at end-of-stream the maintained summary is
//!   asserted identical (id-free canonical form) to an uninterrupted in-memory
//!   run — the recovery-determinism invariant, exercised end-to-end;
//! * `--kill-after K` — with `--durable-dir`: exit the process (as a crash
//!   stand-in) right after the K-th batch of the first stream is ingested, so a
//!   restart with the same flags exercises recovery (CI's crash/recovery smoke);
//! * `--validate-every N` — run the engine + summary self-checks every N batches
//!   (`IncrementalConfig::validate_every`; 0 = off, the default).

use crate::experiments::heading;
use crate::history;
use crate::runner::ExperimentScale;
use crate::table::{fmt_duration, TableWriter};
use slugger_baselines::{MossoConfig, MossoSummarizer};
use slugger_core::decode::{canonical_form, decode_full};
use slugger_core::incremental::{BatchReport, IncrementalConfig, IncrementalSummarizer};
use slugger_core::storage::durable::{DirIo, DurablePolicy, DurableSummarizer};
use slugger_core::{Slugger, SluggerConfig};
use slugger_graph::gen::{caveman, rmat, CavemanConfig, RmatConfig};
use slugger_graph::stream::{stream_batches, DynamicGraph, GraphDelta, StreamConfig};
use slugger_graph::Graph;
use std::time::Instant;

/// Attempted RMAT edges at `--scale 1.0` (the acceptance target: |E| ≈ 144k with
/// per-batch deltas of at most ~1% of the edges).
pub const RMAT_BASE_EDGES: usize = 150_000;

/// Caveman nodes at `--scale 1.0`.
pub const CAVEMAN_BASE_NODES: usize = 20_000;

/// Delta batches per stream.
pub const NUM_BATCHES: usize = 10;

/// Streaming-specific harness knobs (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct StreamingOptions {
    /// Per-batch region-prune rounds (`--prune-rounds`; `None` = library default).
    pub prune_rounds: Option<usize>,
    /// Arena compaction threshold (`--compact-ratio`; `None` = library default).
    pub compact_dead_ratio: Option<f64>,
    /// Stream a real SNAP-format edge list instead of the generated graphs
    /// (`--input`).
    pub input_path: Option<String>,
    /// Stream a named scenario from the `slugger-scenarios` registry instead
    /// of the default churned split (`--scenario`).
    pub scenario: Option<String>,
    /// Write the per-batch measurements as JSON to this path (`--json`).
    pub json_path: Option<String>,
    /// Append a one-line summary record to this JSON-Lines history file
    /// (`--history`).
    pub history_path: Option<String>,
    /// Run crash-safe: checkpoints + delta WAL under this directory
    /// (`--durable-dir`), recovering and resuming if it already holds a stream.
    pub durable_dir: Option<String>,
    /// With `--durable-dir`: exit the process right after this many batches of
    /// the first stream have been ingested (`--kill-after`) — the crash half of
    /// the CI crash/recovery smoke.
    pub kill_after: Option<usize>,
    /// Run the engine + summary self-checks every N batches
    /// (`--validate-every`; 0 = off).
    pub validate_every: Option<usize>,
}

impl StreamingOptions {
    /// Parses the streaming-specific flags from an argument list (unknown flags
    /// are ignored — the shared [`ExperimentScale`] parser handles the rest).
    /// An unparsable value for a *recognized* flag panics: silently falling back
    /// to the library default would let a typo'd CI smoke (e.g. a forced low
    /// `--compact-ratio`) go green without exercising the path it exists for.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = StreamingOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--prune-rounds" => {
                    let v = iter.next().expect("--prune-rounds needs a value");
                    out.prune_rounds = Some(
                        v.parse()
                            .unwrap_or_else(|_| panic!("--prune-rounds: not a count: {v:?}")),
                    );
                }
                "--compact-ratio" => {
                    let v = iter.next().expect("--compact-ratio needs a value");
                    out.compact_dead_ratio = Some(
                        v.parse()
                            .unwrap_or_else(|_| panic!("--compact-ratio: not a ratio: {v:?}")),
                    );
                }
                "--input" => {
                    out.input_path = Some(iter.next().expect("--input needs a path"));
                }
                "--scenario" => {
                    out.scenario = Some(iter.next().expect("--scenario needs a name"));
                }
                "--json" => {
                    out.json_path = Some(iter.next().expect("--json needs a path"));
                }
                "--history" => {
                    out.history_path = Some(iter.next().expect("--history needs a path"));
                }
                "--durable-dir" => {
                    out.durable_dir = Some(iter.next().expect("--durable-dir needs a path"));
                }
                "--kill-after" => {
                    let v = iter.next().expect("--kill-after needs a value");
                    out.kill_after = Some(
                        v.parse()
                            .unwrap_or_else(|_| panic!("--kill-after: not a count: {v:?}")),
                    );
                }
                "--validate-every" => {
                    let v = iter.next().expect("--validate-every needs a value");
                    out.validate_every = Some(
                        v.parse()
                            .unwrap_or_else(|_| panic!("--validate-every: not a count: {v:?}")),
                    );
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

    fn apply(&self, mut config: IncrementalConfig) -> IncrementalConfig {
        if let Some(rounds) = self.prune_rounds {
            config.prune_rounds = rounds;
        }
        if let Some(ratio) = self.compact_dead_ratio {
            config.compact_dead_ratio = ratio;
        }
        if let Some(every) = self.validate_every {
            config.validate_every = every;
        }
        config
    }
}

/// The summary maintainer of one stream: the plain in-memory summarizer, or the
/// crash-safe durable wrapper when `--durable-dir` is given.
enum Maintainer {
    Plain(Box<IncrementalSummarizer>),
    Durable(Box<DurableSummarizer<DirIo>>),
}

impl Maintainer {
    fn step(&mut self, delta: &GraphDelta) -> BatchReport {
        match self {
            Maintainer::Plain(inc) => inc.resummarize(delta),
            Maintainer::Durable(d) => d
                .ingest(delta)
                .unwrap_or_else(|e| panic!("durable ingest failed: {e}")),
        }
    }

    fn inner(&self) -> &IncrementalSummarizer {
        match self {
            Maintainer::Plain(inc) => inc,
            Maintainer::Durable(d) => d.inner(),
        }
    }
}

/// One batch's measurements (feeds both the text table and the JSON report).
struct BatchRow {
    batch: usize,
    deleted: usize,
    inserted: usize,
    dirty_roots: usize,
    dissolved_subnodes: usize,
    region_subnodes: usize,
    reshingled_roots: usize,
    cached_roots: usize,
    incr_secs: f64,
    localize_secs: f64,
    dissolve_secs: f64,
    candidates_secs: f64,
    plan_secs: f64,
    apply_secs: f64,
    prune_secs: f64,
    rebuild_secs: f64,
    mosso_secs: f64,
    incr_cost: usize,
    rebuild_cost: usize,
    mosso_cost: usize,
    arena_len: usize,
    dead_slots: usize,
    compacted_slots: usize,
}

/// A prepared stream — initial snapshot plus delta batches — however it was
/// generated: the default churned split (`stream_batches`), a SNAP file
/// (`--input`), or a named registry scenario (`--scenario`).
struct StreamInput {
    name: String,
    initial: Graph,
    batches: Vec<GraphDelta>,
    num_nodes: usize,
    final_edges: usize,
    /// Human description of the batch generator, rendered in the section header.
    workload: String,
}

/// The default stream shape: split `target` into a 90% snapshot plus churned
/// delta batches converging back to it.
fn churned_input(name: &str, target: &Graph, seed: u64) -> StreamInput {
    let (initial, batches) = stream_batches(
        target,
        &StreamConfig {
            initial_fraction: 0.9,
            num_batches: NUM_BATCHES,
            churn: 0.25,
            seed,
        },
    );
    let fresh_per_batch =
        (target.num_edges() as f64 - initial.num_edges() as f64) / NUM_BATCHES as f64;
    let workload = format!(
        "{NUM_BATCHES} batches of ~{:.2}% fresh edges each (churn 0.25)",
        100.0 * fresh_per_batch / (target.num_edges() as f64).max(1.0),
    );
    StreamInput {
        name: name.to_string(),
        num_nodes: target.num_nodes(),
        final_edges: target.num_edges(),
        initial,
        batches,
        workload,
    }
}

/// A named adversarial stream from the `slugger-scenarios` registry, seeded
/// from the shared `--scale`/`--seed` flags so runs stay reproducible.
fn scenario_input(scenario: &slugger_scenarios::Scenario, scale: &ExperimentScale) -> StreamInput {
    let collected = scenario
        .instantiate(scale.scale, NUM_BATCHES, scale.seed)
        .collect_stream();
    StreamInput {
        name: scenario.name.to_string(),
        num_nodes: collected.num_nodes,
        final_edges: collected.final_edges,
        workload: format!("{NUM_BATCHES} scenario batches — {}", scenario.description),
        initial: collected.initial,
        batches: collected.batches,
    }
}

/// One stream's measurements.
struct StreamRun {
    name: String,
    num_nodes: usize,
    initial_edges: usize,
    final_edges: usize,
    workload: String,
    bootstrap_secs: f64,
    mosso_bootstrap_secs: f64,
    rows: Vec<BatchRow>,
    /// Present in `--durable-dir` mode: what the durable layer did (fresh
    /// stream / recovery) and the end-of-stream identity check.
    durable_note: Option<String>,
}

/// Runs the experiment with default streaming options and returns the report.
pub fn run(scale: &ExperimentScale) -> String {
    run_with(scale, &StreamingOptions::default())
}

/// Runs the experiment with explicit streaming options and returns the report.
pub fn run_with(scale: &ExperimentScale, options: &StreamingOptions) -> String {
    let mut out = heading("Streaming — incremental re-summarization vs full rebuild vs MoSSo");
    let iterations = scale.iterations.min(5);
    let mut runs = Vec::new();
    if let Some(spec) = &options.scenario {
        let scenario = slugger_scenarios::find(spec).unwrap_or_else(|| {
            panic!(
                "--scenario {spec:?}: unknown scenario (available: {})",
                slugger_scenarios::names().join(", ")
            )
        });
        let run = stream_section(scenario_input(&scenario, scale), iterations, scale, options);
        out.push_str(&render_section(&run, iterations));
        runs.push(run);
    } else if let Some(path) = &options.input_path {
        let graph = slugger_graph::io::read_snap_file(path)
            .unwrap_or_else(|e| panic!("--input {path}: {e}"));
        let name = std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        let run = stream_section(
            churned_input(&name, &graph, scale.seed),
            iterations,
            scale,
            options,
        );
        out.push_str(&render_section(&run, iterations));
        runs.push(run);
    } else {
        let rmat_graph = rmat(&RmatConfig {
            scale: 16,
            num_edges: (RMAT_BASE_EDGES as f64 * scale.scale).round().max(64.0) as usize,
            seed: scale.seed,
            ..RmatConfig::default()
        });
        let run = stream_section(
            churned_input("RMAT", &rmat_graph, scale.seed),
            iterations,
            scale,
            options,
        );
        out.push_str(&render_section(&run, iterations));
        runs.push(run);
        let nodes = ((CAVEMAN_BASE_NODES as f64 * scale.scale).round() as usize).max(60);
        let caveman_graph = caveman(&CavemanConfig {
            num_nodes: nodes,
            num_cliques: (nodes / 8).max(4),
            min_clique: 5,
            max_clique: 10,
            rewire_probability: 0.03,
            seed: scale.seed,
        });
        let run = stream_section(
            churned_input("Caveman", &caveman_graph, scale.seed),
            iterations,
            scale,
            options,
        );
        out.push_str(&render_section(&run, iterations));
        runs.push(run);
    }
    out.push_str(
        "\nDecode-identity is asserted after every batch: the incrementally maintained \
         summary and a from-scratch run see the identical current graph.  `Dslv/Rgn` \
         is subnodes re-expanded over subnodes held by the dirty region — the \
         partial-dissolution win; `Lcl+Dslv` is the \
         localize + dissolve share of the incremental time.  `Rsh/Dirty` is roots \
         (re-)shingled by the candidate stage over dirty roots and `Hit` the \
         persistent candidate index's cache-hit rate, with `Cand` the \
         candidate-stage share of the \
         incremental time — per-batch candidate cost should track the *dirty* \
         count, not the region.  `Speedup` is \
         rebuild time over incremental time for the same batch; `Prune` is the \
         engine-hosted region-prune share of the incremental time (bounded by the \
         dirty region, not the summary) and `Arena` is allocated supernode slots with \
         dead slots in parentheses (bounded by the live summary via compaction).  \
         MoSSo maintains the flat model online and is shown for the \
         model-expressiveness trade-off, not as a like-for-like cost target.\n",
    );
    if let Some(path) = &options.json_path {
        let json = render_json(scale, options, &runs);
        match std::fs::write(path, &json) {
            Ok(()) => out.push_str(&format!("\nPer-batch JSON written to {path}.\n")),
            Err(e) => out.push_str(&format!("\nFailed to write JSON to {path}: {e}.\n")),
        }
    }
    if let Some(path) = &options.history_path {
        let record = history_record(scale, options, &runs);
        match history::append_line(path, &record) {
            Ok(()) => {
                out.push_str(&format!("\nHistory record appended to {path}.\n"));
                // CI perf-regression gate: compare the just-appended record
                // against the last same-config one and fail the run on a >20%
                // incremental-total regression (see `crate::perf_gate`).
                match crate::perf_gate::check_streaming_history(path) {
                    Ok(verdict) => out.push_str(&format!("{verdict}\n")),
                    Err(report) => {
                        println!("{out}");
                        panic!("{report}");
                    }
                }
            }
            Err(e) => out.push_str(&format!("\nFailed to append history to {path}: {e}.\n")),
        }
    }
    out
}

fn stream_section(
    input: StreamInput,
    iterations: usize,
    scale: &ExperimentScale,
    options: &StreamingOptions,
) -> StreamRun {
    let StreamInput {
        name,
        initial,
        batches,
        num_nodes,
        final_edges,
        workload,
    } = input;
    let slugger_config = SluggerConfig {
        iterations,
        seed: scale.seed,
        parallelism: scale.parallelism(),
        shards: scale.shards,
        ..SluggerConfig::default()
    };
    let incremental_config = options.apply(IncrementalConfig {
        seed: scale.seed,
        parallelism: scale.parallelism(),
        shards: scale.shards,
        ..IncrementalConfig::default()
    });
    let report_pruned_snapshots = incremental_config.prune_rounds == 0;
    let bootstrap_start = Instant::now();
    let mut durable_note = None;
    let mut maintainer = if let Some(dir) = &options.durable_dir {
        let stream_dir = std::path::Path::new(dir).join(&name);
        let io = DirIo::new(&stream_dir)
            .unwrap_or_else(|e| panic!("--durable-dir {}: {e}", stream_dir.display()));
        let (durable, recovery) = DurableSummarizer::open_or_create(
            incremental_config,
            DurablePolicy::default(),
            io,
            || {
                IncrementalSummarizer::bootstrap(
                    &initial,
                    &Slugger::new(slugger_config),
                    incremental_config,
                )
            },
        )
        .unwrap_or_else(|e| panic!("--durable-dir {}: {e}", stream_dir.display()));
        durable_note = Some(match recovery {
            Some(report) => format!(
                "Durable mode: recovered from checkpoint {} ({} WAL batches replayed{}), \
                 resuming at batch {}.",
                report.checkpoint_seq,
                report.replayed_batches,
                if report.torn_tail {
                    ", torn tail discarded"
                } else {
                    ""
                },
                durable.batches() + 1,
            ),
            None => format!(
                "Durable mode: fresh stream under {} (checkpoint + delta WAL).",
                stream_dir.display()
            ),
        });
        Maintainer::Durable(Box::new(durable))
    } else {
        Maintainer::Plain(Box::new(IncrementalSummarizer::bootstrap(
            &initial,
            &Slugger::new(slugger_config),
            incremental_config,
        )))
    };
    // Batches already applied before this process started (durable recovery).
    let start_batch = maintainer.inner().batches();
    assert!(
        start_batch <= batches.len(),
        "{name}: durable directory holds {start_batch} batches but the stream has {}",
        batches.len()
    );
    let bootstrap_elapsed = bootstrap_start.elapsed();
    let mut mosso = MossoSummarizer::new(
        num_nodes,
        MossoConfig {
            seed: scale.seed,
            ..MossoConfig::default()
        },
    );
    let mosso_start = Instant::now();
    for (u, v) in initial.edges() {
        mosso.insert_edge(u, v);
    }
    let mosso_bootstrap = mosso_start.elapsed();
    let mut current = DynamicGraph::from_graph(&initial);
    // Catch the rebuild/MoSSo comparison state up to the recovered position
    // (untimed — these baselines are in-memory and replay from the stream).
    for delta in &batches[..start_batch] {
        delta.apply_to(&mut current);
        mosso.apply_delta(delta);
    }

    let mut newly_ingested = 0usize;
    let mut rows = Vec::with_capacity(batches.len() - start_batch);
    for (i, delta) in batches.iter().enumerate().skip(start_batch) {
        delta.apply_to(&mut current);
        let step_start = Instant::now();
        let report = maintainer.step(delta);
        let step_secs = step_start.elapsed().as_secs_f64();
        newly_ingested += 1;
        if let (Maintainer::Durable(_), Some(k)) = (&maintainer, options.kill_after) {
            if newly_ingested >= k {
                // The crash half of the CI smoke: die with WAL/checkpoint state
                // on disk; a restart with the same flags must recover and finish.
                println!(
                    "[durable] {name}: killed after batch {} (--kill-after {k})",
                    i + 1
                );
                std::process::exit(0);
            }
        }

        let graph_now = current.to_graph();
        assert_eq!(
            decode_full(maintainer.inner().summary()).edge_set(),
            graph_now.edge_set(),
            "{name}: incremental summary diverged from the stream at batch {i}"
        );
        let rebuild_start = Instant::now();
        let rebuilt = Slugger::new(slugger_config).summarize(&graph_now);
        let rebuild_secs = rebuild_start.elapsed().as_secs_f64();

        let mosso_batch = Instant::now();
        mosso.apply_delta(delta);
        let mosso_secs = mosso_batch.elapsed().as_secs_f64();
        // With incremental pruning the maintained summary *is* the pruned summary;
        // without it (legacy mode), fall back to the snapshot-pruned cost.
        let incr_cost = if report_pruned_snapshots {
            maintainer.inner().pruned_summary(2).0.encoding_cost()
        } else {
            report.cost
        };

        rows.push(BatchRow {
            batch: i + 1,
            deleted: report.deleted,
            inserted: report.inserted,
            dirty_roots: report.dirty_roots,
            dissolved_subnodes: report.dissolved_subnodes,
            region_subnodes: report.region_subnodes,
            reshingled_roots: report.reshingled_roots,
            cached_roots: report.cached_roots,
            // In durable mode the honest per-batch time includes the WAL
            // append + fsync and any checkpoint — that wall-clock is what the
            // ≤ 15% overhead acceptance bound is measured on.
            incr_secs: step_secs,
            localize_secs: report.stages.localize.as_secs_f64(),
            dissolve_secs: report.stages.dissolve.as_secs_f64(),
            candidates_secs: report.stages.candidates.as_secs_f64(),
            plan_secs: report.stages.plan.as_secs_f64(),
            apply_secs: report.stages.apply.as_secs_f64(),
            prune_secs: report.prune_elapsed.as_secs_f64(),
            rebuild_secs,
            mosso_secs,
            incr_cost,
            rebuild_cost: rebuilt.metrics.cost,
            mosso_cost: mosso_flat_cost(&mosso),
            arena_len: report.arena_len,
            dead_slots: report.dead_slots,
            compacted_slots: report.compacted_slots,
        });
    }
    // End-of-stream recovery-determinism check (durable mode): the maintained
    // summary — bootstrapped, checkpointed, possibly recovered mid-stream —
    // must be identical in id-free canonical form to an uninterrupted
    // in-memory run over the same stream.
    if matches!(maintainer, Maintainer::Durable(_)) {
        let mut fresh = IncrementalSummarizer::bootstrap(
            &initial,
            &Slugger::new(slugger_config),
            incremental_config,
        );
        for delta in &batches {
            fresh.resummarize(delta);
        }
        assert_eq!(
            canonical_form(maintainer.inner().summary()),
            canonical_form(fresh.summary()),
            "{name}: durable stream diverged from the uninterrupted run"
        );
        if let Some(note) = &mut durable_note {
            note.push_str("  End-of-stream canonical identity with an uninterrupted run: OK.");
        }
    }

    StreamRun {
        name,
        num_nodes,
        initial_edges: initial.num_edges(),
        final_edges,
        workload,
        bootstrap_secs: bootstrap_elapsed.as_secs_f64(),
        mosso_bootstrap_secs: mosso_bootstrap.as_secs_f64(),
        rows,
        durable_note,
    }
}

fn render_section(run: &StreamRun, iterations: usize) -> String {
    let mut table = TableWriter::new([
        "Batch",
        "Ops",
        "Dirty",
        "Dslv/Rgn",
        "Rsh/Dirty",
        "Hit",
        "Incr time",
        "Lcl+Dslv",
        "Cand",
        "Prune",
        "Rebuild",
        "Speedup",
        "Arena",
        "Incr cost",
        "Rebuild cost",
        "MoSSo time",
        "MoSSo cost",
    ]);
    let mut inc_total = 0.0f64;
    let mut rebuild_total = 0.0f64;
    for row in &run.rows {
        inc_total += row.incr_secs;
        rebuild_total += row.rebuild_secs;
        let arena = if row.compacted_slots > 0 {
            format!("{}({})*", row.arena_len, row.dead_slots)
        } else {
            format!("{}({})", row.arena_len, row.dead_slots)
        };
        table.row([
            row.batch.to_string(),
            format!("-{} +{}", row.deleted, row.inserted),
            row.dirty_roots.to_string(),
            format!(
                "{}/{} ({:.0}%)",
                row.dissolved_subnodes,
                row.region_subnodes,
                100.0 * row.dissolved_subnodes as f64 / (row.region_subnodes as f64).max(1.0)
            ),
            format!("{}/{}", row.reshingled_roots, row.dirty_roots),
            format!(
                "{:.0}%",
                100.0 * row.cached_roots as f64
                    / ((row.cached_roots + row.reshingled_roots) as f64).max(1.0)
            ),
            fmt_duration(std::time::Duration::from_secs_f64(row.incr_secs)),
            fmt_duration(std::time::Duration::from_secs_f64(
                row.localize_secs + row.dissolve_secs,
            )),
            fmt_duration(std::time::Duration::from_secs_f64(row.candidates_secs)),
            fmt_duration(std::time::Duration::from_secs_f64(row.prune_secs)),
            fmt_duration(std::time::Duration::from_secs_f64(row.rebuild_secs)),
            format!("{:.1}x", row.rebuild_secs / row.incr_secs.max(1e-9)),
            arena,
            row.incr_cost.to_string(),
            row.rebuild_cost.to_string(),
            fmt_duration(std::time::Duration::from_secs_f64(row.mosso_secs)),
            row.mosso_cost.to_string(),
        ]);
    }
    let mut out = format!(
        "\n### {} stream: |V| = {}, final |E| = {}, {}, T = {iterations}\n\n\
         Bootstrap: SLUGGER in {} on the initial snapshot ({} edges); MoSSo \
         streamed the snapshot in {}.  `*` marks batches that compacted the \
         arena.\n\n",
        run.name,
        run.num_nodes,
        run.final_edges,
        run.workload,
        fmt_duration(std::time::Duration::from_secs_f64(run.bootstrap_secs)),
        run.initial_edges,
        fmt_duration(std::time::Duration::from_secs_f64(run.mosso_bootstrap_secs)),
    );
    out.push_str(&table.to_text());
    out.push_str(&format!(
        "\nTotals over {NUM_BATCHES} batches: incremental {}, rebuild {} ({:.1}x).\n",
        fmt_duration(std::time::Duration::from_secs_f64(inc_total)),
        fmt_duration(std::time::Duration::from_secs_f64(rebuild_total)),
        rebuild_total / inc_total.max(1e-9),
    ));
    if let Some(note) = &run.durable_note {
        out.push_str(&format!("{note}\n"));
    }
    out
}

/// Hand-rolled JSON (the vendored `serde_json` is a Debug-based stand-in, not a
/// codec): strictly numbers, strings and nesting — parseable by any JSON reader.
fn render_json(scale: &ExperimentScale, options: &StreamingOptions, runs: &[StreamRun]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"scale\": {}, \"iterations\": {}, \"seed\": {}, \"threads\": {}, \"shards\": {},\n",
        scale.scale,
        scale.iterations.min(5),
        scale.seed,
        scale.threads,
        scale.shards
    ));
    out.push_str(&format!(
        "  \"prune_rounds\": {}, \"compact_dead_ratio\": {}, \"scenario\": \"{}\",\n",
        options
            .prune_rounds
            .unwrap_or(IncrementalConfig::default().prune_rounds),
        options
            .compact_dead_ratio
            .unwrap_or(IncrementalConfig::default().compact_dead_ratio),
        options.scenario.as_deref().unwrap_or("none"),
    ));
    out.push_str("  \"streams\": [\n");
    for (si, run) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"num_nodes\": {}, \"initial_edges\": {}, \
             \"final_edges\": {}, \"bootstrap_secs\": {:.6}, \
             \"mosso_bootstrap_secs\": {:.6}, \"batches\": [\n",
            run.name,
            run.num_nodes,
            run.initial_edges,
            run.final_edges,
            run.bootstrap_secs,
            run.mosso_bootstrap_secs
        ));
        for (bi, row) in run.rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"batch\": {}, \"deleted\": {}, \"inserted\": {}, \
                 \"dirty_roots\": {}, \"dissolved_subnodes\": {}, \
                 \"region_subnodes\": {}, \"reshingled_roots\": {}, \
                 \"cached_roots\": {}, \"incr_secs\": {:.6}, \
                 \"localize_secs\": {:.6}, \"dissolve_secs\": {:.6}, \
                 \"candidates_secs\": {:.6}, \
                 \"plan_secs\": {:.6}, \"apply_secs\": {:.6}, \
                 \"prune_secs\": {:.6}, \"rebuild_secs\": {:.6}, \"mosso_secs\": {:.6}, \
                 \"incr_cost\": {}, \"rebuild_cost\": {}, \"mosso_cost\": {}, \
                 \"arena_len\": {}, \"dead_slots\": {}, \"compacted_slots\": {}}}{}\n",
                row.batch,
                row.deleted,
                row.inserted,
                row.dirty_roots,
                row.dissolved_subnodes,
                row.region_subnodes,
                row.reshingled_roots,
                row.cached_roots,
                row.incr_secs,
                row.localize_secs,
                row.dissolve_secs,
                row.candidates_secs,
                row.plan_secs,
                row.apply_secs,
                row.prune_secs,
                row.rebuild_secs,
                row.mosso_secs,
                row.incr_cost,
                row.rebuild_cost,
                row.mosso_cost,
                row.arena_len,
                row.dead_slots,
                row.compacted_slots,
                if bi + 1 < run.rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if si + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One JSON-Lines history record: git SHA + config + per-stream totals (see
/// [`crate::history`]).  Kept to aggregates so the tracked `BENCH_streaming.json`
/// stays one compact line per run; the full per-batch detail lives in `--json`.
fn history_record(
    scale: &ExperimentScale,
    options: &StreamingOptions,
    runs: &[StreamRun],
) -> String {
    let mut out = format!(
        "{{\"experiment\": \"streaming\", \"git_sha\": \"{}\", \"unix_time\": {}, \
         \"scale\": {}, \"iterations\": {}, \"seed\": {}, \"threads\": {}, \
         \"shards\": {}, \"prune_rounds\": {}, \"compact_dead_ratio\": {}, \
         \"scenario\": \"{}\", \"streams\": [",
        history::git_sha(),
        history::unix_time(),
        scale.scale,
        scale.iterations.min(5),
        scale.seed,
        scale.threads,
        scale.shards,
        options
            .prune_rounds
            .unwrap_or(IncrementalConfig::default().prune_rounds),
        options
            .compact_dead_ratio
            .unwrap_or(IncrementalConfig::default().compact_dead_ratio),
        options.scenario.as_deref().unwrap_or("none"),
    );
    for (si, run) in runs.iter().enumerate() {
        let incr_total: f64 = run.rows.iter().map(|r| r.incr_secs).sum();
        let rebuild_total: f64 = run.rows.iter().map(|r| r.rebuild_secs).sum();
        let dissolved: usize = run.rows.iter().map(|r| r.dissolved_subnodes).sum();
        let region: usize = run.rows.iter().map(|r| r.region_subnodes).sum();
        let reshingled: usize = run.rows.iter().map(|r| r.reshingled_roots).sum();
        let cached: usize = run.rows.iter().map(|r| r.cached_roots).sum();
        let candidates_total: f64 = run.rows.iter().map(|r| r.candidates_secs).sum();
        let final_cost = run.rows.last().map(|r| r.incr_cost).unwrap_or(0);
        out.push_str(&format!(
            "{}{{\"name\": \"{}\", \"num_nodes\": {}, \"final_edges\": {}, \
             \"incr_total_secs\": {:.6}, \"rebuild_total_secs\": {:.6}, \
             \"dissolved_subnodes\": {}, \"region_subnodes\": {}, \
             \"reshingled_roots\": {}, \"cached_roots\": {}, \
             \"candidates_total_secs\": {:.6}, \"final_cost\": {}}}",
            if si > 0 { ", " } else { "" },
            run.name,
            run.num_nodes,
            run.final_edges,
            incr_total,
            rebuild_total,
            dissolved,
            region,
            reshingled,
            cached,
            candidates_total,
            final_cost,
        ));
    }
    out.push_str("]}");
    out
}

/// Current flat-model cost of the MoSSo state (cloned grouping re-encoded against
/// the current graph — MoSSo itself re-encodes optimally only on finalize).
fn mosso_flat_cost(mosso: &MossoSummarizer) -> usize {
    let graph = mosso.current_graph().to_graph();
    slugger_baselines::FlatSummary::build(&graph, mosso.grouping().clone()).total_cost()
}
