//! Summary-native query serving under churn: N query workers answer
//! neighbor / degree / BFS / PageRank queries against epoch snapshots
//! (`slugger_core::snapshot`) while the main thread ingests the RMAT delta
//! stream through `IncrementalSummarizer` — the read/write split of the
//! ROADMAP's "millions-of-users" story, measured omtsf-style as p50/p99/max
//! latency per query class rather than bare throughput.
//!
//! Three phases per run:
//!
//! 1. **No-readers baseline** — the identical churn loop with no snapshot
//!    slot attached (deterministic: same seed, same batches, same work), so
//!    the cost the read path charges the writer is an honest A/B: the
//!    acceptance bound is the with-readers batch total staying within 10% of
//!    this baseline.
//! 2. **Concurrent serving** — a `SnapshotSlot` is attached (every batch
//!    publishes a validated epoch snapshot) and the workers run a closed loop:
//!    pin the latest snapshot, issue a chunk of point queries (`neighbors`,
//!    `degree`) plus an occasional depth-2 `bfs2` selector query, then sleep
//!    100x the chunk's work time (min 25ms) — self-throttling to under a
//!    percent of CPU per worker so the serving tier never starves the
//!    single-CPU batch loop (the container has one core; real deployments pin
//!    writers and readers to different cores, and the dominant single-core
//!    interference is cache pollution and wakeup preemption, not query CPU).  After every batch the main thread pins the freshly
//!    published snapshot and asserts **identity**: `decode_full` of the
//!    snapshot equals the current graph, and the `QueryEngine` answers equal
//!    that decode for a node sample.
//! 3. **Global analytics on the final snapshot** — full-graph `bfs_full` and
//!    `pagerank` latencies, measured standalone (a global sweep is a batch
//!    job, not an interactive query; mixing them into the concurrent loop
//!    would just measure scheduler contention).  Both sweeps run on the
//!    snapshot's decoded adjacency, which the first `bfs_full` run builds,
//!    so that run's latency (the class max) includes the one `decode_full`.
//!    PageRank is asserted bit-identical to PageRank over Algorithm 4.
//!
//! Extra flags on top of the shared [`ExperimentScale`] ones:
//!
//! * `--workers N` — concurrent query workers (default 4);
//! * `--scenario NAME` — serve a named adversarial stream from the
//!   `slugger-scenarios` registry instead of the default churned RMAT split;
//!   the name lands in the `--json` / `--history` records and keys the perf
//!   gate (an unknown name panics listing the registry);
//! * `--json PATH` — full per-class measurements as JSON;
//! * `--history PATH` — append a one-line record to a JSON-Lines history file
//!   (CI appends to `BENCH_queries.json` and the perf gate compares the churn
//!   batch total against the last same-config record, see `crate::perf_gate`).

use crate::experiments::heading;
use crate::experiments::streaming::{NUM_BATCHES, RMAT_BASE_EDGES};
use crate::history;
use crate::runner::ExperimentScale;
use crate::table::{fmt_duration, TableWriter};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use slugger_core::decode::{decode_full, SummaryNeighborView};
use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
use slugger_core::snapshot::{QueryEngine, SnapshotSlot};
use slugger_core::{Slugger, SluggerConfig};
use slugger_graph::gen::{rmat, RmatConfig};
use slugger_graph::stream::{stream_batches, DynamicGraph, StreamConfig};
use slugger_graph::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Point queries per worker cycle (one pin + chunk + sleep).
const POINT_QUERIES_PER_CYCLE: usize = 32;

/// Per-worker hot-set size: half the point queries draw from this many fixed
/// nodes (a skewed read workload — the realistic case the engine's
/// member-list cache exists for), the other half are uniform cold reads.
const HOT_SET_SIZE: usize = 256;

/// A depth-2 BFS selector query runs every this many cycles.
const BFS2_EVERY_CYCLES: usize = 8;

/// Full-BFS sources and PageRank runs measured on the final snapshot.
const GLOBAL_QUERY_RUNS: usize = 4;

/// Nodes spot-checked per batch through the `QueryEngine` against the decoded
/// oracle (the full edge-set identity is asserted separately).
const IDENTITY_SAMPLE: usize = 32;

/// Harness knobs of the `query_serving` binary (see the module docs).
#[derive(Clone, Debug)]
pub struct QueryServingOptions {
    /// Concurrent query workers (`--workers`).
    pub workers: usize,
    /// Serve a named scenario from the `slugger-scenarios` registry instead of
    /// the default churned RMAT split (`--scenario`).
    pub scenario: Option<String>,
    /// Write the full measurements as JSON to this path (`--json`).
    pub json_path: Option<String>,
    /// Append a one-line summary record to this JSON-Lines history file
    /// (`--history`).
    pub history_path: Option<String>,
}

impl Default for QueryServingOptions {
    fn default() -> Self {
        QueryServingOptions {
            workers: 4,
            scenario: None,
            json_path: None,
            history_path: None,
        }
    }
}

impl QueryServingOptions {
    /// Parses the query-serving flags from an argument list (unknown flags are
    /// ignored; a bad value for a recognized flag panics, same policy as
    /// `StreamingOptions`).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = QueryServingOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--workers" => {
                    let v = iter.next().expect("--workers needs a value");
                    out.workers = v
                        .parse()
                        .unwrap_or_else(|_| panic!("--workers: not a count: {v:?}"));
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

/// Latency samples (µs) of one query class.
#[derive(Clone, Debug, Default)]
struct ClassSamples {
    name: &'static str,
    us: Vec<f64>,
}

impl ClassSamples {
    fn new(name: &'static str) -> Self {
        ClassSamples {
            name,
            us: Vec::new(),
        }
    }

    fn merge(&mut self, other: ClassSamples) {
        debug_assert_eq!(self.name, other.name);
        self.us.extend(other.us);
    }
}

/// What one worker measured.
struct WorkerStats {
    neighbors: ClassSamples,
    degree: ClassSamples,
    bfs2: ClassSamples,
    pins: usize,
    cache_hits: u64,
    cache_misses: u64,
}

/// Everything one experiment run measured (feeds table, JSON and history).
struct ServingRun {
    name: String,
    num_nodes: usize,
    final_edges: usize,
    workers: usize,
    baseline_total_secs: f64,
    batch_total_secs: f64,
    publish_total_secs: f64,
    snapshots_published: usize,
    pins: usize,
    cache_hits: u64,
    cache_misses: u64,
    classes: Vec<ClassSamples>,
}

impl ServingRun {
    fn overhead_pct(&self) -> f64 {
        (self.batch_total_secs - self.baseline_total_secs) / self.baseline_total_secs.max(1e-9)
            * 100.0
    }

    fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Nearest-rank percentile of an unsorted sample list; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the experiment with default options and returns the report.
pub fn run(scale: &ExperimentScale) -> String {
    run_with(scale, &QueryServingOptions::default())
}

/// Runs the experiment with explicit options and returns the report.
pub fn run_with(scale: &ExperimentScale, options: &QueryServingOptions) -> String {
    let iterations = scale.iterations.min(5);
    // The served stream: a named registry scenario, or the default churned
    // RMAT split.
    let (stream_name, initial, batches, num_nodes, final_edges) =
        if let Some(spec) = &options.scenario {
            let scenario = slugger_scenarios::find(spec).unwrap_or_else(|| {
                panic!(
                    "--scenario {spec:?}: unknown scenario (available: {})",
                    slugger_scenarios::names().join(", ")
                )
            });
            let collected = scenario
                .instantiate(scale.scale, NUM_BATCHES, scale.seed)
                .collect_stream();
            (
                scenario.name.to_string(),
                collected.initial,
                collected.batches,
                collected.num_nodes,
                collected.final_edges,
            )
        } else {
            let target = rmat(&RmatConfig {
                scale: 16,
                num_edges: (RMAT_BASE_EDGES as f64 * scale.scale).round().max(64.0) as usize,
                seed: scale.seed,
                ..RmatConfig::default()
            });
            let (initial, batches) = stream_batches(
                &target,
                &StreamConfig {
                    initial_fraction: 0.9,
                    num_batches: NUM_BATCHES,
                    churn: 0.25,
                    seed: scale.seed,
                },
            );
            (
                "RMAT".to_string(),
                initial,
                batches,
                target.num_nodes(),
                target.num_edges(),
            )
        };
    let slugger_config = SluggerConfig {
        iterations,
        seed: scale.seed,
        parallelism: scale.parallelism(),
        shards: scale.shards,
        ..SluggerConfig::default()
    };
    let incremental_config = IncrementalConfig {
        seed: scale.seed,
        parallelism: scale.parallelism(),
        shards: scale.shards,
        ..IncrementalConfig::default()
    };
    let bootstrap = |slot: Option<&SnapshotSlot>| -> IncrementalSummarizer {
        let mut inc = IncrementalSummarizer::bootstrap(
            &initial,
            &Slugger::new(slugger_config),
            incremental_config,
        );
        if let Some(slot) = slot {
            inc.attach_snapshots(slot.clone())
                .expect("bootstrapped summary must validate");
        }
        inc
    };

    // Phase 1: no-readers baseline — same seed, same batches, no publication.
    let mut baseline = bootstrap(None);
    let mut baseline_total_secs = 0.0f64;
    for delta in &batches {
        let start = Instant::now();
        baseline.resummarize(delta);
        baseline_total_secs += start.elapsed().as_secs_f64();
    }

    // Phase 2: churn with publication + concurrent query workers.
    let slot = SnapshotSlot::new();
    let mut inc = bootstrap(Some(&slot));
    let mut current = DynamicGraph::from_graph(&initial);
    let stop = AtomicBool::new(false);
    let mut batch_total_secs = 0.0f64;
    let mut publish_total_secs = 0.0f64;
    let worker_stats: Vec<WorkerStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..options.workers)
            .map(|w| {
                let slot = slot.clone();
                let stop = &stop;
                let seed = scale.seed ^ (0xB0B0 + w as u64);
                s.spawn(move || worker_loop(seed, &slot, stop))
            })
            .collect();
        for (i, delta) in batches.iter().enumerate() {
            delta.apply_to(&mut current);
            let start = Instant::now();
            let report = inc.resummarize(delta);
            batch_total_secs += start.elapsed().as_secs_f64();
            publish_total_secs += report.publish_elapsed.as_secs_f64();
            assert_identity(&slot, &current, i, scale.seed);
        }
        stop.store(true, Ordering::Release);
        handles
            .into_iter()
            .map(|h| h.join().expect("query worker panicked"))
            .collect()
    });

    // Phase 3: global analytics on the final snapshot.
    let final_snapshot = slot.latest().expect("stream published snapshots");
    let mut engine = QueryEngine::new(final_snapshot);
    let n = engine.snapshot().num_subnodes();
    let mut bfs_full = ClassSamples::new("bfs_full");
    let mut pagerank = ClassSamples::new("pagerank");
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x9e37);
    if n > 0 {
        let oracle = decode_full(engine.snapshot().summary());
        for _ in 0..GLOBAL_QUERY_RUNS {
            let v = rng.random_range(0..n) as NodeId;
            let start = Instant::now();
            let dist = engine.bfs_distances(v).expect("in-range BFS source");
            bfs_full.us.push(start.elapsed().as_secs_f64() * 1e6);
            assert_eq!(
                dist,
                slugger_algos::bfs_distances(&oracle, v),
                "snapshot BFS diverged from the decoded oracle at source {v}"
            );
        }
        let pr_config = slugger_algos::PageRankConfig::default();
        for _ in 0..GLOBAL_QUERY_RUNS {
            let start = Instant::now();
            let scores = engine.pagerank(&pr_config);
            pagerank.us.push(start.elapsed().as_secs_f64() * 1e6);
            assert_eq!(scores.len(), n);
        }
        // The timed sweeps run on the snapshot's decoded adjacency; once,
        // check them bit for bit against PageRank over Algorithm 4.
        let view = SummaryNeighborView::new(engine.snapshot().summary());
        let bits = |ranks: Vec<f64>| ranks.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(engine.pagerank(&pr_config)),
            bits(slugger_algos::pagerank(&view, &pr_config)),
            "snapshot PageRank diverged from PageRank over Algorithm 4"
        );
    }

    // Aggregate the worker samples per class.
    let mut neighbors = ClassSamples::new("neighbors");
    let mut degree = ClassSamples::new("degree");
    let mut bfs2 = ClassSamples::new("bfs2");
    let mut pins = 0usize;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    for stats in worker_stats {
        neighbors.merge(stats.neighbors);
        degree.merge(stats.degree);
        bfs2.merge(stats.bfs2);
        pins += stats.pins;
        cache_hits += stats.cache_hits;
        cache_misses += stats.cache_misses;
    }
    let run = ServingRun {
        name: stream_name,
        num_nodes,
        final_edges,
        workers: options.workers,
        baseline_total_secs,
        batch_total_secs,
        publish_total_secs,
        snapshots_published: NUM_BATCHES + 1,
        pins,
        cache_hits,
        cache_misses,
        classes: vec![neighbors, degree, bfs2, bfs_full, pagerank],
    };

    let mut out = heading("Query serving — epoch snapshots under concurrent churn");
    out.push_str(&render_section(&run, iterations));
    if let Some(path) = &options.json_path {
        let json = render_json(scale, options, &run);
        match std::fs::write(path, &json) {
            Ok(()) => out.push_str(&format!("\nJSON written to {path}.\n")),
            Err(e) => out.push_str(&format!("\nFailed to write JSON to {path}: {e}.\n")),
        }
    }
    if let Some(path) = &options.history_path {
        let record = history_record(scale, options, &run);
        match history::append_line(path, &record) {
            Ok(()) => {
                out.push_str(&format!("\nHistory record appended to {path}.\n"));
                match crate::perf_gate::check_query_history(path) {
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

/// One query worker: pin the latest snapshot, run a measured chunk of queries,
/// sleep 100x the chunk's work time (self-throttling — see the module docs).
fn worker_loop(seed: u64, slot: &SnapshotSlot, stop: &AtomicBool) -> WorkerStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = WorkerStats {
        neighbors: ClassSamples::new("neighbors"),
        degree: ClassSamples::new("degree"),
        bfs2: ClassSamples::new("bfs2"),
        pins: 0,
        cache_hits: 0,
        cache_misses: 0,
    };
    let mut engine: Option<QueryEngine> = None;
    let mut hot: Vec<NodeId> = Vec::new();
    let mut cycle = 0usize;
    while !stop.load(Ordering::Acquire) {
        let Some(snapshot) = slot.latest() else {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        match engine.as_mut() {
            Some(e) => e.pin(snapshot),
            None => engine = Some(QueryEngine::new(snapshot)),
        }
        let engine = engine.as_mut().expect("just pinned");
        stats.pins += 1;
        let n = engine.snapshot().num_subnodes();
        if n == 0 {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        if hot.is_empty() {
            hot = (0..HOT_SET_SIZE.min(n))
                .map(|_| rng.random_range(0..n) as NodeId)
                .collect();
        }
        let chunk_start = Instant::now();
        for q in 0..POINT_QUERIES_PER_CYCLE {
            // Alternate hot-set and uniform cold reads (skewed workload).
            let v = if q % 4 < 2 {
                hot[rng.random_range(0..hot.len())]
            } else {
                rng.random_range(0..n) as NodeId
            };
            let start = Instant::now();
            if q % 2 == 0 {
                let len = engine.neighbors(v).expect("in-range query").len();
                stats.neighbors.us.push(start.elapsed().as_secs_f64() * 1e6);
                // Keep the decode observable without holding the borrow.
                std::hint::black_box(len);
            } else {
                let d = engine.degree(v).expect("in-range query");
                stats.degree.us.push(start.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(d);
            }
        }
        if cycle.is_multiple_of(BFS2_EVERY_CYCLES) {
            let v = rng.random_range(0..n) as NodeId;
            let start = Instant::now();
            let reached = engine.bfs_within(v, 2).expect("in-range BFS source");
            stats.bfs2.us.push(start.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(reached.len());
        }
        cycle += 1;
        let work = chunk_start.elapsed();
        std::thread::sleep(work.mul_f64(100.0).max(Duration::from_millis(25)));
    }
    if let Some(e) = &engine {
        stats.cache_hits = e.cache_hits();
        stats.cache_misses = e.cache_misses();
    }
    stats
}

/// Per-batch identity: the freshly published snapshot decodes to exactly the
/// current graph, and the `QueryEngine` read path answers identically to that
/// decode on a node sample.
fn assert_identity(slot: &SnapshotSlot, current: &DynamicGraph, batch: usize, seed: u64) {
    let snapshot = slot.latest().expect("batch published a snapshot");
    let graph_now = current.to_graph();
    let decoded = decode_full(snapshot.summary());
    assert_eq!(
        decoded.edge_set(),
        graph_now.edge_set(),
        "snapshot diverged from the stream at batch {batch}"
    );
    let n = snapshot.num_subnodes();
    if n == 0 {
        return;
    }
    let mut engine = QueryEngine::new(snapshot);
    let mut rng = StdRng::seed_from_u64(seed ^ batch as u64);
    for _ in 0..IDENTITY_SAMPLE {
        let v = rng.random_range(0..n) as NodeId;
        assert_eq!(
            engine.neighbors(v).expect("in-range query"),
            decoded.neighbors(v),
            "query answer diverged from decode_full at batch {batch}, node {v}"
        );
    }
}

fn render_section(run: &ServingRun, iterations: usize) -> String {
    let mut out = format!(
        "\n### {} stream: |V| = {}, final |E| = {}, {NUM_BATCHES} batches, \
         T = {iterations}, {} query workers\n\n",
        run.name, run.num_nodes, run.final_edges, run.workers,
    );
    let mut table = TableWriter::new(["Class", "Queries", "p50 (µs)", "p99 (µs)", "max (µs)"]);
    for class in &run.classes {
        table.row([
            class.name.to_string(),
            class.us.len().to_string(),
            format!("{:.1}", percentile(&class.us, 0.50)),
            format!("{:.1}", percentile(&class.us, 0.99)),
            format!("{:.1}", percentile(&class.us, 1.0)),
        ]);
    }
    out.push_str(&table.to_text());
    out.push_str(&format!(
        "\nChurn loop: {} with readers vs {} no-readers baseline ({:+.1}% overhead, \
         of which snapshot publication {}).\n{} snapshots published, {} worker pins; \
         neighbor-cache hit rate {:.0}% ({} hits / {} misses).\n",
        fmt_duration(Duration::from_secs_f64(run.batch_total_secs)),
        fmt_duration(Duration::from_secs_f64(run.baseline_total_secs)),
        run.overhead_pct(),
        fmt_duration(Duration::from_secs_f64(run.publish_total_secs)),
        run.snapshots_published,
        run.pins,
        run.hit_rate() * 100.0,
        run.cache_hits,
        run.cache_misses,
    ));
    out.push_str(
        "\nIdentity is asserted after every batch (snapshot decode == current graph; \
         QueryEngine answers == decode on a node sample) and for full BFS against the \
         decoded oracle, and for PageRank bit for bit against Algorithm 4.  \
         `neighbors`/`degree` are cached point lookups (half hot-set, \
         half uniform cold reads), `bfs2` a \
         depth-2 selector query inside the concurrent loop; `bfs_full`/`pagerank` are \
         global sweeps measured standalone on the final snapshot; they share its decoded \
         adjacency, which the first `bfs_full` run builds.  Workers self-throttle \
         (sleep 100x work) so serving shares one CPU fairly with the batch loop.\n",
    );
    out
}

/// Hand-rolled JSON (the vendored `serde_json` is a Debug-based stand-in).
fn render_json(scale: &ExperimentScale, options: &QueryServingOptions, run: &ServingRun) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"scale\": {}, \"iterations\": {}, \"seed\": {}, \"threads\": {}, \"shards\": {}, \
         \"workers\": {}, \"scenario\": \"{}\",\n",
        scale.scale,
        scale.iterations.min(5),
        scale.seed,
        scale.threads,
        scale.shards,
        options.workers,
        options.scenario.as_deref().unwrap_or("none"),
    ));
    out.push_str(&format!(
        "  \"num_nodes\": {}, \"final_edges\": {}, \"baseline_total_secs\": {:.6}, \
         \"batch_total_secs\": {:.6}, \"publish_total_secs\": {:.6}, \
         \"overhead_pct\": {:.2}, \"snapshots_published\": {}, \"pins\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {},\n",
        run.num_nodes,
        run.final_edges,
        run.baseline_total_secs,
        run.batch_total_secs,
        run.publish_total_secs,
        run.overhead_pct(),
        run.snapshots_published,
        run.pins,
        run.cache_hits,
        run.cache_misses,
    ));
    out.push_str("  \"classes\": [\n");
    for (ci, class) in run.classes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"count\": {}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \
             \"max_us\": {:.3}}}{}\n",
            class.name,
            class.us.len(),
            percentile(&class.us, 0.50),
            percentile(&class.us, 0.99),
            percentile(&class.us, 1.0),
            if ci + 1 < run.classes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One JSON-Lines history record (see `crate::history`); the `streams` array
/// mirrors the streaming bench's shape so `crate::perf_gate` can extract the
/// gated metric (`batch_total_secs`) the same way.
fn history_record(
    scale: &ExperimentScale,
    options: &QueryServingOptions,
    run: &ServingRun,
) -> String {
    let mut out = format!(
        "{{\"experiment\": \"query_serving\", \"git_sha\": \"{}\", \"unix_time\": {}, \
         \"scale\": {}, \"iterations\": {}, \"seed\": {}, \"threads\": {}, \"shards\": {}, \
         \"workers\": {}, \"scenario\": \"{}\", \"streams\": [{{\"name\": \"{}\", \
         \"num_nodes\": {}, \
         \"final_edges\": {}, \"batch_total_secs\": {:.6}, \"baseline_total_secs\": {:.6}, \
         \"publish_total_secs\": {:.6}, \"overhead_pct\": {:.2}, \"cache_hit_rate\": {:.4}, \
         \"classes\": [",
        history::git_sha(),
        history::unix_time(),
        scale.scale,
        scale.iterations.min(5),
        scale.seed,
        scale.threads,
        scale.shards,
        options.workers,
        options.scenario.as_deref().unwrap_or("none"),
        run.name,
        run.num_nodes,
        run.final_edges,
        run.batch_total_secs,
        run.baseline_total_secs,
        run.publish_total_secs,
        run.overhead_pct(),
        run.hit_rate(),
    );
    for (ci, class) in run.classes.iter().enumerate() {
        out.push_str(&format!(
            "{}{{\"class\": \"{}\", \"count\": {}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \
             \"max_us\": {:.3}}}",
            if ci > 0 { ", " } else { "" },
            class.name,
            class.us.len(),
            percentile(&class.us, 0.50),
            percentile(&class.us, 0.99),
            percentile(&class.us, 1.0),
        ));
    }
    out.push_str("]}]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn options_parse_and_ignore_unknown_flags() {
        let options = QueryServingOptions::from_args(
            ["--scale", "0.1", "--workers", "2", "--json", "q.json"]
                .into_iter()
                .map(str::to_string),
        );
        assert_eq!(options.workers, 2);
        assert_eq!(options.json_path.as_deref(), Some("q.json"));
        assert_eq!(options.history_path, None);
    }
}
