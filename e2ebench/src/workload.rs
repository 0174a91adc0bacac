//! The three workloads: one pipeline, three shapes.
//!
//! Every workload runs the same closed loop through the public API, in one
//! thread with `Parallelism::Sequential`:
//!
//! 1. **set-up** — generate the graph and split it into an initial snapshot
//!    plus churned delta batches (`stream_batches`); on the stream workloads
//!    also the bootstrap `Slugger::summarize`.  Repeated, median reported.
//! 2. **summarize** — `Slugger::summarize` of the initial snapshot (timed here
//!    on `summarize-lj`; the bootstrap is the summarize of the others).
//! 3. **storage** — `encode_summary` → `decode_summary` → `decode_full`, which
//!    must reproduce the initial snapshot.
//! 4. **stream** — the main batches, through a `DurableSummarizer` on a
//!    `DirIo` directory (`stream-rmat`) or an in-memory `IncrementalSummarizer`
//!    (the others), with a `SnapshotSlot` attached.  After every batch the
//!    reader pins the latest snapshot and serves query blocks from it; a
//!    fixed number of analytics rounds (PageRank, full BFS) is spread evenly
//!    over the batches, so reads sample the whole stream.
//! 5. **recover** — a checkpoint plus a WAL tail is dropped and re-opened.
//!    The recovered summary must decode to the final graph; on `stream-rmat`
//!    it must also equal the uninterrupted stream's summary in canonical form
//!    (elsewhere that identity is reported as `durable.replay_identical`).
//! 6. **check** — the reader's answers on the recovered summary must match a
//!    `decode_full` oracle (after every batch, too, on `serve-caveman`).
//!
//! The shapes differ in what dominates: the T = 20 summarize of a 420k-edge
//! graph, ~1% durable batches on a hub-heavy graph, or many small batches
//! interleaved with reads.

use crate::stats::{median, quantile, Reference};
use crate::trace::Tracer;
use slugger_algos::PageRankConfig;
use slugger_core::decode::{canonical_form, decode_full};
use slugger_core::storage::durable::{DirIo, DurablePolicy, DurableSummarizer};
use slugger_core::storage::{decode_summary, encode_summary};
use slugger_core::{
    BatchReport, IncrementalConfig, IncrementalSummarizer, Parallelism, QueryEngine, Slugger,
    SluggerConfig, SluggerOutcome, SnapshotSlot, SummarySnapshot,
};
use slugger_datasets::{dataset, DatasetKey};
use slugger_graph::gen::{caveman, rmat, CavemanConfig, RmatConfig};
use slugger_graph::stream::{stream_batches, StreamConfig};
use slugger_graph::{Graph, GraphDelta, NodeId};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches in the WAL tail recovery replays: the batches after the last
/// checkpoint of the default policy (every 8 batches) on `stream-rmat`, and
/// the batches ingested after the recovery checkpoint elsewhere.
pub const TAIL_BATCHES: usize = 4;

/// Point queries per timed block.  A query is never timed alone: its time is
/// its block's time over the block's size.
pub const BLOCK_QUERIES: usize = 1_000;
/// `neighbors` queries per block (the rest of the block after `degree` and
/// `bfs_within`).
const BLOCK_NEIGHBORS: usize = BLOCK_QUERIES - BLOCK_DEGREE - BLOCK_BFS2;
/// `degree` queries per block.
const BLOCK_DEGREE: usize = 490;
/// Depth-2 `bfs_within` queries per block.
const BLOCK_BFS2: usize = 10;
/// Nodes in the hot set half of every block's queries are drawn from; fits
/// the `QueryEngine` member cache (1024 entries) with room to spare.
const HOT_SET: usize = 256;
/// Largest gap between a span's wall time and its children's summed time,
/// as a share of the wall time, for the stage times to reconcile.
pub const RECONCILE_LIMIT: f64 = 0.05;
/// Seed of the hot set.
const HOT_SET_SEED: u64 = 0x407;
/// Seed of the query ids and oracle samples.  Like the hot set they are the
/// same for every workload seed: on a hub-heavy graph a handful of uniform
/// draws that hit a hub would otherwise move the query times by ~20% from seed to
/// seed.
const QUERY_SEED: u64 = 0x9e3;
/// Nodes per query-oracle check.
const ORACLE_SAMPLE: usize = 64;

/// Which graph a workload runs on.  The graph is fixed per workload; the
/// workload seed varies the stream split and churn and the query ids, so runs
/// of different seeds do comparable work.
#[derive(Clone, Copy, Debug)]
pub enum Topology {
    /// The datasets catalog's LiveJournal stand-in (nested SBM) at `scale`.
    Lj {
        /// Catalog scale factor.
        scale: f64,
    },
    /// RMAT with `2^log2_nodes` nodes and `edges` attempted edges.
    Rmat {
        /// log2 of the node count.
        log2_nodes: u32,
        /// Attempted edges.
        edges: usize,
    },
    /// Relaxed caveman graph.
    Caveman {
        /// Node count.
        nodes: usize,
    },
}

impl Topology {
    /// Generates the graph (the catalog's and the generators' default seeds).
    pub fn generate(self) -> Graph {
        match self {
            Topology::Lj { scale } => dataset(DatasetKey::LJ).generate(scale),
            Topology::Rmat { log2_nodes, edges } => rmat(&RmatConfig {
                scale: log2_nodes,
                num_edges: edges,
                ..RmatConfig::default()
            }),
            Topology::Caveman { nodes } => caveman(&CavemanConfig {
                num_nodes: nodes,
                num_cliques: (nodes / 8).max(4),
                min_clique: 5,
                max_clique: 10,
                rewire_probability: 0.03,
                ..CavemanConfig::default()
            }),
        }
    }
}

/// Everything that distinguishes one workload from another.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// The graph.
    pub topology: Topology,
    /// Share of the graph's edges in the initial snapshot.
    pub initial_fraction: f64,
    /// Batches of the main (timed) stream.
    pub batches: usize,
    /// `stream_batches` churn ratio.
    pub churn: f64,
    /// Iterations T of the `Slugger::summarize` run.
    pub summarize_iterations: usize,
    /// Whether the summarize is the stream's bootstrap, part of set-up.
    pub bootstrap: bool,
    /// Whether the main stream goes through the `DurableSummarizer`.
    pub durable_stream: bool,
    /// Query blocks served after every main batch.
    pub blocks_per_batch: usize,
    /// Whether the query oracle check runs after every batch (otherwise on
    /// the recovered summary only).
    pub check_every_batch: bool,
    /// PageRank + full-BFS rounds, spread evenly over the main batches.
    pub analytics_rounds: usize,
    /// Set-up repetitions (the median is reported).
    pub setup_reps: usize,
    /// Recoveries from the same directory (the median is reported).
    pub recover_reps: usize,
}

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub fn shapes() -> [Shape; 3] {
    [
        Shape {
            name: "summarize-lj",
            topology: Topology::Lj { scale: 1.7 },
            initial_fraction: 0.99,
            batches: 20,
            churn: 0.25,
            summarize_iterations: 20,
            bootstrap: false,
            durable_stream: false,
            blocks_per_batch: 6,
            check_every_batch: false,
            analytics_rounds: 3,
            setup_reps: 5,
            recover_reps: 1,
        },
        Shape {
            name: "stream-rmat",
            topology: Topology::Rmat {
                log2_nodes: 16,
                edges: 150_000,
            },
            initial_fraction: 0.8,
            batches: 20,
            churn: 0.25,
            summarize_iterations: 5,
            bootstrap: true,
            durable_stream: true,
            blocks_per_batch: 6,
            check_every_batch: false,
            analytics_rounds: 10,
            setup_reps: 5,
            recover_reps: 1,
        },
        Shape {
            name: "serve-caveman",
            topology: Topology::Caveman { nodes: 20_000 },
            initial_fraction: 0.9,
            batches: 80,
            churn: 0.25,
            summarize_iterations: 5,
            bootstrap: true,
            durable_stream: false,
            blocks_per_batch: 2,
            check_every_batch: true,
            analytics_rounds: 16,
            setup_reps: 5,
            recover_reps: 5,
        },
    ]
}

/// The workload called `name`.
pub fn shape(name: &str) -> Option<Shape> {
    shapes().into_iter().find(|s| s.name == name)
}

impl Shape {
    /// A reduced copy for the self-tests: same pipeline, small graph.
    pub fn small(mut self) -> Shape {
        self.topology = match self.topology {
            Topology::Lj { .. } => Topology::Lj { scale: 0.3 },
            Topology::Rmat { .. } => Topology::Rmat {
                log2_nodes: 11,
                edges: 6_000,
            },
            Topology::Caveman { .. } => Topology::Caveman { nodes: 1_500 },
        };
        self.summarize_iterations = self.summarize_iterations.min(5);
        self.batches = self.batches.min(12);
        self.blocks_per_batch = self.blocks_per_batch.min(1);
        self.analytics_rounds = 1;
        self.setup_reps = 1;
        self.recover_reps = 1;
        self
    }

    /// The summarizer, in the library's default configuration apart from T.
    /// Its seed is configuration, not input: it stays at the default for
    /// every workload seed, since it changes the work done by up to ~20%.
    fn slugger(&self) -> Slugger {
        Slugger::new(SluggerConfig {
            iterations: self.summarize_iterations,
            parallelism: Parallelism::Sequential,
            ..SluggerConfig::default()
        })
    }

    fn incremental_config() -> IncrementalConfig {
        IncrementalConfig {
            parallelism: Parallelism::Sequential,
            ..IncrementalConfig::default()
        }
    }
}

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: ingests, timed queries and identity checks.
    pub attempted: u64,
    /// Ingest errors, query errors and identity mismatches.
    pub failed: u64,
    /// What failed, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// The generated inputs of one run (the product of set-up).
pub struct Inputs {
    /// Initial snapshot.
    pub initial: Graph,
    /// Main batches, followed by the [`TAIL_BATCHES`] recovery tail unless the
    /// main stream is durable.
    pub batches: Vec<GraphDelta>,
    /// The final graph every batch converges to.
    pub target: Graph,
    /// Hot query set.
    pub hot: Vec<NodeId>,
    /// Source of the full BFS: the highest-degree node of the final graph.
    pub bfs_source: NodeId,
    /// The bootstrap summarize and its wall time (stream workloads).
    pub bootstrap: Option<(SluggerOutcome, Duration)>,
}

/// Set-up: generation (and the bootstrap summarize), traced when `tr` is on.
pub fn setup(shape: &Shape, seed: u64, tr: &mut Tracer) -> Inputs {
    let target = shape.topology.generate();
    let (initial, batches) = stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: shape.initial_fraction,
            num_batches: shape.batches
                + if shape.durable_stream {
                    0
                } else {
                    TAIL_BATCHES
                },
            churn: shape.churn,
            seed,
        },
    );
    let mut rng = SplitMix(HOT_SET_SEED);
    let n = target.num_nodes() as u64;
    let hot = (0..HOT_SET.min(target.num_nodes()))
        .map(|_| rng.below(n) as NodeId)
        .collect();
    let bfs_source = (0..target.num_nodes() as NodeId)
        .max_by_key(|&v| (target.degree(v), std::cmp::Reverse(v)))
        .unwrap_or(0);
    let bootstrap = shape.bootstrap.then(|| {
        let start = Instant::now();
        let outcome = summarize(&shape.slugger(), &initial, tr);
        (outcome, start.elapsed())
    });
    Inputs {
        initial,
        batches,
        target,
        hot,
        bfs_source,
        bootstrap,
    }
}

fn summarize(slugger: &Slugger, graph: &Graph, tr: &mut Tracer) -> SluggerOutcome {
    tr.span("summarize", |tr| {
        let outcome = slugger.summarize(graph);
        let stages = &outcome.stages;
        tr.child("slugger.candidates", stages.candidates);
        tr.child("slugger.plan", stages.plan);
        tr.child("slugger.apply", stages.apply);
        tr.child("slugger.prune", stages.prune);
        if tr.is_on() {
            let pairs: usize = outcome.iterations.iter().map(|r| r.pairs_evaluated).sum();
            let merges: usize = outcome.iterations.iter().map(|r| r.merges).sum();
            tr.set("pipeline.pairs_evaluated", pairs as f64);
            tr.set("pipeline.merges", merges as f64);
        }
        outcome
    })
}

/// What one unit (one pass of phases 2–6) measured.
#[derive(Debug, Default)]
pub struct UnitTimes {
    /// `Slugger::summarize` wall time (summarize-lj; 0 when set-up did it).
    pub summarize_s: f64,
    /// Per-batch ingest wall times of the main stream, in ms.
    pub batch_ms: Vec<f64>,
    /// Applied delta ops of the main stream.
    pub applied_ops: u64,
    /// `DurableSummarizer::open` wall time.
    pub recover_s: f64,
    /// Per-query mean of every timed block, in µs.
    pub block_us: Vec<f64>,
    /// Per-query means of the blocks' `neighbors`, `degree` and `bfs_within`
    /// parts, in µs.
    pub kind_us: [Vec<f64>; 3],
    /// Summed wall time of the analytics rounds.
    pub analytics_s: f64,
    /// Analytics rounds run.
    pub analytics_rounds: usize,
    /// Encoding cost of the final summary over the final edge count.
    pub relative_size: f64,
    /// Whether the recovered summary equals the live one in canonical form.
    pub replay_identical: bool,
}

/// Either maintainer of the main stream.
enum Maintainer {
    Plain(Box<IncrementalSummarizer>),
    Durable(Box<DurableSummarizer<DirIo>>),
}

/// The serving side: one engine, re-pinned as snapshots are published.
struct Reader {
    engine: QueryEngine,
    hot: Vec<NodeId>,
    rng: SplitMix,
    hits: u64,
    lookups: u64,
    pins: u64,
}

impl Reader {
    fn new(snapshot: Arc<SummarySnapshot>, hot: Vec<NodeId>) -> Self {
        Reader {
            engine: QueryEngine::new(snapshot),
            hot,
            rng: SplitMix(QUERY_SEED),
            hits: 0,
            lookups: 0,
            pins: 0,
        }
    }

    fn pin(&mut self, snapshot: Arc<SummarySnapshot>) {
        self.engine.pin(snapshot);
        self.pins += 1;
    }

    /// Query id `i` of a block: `bfs_within` sources and the even `neighbors`
    /// and `degree` ids from the hot set, the odd ones uniform.
    fn node(&mut self, i: usize) -> NodeId {
        if i.is_multiple_of(2) || i >= BLOCK_QUERIES - BLOCK_BFS2 {
            self.hot[self.rng.below(self.hot.len() as u64) as usize]
        } else {
            self.rng.below(self.engine.snapshot().num_subnodes() as u64) as NodeId
        }
    }

    /// One timed block of [`BLOCK_QUERIES`] queries, grouped by kind.
    fn block(&mut self, times: &mut UnitTimes, tally: &mut Tally) {
        let ids: Vec<NodeId> = (0..BLOCK_QUERIES).map(|i| self.node(i)).collect();
        let (hits0, misses0) = (self.engine.cache_hits(), self.engine.cache_misses());
        let mut errors = 0u64;
        let mut sink = 0usize;
        let engine = &mut self.engine;
        let (neighbors, rest) = ids.split_at(BLOCK_NEIGHBORS);
        let (degree, bfs2) = rest.split_at(BLOCK_DEGREE);
        let start = Instant::now();
        for &v in neighbors {
            match engine.neighbors(v) {
                Ok(list) => sink += list.len(),
                Err(_) => errors += 1,
            }
        }
        let t_neighbors = start.elapsed();
        for &v in degree {
            match engine.degree(v) {
                Ok(d) => sink += d,
                Err(_) => errors += 1,
            }
        }
        let t_degree = start.elapsed();
        for &v in bfs2 {
            match engine.bfs_within(v, 2) {
                Ok(reached) => sink += reached.len(),
                Err(_) => errors += 1,
            }
        }
        let total = start.elapsed();
        black_box(sink);
        let us = |d: Duration, n: usize| d.as_secs_f64() * 1e6 / n as f64;
        times.block_us.push(us(total, BLOCK_QUERIES));
        times.kind_us[0].push(us(t_neighbors, BLOCK_NEIGHBORS));
        times.kind_us[1].push(us(t_degree - t_neighbors, BLOCK_DEGREE));
        times.kind_us[2].push(us(total - t_degree, BLOCK_BFS2));
        let (hits, misses) = (self.engine.cache_hits(), self.engine.cache_misses());
        self.hits += hits - hits0;
        self.lookups += (hits - hits0) + (misses - misses0);
        tally.attempted += BLOCK_QUERIES as u64;
        if errors > 0 {
            tally.failed += errors;
            tally
                .notes
                .push(format!("{errors} query errors in one block"));
        }
    }

    /// One timed analytics round on the pinned snapshot: PageRank (20
    /// iterations) and a full BFS from `source`.
    fn analytics_round(
        &mut self,
        source: NodeId,
        times: &mut UnitTimes,
        tally: &mut Tally,
        tr: &mut Tracer,
    ) {
        let engine = &mut self.engine;
        let start = Instant::now();
        let ranks = tr.span("algos.pagerank", |_| {
            engine.pagerank(&PageRankConfig::default())
        });
        black_box(ranks);
        let bfs = tr.span("algos.bfs_full", |_| engine.bfs_distances(source));
        times.analytics_s += start.elapsed().as_secs_f64();
        times.analytics_rounds += 1;
        match bfs {
            Ok(dist) => {
                black_box(dist);
            }
            Err(e) => tally.check(false, || format!("full BFS failed: {e}")),
        }
    }

    /// Checks the engine's answers for a node sample against a `decode_full`
    /// oracle of the pinned snapshot.
    fn check(&mut self, tally: &mut Tally, tr: &mut Tracer) {
        let snapshot = Arc::clone(self.engine.snapshot());
        let oracle = tr.span("decode.full", |_| decode_full(snapshot.summary()));
        let n = oracle.num_nodes() as u64;
        for _ in 0..ORACLE_SAMPLE {
            let v = self.rng.below(n) as NodeId;
            let want = oracle.neighbors(v);
            let ok = self.engine.neighbors(v).is_ok_and(|got| got == want)
                && self.engine.degree(v).is_ok_and(|d| d == want.len());
            tally.check(ok, || {
                format!(
                    "query answer for node {v} differs from the decode_full oracle (batch {})",
                    snapshot.batch()
                )
            });
        }
    }
}

/// Phases 2–6 on fresh state built from `inputs`; `dir` is a fresh durable
/// directory.
pub fn unit(
    shape: &Shape,
    inputs: &Inputs,
    dir: &Path,
    tally: &mut Tally,
    reference: &mut Reference,
    tr: &mut Tracer,
) -> UnitTimes {
    let mut times = UnitTimes::default();

    // 2. summarize
    let summary = match &inputs.bootstrap {
        Some((outcome, _)) => outcome.summary.clone(),
        None => {
            let start = Instant::now();
            let outcome = summarize(&shape.slugger(), &inputs.initial, tr);
            times.summarize_s = start.elapsed().as_secs_f64();
            outcome.summary
        }
    };

    // 3. storage round trip
    let bytes = tr.span("storage.encode", |_| encode_summary(&summary));
    tr.set("storage.summary_bytes", bytes.len() as f64);
    let ok = match tr.span("storage.decode", |_| decode_summary(&bytes)) {
        Ok(decoded) => {
            let graph = tr.span("decode.full", |_| decode_full(&decoded));
            graph.edge_set() == inputs.initial.edge_set()
        }
        Err(_) => false,
    };
    tally.check(ok, || {
        "storage round trip does not decode to the input".into()
    });

    // 4. stream
    let config = Shape::incremental_config();
    let policy = DurablePolicy::default();
    let mut inc = IncrementalSummarizer::from_summary(summary, &inputs.initial, config)
        .expect("the summary covers the initial snapshot");
    let slot = SnapshotSlot::new();
    inc.attach_snapshots(slot.clone())
        .expect("a fresh summary validates");
    let mut maintainer = if shape.durable_stream {
        let io = DirIo::new(dir).expect("durable directory");
        Maintainer::Durable(Box::new(
            DurableSummarizer::create(inc, policy, io).expect("fresh durable directory"),
        ))
    } else {
        Maintainer::Plain(Box::new(inc))
    };
    let mut reader = Reader::new(slot.latest().expect("attach publishes"), inputs.hot.clone());
    let (main, tail) = inputs.batches.split_at(shape.batches);
    let analytics_every = (shape.batches / shape.analytics_rounds.max(1)).max(1);
    let mut last = BatchReport::default();
    for (i, delta) in main.iter().enumerate() {
        let start = Instant::now();
        let Some(report) = ingest(&mut maintainer, delta, tally, tr) else {
            return times;
        };
        times.batch_ms.push(start.elapsed().as_secs_f64() * 1e3);
        times.applied_ops += (report.deleted + report.inserted) as u64;
        trace_batch(tr, &report);
        last = report;
        reader.pin(slot.latest().expect("published"));
        for _ in 0..shape.blocks_per_batch {
            reader.block(&mut times, tally);
        }
        if shape.check_every_batch {
            reader.check(tally, tr);
        }
        if (i + 1) % analytics_every == 0 && times.analytics_rounds < shape.analytics_rounds {
            reader.analytics_round(inputs.bfs_source, &mut times, tally, tr);
        }
        reference.sample(1);
    }
    tr.set("model.arena_len", last.arena_len as f64);
    tr.set("model.dead_slots", last.dead_slots as f64);

    // 5. recover: checkpoint + WAL tail, drop, open
    if let Maintainer::Plain(inc) = maintainer {
        maintainer = Maintainer::Durable(Box::new(tr.span("durable.create", |_| {
            DurableSummarizer::create(*inc, policy, DirIo::new(dir).expect("durable directory"))
                .expect("fresh durable directory")
        })));
    }
    for delta in tail {
        if ingest(&mut maintainer, delta, tally, tr).is_none() {
            return times;
        }
    }
    let Maintainer::Durable(durable) = maintainer else {
        unreachable!("the tail always runs on the durable maintainer")
    };
    tr.set("durable.wal_bytes", dir_bytes(dir, "wal-") as f64);
    tr.set("durable.checkpoint_bytes", dir_bytes(dir, "ckpt-") as f64);
    let control = canonical_form(durable.summary());
    drop(durable);
    let mut recovered = None;
    let mut recover_s = Vec::new();
    for _ in 0..shape.recover_reps {
        let start = Instant::now();
        let opened = tr.span("durable.open", |_| {
            DurableSummarizer::open(config, policy, DirIo::new(dir).expect("durable directory"))
        });
        recover_s.push(start.elapsed().as_secs_f64());
        match opened {
            Ok((summarizer, report)) => {
                tr.set("durable.replayed_batches", report.replayed_batches as f64);
                recovered = Some(summarizer);
            }
            Err(e) => {
                tally.check(false, || format!("recovery failed: {e}"));
                return times;
            }
        }
    }
    times.recover_s = median(&recover_s);
    let mut recovered = recovered.expect("at least one recovery");
    let identical = canonical_form(recovered.summary()) == control;
    times.replay_identical = identical;
    tr.set("durable.replay_identical", identical as u8 as f64);
    if shape.durable_stream {
        tally.check(identical, || {
            "recovered summary differs from the uninterrupted stream's".into()
        });
    }
    let final_graph = tr.span("decode.full", |_| decode_full(recovered.summary()));
    tally.check(final_graph.edge_set() == inputs.target.edge_set(), || {
        "final summary does not decode to the final graph".into()
    });
    let summary = recovered.summary();
    times.relative_size = summary.encoding_cost() as f64 / inputs.target.num_edges() as f64;
    tr.set("model.p_edges", summary.num_p_edges() as f64);
    tr.set("model.n_edges", summary.num_n_edges() as f64);
    tr.set("model.h_edges", summary.num_h_edges() as f64);

    // 6. the reader checks the recovered summary
    let final_slot = SnapshotSlot::new();
    recovered
        .attach_snapshots(final_slot.clone())
        .expect("a recovered summary validates");
    reader.pin(final_slot.latest().expect("attach publishes"));
    reader.check(tally, tr);
    tr.set("query.pins", reader.pins as f64);
    tr.set(
        "query.cache_hit_rate",
        reader.hits as f64 / reader.lookups.max(1) as f64,
    );
    times
}

/// One traced ingest through either maintainer; `None` (and a failure) on an
/// ingest error.
fn ingest(
    maintainer: &mut Maintainer,
    delta: &GraphDelta,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Option<BatchReport> {
    let result = tr.span("ingest", |tr| {
        let start = Instant::now();
        let result = match maintainer {
            Maintainer::Plain(inc) => Ok(inc.resummarize(delta)),
            Maintainer::Durable(durable) => durable.ingest(delta),
        };
        let wall = start.elapsed();
        if let Ok(report) = &result {
            let stages = &report.stages;
            tr.child("incremental.localize", stages.localize);
            tr.child("incremental.dissolve", stages.dissolve);
            tr.child("candidates", stages.candidates);
            tr.child("plan", stages.plan);
            tr.child("apply", stages.apply);
            tr.child("prune", stages.prune);
            tr.child("snapshot.publish", report.publish_elapsed);
            if matches!(maintainer, Maintainer::Durable(_)) {
                tr.child("durable.log", wall.saturating_sub(report.elapsed));
            }
        }
        result
    });
    tally.attempted += 1;
    match result {
        Ok(report) => Some(report),
        Err(e) => {
            tally.failed += 1;
            tally.notes.push(format!("ingest failed: {e}"));
            None
        }
    }
}

/// Counts of one main-stream batch.
fn trace_batch(tr: &mut Tracer, r: &BatchReport) {
    tr.count("stream.batches", 1.0);
    tr.count("incremental.dirty_roots", r.dirty_roots as f64);
    tr.count("incremental.restored_edges", r.restored_edges as f64);
    tr.count(
        "incremental.dissolved_subnodes",
        r.dissolved_subnodes as f64,
    );
    tr.count("incremental.region_subnodes", r.region_subnodes as f64);
    tr.count("candidates.reshingled_roots", r.reshingled_roots as f64);
    tr.count("candidates.cached_roots", r.cached_roots as f64);
    tr.count("plan.pairs_evaluated", r.pairs_evaluated as f64);
    tr.count("plan.merges", r.merges as f64);
    tr.count("prune.changes", r.prune.total_changes() as f64);
    tr.count("model.compacted_slots", r.compacted_slots as f64);
}

/// Summed size of the files in `dir` whose names start with `prefix`.
fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of one run of a workload.
#[derive(Debug, Default)]
pub struct RunResult {
    /// End-to-end metrics, in `BENCHMARK.json` order, at the nominal machine
    /// speed (see [`REFERENCE_NOMINAL_MS`]).
    pub end_to_end: Vec<Metric>,
    /// The same metrics as measured.
    pub measured: Vec<Metric>,
    /// Median reference pass time of the run, in ms.
    pub reference_ms: f64,
    /// Per-layer metrics of the traced first unit (empty when untraced).
    pub per_layer: Vec<Metric>,
    /// Attempted and failed operations and what failed.
    pub tally: Tally,
    /// Units measured.
    pub units: usize,
    /// Whether every unit's recovered summary equalled the live one in
    /// canonical form.
    pub replay_identical: bool,
    /// Wall time of the first unit, in seconds.
    pub unit_s: f64,
    /// Sample counts behind the percentiles: batches and query blocks.
    pub samples: (usize, usize),
    /// Stage-time reconciliation gap of every traced summarize and ingest
    /// span, as a share of the span's wall time.
    pub reconcile: Vec<f64>,
}

/// Runs `shape` for at least `seconds` of measuring: set-up, then units until
/// the measured time reaches `seconds`.  Durable directories live under
/// `scratch`, which is removed afterwards.
pub fn run(shape: &Shape, seed: u64, seconds: f64, traced: bool, scratch: &Path) -> RunResult {
    let mut tr = Tracer::new(traced);
    let mut tally = Tally::default();
    let mut reference = Reference::default();
    reference.sample(5);

    // 1. set-up, repeated; the last repetition's inputs are kept and traced.
    let mut setup_s = Vec::new();
    let mut bootstrap_s = Vec::new();
    let mut inputs = None;
    for rep in 0..shape.setup_reps {
        let mut quiet = Tracer::new(false);
        let rep_tr = if rep + 1 == shape.setup_reps {
            &mut tr
        } else {
            &mut quiet
        };
        let start = Instant::now();
        let made = setup(shape, seed, rep_tr);
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some((_, d)) = &made.bootstrap {
            bootstrap_s.push(d.as_secs_f64());
        }
        inputs = Some(made);
    }
    let inputs = inputs.expect("at least one set-up repetition");
    reference.sample(5);

    let mut units: Vec<UnitTimes> = Vec::new();
    let mut measured = 0.0;
    let mut unit_s = 0.0;
    while units.is_empty() || measured < seconds {
        let dir = scratch.join(format!("unit-{}", units.len()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut quiet = Tracer::new(false);
        let unit_tr = if units.is_empty() {
            &mut tr
        } else {
            &mut quiet
        };
        let start = Instant::now();
        let times = unit(shape, &inputs, &dir, &mut tally, &mut reference, unit_tr);
        let wall = start.elapsed().as_secs_f64();
        if units.is_empty() {
            unit_s = wall;
        }
        measured += wall;
        let _ = std::fs::remove_dir_all(&dir);
        units.push(times);
        if tally.failed > 0 {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(scratch);
    reference.sample(5);

    let all = |f: fn(&UnitTimes) -> &Vec<f64>| -> Vec<f64> {
        units.iter().flat_map(|u| f(u).iter().copied()).collect()
    };
    let per_unit = |f: fn(&UnitTimes) -> f64| -> Vec<f64> { units.iter().map(f).collect() };
    let batch_ms = all(|u| &u.batch_ms);
    let block_us = all(|u| &u.block_us);
    let ingest_s: f64 = batch_ms.iter().sum::<f64>() / 1e3;
    let ops: u64 = units.iter().map(|u| u.applied_ops).sum();
    let summarize_s = if shape.bootstrap {
        median(&bootstrap_s)
    } else {
        median(&per_unit(|u| u.summarize_s))
    };
    let measured = vec![
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB"),
        ("relative_size", units[0].relative_size, "ratio"),
        ("summarize_s", summarize_s, "s"),
        (
            "ingest_ops_per_s",
            ops as f64 / ingest_s.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        ("batch_p50_ms", median(&batch_ms), "ms"),
        ("recover_s", median(&per_unit(|u| u.recover_s)), "s"),
        ("query_us_p50", median(&block_us), "us"),
        ("query_us_p90", quantile(&block_us, 0.9), "us"),
        ("analytics_s", median(&per_unit(|u| u.analytics_s)), "s"),
    ];
    let mut reconcile = tr.reconcile("summarize");
    reconcile.extend(tr.reconcile("ingest"));
    let scale = REFERENCE_NOMINAL_MS / reference.pass_ms();
    let end_to_end = measured.iter().map(|&m| scaled(m, scale)).collect();
    let per_layer = if traced {
        let mut layers: Vec<Metric> = layer_metrics(&tr, &units[0], &reconcile)
            .into_iter()
            .map(|m| scaled(m, scale))
            .collect();
        layers.push(("machine.reference_ms", reference.pass_ms(), "ms"));
        layers
    } else {
        Vec::new()
    };
    RunResult {
        end_to_end,
        measured,
        reference_ms: reference.pass_ms(),
        per_layer,
        tally,
        units: units.len(),
        replay_identical: units.iter().all(|u| u.replay_identical),
        unit_s,
        samples: (batch_ms.len(), block_us.len()),
        reconcile,
    }
}

/// Reference pass time, in ms, at which reported times equal measured ones:
/// the pass time of the 2-vCPU machine the bounds were tuned on, when idle.
///
/// The host of that machine is shared, and its speed swung by up to 1.8×
/// between sets of runs minutes apart, moving every timed metric of a run
/// together.  So each run times a fixed computation of its own
/// ([`Reference`]) throughout, and every time it reports is scaled by
/// `REFERENCE_NOMINAL_MS / median pass time` (a rate inversely).  The
/// measured values are printed next to the scaled ones.
pub const REFERENCE_NOMINAL_MS: f64 = 4.2;

/// A metric scaled to the nominal machine speed; units other than times and
/// rates pass through.
fn scaled((name, value, unit): Metric, scale: f64) -> Metric {
    match unit {
        "s" | "ms" | "us" => (name, value * scale, unit),
        "1/s" => (name, value / scale, unit),
        _ => (name, value, unit),
    }
}

/// The per-layer metrics of the traced first unit.
fn layer_metrics(tr: &Tracer, first: &UnitTimes, reconcile: &[f64]) -> Vec<Metric> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let pairs = tr.get("pipeline.pairs_evaluated");
    let plan_pairs = tr.get("plan.pairs_evaluated");
    let reshingled = tr.get("candidates.reshingled_roots");
    let replayed = tr.get("durable.replayed_batches");
    vec![
        (
            "slugger.candidates_s",
            tr.total_s("slugger.candidates"),
            "s",
        ),
        ("slugger.plan_s", tr.total_s("slugger.plan"), "s"),
        ("slugger.apply_s", tr.total_s("slugger.apply"), "s"),
        ("slugger.prune_s", tr.total_s("slugger.prune"), "s"),
        ("slugger.other_s", tr.self_s("summarize"), "s"),
        ("pipeline.pairs_evaluated", pairs, "count"),
        ("pipeline.merges", tr.get("pipeline.merges"), "count"),
        (
            "pipeline.merge_yield",
            ratio(tr.get("pipeline.merges"), pairs),
            "ratio",
        ),
        (
            "incremental.localize_s",
            tr.total_s("incremental.localize"),
            "s",
        ),
        (
            "incremental.dissolve_s",
            tr.total_s("incremental.dissolve"),
            "s",
        ),
        ("incremental.other_s", tr.self_s("ingest"), "s"),
        (
            "incremental.dirty_roots",
            tr.get("incremental.dirty_roots"),
            "count",
        ),
        (
            "incremental.restored_edges",
            tr.get("incremental.restored_edges"),
            "count",
        ),
        (
            "incremental.dissolved_over_region",
            ratio(
                tr.get("incremental.dissolved_subnodes"),
                tr.get("incremental.region_subnodes"),
            ),
            "ratio",
        ),
        ("candidates.busy_s", tr.total_s("candidates"), "s"),
        ("candidates.reshingled_roots", reshingled, "count"),
        (
            "candidates.hit_rate",
            ratio(
                tr.get("candidates.cached_roots"),
                tr.get("candidates.cached_roots") + reshingled,
            ),
            "ratio",
        ),
        ("plan.busy_s", tr.total_s("plan"), "s"),
        ("plan.pairs_evaluated", plan_pairs, "count"),
        (
            "plan.pairs_per_dirty_root",
            ratio(plan_pairs, tr.get("incremental.dirty_roots")),
            "ratio",
        ),
        (
            "plan.merge_yield",
            ratio(tr.get("plan.merges"), plan_pairs),
            "ratio",
        ),
        ("apply.busy_s", tr.total_s("apply"), "s"),
        ("prune.busy_s", tr.total_s("prune"), "s"),
        ("prune.changes", tr.get("prune.changes"), "count"),
        ("model.arena_len", tr.get("model.arena_len"), "count"),
        ("model.dead_slots", tr.get("model.dead_slots"), "count"),
        (
            "model.compacted_slots",
            tr.get("model.compacted_slots"),
            "count",
        ),
        ("model.p_edges", tr.get("model.p_edges"), "count"),
        ("model.n_edges", tr.get("model.n_edges"), "count"),
        ("model.h_edges", tr.get("model.h_edges"), "count"),
        ("snapshot.publish_s", tr.total_s("snapshot.publish"), "s"),
        ("durable.log_s", tr.total_s("durable.log"), "s"),
        ("durable.wal_bytes", tr.get("durable.wal_bytes"), "bytes"),
        (
            "durable.checkpoint_bytes",
            tr.get("durable.checkpoint_bytes"),
            "bytes",
        ),
        ("durable.replayed_batches", replayed, "count"),
        (
            "durable.replay_identical",
            tr.get("durable.replay_identical"),
            "count",
        ),
        (
            "durable.replay_s_per_batch",
            ratio(
                tr.total_s("durable.open") / tr.span_count("durable.open").max(1) as f64,
                replayed,
            ),
            "s",
        ),
        ("query.neighbors_us_p50", median(&first.kind_us[0]), "us"),
        ("query.degree_us_p50", median(&first.kind_us[1]), "us"),
        ("query.bfs2_us_p50", median(&first.kind_us[2]), "us"),
        (
            "query.cache_hit_rate",
            tr.get("query.cache_hit_rate"),
            "ratio",
        ),
        ("query.pins", tr.get("query.pins"), "count"),
        ("query.blocks", first.block_us.len() as f64, "count"),
        ("stream.batches", tr.get("stream.batches"), "count"),
        ("algos.pagerank_s", tr.total_s("algos.pagerank"), "s"),
        ("algos.bfs_full_s", tr.total_s("algos.bfs_full"), "s"),
        ("storage.encode_s", tr.total_s("storage.encode"), "s"),
        ("storage.decode_s", tr.total_s("storage.decode"), "s"),
        (
            "storage.summary_bytes",
            tr.get("storage.summary_bytes"),
            "bytes",
        ),
        ("decode.full_s", tr.total_s("decode.full"), "s"),
        (
            "trace.reconcile_worst",
            reconcile.iter().copied().fold(0.0, f64::max),
            "ratio",
        ),
        ("trace.reconciled_spans", reconcile.len() as f64, "count"),
        (
            "trace.unreconciled_spans",
            reconcile
                .iter()
                .filter(|&&gap| gap > RECONCILE_LIMIT)
                .count() as f64,
            "count",
        ),
    ]
}

/// SplitMix64: the benchmark's own deterministic generator for query ids.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}
