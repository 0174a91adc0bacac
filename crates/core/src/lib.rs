//! # slugger-core
//!
//! The hierarchical graph summarization model and the **SLUGGER** algorithm from
//! Lee, Ko, Shin, *SLUGGER: Lossless Hierarchical Summarization of Massive Graphs*
//! (ICDE 2022).
//!
//! The public entry point is [`Slugger`], configured through [`SluggerConfig`]:
//!
//! ```
//! use slugger_core::{Slugger, SluggerConfig};
//! use slugger_graph::gen::{caveman, CavemanConfig};
//!
//! let graph = caveman(&CavemanConfig { num_nodes: 200, ..CavemanConfig::default() });
//! let outcome = Slugger::new(SluggerConfig { iterations: 5, ..SluggerConfig::default() })
//!     .summarize(&graph);
//! assert!(outcome.summary.encoding_cost() <= graph.num_edges());
//! // The summary is lossless: decoding reproduces the input exactly.
//! let decoded = slugger_core::decode::decode_full(&outcome.summary);
//! assert_eq!(decoded.edge_set(), graph.edge_set());
//! ```
//!
//! Module map (mirroring Sect. III of the paper, plus the execution substrate):
//!
//! * [`model`] — the representation model `G = (S, P+, P−, H)` (Sect. II-B).
//! * [`candidates`] — min-hash candidate generation (Sect. III-B2); stage 1 of each
//!   pipeline iteration.
//! * [`encoder`] — constant-size local re-encoding with memoization (Sect. III-B3).
//! * [`engine`] — incremental root/cost bookkeeping, `Saving(A, B, G)` and merge
//!   application; doubles as the frozen iteration view the per-shard planning
//!   overlays read through.
//! * [`engine::apply`] — the **apply** reconciliation stage: replays per-shard merge
//!   plans on the authoritative engine with exact cost bookkeeping, serially in
//!   ascending set-index order.
//! * [`engine::plan`] — the copy-on-write planning overlay shard workers fork per
//!   candidate set, backed by pooled scratch so steady-state planning never
//!   allocates.
//! * [`incremental`] — batch-incremental (streaming) re-summarization: maintains a
//!   summary under edge insertions/deletions by re-expanding and re-summarizing
//!   only the dirty region of each delta batch, pruning it incrementally
//!   (engine-hosted region pruning) and compacting the arena so memory tracks the
//!   live summary, not the stream length.
//! * [`merge`] — the merging step over one candidate set (Algorithm 2)
//!   ([`merge::plan_candidate_set`]).
//! * [`pipeline`] — the stage-based sharded execution substrate (candidates → shard
//!   → merge → apply → prune): deterministic set-to-shard partitioning (SLUGGER
//!   plans one shard per worker thread), per-set RNG streams seeded by
//!   `(seed, iteration, set_index)`, and the [`pipeline::Parallelism`] thread
//!   knob, which never changes results.  Shared with the SWeG baseline.
//! * [`prune`] — the three pruning substeps (Sect. III-B4, Algorithm 3); the final
//!   pipeline stage.  Pruning has one host, the live engine: the substeps edit
//!   the summary through its bookkeeping in the batch and the streaming path
//!   alike.  One implementation, restricted to a set of region roots
//!   ([`prune::prune_region`]); whole-summary pruning ([`prune::prune_all`]) is
//!   that region prune over every root.
//! * [`slugger`] — the top-level driver (Algorithm 1) wiring the stages together.
//! * [`decode`] — full and partial decompression (Algorithm 4) and losslessness
//!   verification.
//! * [`metrics`] — output-size and hierarchy statistics used by the experiments.
//! * [`testsupport`] — the canonical-form comparison and the
//!   thread-count lattice shared by the invariance test suites (and by
//!   downstream crates' tests); not part of the stable algorithmic surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod decode;
pub mod encoder;
pub mod engine;
pub mod incremental;
pub mod merge;
pub mod metrics;
pub mod model;
pub mod pipeline;
pub mod prune;
pub mod slugger;
pub mod snapshot;
pub mod storage;
pub mod testsupport;

pub use decode::{DecodeError, SummaryNeighborView};
pub use engine::MergeCtx;
pub use incremental::{BatchReport, IncrementalConfig, IncrementalSummarizer};
pub use metrics::SummaryMetrics;
pub use model::{EdgeSign, HierarchicalSummary, Supernode, SupernodeId};
pub use pipeline::Parallelism;
pub use slugger::{Slugger, SluggerConfig, SluggerOutcome, StageProfile};
pub use snapshot::{QueryEngine, SnapshotSlot, SummarySnapshot};

/// Convenience prelude.
pub mod prelude {
    pub use crate::decode::{decode_full, neighbors_of, try_neighbors_of, verify_lossless};
    pub use crate::incremental::{BatchReport, IncrementalConfig, IncrementalSummarizer};
    pub use crate::metrics::SummaryMetrics;
    pub use crate::model::{EdgeSign, HierarchicalSummary, SupernodeId};
    pub use crate::pipeline::Parallelism;
    pub use crate::slugger::{Slugger, SluggerConfig, SluggerOutcome, StageProfile};
    pub use crate::snapshot::{QueryEngine, SnapshotSlot, SummarySnapshot};
}
