//! End-to-end and per-layer benchmark of the SLUGGER system.
//!
//! Three closed-loop workloads drive the library through its public API only
//! (see [`workload`] for the pipeline and README.md for why each workload
//! exists and which metric each layer should move).  A run prints every
//! end-to-end metric; a traced run (`--trace 1`) also runs the workload with
//! the span recorder of [`trace`] on and prints the per-layer metrics.

pub mod stats;
pub mod trace;
pub mod workload;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed held out for confirming a claimed gain after the change was written.
pub const HELD_OUT_SEED: u64 = 7;
