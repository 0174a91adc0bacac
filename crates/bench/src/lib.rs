//! # slugger-bench
//!
//! Experiment harness of the SLUGGER reproduction: one binary per table/figure of
//! the paper's evaluation (figs 1, 5 and 6, tables III–V, Theorem 1 and the
//! Sect. VIII appendix experiments) plus Criterion micro-benchmarks.  The running
//! system's performance is measured by the end-to-end benchmark in `e2ebench/`,
//! not here.
//!
//! * [`runner`] — dataset selection at a chosen scale, running SLUGGER and the four
//!   baselines with the paper's parameters, and the shared `--scale/--iterations/...`
//!   command-line flags.
//! * [`table`] — plain-text / markdown table rendering for the reports.
//! * [`experiments`] — one module per table/figure; each returns a report string that
//!   the corresponding binary prints and `run_all_experiments` aggregates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
pub mod table;

pub use runner::{run_algorithm, run_all_algorithms, AlgoResult, Algorithm, ExperimentScale};
pub use table::TableWriter;
