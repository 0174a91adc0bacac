//! One module per table/figure of the paper's evaluation.  Every experiment exposes a
//! `run(&ExperimentScale) -> String` function returning a report (plain-text tables
//! plus commentary), which the corresponding binary prints and `run_all_experiments`
//! concatenates into an EXPERIMENTS.md-ready document.

pub mod ablation_candidate_size;
pub mod fig1a;
pub mod fig1b;
pub mod fig5;
pub mod fig6;
pub mod graph_algorithms;
pub mod neighbor_query;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod theorem1;

/// Helper shared by the reports: a section heading.
pub(crate) fn heading(title: &str) -> String {
    format!("\n## {title}\n\n")
}
