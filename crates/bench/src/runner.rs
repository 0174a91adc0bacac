//! Shared experiment runner: dataset generation at a chosen scale, invocation of
//! SLUGGER and the four baselines with the paper's parameter settings, and a small
//! command-line parser shared by all harness binaries.

use slugger_baselines::{
    mosso_summarize, randomized_summarize, sags_summarize, sweg_summarize, MossoConfig,
    RandomizedConfig, SagsConfig, SwegConfig,
};
use slugger_core::{Parallelism, Slugger, SluggerConfig};
use slugger_datasets::{registry, small_registry, DatasetKey, DatasetSpec};
use slugger_graph::Graph;
use std::time::{Duration, Instant};

/// The five competing algorithms of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// SLUGGER (the proposed algorithm, hierarchical model).
    Slugger,
    /// SWeG (lossless setting), the strongest flat-model competitor.
    Sweg,
    /// MoSSo, the incremental/online competitor.
    Mosso,
    /// Randomized (Navlakha et al.).
    Randomized,
    /// SAGS (LSH-based).
    Sags,
}

impl Algorithm {
    /// All algorithms in the order Fig. 1(a)/Fig. 5 list them.
    pub fn all() -> [Algorithm; 5] {
        [
            Algorithm::Slugger,
            Algorithm::Sweg,
            Algorithm::Mosso,
            Algorithm::Randomized,
            Algorithm::Sags,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Slugger => "Slugger",
            Algorithm::Sweg => "SWeG",
            Algorithm::Mosso => "MoSSo",
            Algorithm::Randomized => "Randomized",
            Algorithm::Sags => "SAGS",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Result of running one algorithm on one graph.
#[derive(Clone, Debug)]
pub struct AlgoResult {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// Relative output size (Eq. 10 for SLUGGER, Eq. 11 for the flat baselines).
    pub relative_size: f64,
    /// Absolute output cost (number of output edges, including hierarchy edges).
    pub cost: usize,
    /// Wall-clock running time.
    pub elapsed: Duration,
    /// Output composition `(p_edges, n_edges, h_edges)`; for flat baselines these are
    /// `(|P| + |C+|, |C−|, |H*|)`.
    pub composition: (usize, usize, usize),
}

/// Scale and effort knobs shared by the harness binaries, parsed from the command line
/// (`--scale 0.5 --iterations 20 --seed 7 --datasets CA,PR --quick`).
#[derive(Clone, Debug)]
pub struct ExperimentScale {
    /// Multiplier applied to every dataset's default size.
    pub scale: f64,
    /// SLUGGER / SWeG iteration count `T`.
    pub iterations: usize,
    /// Seed shared by every algorithm.
    pub seed: u64,
    /// Restrict the run to these datasets (`None` = the experiment's default set).
    pub datasets: Option<Vec<DatasetKey>>,
    /// Quick mode: small registry + reduced scale, for smoke-testing the harness.
    pub quick: bool,
    /// Worker threads for the sharded merge pipeline (`--threads N`; 1 = sequential,
    /// 0 = one per CPU).  Never changes results, only wall-clock time.
    pub threads: usize,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            scale: 1.0,
            iterations: 20,
            seed: 0,
            datasets: None,
            quick: false,
            threads: 1,
        }
    }
}

impl ExperimentScale {
    /// Parses the harness command-line flags (unknown flags are ignored so binaries can
    /// add their own).  A numeric flag with a missing or malformed value is an error
    /// that names the flag; so is a missing `--datasets` list or any unknown label
    /// in it.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = ExperimentScale::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => out.scale = parse_number(&arg, iter.next())?,
                "--iterations" | "-T" => out.iterations = parse_number(&arg, iter.next())?,
                "--seed" => out.seed = parse_number(&arg, iter.next())?,
                "--datasets" => out.datasets = Some(parse_datasets(iter.next())?),
                "--threads" => out.threads = parse_number(&arg, iter.next())?,
                "--quick" => {
                    out.quick = true;
                    out.scale = out.scale.min(0.25);
                    out.iterations = out.iterations.min(5);
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// Parses from the process arguments (skipping the program name); on a
    /// malformed flag prints the error and exits with status 2.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2)
        })
    }

    /// The dataset specs this run should cover, given the experiment's default list.
    pub fn select_datasets(&self, default_full: bool) -> Vec<DatasetSpec> {
        let base = if self.quick {
            small_registry()
        } else if default_full {
            registry()
        } else {
            small_registry()
        };
        match &self.datasets {
            None => base,
            Some(keys) => registry()
                .into_iter()
                .filter(|d| keys.contains(&d.key))
                .collect(),
        }
    }

    /// The pipeline parallelism implied by `--threads`.
    pub fn parallelism(&self) -> Parallelism {
        match self.threads {
            0 => Parallelism::Auto,
            1 => Parallelism::Sequential,
            n => Parallelism::Fixed(n),
        }
    }

    /// SLUGGER configuration matching this scale.
    pub fn slugger_config(&self) -> SluggerConfig {
        SluggerConfig {
            iterations: self.iterations,
            seed: self.seed,
            parallelism: self.parallelism(),
            ..SluggerConfig::default()
        }
    }
}

/// The value of numeric `flag`, or an error naming the flag when it is missing or
/// does not parse.
fn parse_number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} expects a number"))?;
    raw.parse()
        .map_err(|_| format!("{flag} expects a number, got {raw:?}"))
}

/// The keys of a comma-separated `--datasets` list (labels match case-insensitively),
/// or an error naming the first unknown label or the missing list.
fn parse_datasets(value: Option<String>) -> Result<Vec<DatasetKey>, String> {
    let raw = value.ok_or("--datasets expects a comma-separated list of dataset labels")?;
    raw.split(',')
        .map(|label| {
            let label = label.trim();
            DatasetKey::all()
                .into_iter()
                .find(|k| k.label().eq_ignore_ascii_case(label))
                .ok_or_else(|| format!("--datasets: unknown dataset {label:?}"))
        })
        .collect()
}

/// Runs a single algorithm on a graph with the paper's parameter settings and returns
/// its result record.
pub fn run_algorithm(graph: &Graph, algorithm: Algorithm, scale: &ExperimentScale) -> AlgoResult {
    let start = Instant::now();
    match algorithm {
        Algorithm::Slugger => {
            let outcome = Slugger::new(scale.slugger_config()).summarize(graph);
            AlgoResult {
                algorithm,
                relative_size: outcome.metrics.relative_size,
                cost: outcome.metrics.cost,
                elapsed: start.elapsed(),
                composition: (
                    outcome.metrics.p_edges,
                    outcome.metrics.n_edges,
                    outcome.metrics.h_edges,
                ),
            }
        }
        Algorithm::Sweg => {
            let summary = sweg_summarize(
                graph,
                &SwegConfig {
                    iterations: scale.iterations,
                    max_group_size: 500,
                    seed: scale.seed,
                    parallelism: scale.parallelism(),
                },
            );
            flat_result(algorithm, start, &summary)
        }
        Algorithm::Mosso => {
            let summary = mosso_summarize(
                graph,
                &MossoConfig {
                    seed: scale.seed,
                    ..MossoConfig::default()
                },
            );
            flat_result(algorithm, start, &summary)
        }
        Algorithm::Randomized => {
            let summary = randomized_summarize(
                graph,
                &RandomizedConfig {
                    seed: scale.seed,
                    ..RandomizedConfig::default()
                },
            );
            flat_result(algorithm, start, &summary)
        }
        Algorithm::Sags => {
            let summary = sags_summarize(
                graph,
                &SagsConfig {
                    seed: scale.seed,
                    ..SagsConfig::default()
                },
            );
            flat_result(algorithm, start, &summary)
        }
    }
}

fn flat_result(
    algorithm: Algorithm,
    start: Instant,
    summary: &slugger_baselines::FlatSummary,
) -> AlgoResult {
    AlgoResult {
        algorithm,
        relative_size: summary.relative_size(),
        cost: summary.total_cost(),
        elapsed: start.elapsed(),
        composition: (
            summary.encoding.p.len() + summary.encoding.c_plus.len(),
            summary.encoding.c_minus.len(),
            summary.grouping.h_star_edges(),
        ),
    }
}

/// Runs all five algorithms on a graph.
pub fn run_all_algorithms(graph: &Graph, scale: &ExperimentScale) -> Vec<AlgoResult> {
    Algorithm::all()
        .into_iter()
        .map(|algo| run_algorithm(graph, algo, scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argument_parsing_handles_all_flags() {
        let scale = ExperimentScale::from_args(
            [
                "--scale",
                "0.5",
                "--iterations",
                "7",
                "--seed",
                "42",
                "--datasets",
                "ca,pr",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert!((scale.scale - 0.5).abs() < 1e-12);
        assert_eq!(scale.iterations, 7);
        assert_eq!(scale.seed, 42);
        assert_eq!(scale.datasets, Some(vec![DatasetKey::CA, DatasetKey::PR]));
        assert!(!scale.quick);
    }

    #[test]
    fn quick_mode_shrinks_everything() {
        let scale = ExperimentScale::from_args(["--quick".to_string()]).unwrap();
        assert!(scale.quick);
        assert!(scale.scale <= 0.25);
        assert!(scale.iterations <= 5);
        assert_eq!(scale.select_datasets(true).len(), 5);
    }

    #[test]
    fn unknown_flags_are_ignored() {
        let scale = ExperimentScale::from_args(
            ["--whatever", "--scale", "2.0"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!((scale.scale - 2.0).abs() < 1e-12);
    }

    #[test]
    fn malformed_numeric_flags_are_rejected_by_name() {
        let parse = |args: &[&str]| ExperimentScale::from_args(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["--threads", "4"]).unwrap().threads, 4);
        let err = parse(&["--threads", "8x"]).unwrap_err();
        assert!(err.contains("--threads") && err.contains("8x"), "{err}");
        for flag in ["--scale", "--iterations", "-T", "--seed"] {
            let err = parse(&[flag, "x"]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
        assert!(parse(&["--seed"]).unwrap_err().contains("--seed"));
    }

    #[test]
    fn unknown_or_missing_datasets_are_rejected_by_name() {
        let parse = |args: &[&str]| ExperimentScale::from_args(args.iter().map(|s| s.to_string()));
        assert_eq!(
            parse(&["--datasets", "CA, pr"]).unwrap().datasets,
            Some(vec![DatasetKey::CA, DatasetKey::PR])
        );
        // Every label unknown, and a valid label mixed with an unknown one.
        for list in ["XX", "ca,XX"] {
            let err = parse(&["--datasets", list]).unwrap_err();
            assert!(err.contains("--datasets") && err.contains("XX"), "{err}");
        }
        let err = parse(&["--datasets", "ca,"]).unwrap_err();
        assert!(err.contains("--datasets") && err.contains("\"\""), "{err}");
        assert!(parse(&["--datasets"]).unwrap_err().contains("--datasets"));
    }

    #[test]
    fn run_all_algorithms_on_a_tiny_graph() {
        let graph = slugger_graph::gen::caveman(&slugger_graph::gen::CavemanConfig {
            num_nodes: 80,
            num_cliques: 12,
            ..Default::default()
        });
        let scale = ExperimentScale {
            iterations: 3,
            ..ExperimentScale::default()
        };
        let results = run_all_algorithms(&graph, &scale);
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.relative_size > 0.0);
            assert!(r.cost > 0);
        }
        // SLUGGER must never be (much) worse than the trivial encoding.
        let slugger = results
            .iter()
            .find(|r| r.algorithm == Algorithm::Slugger)
            .unwrap();
        assert!(slugger.relative_size <= 1.05);
    }
}
