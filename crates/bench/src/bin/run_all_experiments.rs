//! Runs the complete experiment suite (every table and figure of the paper) and prints
//! one EXPERIMENTS.md-ready report.  Pass `--output <path>` to also write it to a file;
//! the usual `--scale/--iterations/--seed/--datasets/--quick` flags apply.
use slugger_bench::experiments;
use slugger_bench::ExperimentScale;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = ExperimentScale::from_env();
    let output = args
        .iter()
        .position(|a| a == "--output")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut report = String::new();
    report.push_str("# SLUGGER reproduction — full experiment run\n");
    report.push_str(&format!(
        "\nScale {} | T = {} | seed {} | quick = {}\n",
        scale.scale, scale.iterations, scale.seed, scale.quick
    ));
    eprintln!("[1/11] Fig. 1(a)");
    report.push_str(&experiments::fig1a::run(&scale));
    eprintln!("[2/11] Fig. 1(b)");
    report.push_str(&experiments::fig1b::run(&scale));
    eprintln!("[3/11] Fig. 5(a)+(b)");
    report.push_str(&experiments::fig5::run(&scale));
    eprintln!("[4/11] Table III");
    report.push_str(&experiments::table3::run(&scale));
    eprintln!("[5/11] Table IV");
    report.push_str(&experiments::table4::run(&scale));
    eprintln!("[6/11] Table V");
    report.push_str(&experiments::table5::run(&scale));
    eprintln!("[7/11] Fig. 6");
    report.push_str(&experiments::fig6::run(&scale));
    eprintln!("[8/11] Neighbor query (Sect. VIII-B)");
    report.push_str(&experiments::neighbor_query::run(&scale));
    eprintln!("[9/11] Graph algorithms (Sect. VIII-C)");
    report.push_str(&experiments::graph_algorithms::run(&scale));
    eprintln!("[10/11] Theorem 1");
    report.push_str(&experiments::theorem1::run(&scale));
    eprintln!("[11/11] Ablations");
    report.push_str(&experiments::ablation_candidate_size::run(&scale));

    print!("{report}");
    if let Some(path) = output {
        let mut file = std::fs::File::create(&path).expect("create output file");
        file.write_all(report.as_bytes()).expect("write report");
        eprintln!("report written to {path}");
    }
}
