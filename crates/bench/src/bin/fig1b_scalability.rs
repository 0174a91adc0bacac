//! Harness binary for fig1b.  Flags: `--scale`, `--iterations`, `--seed`, `--datasets`, `--quick`,
//! `--threads`; asserts that the parallel summary equals the sequential one.
fn main() {
    let scale = slugger_bench::ExperimentScale::from_env();
    print!("{}", slugger_bench::experiments::fig1b::run(&scale));
}
