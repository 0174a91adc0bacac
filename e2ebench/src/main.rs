//! Benchmark driver.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <summarize-lj|stream-rmat|serve-caveman> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics, or
//! with `--trace 1` the per-layer metrics.  Exits with code 1 when any output
//! check failed.

use slugger_e2ebench::workload::{self, Metric, RunResult};
use slugger_e2ebench::{stats, DEFAULT_SEED};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 5.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // A failed run can leave a rate undefined; JSON has no infinity.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report(label: &str, result: &RunResult) {
    let (batches, blocks) = result.samples;
    println!(
        "[{label}] {} unit(s); batch_p50_ms over {batches} batches ({} beyond it), query_us_p50/p90 over {blocks} blocks of {} queries ({} beyond the p90)",
        result.units,
        stats::samples_beyond(batches, 0.5),
        workload::BLOCK_QUERIES,
        stats::samples_beyond(blocks, 0.9)
    );
    println!(
        "[{label}] reference pass {:.3} ms; times scaled by {:.4} to the nominal {} ms (measured value in brackets)",
        result.reference_ms,
        workload::REFERENCE_NOMINAL_MS / result.reference_ms,
        workload::REFERENCE_NOMINAL_MS
    );
    for ((name, value, unit), (_, raw, _)) in result.end_to_end.iter().zip(&result.measured) {
        println!("[{label}] {name:<18} {value:>14.6} {unit} ({raw:.6})");
    }
    let t = &result.tally;
    println!(
        "[{label}] failed_ratio       {:>14.6} ({} of {} operations)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    if !result.replay_identical {
        println!("[{label}] recovered summary differs in canonical form from the live one");
    }
    for note in &t.notes {
        println!("[{label}] FAILED: {note}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(shape) = workload::shape(&args.workload) else {
        let names: Vec<&str> = workload::shapes().iter().map(|s| s.name).collect();
        eprintln!("--workload must be one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    let root = std::env::current_dir()
        .expect("working directory")
        .join(".e2ebench-tmp");
    let scratch = root.join(format!("{}-{}", shape.name, std::process::id()));
    println!(
        "workload {} seed {} seconds {} trace {}",
        shape.name, args.seed, args.seconds, args.trace as u8
    );

    let untraced = workload::run(&shape, args.seed, args.seconds, false, &scratch);
    report("untraced", &untraced);
    let mut attempted = untraced.tally.attempted;
    let mut failed = untraced.tally.failed;
    let line = if args.trace {
        let mut traced = workload::run(&shape, args.seed, args.seconds, true, &scratch);
        report("traced", &traced);
        for ((name, plain, unit), (_, with, _)) in
            untraced.end_to_end.iter().zip(&traced.end_to_end)
        {
            let diff = if *plain != 0.0 {
                (with - plain) / plain * 100.0
            } else {
                0.0
            };
            println!("[overhead] {name:<18} untraced {plain:>14.6} traced {with:>14.6} {unit} ({diff:+.2}%)");
        }
        let overhead = (traced.unit_s - untraced.unit_s) / untraced.unit_s * 100.0;
        println!(
            "[overhead] first unit wall {:.3} s untraced, {:.3} s traced ({overhead:+.2}%)",
            untraced.unit_s, traced.unit_s
        );
        let over = traced
            .reconcile
            .iter()
            .filter(|&&gap| gap > workload::RECONCILE_LIMIT)
            .count();
        println!(
            "[reconcile] {over} of {} summarize/ingest spans have stage times more than {:.0}% away from their wall time",
            traced.reconcile.len(),
            workload::RECONCILE_LIMIT * 100.0
        );
        traced.per_layer.push(("trace.overhead_pct", overhead, "%"));
        for (name, value, unit) in &traced.per_layer {
            println!("[layer] {name:<34} {value:>16.6} {unit}");
        }
        attempted += traced.tally.attempted;
        failed += traced.tally.failed;
        json(failed == 0, attempted, failed, &traced.per_layer)
    } else {
        json(failed == 0, attempted, failed, &untraced.end_to_end)
    };
    // Removes the scratch root unless another run still uses it.
    let _ = std::fs::remove_dir(&root);
    println!("{line}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
