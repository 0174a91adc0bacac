//! Determinism self-test: two same-seed traced runs of every workload (at a
//! reduced size) must give exactly equal counts — the counts a later change
//! may cite as evidence without a timing comparison.

use slugger_e2ebench::workload::{self, RunResult};
use std::path::Path;

/// The counts that must repeat exactly.
const COUNTS: [&str; 9] = [
    "pipeline.pairs_evaluated",
    "plan.pairs_evaluated",
    "incremental.dirty_roots",
    "candidates.reshingled_roots",
    "query.cache_hit_rate",
    "durable.wal_bytes",
    "durable.replayed_batches",
    "stream.batches",
    "query.blocks",
];

fn value(metrics: &[workload::Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

fn traced_run(name: &str, seed: u64, tag: &str) -> RunResult {
    let shape = workload::shape(name).expect("known workload").small();
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{tag}"));
    workload::run(&shape, seed, 0.0, true, &scratch)
}

#[test]
fn same_seed_runs_repeat_every_count() {
    for shape in workload::shapes() {
        let a = traced_run(shape.name, 3, "a");
        let b = traced_run(shape.name, 3, "b");
        assert_eq!(a.tally.failed, 0, "{}: {:?}", shape.name, a.tally.notes);
        assert_eq!(b.tally.failed, 0, "{}: {:?}", shape.name, b.tally.notes);
        let size = |r: &RunResult| value(&r.end_to_end, "relative_size");
        assert_eq!(size(&a), size(&b), "{}: relative_size", shape.name);
        for name in COUNTS {
            assert_eq!(
                value(&a.per_layer, name),
                value(&b.per_layer, name),
                "{}: {name}",
                shape.name
            );
        }
        assert!(value(&a.per_layer, "stream.batches") > 0.0);
        assert!(value(&a.per_layer, "durable.replayed_batches") > 0.0);
    }
}

#[test]
fn every_metric_is_reported_on_every_workload() {
    for shape in workload::shapes() {
        let r = traced_run(shape.name, 5, "metrics");
        assert_eq!(r.end_to_end.len(), 10, "{}", shape.name);
        for (name, value, _) in r.end_to_end.iter().chain(&r.per_layer) {
            assert!(value.is_finite(), "{}: {name} = {value}", shape.name);
        }
        for (name, value, _) in &r.end_to_end {
            assert!(*value > 0.0, "{}: {name} = {value}", shape.name);
        }
    }
}
