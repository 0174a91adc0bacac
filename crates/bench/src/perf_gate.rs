//! CI perf-regression gate over bench JSON-Lines histories: after a bench
//! appends its record, the gate compares the gated per-stream metric against
//! the **most recent earlier record with the exact same configuration** and
//! fails the run when it regressed by more than [`TOLERANCE`].
//!
//! Two gated histories share the machinery through [`GateSpec`]:
//!
//! * `BENCH_streaming.json` ([`check_streaming_history`]) gates each stream's
//!   `incr_total_secs` — the incremental maintenance total;
//! * `BENCH_queries.json` ([`check_query_history`]) gates `batch_total_secs` —
//!   the churn-loop total *with query readers attached*, so both a slower
//!   writer and a read path that steals too much CPU from it trip the gate.
//!
//! Two records are comparable only when every config field of the spec matches
//! (for streaming: `scale`, `iterations`, `seed`, `threads`, `shards`,
//! `prune_rounds`, `compact_dead_ratio`, `scenario`; for query serving: `scale`, `iterations`,
//! `seed`, `threads`, `shards`, `workers`, `scenario` — so each `--scenario`
//! stream tracks its own baseline).  A record missing any of them (e.g. history
//! lines written before a field existed) is never comparable, so introducing a
//! new knob rolls the gate over cleanly instead of comparing across semantics.
//!
//! Totals below [`MIN_GATED_SECS`] are not gated: at CI smoke scale a run can
//! finish in tens of milliseconds, where scheduler noise alone exceeds any
//! sensible tolerance.
//!
//! Intentional regressions (e.g. trading streaming speed for a new invariant)
//! are waived by setting [`ESCAPE_HATCH_ENV`]=1, which downgrades the failure to
//! a note in the report.
//!
//! The extraction is a hand-rolled scanner, not a JSON codec — the vendored
//! `serde_json` is a Debug-based stand-in (see `crate::history`), and the records
//! are machine-written one-liners with `"key": value` shapes we control.

use crate::history;

/// Allowed relative slowdown of `incr_total_secs` before the gate fails (0.2 =
/// 20%, the ISSUE 8 bound).
pub const TOLERANCE: f64 = 0.20;

/// Baseline totals below this many seconds are informational only — smoke-scale
/// runs are too short to gate against timing noise.
pub const MIN_GATED_SECS: f64 = 0.2;

/// Environment variable that waives a detected regression (any non-empty value
/// other than `0`): the gate reports what it found but does not fail the run.
pub const ESCAPE_HATCH_ENV: &str = "SLUGGER_ALLOW_PERF_REGRESSION";

/// What one gated history looks like: which config fields make two records
/// comparable, which per-stream field is the gated metric, and how to name it
/// in verdicts.
#[derive(Clone, Copy, Debug)]
pub struct GateSpec {
    /// The config fields two records must agree on (by raw field text) to be
    /// comparable.
    pub config_fields: &'static [&'static str],
    /// The per-stream field holding the gated seconds total.
    pub metric: &'static str,
    /// Human name of the metric in verdicts and failure reports.
    pub metric_label: &'static str,
}

/// The streaming-bench gate (`BENCH_streaming.json`).
pub const STREAMING_GATE: GateSpec = GateSpec {
    config_fields: &[
        "scale",
        "iterations",
        "seed",
        "threads",
        "shards",
        "prune_rounds",
        "compact_dead_ratio",
        "scenario",
    ],
    metric: "incr_total_secs",
    metric_label: "incr total",
};

/// The query-serving gate (`BENCH_queries.json`): the churn-loop total with
/// readers attached, i.e. writer speed *and* read-path interference.
pub const QUERY_GATE: GateSpec = GateSpec {
    config_fields: &[
        "scale",
        "iterations",
        "seed",
        "threads",
        "shards",
        "workers",
        "scenario",
    ],
    metric: "batch_total_secs",
    metric_label: "churn batch total",
};

/// Checks the last streaming record of the history file at `path` against its
/// most recent same-config predecessor.  Returns a human-readable verdict, or
/// `Err` with the regression report when the gate fails (already waived to `Ok`
/// when [`ESCAPE_HATCH_ENV`] is set).
pub fn check_streaming_history(path: &str) -> Result<String, String> {
    check_history(&STREAMING_GATE, path)
}

/// [`check_streaming_history`], for the query-serving history.
pub fn check_query_history(path: &str) -> Result<String, String> {
    check_history(&QUERY_GATE, path)
}

fn check_history(spec: &GateSpec, path: &str) -> Result<String, String> {
    let lines = history::read_lines(path).map_err(|e| format!("perf gate: {path}: {e}"))?;
    let waived = std::env::var(ESCAPE_HATCH_ENV).is_ok_and(|v| !v.is_empty() && v != "0");
    check_lines_with(spec, &lines, waived)
}

/// [`check_lines_with`] under the streaming spec (kept as the stable name the
/// streaming gate grew up with).
pub fn check_lines(lines: &[String], waived: bool) -> Result<String, String> {
    check_lines_with(&STREAMING_GATE, lines, waived)
}

/// The testable core: `lines` is the intact-record history (oldest first, the
/// last line being the run under test), `waived` the escape-hatch state.
pub fn check_lines_with(spec: &GateSpec, lines: &[String], waived: bool) -> Result<String, String> {
    let Some(current) = lines.last() else {
        return Ok("Perf gate: empty history, nothing to compare.".to_string());
    };
    let Some(current_key) = config_key(spec, current) else {
        return Ok("Perf gate: current record lacks config fields, skipped.".to_string());
    };
    let baseline = lines[..lines.len() - 1]
        .iter()
        .rev()
        .find(|line| config_key(spec, line).as_ref() == Some(&current_key));
    let Some(baseline) = baseline else {
        return Ok(
            "Perf gate: no earlier record with this exact config — baseline established."
                .to_string(),
        );
    };
    let mut notes: Vec<String> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for (name, now) in stream_totals(spec, current) {
        let Some(then) = stream_totals(spec, baseline)
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, secs)| secs)
        else {
            continue;
        };
        let delta = (now - then) / then.max(1e-9) * 100.0;
        let verdict = format!(
            "{name}: {} {then:.3}s -> {now:.3}s ({delta:+.1}%)",
            spec.metric_label
        );
        if then >= MIN_GATED_SECS && now > then * (1.0 + TOLERANCE) {
            failures.push(verdict);
        } else {
            notes.push(verdict);
        }
    }
    if failures.is_empty() {
        return Ok(format!(
            "Perf gate: within {:.0}% of the last same-config record.  {}",
            TOLERANCE * 100.0,
            notes.join("; ")
        ));
    }
    let report = format!(
        "Perf gate: {} regressed more than {:.0}% vs the last \
         same-config record: {}.  Set {ESCAPE_HATCH_ENV}=1 to waive an intentional \
         change.",
        spec.metric_label,
        TOLERANCE * 100.0,
        failures.join("; ")
    );
    if waived {
        Ok(format!("{report}  [waived by {ESCAPE_HATCH_ENV}]"))
    } else {
        Err(report)
    }
}

/// The comparability key of one record: the raw text of every spec config
/// field's value, or `None` when any is missing.
fn config_key(spec: &GateSpec, line: &str) -> Option<Vec<String>> {
    spec.config_fields
        .iter()
        .map(|field| raw_value(line, field).map(str::to_string))
        .collect()
}

/// Every `("name", <metric>)` pair of a record's `streams` array, in order.
/// Each stream object is machine-written with `"name"` first and the gated
/// metric following within the same object.
fn stream_totals(spec: &GateSpec, line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(pos) = rest.find("\"name\":") {
        rest = &rest[pos + "\"name\":".len()..];
        let Some(open) = rest.find('"') else { break };
        let after = &rest[open + 1..];
        let Some(close) = after.find('"') else { break };
        let name = after[..close].to_string();
        rest = &after[close + 1..];
        // The matching total precedes the next stream's name (or the line end).
        let scope_end = rest.find("\"name\":").unwrap_or(rest.len());
        if let Some(total) = raw_value(&rest[..scope_end], spec.metric) {
            if let Ok(secs) = total.parse::<f64>() {
                out.push((name, secs));
            }
        }
    }
    out
}

/// The raw text of `"field": <value>` in `line` — up to the next `,`, `}` or
/// `]`, trimmed — or `None` when the field is absent.
fn raw_value<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let marker = format!("\"{field}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    let value = rest[..end].trim();
    (!value.is_empty()).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(sha: &str, prune_rounds: usize, rmat_secs: f64, caveman_secs: f64) -> String {
        scenario_record(sha, prune_rounds, "none", rmat_secs, caveman_secs)
    }

    fn scenario_record(
        sha: &str,
        prune_rounds: usize,
        scenario: &str,
        rmat_secs: f64,
        caveman_secs: f64,
    ) -> String {
        format!(
            "{{\"experiment\": \"streaming\", \"git_sha\": \"{sha}\", \"unix_time\": 1, \
             \"scale\": 1, \"iterations\": 5, \"seed\": 0, \"threads\": 1, \"shards\": 8, \
             \"prune_rounds\": {prune_rounds}, \"compact_dead_ratio\": 0.5, \
             \"scenario\": \"{scenario}\", \
             \"streams\": [{{\"name\": \"RMAT\", \"incr_total_secs\": {rmat_secs:.6}, \
             \"rebuild_total_secs\": 9.0}}, {{\"name\": \"Caveman\", \
             \"incr_total_secs\": {caveman_secs:.6}, \"rebuild_total_secs\": 3.0}}]}}"
        )
    }

    /// A pre-gate record without the `scenario` field.
    fn legacy_record(rmat_secs: f64) -> String {
        format!(
            "{{\"experiment\": \"streaming\", \"scale\": 1, \"iterations\": 5, \"seed\": 0, \
             \"threads\": 1, \"shards\": 8, \"prune_rounds\": 2, \
             \"compact_dead_ratio\": 0.5, \
             \"streams\": [{{\"name\": \"RMAT\", \"incr_total_secs\": {rmat_secs:.6}}}]}}"
        )
    }

    #[test]
    fn within_tolerance_passes() {
        let lines = vec![record("a", 2, 5.0, 1.0), record("b", 2, 5.5, 1.1)];
        let verdict = check_lines(&lines, false).unwrap();
        assert!(verdict.contains("within 20%"), "{verdict}");
    }

    #[test]
    fn regression_fails_and_names_the_stream() {
        let lines = vec![record("a", 2, 5.0, 1.0), record("b", 2, 6.5, 1.0)];
        let err = check_lines(&lines, false).unwrap_err();
        assert!(err.contains("RMAT"), "{err}");
        assert!(!err.contains("Caveman: incr"), "{err}");
    }

    #[test]
    fn escape_hatch_waives_the_failure() {
        let lines = vec![record("a", 2, 5.0, 1.0), record("b", 2, 6.5, 1.0)];
        let verdict = check_lines(&lines, true).unwrap();
        assert!(verdict.contains("waived"), "{verdict}");
    }

    #[test]
    fn different_configs_are_not_compared() {
        // The only earlier record ran with fewer prune rounds — faster, but not
        // a comparable baseline.
        let lines = vec![record("a", 0, 2.0, 0.5), record("b", 2, 6.5, 1.0)];
        let verdict = check_lines(&lines, false).unwrap();
        assert!(verdict.contains("baseline established"), "{verdict}");
    }

    #[test]
    fn different_scenarios_are_not_compared() {
        // A slower adversarial scenario run must not gate against the default
        // stream (or another scenario): the scenario name is part of the key.
        let lines = vec![
            record("a", 2, 5.0, 1.0),
            scenario_record("b", 2, "powerlaw-hub-death", 9.0, 2.0),
        ];
        let verdict = check_lines(&lines, false).unwrap();
        assert!(verdict.contains("baseline established"), "{verdict}");
        // Same scenario twice: comparable, and a regression fails.
        let lines = vec![
            scenario_record("a", 2, "powerlaw-hub-death", 5.0, 1.0),
            scenario_record("b", 2, "powerlaw-hub-death", 6.5, 1.0),
        ];
        let err = check_lines(&lines, false).unwrap_err();
        assert!(err.contains("RMAT"), "{err}");
    }

    #[test]
    fn records_missing_config_fields_are_skipped() {
        let lines = vec![legacy_record(2.0), record("b", 2, 6.5, 1.0)];
        let verdict = check_lines(&lines, false).unwrap();
        assert!(verdict.contains("baseline established"), "{verdict}");
        // A legacy record under test is skipped outright.
        let lines = vec![legacy_record(2.0), legacy_record(6.5)];
        let verdict = check_lines(&lines, false).unwrap();
        assert!(verdict.contains("skipped"), "{verdict}");
    }

    #[test]
    fn smoke_scale_noise_is_not_gated() {
        // 50ms -> 90ms is an 80% "regression" — all noise at that scale.
        let lines = vec![record("a", 2, 0.05, 0.02), record("b", 2, 0.09, 0.04)];
        let verdict = check_lines(&lines, false).unwrap();
        assert!(verdict.contains("within 20%"), "{verdict}");
    }

    #[test]
    fn improvement_updates_the_baseline_chain() {
        let lines = vec![
            record("a", 2, 8.0, 2.0),
            record("b", 2, 5.0, 1.0),
            record("c", 2, 5.4, 1.1),
        ];
        // c compares against b (the most recent same-config record), not a:
        // 5.4s is within 20% of b's 5.0s but would also pass against a's 8.0s,
        // so pin the baseline choice by regressing against b while still
        // beating a.
        let verdict = check_lines(&lines, false).unwrap();
        assert!(verdict.contains("within 20%"), "{verdict}");
        let lines = vec![
            record("a", 2, 8.0, 2.0),
            record("b", 2, 5.0, 1.0),
            record("c", 2, 6.5, 1.1),
        ];
        let err = check_lines(&lines, false).unwrap_err();
        assert!(err.contains("5.000s -> 6.500s"), "{err}");
    }

    fn query_record(sha: &str, workers: usize, batch_secs: f64) -> String {
        format!(
            "{{\"experiment\": \"query_serving\", \"git_sha\": \"{sha}\", \"unix_time\": 1, \
             \"scale\": 1, \"iterations\": 5, \"seed\": 0, \"threads\": 1, \"shards\": 8, \
             \"workers\": {workers}, \"scenario\": \"none\", \
             \"streams\": [{{\"name\": \"RMAT\", \
             \"batch_total_secs\": {batch_secs:.6}, \"baseline_total_secs\": 4.5, \
             \"overhead_pct\": 3.0, \"classes\": [{{\"class\": \"neighbors\", \
             \"count\": 100, \"p50_us\": 3.0, \"p99_us\": 20.0, \"max_us\": 90.0}}]}}]}}"
        )
    }

    #[test]
    fn query_gate_compares_batch_totals() {
        let lines = vec![query_record("a", 4, 5.0), query_record("b", 4, 5.4)];
        let verdict = check_lines_with(&QUERY_GATE, &lines, false).unwrap();
        assert!(verdict.contains("within 20%"), "{verdict}");
        assert!(verdict.contains("churn batch total"), "{verdict}");
        let lines = vec![query_record("a", 4, 5.0), query_record("b", 4, 6.5)];
        let err = check_lines_with(&QUERY_GATE, &lines, false).unwrap_err();
        assert!(err.contains("RMAT"), "{err}");
        assert!(err.contains("5.000s -> 6.500s"), "{err}");
    }

    #[test]
    fn query_gate_keys_on_worker_count() {
        // Same timings, different worker count: not comparable.
        let lines = vec![query_record("a", 2, 5.0), query_record("b", 4, 6.5)];
        let verdict = check_lines_with(&QUERY_GATE, &lines, false).unwrap();
        assert!(verdict.contains("baseline established"), "{verdict}");
    }

    #[test]
    fn query_gate_ignores_class_objects() {
        // The nested `classes` array must not be mistaken for streams: exactly
        // one gated total, and it is the stream's.
        let record = query_record("a", 4, 5.0);
        let totals = stream_totals(&QUERY_GATE, &record);
        assert_eq!(totals, vec![("RMAT".to_string(), 5.0)]);
    }
}
