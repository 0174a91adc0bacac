//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each public call
//! into a layer.  Under such a span, the durations the library already reports
//! (`StageProfile`, `BatchReport`, …) are recorded as synthesized child spans,
//! so a layer's self time is its span's duration minus its children's.  When
//! the tracer is off, [`Tracer::span`] only runs the closure: no clock is read
//! and nothing is stored.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `slugger.plan`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Wall time covered by the span.
    pub duration: Duration,
}

/// The span and count recorder of one traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            duration: Duration::ZERO,
        });
        self.open.push(index);
        let start = Instant::now();
        let out = f(self);
        self.spans[index].duration = start.elapsed();
        self.open.pop();
        out
    }

    /// Records a duration the library reported as a child of the innermost
    /// open span.
    pub fn child(&mut self, name: &'static str, duration: Duration) {
        if self.on {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                duration,
            });
        }
    }

    /// Adds `value` to the count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    /// Sets the count `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.insert(name, value);
        }
    }

    /// The count `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration.as_secs_f64())
            .sum()
    }

    /// Summed self time of the spans named `name`: each span's duration minus
    /// the part its children cover, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == name {
                total += span.duration.as_secs_f64() - self.children_s(i);
            }
        }
        total
    }

    /// Number of spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of the direct children of span `index`, in seconds.
    pub fn children_s(&self, index: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.duration.as_secs_f64())
            .sum()
    }

    /// For every span named `name` that has children: how far its children's
    /// summed time is from its wall time, as a share of the wall time.
    pub fn reconcile(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .filter(|&i| self.spans.iter().any(|s| s.parent == Some(i)))
            .map(|i| {
                let wall = self.spans[i].duration.as_secs_f64();
                (wall - self.children_s(i)).abs() / wall.max(f64::MIN_POSITIVE)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            std::thread::sleep(Duration::from_millis(5));
            tr.child("inner", Duration::from_millis(2));
        });
        let outer = tr.total_s("outer");
        assert!(outer >= 0.005);
        assert!((tr.self_s("outer") - (outer - 0.002)).abs() < 1e-9);
        assert_eq!(tr.span_count("inner"), 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("outer", |tr| {
            tr.child("inner", Duration::from_millis(2));
            tr.count("n", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert_eq!(tr.span_count("outer") + tr.span_count("inner"), 0);
        assert_eq!(tr.get("n"), 0.0);
    }
}
