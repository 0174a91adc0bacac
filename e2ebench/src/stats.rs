//! Order statistics and process measurements.

/// The `p`-quantile (0 ≤ p ≤ 1) of `values`, interpolating linearly between
/// the two nearest ranks.  0 for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly beyond the `p`-quantile of `n` samples — a percentile is
/// only reported when this is at least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (p * n as f64).ceil() as usize
}

/// Peak resident set size of this process (`VmHWM`) in MiB, 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed graph computation owned by the benchmark, not the library, so no
/// change to the library moves it: three pull-style rank sweeps and a BFS
/// over a skewed random CSR graph.  Its pass time measures how fast the
/// shared machine runs at the moment.
pub struct Reference {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    passes: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        const NODES: usize = 1 << 16;
        const EDGES: usize = 300_000;
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut edges: Vec<(u32, u32)> = (0..EDGES)
            .map(|_| {
                // Squaring a uniform draw skews both endpoints toward low ids.
                let u = (next() % NODES as u64) * (next() % NODES as u64) / NODES as u64;
                (u as u32, (next() % NODES as u64) as u32)
            })
            .collect();
        edges.sort_unstable();
        let mut offsets = vec![0u32; NODES + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..NODES {
            offsets[i + 1] += offsets[i];
        }
        let targets = edges.iter().map(|&(_, v)| v).collect();
        Reference {
            offsets,
            targets,
            passes: Vec::new(),
        }
    }
}

impl Reference {
    /// Times `n` passes.
    pub fn sample(&mut self, n: usize) {
        let nodes = self.offsets.len() - 1;
        for _ in 0..n {
            let start = std::time::Instant::now();
            let mut rank = vec![1.0f64 / nodes as f64; nodes];
            for _ in 0..3 {
                let next: Vec<f64> = (0..nodes)
                    .map(|u| {
                        let (a, b) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
                        0.15 / nodes as f64
                            + 0.85
                                * self.targets[a..b]
                                    .iter()
                                    .map(|&v| rank[v as usize])
                                    .sum::<f64>()
                                / (b - a).max(1) as f64
                    })
                    .collect();
                rank = next;
            }
            let mut seen = vec![false; nodes];
            let mut queue = std::collections::VecDeque::from([0u32]);
            seen[0] = true;
            while let Some(u) = queue.pop_front() {
                let (a, b) = (
                    self.offsets[u as usize] as usize,
                    self.offsets[u as usize + 1] as usize,
                );
                for &v in &self.targets[a..b] {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        queue.push_back(v);
                    }
                }
            }
            std::hint::black_box((rank, seen));
            self.passes.push(start.elapsed().as_secs_f64());
        }
    }

    /// Median pass time in ms.
    pub fn pass_ms(&self) -> f64 {
        median(&self.passes) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(20, 0.5), 10);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(12, 0.5), 6);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
