//! Timing samples and the run report.

use std::time::Instant;

/// Nanoseconds since `t`, saturating into `u64`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank percentile of unsorted samples (`q` in `[0, 1]`).
pub fn percentile(samples: &[u64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, q)
}

fn percentile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of floating-point values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Percent share `part / whole`.
pub fn pct(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

/// One run's output: context lines, metrics, and the op tally behind the
/// `attempted`/`failed` counts. `metrics` are the ones `BENCHMARK.json`
/// lists and the final JSON line carries; `details` are workload-specific
/// results printed beside them.
#[derive(Debug, Default)]
pub struct Report {
    pub context: Vec<(String, String)>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub details: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push((name.into(), value, unit));
    }

    /// Median and p99 of a sample set, recording its size as context.
    pub fn p50_p99(&mut self, name: &str, samples: &[u64], scale: f64, unit: &'static str) {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        self.metric(
            format!("{name}.p50"),
            percentile_sorted(&sorted, 0.5) * scale,
            unit,
        );
        self.metric(
            format!("{name}.p99"),
            percentile_sorted(&sorted, 0.99) * scale,
            unit,
        );
        self.context(format!("{name}.samples"), sorted.len());
    }

    pub fn context(&mut self, name: impl Into<String>, value: impl std::fmt::Display) {
        self.context.push((name.into(), value.to_string()));
    }

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one attempted check, failing it with `why` when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.5), 500.0);
        assert_eq!(percentile(&s, 0.99), 990.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
