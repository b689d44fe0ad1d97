//! Result statistics, matching the paper's protocol (§V): 10 runs per
//! experiment, drop the lowest and highest, average the remaining 8, and
//! report min/max error bars.

use serde::{Deserialize, Serialize};

/// Trimmed summary of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Mean of the values that survive trimming.
    pub mean: f64,
    /// Smallest observed value (error-bar low).
    pub min: f64,
    /// Largest observed value (error-bar high).
    pub max: f64,
    /// Number of values the mean was computed over.
    pub n: usize,
}

impl Summary {
    /// Peak-to-peak spread relative to the mean — the paper reports < 2 %
    /// for most configurations.
    pub fn relative_spread(&self) -> f64 {
        if self.mean != 0.0 {
            (self.max - self.min) / self.mean
        } else {
            0.0
        }
    }
}

/// Trims the lowest and highest value (when three or more samples exist)
/// and averages the rest.
pub fn trimmed(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no measurements");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let min = sorted[0];
    let max = *sorted.last().expect("non-empty");
    let kept: &[f64] = if sorted.len() >= 3 {
        &sorted[1..sorted.len() - 1]
    } else {
        &sorted
    };
    Summary {
        mean: kept.iter().sum::<f64>() / kept.len() as f64,
        min,
        max,
        n: kept.len(),
    }
}

/// Summaries of every reported quantity over a repeated experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepeatedResult {
    /// Wall-clock execution time, seconds.
    pub exec_time: Summary,
    /// Whole-node average package power, watts.
    pub pkg_power: Summary,
    /// Whole-node average DRAM power, watts.
    pub dram_power: Summary,
    /// Whole-node package + DRAM energy, joules.
    pub total_energy: Summary,
}

/// Summarizes repeated runs into a [`RepeatedResult`], [`trimmed`] per
/// quantity. Each run is given in field order: execution time (s), package
/// power (W), DRAM power (W), package + DRAM energy (J). Both
/// [`run_repeated`](crate::run_repeated) and sweeps summarized from
/// [`SweepRow::sample`](crate::SweepRow::sample) go through here.
pub fn summarize_runs(runs: impl IntoIterator<Item = [f64; 4]>) -> RepeatedResult {
    let mut columns: [Vec<f64>; 4] = Default::default();
    for run in runs {
        for (column, value) in columns.iter_mut().zip(run) {
            column.push(value);
        }
    }
    let [exec_time, pkg_power, dram_power, total_energy] = columns.map(|c| trimmed(&c));
    RepeatedResult {
        exec_time,
        pkg_power,
        dram_power,
        total_energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_runs_drop_best_and_worst() {
        // 10 values; the outliers 1.0 and 100.0 must not affect the mean.
        let mut v = vec![10.0; 8];
        v.push(1.0);
        v.push(100.0);
        let s = trimmed(&v);
        assert_eq!(s.mean, 10.0);
        assert_eq!(s.n, 8);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn small_samples_keep_everything() {
        let s = trimmed(&[2.0, 4.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.n, 2);
    }

    #[test]
    fn single_value() {
        let s = trimmed(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!((s.min, s.max, s.n), (5.0, 5.0, 1));
    }

    #[test]
    fn relative_spread() {
        let s = trimmed(&[98.0, 100.0, 102.0]);
        assert_eq!(s.mean, 100.0);
        assert!((s.relative_spread() - 0.04).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no measurements")]
    fn empty_input_panics() {
        trimmed(&[]);
    }
}
