//! Timing at a fixed host speed. The shared host this benchmark was
//! written on changes speed by up to a factor of two within minutes, far
//! more than the changes the benchmark must detect, and neither longer runs
//! nor medians remove a slow phase that lasts a whole run. So every timed
//! sample is bracketed by samples of a fixed reference kernel, and its rate
//! is scaled to the rate it would have had with the kernel running at
//! [`NOMINAL_STEPS_PER_S`]. The measured rates are reported beside the
//! scaled ones.

use crate::stats::{median, Report};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel steps per second that scaled metrics are expressed at:
/// about the kernel's rate on a 2.0 GHz Sapphire Rapids Xeon vCPU.
pub const NOMINAL_STEPS_PER_S: f64 = 2.0e6;

/// Reference-kernel steps per sample: about 8 ms.
const STEPS: u64 = 1 << 14;

/// 128 KiB of table: resident in L2.
const TABLE: usize = 1 << 14;

/// A set of timed samples, each bracketed by reference-kernel samples.
pub struct Timed {
    table: Vec<u64>,
    /// Reference rate (steps per second) before each sample and after the
    /// last.
    reference: Vec<f64>,
    /// Operations and seconds of each sample.
    samples: Vec<(u64, f64)>,
}

impl Timed {
    /// Starts a set with one reference sample.
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let table = (0..TABLE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut timed = Timed {
            table,
            reference: Vec::new(),
            samples: Vec::new(),
        };
        timed.reference_sample();
        timed
    }

    fn reference_sample(&mut self) {
        let t = Instant::now();
        black_box(kernel(black_box(&self.table), black_box(STEPS)));
        self.reference
            .push(STEPS as f64 / t.elapsed().as_secs_f64());
    }

    /// Whether the set has no sample yet or `deadline` is still ahead.
    pub fn before(&self, deadline: Instant) -> bool {
        self.samples.is_empty() || Instant::now() < deadline
    }

    /// Times one sample; `work` returns its operation count beside its
    /// output.
    pub fn sample<T>(
        &mut self,
        work: impl FnOnce() -> Result<(u64, T), String>,
    ) -> Result<T, String> {
        let t = Instant::now();
        let (ops, out) = work()?;
        self.samples.push((ops, t.elapsed().as_secs_f64()));
        self.reference_sample();
        Ok(out)
    }

    pub fn ops(&self) -> u64 {
        self.samples.iter().map(|s| s.0).sum()
    }

    /// Each sample's measured rate, in operations per second.
    pub fn raw_rates(&self) -> Vec<f64> {
        self.samples.iter().map(|&(n, s)| n as f64 / s).collect()
    }

    /// Each sample's rate at the nominal host speed: its measured rate
    /// over the host's speed then, taken as the mean of the two reference
    /// samples around it.
    pub fn rates(&self) -> Vec<f64> {
        self.raw_rates()
            .iter()
            .zip(self.reference.windows(2))
            .map(|(r, w)| r * 2.0 * NOMINAL_STEPS_PER_S / (w[0] + w[1]))
            .collect()
    }

    /// The host's median speed over the set, as a share of nominal.
    pub fn host_speed(&self) -> f64 {
        median(&self.reference) / NOMINAL_STEPS_PER_S
    }
}

/// The reference kernel. Each step makes 32 dependent loads from an
/// L2-resident table, with integer mixing and a floating-point update; then
/// it formats a float and parses it back, inserts into a hash map and, every
/// fourth step, allocates a small vector into a B-tree map. A busy host
/// slowed the workloads up to twice as much as the table loop alone (in
/// log terms); the library work brings the kernel closer to them. It is the
/// benchmark's own code, with a fixed hasher and fixed inputs, so no change
/// to the repository moves its speed.
fn kernel(table: &[u64], steps: u64) -> u64 {
    let mask = table.len() - 1;
    let mut text = String::new();
    let mut map: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut tree = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut f = 1.0f64;
    let mut acc = 0u64;
    for i in 0..steps {
        for _ in 0..32 {
            let v = table[x as usize & mask];
            x = (x ^ v).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
            f = f * 0.999_999_9 + (v >> 11) as f64 * 1e-17;
        }
        text.clear();
        let _ = write!(text, "{:.9e}", (x >> 11) as f64 * 1.1e-7);
        let g: f64 = text.parse().unwrap_or(0.0);
        map.insert(x & 0xFFFF, g);
        if map.len() > 2048 {
            map.clear();
        }
        if i % 4 == 0 {
            let v: Vec<f64> = (0..8 + (x % 56) as usize).map(|k| g * k as f64).collect();
            tree.insert(x % 1024, v);
            if tree.len() > 256 {
                tree.clear();
            }
        }
        acc = acc.wrapping_add(g.to_bits()) ^ (map.len() + tree.len()) as u64;
    }
    acc ^ x ^ f.to_bits()
}

/// Each set-up sample repeats the set-up until this long has passed, so a
/// set-up of a few microseconds is still timed over milliseconds.
const SETUP_SAMPLE_S: f64 = 0.005;

/// Takes `samples` samples of a cold set-up and reports `setup_s`, the
/// median time per set-up at the nominal host speed, beside the measured
/// median `raw.setup_s`. Returns the last set-up's result.
pub fn timed_setups<T>(
    samples: usize,
    report: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut timed = Timed::new();
    let mut last = None;
    for _ in 0..samples.max(1) {
        timed.sample(|| {
            let t = Instant::now();
            let mut n = 0u64;
            while n == 0 || t.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
                last = Some(setup()?);
                n += 1;
            }
            Ok((n, ()))
        })?;
    }
    report.metric("setup_s", 1.0 / median(&timed.rates()), "s");
    report.detail("raw.setup_s", 1.0 / median(&timed.raw_rates()), "s");
    Ok(last.expect("at least one set-up"))
}

/// Reports a timed section: `ops_per_s`, the median sample's rate at the
/// nominal host speed, beside the measured median `raw.ops_per_s` and the
/// host's speed.
pub fn report_section(timed: &Timed, report: &mut Report) {
    let timed_s: f64 = timed.samples.iter().map(|s| s.1).sum();
    report.attempt(timed.ops());
    report.context("ops", timed.ops());
    report.context("timed_s", format!("{timed_s:.3}"));
    report.context("timed_samples", timed.samples.len());
    report.context("host_speed", format!("{:.3}", timed.host_speed()));
    report.metric("ops_per_s", median(&timed.rates()), "1/s");
    report.detail("raw.ops_per_s", median(&timed.raw_rates()), "1/s");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_scale_by_the_reference_samples_around_them() {
        let n = NOMINAL_STEPS_PER_S;
        let timed = Timed {
            table: Vec::new(),
            reference: vec![n, n / 2.0, n / 2.0],
            samples: vec![(30, 2.0), (10, 2.0)],
        };
        assert_eq!(timed.raw_rates(), [15.0, 5.0]);
        assert_eq!(timed.rates(), [20.0, 10.0]);
        assert_eq!(timed.host_speed(), 0.5);
    }
}
