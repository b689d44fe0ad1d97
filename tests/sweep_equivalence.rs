//! Serial-equivalence property tests for the sweep engine.
//!
//! The determinism contract (`dufp::sweep` module docs) says the output
//! of a sweep is a pure function of its grid: `--jobs N` must produce the
//! same JSONL — byte for byte, same row order — as `--jobs 1`, for any
//! grid, seed set, worker count and fault plan. These tests state that
//! contract over randomized grids.

use dufp::{run_sweep, SweepGrid};
use proptest::prelude::*;

/// `rows` as the JSON Lines bytes every output writes.
fn jsonl<T: serde::Serialize>(rows: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    dufp_telemetry::write_jsonl(&mut out, rows).unwrap();
    out
}

/// Deterministically builds a small but varied grid from scalar knobs.
fn grid(seed: u64, npolicies: usize, slow_idx: usize, nseeds: usize, faults: bool) -> SweepGrid {
    let all_policies = ["dufp", "duf", "dnpc", "dufpf", "cap:100", "default"];
    let start = (seed as usize) % all_policies.len();
    let policies = (0..npolicies)
        .map(|i| all_policies[(start + i) % all_policies.len()].to_string())
        .collect();
    let slowdowns = [vec![5.0], vec![0.0, 10.0], vec![5.0, 20.0]];
    SweepGrid {
        apps: vec!["EP".into()],
        policies,
        slowdowns_pct: slowdowns[slow_idx].clone(),
        seeds: (seed..seed + nseeds as u64).collect(),
        sockets: 1,
        interval_ms: None,
        fault_plan: faults.then(|| format!("seed={seed};write,p=0.005")),
        machine: None,
        engine: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial(
        seed in 0u64..1_000,
        npolicies in 1usize..4,
        slow_idx in 0usize..3,
        nseeds in 1usize..3,
        jobs in 2usize..5,
        fault_sel in 0usize..2,
    ) {
        let g = grid(seed, npolicies, slow_idx, nseeds, fault_sel == 1);
        let serial = run_sweep(&g, 1).expect("serial sweep");
        let parallel = run_sweep(&g, jobs).expect("parallel sweep");

        prop_assert_eq!(serial.rows.len(), g.len());
        // Same rows, same order — not just the same multiset.
        prop_assert_eq!(&serial.rows, &parallel.rows);
        // And the serialized artifact is byte-identical.
        let a = jsonl(&serial.rows);
        let b = jsonl(&parallel.rows);
        prop_assert_eq!(a, b);
    }
}

/// The fixed pairing the paper's protocol depends on: re-running the same
/// grid (any worker count) reproduces the exact same bytes, so sweep
/// artifacts are diffable across machines and commits.
#[test]
fn repeated_runs_reproduce_the_same_artifact() {
    let g = grid(7, 3, 2, 2, true);
    let first = jsonl(&run_sweep(&g, 3).expect("run").rows);
    let second = jsonl(&run_sweep(&g, 2).expect("run").rows);
    assert!(!first.is_empty());
    assert_eq!(first, second);
}

/// Grid order is app-major: all rows of one application precede the next,
/// with the (policy, slowdown, seed) order repeating inside each block.
#[test]
fn multi_app_grids_merge_app_major() {
    let mut g = grid(3, 2, 0, 2, false);
    g.apps = vec!["EP".into(), "CG".into()];
    let out = run_sweep(&g, 4).expect("sweep");
    let per_app = g.len() / 2;
    assert!(out.rows[..per_app].iter().all(|r| r.app == "EP"));
    assert!(out.rows[per_app..].iter().all(|r| r.app == "CG"));
    let key = |r: &dufp::SweepRow| (r.policy.clone(), r.slowdown_pct.to_bits(), r.seed);
    let first: Vec<_> = out.rows[..per_app].iter().map(key).collect();
    let second: Vec<_> = out.rows[per_app..].iter().map(key).collect();
    assert_eq!(first, second);
}
