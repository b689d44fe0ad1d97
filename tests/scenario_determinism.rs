//! Cross-crate property tests for the datacenter scenario engine.
//!
//! The scorecard contract is stronger than "same numbers": the JSONL
//! emitted for a given (spec, seed, policy set) must be byte-identical
//! across reruns and across worker counts, because CI diffs the bytes
//! and the golden-trace tests pin serialized output. These properties
//! drive the engine with random seeds and budgets to make sure the
//! contract is not an artifact of one lucky seed.

use dufp_scenario::{run_one, run_rows, PolicyChoice, ScenarioSpec};
use proptest::prelude::*;

/// `rows` as the JSON Lines bytes every output writes.
fn jsonl<T: serde::Serialize>(rows: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    dufp_telemetry::write_jsonl(&mut out, rows).unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed, same bytes: rerunning the full policy set must
    /// reproduce the scorecard JSONL exactly, and the worker count must
    /// be invisible in the output.
    #[test]
    fn scorecard_bytes_are_a_pure_function_of_the_seed(seed in 0u64..1_000_000) {
        let spec = ScenarioSpec::mini();
        let first = jsonl(&run_rows(&spec, seed, &PolicyChoice::ALL, 1).unwrap());
        let rerun = jsonl(&run_rows(&spec, seed, &PolicyChoice::ALL, 1).unwrap());
        prop_assert_eq!(&first, &rerun, "serial rerun drifted");
        let wide = jsonl(&run_rows(&spec, seed, &PolicyChoice::ALL, 4).unwrap());
        prop_assert_eq!(&first, &wide, "worker count leaked into the scorecard");
    }

    /// Per-tenant attribution is exact every interval (the engine checks
    /// `Σ tenant energy == socket energy` bit-for-bit each physics step),
    /// and the cumulative per-tenant totals reassemble each node's energy
    /// to accumulation-order rounding.
    #[test]
    fn tenant_energy_reassembles_node_energy(
        seed in 0u64..1_000_000,
        policy_idx in 0usize..3,
    ) {
        let spec = ScenarioSpec::mini();
        let r = run_one(&spec, seed, PolicyChoice::ALL[policy_idx]).unwrap();
        prop_assert!(r.row.conservation_ok, "per-step attribution broke exactness");
        for node in &r.row.nodes {
            let tenant_sum: f64 = node.tenants.iter().map(|t| t.energy_j).sum();
            let scale = node.energy_j.abs().max(1.0);
            prop_assert!(
                (tenant_sum - node.energy_j).abs() <= 1e-9 * scale,
                "node {}: tenants sum to {} J but node reports {} J",
                node.node, tenant_sum, node.energy_j
            );
            prop_assert!(node.energy_j.is_finite() && node.energy_j > 0.0);
        }
    }

    /// Budgets may reshape the fleet's behavior but never its sanity:
    /// finite energy, SLO counts within bounds, and the capped policies
    /// never exceed the uncapped baseline's energy.
    #[test]
    fn random_budgets_keep_the_scorecard_sane(
        seed in 0u64..1_000_000,
        budget_w in 120.0f64..500.0,
    ) {
        let mut spec = ScenarioSpec::mini();
        spec.budget_w = budget_w;
        let rows = run_rows(&spec, seed, &PolicyChoice::ALL, 2).unwrap();
        prop_assert_eq!(rows.len(), 3);
        let baseline = rows.iter().find(|r| r.policy == "uncapped").unwrap();
        for row in &rows {
            prop_assert!(row.fleet_energy_j.is_finite() && row.fleet_energy_j > 0.0);
            prop_assert!(row.slo_violations <= row.slo_total);
            prop_assert!(row.conservation_ok);
            prop_assert!(
                row.fleet_energy_j <= baseline.fleet_energy_j * (1.0 + 1e-12),
                "{} burned more energy ({} J) than uncapped ({} J)",
                row.policy, row.fleet_energy_j, baseline.fleet_energy_j
            );
        }
    }
}

/// Distinct seeds must actually exercise distinct arrival schedules —
/// a collapsed RNG would make every property above pass vacuously.
#[test]
fn seeds_change_the_scorecard() {
    let spec = ScenarioSpec::mini();
    let a = jsonl(&run_rows(&spec, 7, &PolicyChoice::ALL, 1).unwrap());
    let b = jsonl(&run_rows(&spec, 8, &PolicyChoice::ALL, 1).unwrap());
    assert_ne!(a, b, "seed is not reaching the arrival model");
}
