//! Calibrated models of the paper's ten applications.
//!
//! Phase structures follow the qualitative descriptions in the paper and the
//! public behaviour of the codes:
//!
//! * **CG** — a highly-memory-intensive prologue (`oi < 0.02`, ≈5 % of
//!   runtime, §II-A) followed by memory-bound conjugate-gradient iterations.
//! * **EP** — one long compute phase with almost no memory traffic; the
//!   uncore is pure overhead (DUF's best case, −24.27 % in Fig. 3b).
//! * **FT** — alternating transpose/FFT memory phases and compute phases.
//! * **MG** — memory-bound with *thin* compute headroom: any bandwidth or
//!   frequency loss shows up in runtime (why MG loses energy at 10–20 %).
//! * **LU** — mixed pipelined solver, moderately bandwidth-coupled; both
//!   DUF and DUFP pay a small uncore-induced overhead (§V-A).
//! * **BT**, **SP** — alternating compute sweeps and memory-bound RHS
//!   updates on a few-second period; frequent resets keep DUF from saving
//!   much, while DUFP's cap can still shave power (BT@20 %: 5.14 % vs
//!   0.64 %).
//! * **UA** — one short compute iteration followed by a several-second
//!   memory stretch; under a deep cap the compute iteration's FLOPS spike is
//!   flattened and phase detection misses it (the §V-A UA overshoot).
//! * **HPL** — highly compute-intensive (`oi > 100`) DGEMM panels with
//!   brief communication gaps; rides PL1 even at default.
//! * **LAMMPS** — force-computation phases interleaved with sub-interval
//!   (50 ms) neighbor-rebuild bursts: high power, few FLOPs, invisible at a
//!   200 ms sampling period (the §V-A LAMMPS overshoot).

use crate::spec::{repeat, Boundness, MaterializeCtx, PhaseSpec, Workload};
use dufp_types::Result;

fn mem(name: &str, secs: f64, oi: f64, headroom: f64, util: f64, overlap: f64) -> PhaseSpec {
    PhaseSpec {
        name: name.into(),
        seconds_at_default: secs,
        oi,
        boundness: Boundness::MemoryBound { headroom },
        core_util: util,
        overlap_penalty: overlap,
    }
}

fn cpu(name: &str, secs: f64, oi: f64, mem_frac: f64, util: f64, overlap: f64) -> PhaseSpec {
    PhaseSpec {
        name: name.into(),
        seconds_at_default: secs,
        oi,
        boundness: Boundness::ComputeBound { mem_frac },
        core_util: util,
        overlap_penalty: overlap,
    }
}

/// NPB CG, class D: highly-memory prologue then memory-bound iterations.
pub fn cg(ctx: &MaterializeCtx) -> Result<Workload> {
    let mut specs = vec![mem("makea_init", 2.0, 0.008, 2.0, 0.75, 0.0)];
    specs.extend(repeat(&[mem("conj_grad", 1.9, 0.10, 1.10, 0.72, 0.05)], 20));
    Workload::from_specs("CG", &specs, ctx)
}

/// NPB EP, class D: one long, essentially memory-free compute phase.
pub fn ep(ctx: &MaterializeCtx) -> Result<Workload> {
    Workload::from_specs(
        "EP",
        &[cpu("random_pairs", 30.0, 150.0, 0.01, 0.95, 0.0)],
        ctx,
    )
}

/// NPB FT, class D: alternating transpose (memory) and FFT (mixed) phases.
pub fn ft(ctx: &MaterializeCtx) -> Result<Workload> {
    let body = [
        mem("transpose", 2.6, 0.25, 1.4, 0.55, 0.05),
        cpu("fft_layers", 1.6, 1.6, 0.55, 0.80, 0.10),
    ];
    Workload::from_specs("FT", &repeat(&body, 9), ctx)
}

/// NPB MG, class D: memory-bound V-cycles with thin compute headroom.
pub fn mg(ctx: &MaterializeCtx) -> Result<Workload> {
    Workload::from_specs(
        "MG",
        &repeat(&[mem("v_cycle", 1.5, 0.12, 1.07, 0.55, 0.25)], 20),
        ctx,
    )
}

/// NPB LU, class D: pipelined SSOR sweeps, moderately bandwidth-coupled.
pub fn lu(ctx: &MaterializeCtx) -> Result<Workload> {
    Workload::from_specs(
        "LU",
        &repeat(&[cpu("ssor_sweep", 2.25, 1.8, 0.78, 0.85, 0.20)], 20),
        ctx,
    )
}

/// NPB BT, class D: compute sweeps alternating with memory-bound updates.
pub fn bt(ctx: &MaterializeCtx) -> Result<Workload> {
    let body = [
        cpu("xyz_solve", 2.2, 4.0, 0.50, 0.85, 0.10),
        mem("rhs_update", 0.8, 0.35, 1.25, 0.60, 0.05),
    ];
    Workload::from_specs("BT", &repeat(&body, 16), ctx)
}

/// NPB SP, class C: like BT but shorter phases and closer to memory.
pub fn sp(ctx: &MaterializeCtx) -> Result<Workload> {
    let body = [
        cpu("adi_sweep", 1.4, 2.5, 0.60, 0.80, 0.10),
        mem("rhs", 1.1, 0.30, 1.30, 0.55, 0.05),
    ];
    Workload::from_specs("SP", &repeat(&body, 14), ctx)
}

/// NPB UA, class D: one short compute iteration followed by a long memory
/// stretch; the compute spike is shorter than a couple of sampling periods.
pub fn ua(ctx: &MaterializeCtx) -> Result<Workload> {
    let body = [
        cpu("adapt_compute", 0.35, 6.0, 0.45, 0.90, 0.05),
        mem("residual_smooth", 2.1, 0.35, 1.20, 0.55, 0.05),
    ];
    Workload::from_specs("UA", &repeat(&body, 18), ctx)
}

/// HPL 2.3 (MKL): `oi > 100` DGEMM panels with brief mixed gaps.
pub fn hpl(ctx: &MaterializeCtx) -> Result<Workload> {
    let body = [
        cpu("dgemm_panel", 2.6, 140.0, 0.04, 1.00, 0.0),
        mem("panel_bcast", 0.4, 0.8, 1.5, 0.60, 0.10),
    ];
    Workload::from_specs("HPL", &repeat(&body, 20), ctx)
}

/// LAMMPS `in.lj`: force phases plus 50 ms high-power, low-FLOP
/// neighbor-rebuild bursts that a 200 ms sampler aliases away.
pub fn lammps(ctx: &MaterializeCtx) -> Result<Workload> {
    let body = [
        cpu("pair_force", 0.45, 15.0, 0.25, 0.75, 0.05),
        cpu("neighbor_rebuild", 0.05, 20.0, 0.22, 1.00, 0.0),
    ];
    Workload::from_specs("LAMMPS", &repeat(&body, 80), ctx)
}

/// STREAM-like triad kernel: pure bandwidth, the workload the
/// control-theory capping study the paper cites ([8], Cerf et al.) models
/// exactly. Useful as the extreme memory-bound reference point.
pub fn stream(ctx: &MaterializeCtx) -> Result<Workload> {
    Workload::from_specs("STREAM", &[mem("triad", 30.0, 0.06, 1.8, 0.45, 0.0)], ctx)
}

/// Blocked DGEMM kernel: pure compute, the extreme CPU-bound reference
/// point (an idealized HPL inner loop without panel communication).
pub fn dgemm(ctx: &MaterializeCtx) -> Result<Workload> {
    Workload::from_specs(
        "DGEMM",
        &[cpu("dgemm_kernel", 30.0, 200.0, 0.03, 1.0, 0.0)],
        ctx,
    )
}

/// Pointer-chase kernel: latency-bound — almost no FLOPs, little
/// bandwidth, fully serialized (worst case for every heuristic that keys
/// on FLOPS/s or bandwidth). The roofline vocabulary approximates latency
/// chains as a serial demand that consumes a small bandwidth share and
/// tracks clock speed weakly.
pub fn pointer_chase(ctx: &MaterializeCtx) -> Result<Workload> {
    Workload::from_specs(
        "CHASE",
        &[PhaseSpec {
            name: "chase".into(),
            seconds_at_default: 25.0,
            oi: 0.001,
            boundness: Boundness::ComputeBound { mem_frac: 0.08 },
            core_util: 0.25,
            overlap_penalty: 1.0,
        }],
        ctx,
    )
}

/// The paper's ten applications, in figure order.
pub const NAMES: [&str; 10] = [
    "BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "HPL", "LAMMPS",
];

/// All ten applications in the paper's figure order ([`NAMES`]).
pub fn all(ctx: &MaterializeCtx) -> Result<Vec<Workload>> {
    NAMES.iter().map(|name| by_name(name, ctx)).collect()
}

/// Looks an application up by its figure name (case-insensitive).
pub fn by_name(name: &str, ctx: &MaterializeCtx) -> Result<Workload> {
    match name.to_ascii_uppercase().as_str() {
        "BT" => bt(ctx),
        "CG" => cg(ctx),
        "EP" => ep(ctx),
        "FT" => ft(ctx),
        "LU" => lu(ctx),
        "MG" => mg(ctx),
        "SP" => sp(ctx),
        "UA" => ua(ctx),
        "HPL" => hpl(ctx),
        "LAMMPS" => lammps(ctx),
        "STREAM" => stream(ctx),
        "DGEMM" => dgemm(ctx),
        "CHASE" => pointer_chase(ctx),
        other => Err(dufp_types::Error::NoSuchComponent(format!(
            "application {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp_model::perf::PhaseKind;
    use dufp_model::RooflineModel;
    use dufp_types::ArchSpec;

    fn ctx() -> MaterializeCtx {
        MaterializeCtx::from_arch(&ArchSpec::yeti())
    }

    #[test]
    fn all_apps_build_and_have_paper_range_durations() {
        let c = ctx();
        for w in all(&c).unwrap() {
            let d = w.nominal_duration(&c).value();
            assert!(
                (20.0..=400.0).contains(&d),
                "{} lasts {d}s, outside the paper's [20, 400] range",
                w.name
            );
        }
    }

    #[test]
    fn cg_prologue_is_highly_memory_intensive() {
        let c = ctx();
        let w = cg(&c).unwrap();
        let oi = RooflineModel::intensity(&w.phases[0].rates);
        assert_eq!(PhaseKind::classify(oi), PhaseKind::HighlyMemoryIntensive);
        // Prologue ≈ 5 % of the run (paper §II-A).
        let frac = 2.0 / w.nominal_duration(&c).value();
        assert!((0.03..0.12).contains(&frac), "prologue fraction {frac}");
    }

    #[test]
    fn ep_and_hpl_are_highly_compute_intensive() {
        let c = ctx();
        for (w, main_idx) in [(ep(&c).unwrap(), 0), (hpl(&c).unwrap(), 0)] {
            let oi = RooflineModel::intensity(&w.phases[main_idx].rates);
            assert_eq!(
                PhaseKind::classify(oi),
                PhaseKind::HighlyComputeIntensive,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn memory_apps_classify_memory() {
        let c = ctx();
        for w in [cg(&c).unwrap(), mg(&c).unwrap()] {
            let main = w.phases.last().unwrap();
            let oi = RooflineModel::intensity(&main.rates);
            assert!(PhaseKind::classify(oi).is_memory(), "{}", w.name);
        }
    }

    #[test]
    fn lammps_rebuild_is_shorter_than_sampling_interval() {
        let c = ctx();
        let w = lammps(&c).unwrap();
        let m = RooflineModel { cores: c.cores };
        let rebuild = w
            .phases
            .iter()
            .find(|p| p.name == "neighbor_rebuild")
            .unwrap();
        let pr = m.progress(&rebuild.rates, c.core_freq_max, c.peak_bandwidth);
        let dur = rebuild.work_units / pr.units_per_sec;
        assert!(dur < 0.2, "rebuild lasts {dur}s, must alias under 200 ms");
    }

    #[test]
    fn ua_compute_iteration_is_short_memory_stretch_long() {
        let c = ctx();
        let w = ua(&c).unwrap();
        let m = RooflineModel { cores: c.cores };
        let dur = |p: &crate::spec::Phase| {
            let pr = m.progress(&p.rates, c.core_freq_max, c.peak_bandwidth);
            p.work_units / pr.units_per_sec
        };
        let compute = w.phases.iter().find(|p| p.name == "adapt_compute").unwrap();
        let memory = w
            .phases
            .iter()
            .find(|p| p.name == "residual_smooth")
            .unwrap();
        assert!(
            dur(compute) < 2.0 * 0.2 + 1e-9,
            "compute iter {}s",
            dur(compute)
        );
        assert!(dur(memory) > 5.0 * 0.2, "memory stretch {}s", dur(memory));
    }

    #[test]
    fn by_name_round_trips_and_rejects_unknown() {
        let c = ctx();
        for name in [
            "BT", "cg", "Ep", "FT", "LU", "MG", "SP", "UA", "HPL", "lammps", "stream", "DGEMM",
            "chase",
        ] {
            assert!(by_name(name, &c).is_ok(), "{name}");
        }
        assert!(by_name("NOT_AN_APP", &c).is_err());
    }

    #[test]
    fn reference_kernels_sit_at_the_roofline_extremes() {
        let c = ctx();
        let m = RooflineModel { cores: c.cores };
        // STREAM saturates bandwidth.
        let s = stream(&c).unwrap();
        let pr = m.progress(&s.phases[0].rates, c.core_freq_max, c.peak_bandwidth);
        assert!(pr.bandwidth.value() / c.peak_bandwidth.value() > 0.999);
        // DGEMM is highly compute-intensive with near-peak utilization.
        let d = dgemm(&c).unwrap();
        let oi = RooflineModel::intensity(&d.phases[0].rates);
        assert_eq!(PhaseKind::classify(oi), PhaseKind::HighlyComputeIntensive);
        // CHASE barely moves flops or bytes.
        let p = pointer_chase(&c).unwrap();
        let pr = m.progress(&p.phases[0].rates, c.core_freq_max, c.peak_bandwidth);
        assert!(pr.bandwidth.value() / c.peak_bandwidth.value() < 0.6);
        assert!(pr.flops.as_gflops() < 1.0);
    }

    #[test]
    fn app_order_matches_figures() {
        let c = ctx();
        let names: Vec<String> = all(&c).unwrap().into_iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            ["BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "HPL", "LAMMPS"]
        );
    }
}
