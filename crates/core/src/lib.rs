//! # DUFP — Dynamic Uncore Frequency scaling and Power capping
//!
//! A reproduction of *"Combining Uncore Frequency and Dynamic Power Capping
//! to Improve Power Savings"* (Guermouche, IPDPSW 2022): the DUFP runtime
//! controller, its DUF baseline, the measurement framework, the hardware
//! access layers (MSR, RAPL/powercap) and a calibrated Skylake-SP socket
//! simulator that stands in for the paper's Grid'5000 YETI testbed.
//!
//! ## Quick start
//!
//! ```
//! use dufp::prelude::*;
//!
//! // CG under DUFP at 10 % tolerated slowdown, on the simulated YETI node.
//! let spec = ExperimentSpec {
//!     sim: SimConfig::yeti_single_socket(1),
//!     app: "CG".into(),
//!     controller: ControllerKind::Dufp {
//!         slowdown: Ratio::from_percent(10.0),
//!     },
//!     trace: None,
//!     interval_ms: None, telemetry: false, // the paper's 200 ms
//!     fault_plan: None,
//!     engine: Engine::default(), // memoized fast path; `Tick` = legacy oracle
//! };
//! let result = run_once(&spec, 1).unwrap();
//! assert!(result.exec_time.value() > 0.0);
//! println!(
//!     "CG/DUFP@10%: {:.1}s, {:.1} W package",
//!     result.exec_time.value(),
//!     result.avg_pkg_power.value()
//! );
//! ```
//!
//! ## Layers
//!
//! * [`dufp_types`] — units, ids, the Table I architecture description.
//! * [`dufp_msr`] — MSR codecs and backends (simulator or `/dev/cpu/N/msr`).
//! * [`dufp_rapl`] — powercap-style RAPL zones over MSR or sysfs.
//! * [`dufp_counters`] — the PAPI-like sampling layer.
//! * [`dufp_model`] — the analytic power/performance models.
//! * [`dufp_sim`] — the discrete-time socket simulator.
//! * [`dufp_workloads`] — phase-graph models of the paper's applications.
//! * [`dufp_control`] — the DUF and DUFP controllers.
//! * [`runner`] / [`stats`] / [`compare`] (this crate) — experiments,
//!   trimmed statistics and paper-style ratio reporting; [`SocketLoop`]
//!   is the one way a controller drives a simulated socket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod compare;
pub mod journal;
pub mod runner;
pub mod socket_loop;
pub mod stats;
pub mod sweep;
pub mod watchdog;

pub use capture::{record_trace, record_workload};
pub use compare::{ratios_vs_default, Ratios};
pub use journal::{
    resume, run_journaled, summarize, CheckpointState, JournalOptions, JournalRecord,
    JournalSummary, RunMeta, SocketRegs,
};
pub use runner::{
    run_once, run_repeated, ControllerKind, Engine, ExperimentSpec, RunResult, TraceSpec,
};
pub use socket_loop::SocketLoop;
pub use stats::{summarize_runs, trimmed, RepeatedResult, Summary};
pub use sweep::{parse_grid, policy_kind, run_sweep, SweepGrid, SweepJob, SweepOutput, SweepRow};
pub use watchdog::{Watchdog, WatchdogTrip};

/// One-stop imports for examples and tools.
pub mod prelude {
    pub use crate::compare::{ratios_vs_default, Ratios};
    pub use crate::runner::{
        run_once, run_repeated, ControllerKind, Engine, ExperimentSpec, RunResult, TraceSpec,
    };
    pub use crate::socket_loop::SocketLoop;
    pub use crate::stats::{trimmed, RepeatedResult, Summary};
    pub use dufp_control::{ControlConfig, Controller, Duf, Dufp};
    pub use dufp_counters::{IntervalMetrics, Sampler, Telemetry};
    pub use dufp_sim::{Machine, SimConfig};
    pub use dufp_types::{
        ArchSpec, Duration, Hertz, Instant, Joules, Ratio, Seconds, SocketId, Watts,
    };
    pub use dufp_workloads::{apps, MaterializeCtx, Workload};
}
