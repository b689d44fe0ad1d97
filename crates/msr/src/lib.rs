//! Model-specific register (MSR) access for the DUFP suite.
//!
//! The paper's tool drives two hardware knobs through MSRs on Skylake-SP:
//!
//! * the **uncore frequency** via `MSR_UNCORE_RATIO_LIMIT` (`0x620`), and
//! * the **RAPL package power limit** via `MSR_PKG_POWER_LIMIT` (`0x610`),
//!   with unit scaling factors from `MSR_RAPL_POWER_UNIT` (`0x606`) and the
//!   energy accumulators `MSR_PKG_ENERGY_STATUS` (`0x611`) /
//!   `MSR_DRAM_ENERGY_STATUS` (`0x619`).
//!
//! This crate provides:
//!
//! * [`registers`] — register addresses and **bit-exact** encode/decode for
//!   each register's fields (including RAPL's `2^y · (1 + z/4)` time-window
//!   encoding),
//! * [`io`] — the [`io::MsrIo`] backend trait, an in-memory fake with
//!   failure injection for tests and the simulator,
//! * [`fault`] — seeded, declarative [`fault::FaultPlan`]s for reproducible
//!   chaos runs against the fake backends, and
//! * [`linux`] — the real `/dev/cpu/N/msr` backend (Linux only).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod io;
#[cfg(target_os = "linux")]
pub mod linux;
pub mod registers;

pub use fault::{FaultInjector, FaultOp, FaultPlan, FaultRule, FaultWhen, InjectorSnapshot};
pub use io::{FakeMsr, MsrIo};
pub use registers::IA32_PERF_CTL;
pub use registers::{
    PerfCtl, PkgPowerLimit, PowerLimit, RaplPowerUnit, UncoreRatioLimit, MSR_DRAM_ENERGY_STATUS,
    MSR_DRAM_POWER_LIMIT, MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_INFO, MSR_PKG_POWER_LIMIT,
    MSR_PLATFORM_INFO, MSR_RAPL_POWER_UNIT, MSR_UNCORE_RATIO_LIMIT,
};
