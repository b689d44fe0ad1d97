//! RAPL power-capping access, in the object model of the `powercap`
//! library the paper uses (§IV-C: "power capping is performed by using the
//! power cap library").
//!
//! The powercap sysfs tree exposes, per package zone, an energy counter and
//! two constraints — `constraint_0` ("long_term", PL1) and `constraint_1`
//! ("short_term", PL2) — each with a power limit and a time window. This
//! crate reproduces that model over two backends:
//!
//! * [`msr::MsrRapl`] — direct `MSR_PKG_POWER_LIMIT` access through any
//!   [`dufp_msr::MsrIo`] (the simulator or `/dev/cpu/N/msr`),
//! * [`sysfs::SysfsRapl`] — the `/sys/class/powercap/intel-rapl:*` file
//!   tree (with a relocatable root so tests can run against fixtures).
//!
//! Energy counters are wrap-corrected: the 32-bit hardware accumulator
//! wraps every ≈35 minutes at 125 W, well within one application run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capper;
pub mod msr;
pub mod sysfs;

pub use capper::{Constraint, PowerCapper};
pub use msr::MsrRapl;
pub use sysfs::SysfsRapl;
