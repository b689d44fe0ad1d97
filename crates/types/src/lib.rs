//! Shared vocabulary types for the DUFP suite.
//!
//! This crate defines the strongly-typed physical units (frequency, power,
//! energy, throughput), hardware identifiers, architecture descriptions and
//! the common error type used by every other crate in the workspace.
//!
//! The design goal is that quantities with different dimensions can never be
//! confused: a [`units::Watts`] cannot be added to a [`units::Joules`], a
//! core frequency cannot be passed where an uncore ratio is expected, and so
//! on. All unit types are thin `f64` newtypes with `#[repr(transparent)]`,
//! so they are free at runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod argv;
pub mod check;
pub mod error;
pub mod ids;
pub mod shutdown;
pub mod splitmix;
pub mod time;
pub mod toml;
pub mod units;

pub use arch::ArchSpec;
pub use error::{Error, Result};
pub use ids::{CoreId, SocketId};
pub use time::{Duration, Instant};
pub use units::{BytesPerSec, FlopsPerSec, Hertz, Joules, OpIntensity, Ratio, Seconds, Watts};
