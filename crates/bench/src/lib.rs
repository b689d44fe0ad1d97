//! Shared harness code for regenerating the paper's tables and figures.
//!
//! The paper's artifacts come from two binaries:
//!
//! | binary            | paper artifact |
//! |-------------------|----------------|
//! | `all_experiments` | `EXPERIMENTS.md`: headline claims, Table I, Figs. 1–4, the Fig. 5 averages, stability and slowdown respect |
//! | `fig5`            | Fig. 5 — CPU frequency traces, CG @ 10 % (`--csv` exports the raw traces) |
//!
//! Figs. 3–4 run on [`dufp::run_sweep`]; the other binaries are the
//! extension studies and benchmarks listed in the README.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig1;
pub mod fig2;
pub mod fig5;
pub mod paper;
pub mod report;

pub use paper::PaperClaim;
pub use report::{fmt_pct, markdown_table};
