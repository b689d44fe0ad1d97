//! The paper's evaluation harness and the repo's benchmarks, behind two
//! binaries (plus the frozen `ledger` benchmark):
//!
//! | binary            | output |
//! |-------------------|--------|
//! | `all_experiments` | `EXPERIMENTS.md`: headline claims, Table I, Figs. 1–5, stability, slowdown respect, then the extension studies; `--csv DIR` also exports the Fig. 5 traces |
//! | `bench <name>`    | `BENCH_<name>.json` for `sweep`, `scenario`, `chaos`, `failover` or `control_plane`, in one envelope |
//!
//! Figs. 3–4 run on [`dufp::run_sweep`]; the extension studies (§III,
//! §V-A, §V-F, §V-G, §VI, §VII) are the [`studies`] and [`ablation`]
//! sections, CI-checked with the rest of `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod bench;
pub mod cli;
pub mod fig1;
pub mod fig2;
pub mod fig5;
pub mod paper;
pub mod report;
pub mod studies;

pub use paper::PaperClaim;
pub use report::{fmt_pct, markdown_table};
