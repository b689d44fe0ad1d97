//! Implementation of the `dufp` command-line tool.
//!
//! The real DUFP is started as `dufp --slowdown 10 --sockets 0,1,2,3 --
//! <application>`; one controller instance then runs per socket until the
//! application exits. This crate reproduces that interface against the
//! simulator (the default) and exposes the same plumbing a real-hardware
//! deployment would use (`/dev/cpu/N/msr` + powercap sysfs backends).
//!
//! Subcommands:
//!
//! * `run` — run one of the modeled applications under a controller,
//! * `platform` — print the Table I description of the target platform,
//! * `apps` — list the modeled applications,
//! * `probe` — check real-hardware access paths (MSR device files,
//!   powercap sysfs) and report what a bare-metal deployment would use,
//! * `timeline` — run once with tracing and render the Fig. 5-style
//!   frequency/power/cap timelines as ASCII charts,
//! * `trace` — inspect a decision-trace JSONL file written by
//!   `run --trace-out` (per-reason summaries with `--summary`),
//! * `resume` — finish a crashed journaled run (`run --journal-dir`)
//!   from its write-ahead journal and last checkpoint,
//! * `journal` — inspect a journal directory: metadata, recorded
//!   intervals, checkpoints, completion status,
//! * `sweep` — expand a (application × policy × slowdown × seed) grid
//!   into independent experiments, run them on a work-stealing pool and
//!   write one JSON line per grid point in deterministic grid order,
//! * `coordinate` — serve a fleet power budget over TCP, running the
//!   cluster allocator over live agent demand reports,
//! * `agent` — run a simulated node under DUFP with its cap clamped to
//!   the coordinator's grants (safe local cap when unreachable),
//! * `chaos` — soak an in-process fleet against seeded network chaos
//!   and byzantine agents; emit a ranked resilience scorecard (JSONL),
//!   exiting nonzero on any conservation or floor violation,
//! * `scenario` — run a trace-driven datacenter scenario (diurnal load,
//!   co-tenant sockets, heterogeneous machine classes) under a global
//!   power budget and score each allocator policy against the uncapped
//!   baseline (energy saved vs. SLO violations, byte-identical per seed).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod plot;

pub use args::Command;

/// Entry point shared by the binary and the tests.
pub fn run(argv: &[String]) -> Result<String, String> {
    match Command::parse(argv)? {
        Command::Run(ref spec) => commands::run_app(spec),
        Command::Resume(ref cmd) => commands::resume(cmd),
        Command::Journal(ref cmd) => commands::journal(cmd),
        Command::Timeline(ref spec) => commands::timeline(spec),
        Command::Record(ref spec) => commands::record(spec),
        Command::Trace(ref cmd) => commands::trace(cmd),
        Command::Plan(ref spec) => commands::plan(spec),
        Command::Sweep(ref cmd) => commands::sweep(cmd),
        Command::Coordinate(ref cmd) => commands::coordinate(cmd),
        Command::Agent(ref cmd) => commands::agent(cmd),
        Command::Chaos(ref cmd) => commands::chaos(cmd),
        Command::Scenario(ref cmd) => commands::scenario(cmd),
        Command::MachineTemplate => Ok(commands::machine_template()),
        Command::Platform => Ok(commands::platform()),
        Command::Apps => Ok(commands::apps()),
        Command::Probe => Ok(commands::probe()),
        Command::Help => Ok(args::USAGE.to_string()),
    }
}
