//! Runs one benchmark and writes `BENCH_<name>.json` in the current
//! directory (see `dufp_bench::bench` for the shared envelope and gates).
//!
//! Usage: `bench <sweep|scenario|chaos|failover|control_plane>`

use dufp_bench::cli::{exit_usage, parse_bench, BENCH_USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = parse_bench(&args).unwrap_or_else(|e| exit_usage("bench", &e, BENCH_USAGE));
    if let Err(e) = bench.run() {
        eprintln!("bench {}: {e}", bench.name());
        std::process::exit(1);
    }
}
