//! The command lines of `all_experiments` and `bench`. Both parsers reject
//! an unknown flag or a malformed value with a message (values are read
//! through [`dufp_types::argv`]); the binaries print it with their usage
//! line and exit with status 2.

use crate::bench::Bench;
use dufp_types::argv::Args;

/// `all_experiments`'s usage line.
pub const EXPERIMENTS_USAGE: &str =
    "usage: all_experiments [--runs N] [--sockets N] [--seed S] [--out PATH] [--csv DIR]";

/// `bench`'s usage line.
pub const BENCH_USAGE: &str =
    "usage: bench <sweep|scenario|chaos|failover|control_plane> (writes BENCH_<name>.json)";

/// What `all_experiments` regenerates, and where it writes it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentsArgs {
    /// Runs per Fig. 3–4 configuration (the paper's protocol: 10).
    pub runs: usize,
    /// Sockets per simulated node for Figs. 1, 3, 4 and 5 (YETI: 4).
    pub sockets: u16,
    /// Base seed of every run, the extension studies included.
    pub seed: u64,
    /// Where the markdown record goes.
    pub out: String,
    /// Directory for the Fig. 5 frequency traces as CSV, if wanted.
    pub csv: Option<String>,
}

impl Default for ExperimentsArgs {
    fn default() -> Self {
        ExperimentsArgs {
            runs: 10,
            sockets: 4,
            seed: 42,
            out: "EXPERIMENTS.md".into(),
            csv: None,
        }
    }
}

/// Parses `all_experiments`'s arguments (without the program name).
pub fn parse_experiments(argv: &[String]) -> Result<ExperimentsArgs, String> {
    let mut parsed = ExperimentsArgs::default();
    let mut args = Args::new(argv);
    while let Some(flag) = args.next() {
        match flag {
            "--runs" => parsed.runs = args.positive(flag)?,
            "--sockets" => parsed.sockets = args.positive(flag)?,
            "--seed" => parsed.seed = args.number(flag)?,
            "--out" => parsed.out = args.value(flag)?.into(),
            "--csv" => parsed.csv = Some(args.value(flag)?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Parses `bench`'s arguments (without the program name): exactly one
/// bench name.
pub fn parse_bench(args: &[String]) -> Result<Bench, String> {
    match args {
        [name] => Bench::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| format!("unknown bench {name}")),
        [] => Err("missing bench name".into()),
        [_, extra, ..] => Err(format!("unexpected argument {extra}")),
    }
}

/// Prints `msg` and `usage` to stderr and exits with status 2.
pub fn exit_usage(program: &str, msg: &str, usage: &str) -> ! {
    eprintln!("{program}: {msg}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn experiments_defaults_are_the_papers_protocol() {
        let parsed = parse_experiments(&[]).unwrap();
        assert_eq!(parsed, ExperimentsArgs::default());
        assert_eq!((parsed.runs, parsed.sockets, parsed.seed), (10, 4, 42));
    }

    #[test]
    fn experiments_flags_parse() {
        let parsed = parse_experiments(&args(&[
            "--runs",
            "2",
            "--sockets",
            "1",
            "--seed",
            "7",
            "--out",
            "x.md",
            "--csv",
            "out",
        ]))
        .unwrap();
        assert_eq!(
            parsed,
            ExperimentsArgs {
                runs: 2,
                sockets: 1,
                seed: 7,
                out: "x.md".into(),
                csv: Some("out".into()),
            }
        );
    }

    #[test]
    fn experiments_bad_arguments_are_errors_not_panics() {
        let err = |v: &[&str]| parse_experiments(&args(v)).unwrap_err();
        assert!(err(&["--budget", "400"]).contains("unknown argument --budget"));
        assert!(err(&["--runs"]).contains("--runs needs a value"));
        assert!(err(&["--runs", "ten"]).contains("--runs: bad value ten"));
        assert!(err(&["--runs", "0"]).contains("at least 1"));
        assert!(err(&["--sockets", "-1"]).contains("bad value"));
        assert!(err(&["--seed", "1.5"]).contains("bad value"));
    }

    #[test]
    fn bench_takes_exactly_one_known_name() {
        for b in Bench::ALL {
            assert_eq!(parse_bench(&args(&[b.name()])), Ok(b));
        }
        assert!(parse_bench(&[]).unwrap_err().contains("missing"));
        assert!(parse_bench(&args(&["fig5"]))
            .unwrap_err()
            .contains("unknown bench fig5"));
        assert!(parse_bench(&args(&["sweep", "--out"]))
            .unwrap_err()
            .contains("unexpected argument --out"));
    }
}
