//! Argument parsing for the `dufp` tool (hand-rolled; no external parser).

use dufp::{ControllerKind, Engine};
use dufp_journal::FsyncPolicy;
use dufp_types::{Ratio, Watts};

/// Usage text.
pub const USAGE: &str = "\
dufp — dynamic uncore frequency scaling and power capping

USAGE:
    dufp run <APP> [--controller default|duf|dufp|dufpf|dnpc|cap:<W>] [--slowdown PCT]
                   [--sockets N] [--runs N] [--seed S] [--json]
                   [--engine tick|event]
                   [--trace-out FILE.jsonl] [--fault-plan PLAN|FILE.json]
                   [--journal-dir DIR] [--fsync always|never|every:N]
                   <APP> is a modeled application (see `dufp apps`) or a
                   path to a workload spec file ending in .json
                   --trace-out records every controller decision (with its
                   reason code) as JSON Lines; requires --runs 1
                   --fault-plan injects seeded faults into the simulated
                   hardware (chaos run); PLAN is either a path to a JSON
                   fault plan or an inline rule list like
                   \"seed=42;write,reg=cap,p=0.01\"
                   --journal-dir makes the run crash-safe: every control
                   interval is appended to a write-ahead journal in DIR
                   and the control state is checkpointed periodically;
                   requires --runs 1. --fsync picks the durability policy
                   for journal appends (default every:8)
                   --engine selects the simulation stepping engine:
                   `event` (default) is the memoized fast path, `tick`
                   the legacy per-tick oracle. Both are bit-identical;
                   tick exists for differential testing and benchmarks
    dufp resume <DIR> [--json]
                             resume a crashed journaled run from its
                             journal directory and finish it
    dufp journal <DIR>       inspect a journal directory: metadata,
                             recorded intervals, checkpoints, completion
    dufp trace <FILE.jsonl> [--summary]
                             inspect a decision trace written by --trace-out;
                             --summary tallies events per reason code
    dufp timeline <APP> [--controller ...] [--slowdown PCT] [--seed S]
                             render frequency/power/cap timelines (Fig 5 style)
    dufp machine-template    print the default platform as editable JSON
                             (use with --machine FILE on run/timeline/plan)
    dufp record <APP> --out FILE.json [--seed S]
                             run once, capture the counter trace and emit a
                             workload spec reproducing its phase signature
    dufp plan <APP> [--runs N] [--seed S]
                             sweep DUFP tolerances and recommend the best
                             power-saving setting with no energy loss (§V-H)
    dufp sweep [--grid FILE.toml | --paper] [--jobs N] [--out FILE.jsonl]
               [--engine tick|event] [--json]
                             expand a (app × policy × slowdown × seed)
                             grid into independent experiments, run them
                             on a work-stealing pool of N workers (default
                             all cores) and write one JSON line per grid
                             point, in grid order. Output is byte-identical
                             for any --jobs value. --paper runs the paper
                             evaluation grid (4 policies × 5 slowdowns ×
                             8 seeds); --grid reads a TOML grid file
    dufp coordinate --listen ADDR --budget-w W
                    [--policy static|demand] [--epoch-ms N] [--max-epochs N]
                    [--journal-dir DIR] [--standby-of ADDR]
                    [--successor ADDR] [--json] [--trace-out FILE.jsonl]
                             serve a fleet power budget over TCP: run the
                             allocator each epoch over live agent demand
                             reports, reclaim dead agents' watts (heartbeat
                             timeout = 1.5 epochs), and push budget grants.
                             Runs until every agent that joined has left,
                             --max-epochs is reached, or Ctrl-C.
                             --journal-dir journals every fleet input with
                             periodic checkpoints; a restart (or a warm
                             standby sharing DIR) rebuilds the fleet state
                             byte-identically and takes over at a higher
                             coordination term, fencing the old primary.
                             --standby-of ADDR waits probing the primary
                             and binds only after it goes silent (requires
                             --journal-dir). --successor ADDR hands agents
                             to ADDR on clean shutdown (Handover frame)
    dufp agent --connect ADDR[,ADDR...] --node NAME [--app APP[,APP...]]
               [--slowdown PCT] [--seed S] [--safe-cap W] [--pace-ms N]
               [--max-intervals N] [--json] [--trace-out FILE.jsonl]
                             run a simulated node under DUFP with its power
                             cap clamped to the coordinator's grants; falls
                             back to --safe-cap (and keeps running) when
                             the coordinator is unreachable. Extra
                             --connect addresses are standby coordinators
                             tried in order on reconnect (patient backoff)
    dufp chaos [--seed S] [--agents N] [--epochs N] [--budget-w W]
               [--scenario NAME] [--net-fault-plan PLAN|FILE.json]
               [--fault-plan PLAN|FILE.json] [--out FILE.jsonl] [--json]
                             run the deterministic adversarial fleet soak:
                             each scenario drives an in-process fleet
                             through seeded network chaos (drops, delays,
                             corruption, partitions, kills) and byzantine
                             agents (lying demand, replays, overdraw),
                             verifies budget conservation, honest-agent
                             floors and quarantine/reclaim latency, and
                             emits a ranked resilience scorecard (one JSON
                             line per scenario; byte-identical per seed).
                             Exits nonzero if any scenario breaks
                             conservation or floors. --scenario runs one
                             scenario instead of the matrix;
                             --net-fault-plan merges extra network-fault
                             rules into every scenario; --fault-plan adds
                             seeded MSR/actuation faults on the agents
    dufp scenario [--spec FILE.toml] [--seed S] [--policies LIST] [--jobs N]
                  [--out FILE.jsonl] [--trace-out FILE.jsonl] [--json]
                  [--print-example]
                             run a trace-driven datacenter scenario: a
                             heterogeneous fleet of co-tenant nodes under
                             a diurnal/bursty arrival model and a global
                             power budget. Each requested policy (default
                             uncapped,static-split,demand-based) is scored
                             against the uncapped baseline into one JSON
                             line: fleet energy saved vs. SLO violations.
                             Output is a pure function of --seed and is
                             byte-identical for any --jobs value. Without
                             --spec the built-in example scenario runs;
                             --print-example prints that spec as TOML.
                             --trace-out records the first policy's
                             decision trace (intensity shifts, SLO
                             violations, budget grants) as JSON Lines.
                             Exits nonzero if any run breaks per-tenant
                             energy conservation
    dufp platform            print the target platform (Table I)
    dufp apps                list the modeled applications
    dufp probe               check real-hardware access paths
    dufp help                show this text

EXAMPLES:
    dufp run CG --controller dufp --slowdown 10
    dufp run EP --controller duf --slowdown 5 --runs 10 --json
    dufp run HPL --controller cap:100
    dufp run CG --trace-out /tmp/cg.jsonl && dufp trace /tmp/cg.jsonl --summary
    dufp run CG --fault-plan \"seed=7;write,reg=cap,p=0.01\" --trace-out /tmp/chaos.jsonl
    dufp run CG --journal-dir /tmp/cg-journal && dufp journal /tmp/cg-journal
    dufp resume /tmp/cg-journal
    dufp coordinate --listen 127.0.0.1:7070 --budget-w 300 --max-epochs 60 &
    dufp agent --connect 127.0.0.1:7070 --node n0 --app HPL --pace-ms 5
    dufp sweep --paper --jobs 8 --out results.jsonl
    dufp sweep --grid grid.toml --jobs 2 --json
    dufp chaos --seed 42 --out scorecard.jsonl
    dufp chaos --scenario byzantine-minority --json
    dufp chaos --net-fault-plan \"drop,p=0.1;byz-nan,peer=0\" --epochs 60
    dufp scenario --print-example > day.toml
    dufp scenario --spec day.toml --seed 7 --out rows.jsonl
    dufp scenario --seed 3 --policies demand-based --json
";

/// A parsed `run` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Application name (BT, CG, ..., HPL, LAMMPS).
    pub app: String,
    /// The controller, with `--slowdown` folded in; `--controller` names
    /// it in the sweep grid's `policies` grammar ([`dufp::policy_kind`]).
    pub controller: ControllerKind,
    /// Number of sockets to simulate.
    pub sockets: u16,
    /// Repetitions (1 = single run, no statistics).
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Emit machine-readable JSON instead of a human summary.
    pub json: bool,
    /// Optional path to a machine description (serialized `SimConfig`).
    pub machine: Option<String>,
    /// Optional JSONL output path for the decision trace (enables
    /// telemetry for the run).
    pub trace_out: Option<String>,
    /// Optional fault plan: a path to a JSON plan file or an inline DSL
    /// string (see `dufp_msr::FaultPlan::parse`). Enables telemetry so the
    /// resilience events land in the decision trace.
    pub fault_plan: Option<String>,
    /// Optional journal directory: makes the run crash-safe (write-ahead
    /// journal + periodic checkpoints, resumable with `dufp resume`).
    pub journal_dir: Option<String>,
    /// Fsync policy for journal appends (`always`, `never`, `every:N`).
    pub fsync: Option<FsyncPolicy>,
    /// Simulation stepping engine.
    pub engine: Engine,
}

fn parse_fsync(v: &str) -> Result<FsyncPolicy, String> {
    match v {
        "always" => Ok(FsyncPolicy::Always),
        "never" => Ok(FsyncPolicy::Never),
        other => {
            let n = other
                .strip_prefix("every:")
                .ok_or_else(|| format!("bad fsync policy {other} (always|never|every:N)"))?;
            let n: u32 = n.parse().map_err(|_| format!("bad fsync interval {n}"))?;
            if n == 0 {
                return Err("fsync every:0 makes no sense; use never".into());
            }
            Ok(FsyncPolicy::EveryN(n))
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The selected subcommand.
    pub command: Command,
}

/// A parsed `record` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSpec {
    /// Application (model name or .json spec path) to record.
    pub app: String,
    /// Output path for the captured workload file.
    pub out: String,
    /// RNG seed.
    pub seed: u64,
}

/// A parsed `trace` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCmd {
    /// Path to a decision-trace JSONL file (from `run --trace-out`).
    pub file: String,
    /// Tally events per reason instead of listing them.
    pub summary: bool,
}

/// A parsed `resume` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeCmd {
    /// Journal directory of the crashed run.
    pub dir: String,
    /// Emit machine-readable JSON instead of a human summary.
    pub json: bool,
}

/// A parsed `journal` (inspection) invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalCmd {
    /// Journal directory to inspect.
    pub dir: String,
}

/// A parsed `coordinate` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinateCmd {
    /// Listen address (`host:port`; `:0` picks a free port).
    pub listen: String,
    /// Global fleet power budget.
    pub budget: Watts,
    /// `static` (even split) or `demand` (demand-based reallocation).
    pub demand_based: bool,
    /// Allocator epoch length in milliseconds.
    pub epoch_ms: u64,
    /// Stop after this many epochs (None = until the fleet drains).
    pub max_epochs: Option<u64>,
    /// Emit machine-readable JSON instead of a human summary.
    pub json: bool,
    /// Optional JSONL output path for the grant/reclaim decision trace.
    pub trace_out: Option<String>,
    /// Journal fleet inputs to this directory (checkpoint+replay
    /// recovery; shared with a warm standby for failover).
    pub journal_dir: Option<String>,
    /// Run as a warm standby: probe this primary address and bind only
    /// after it goes silent. Requires `journal_dir`.
    pub standby_of: Option<String>,
    /// Successor address handed to agents on clean shutdown.
    pub successor: Option<String>,
}

/// A parsed `agent` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentCmd {
    /// Coordinator address (first entry of `--connect`).
    pub connect: String,
    /// Standby coordinator addresses tried in order on reconnect.
    pub standbys: Vec<String>,
    /// Node name announced in the Hello frame.
    pub node: String,
    /// Applications to run back to back.
    pub apps: Vec<String>,
    /// Tolerated slowdown for the node-local DUFP.
    pub slowdown: Ratio,
    /// RNG seed for the simulated node.
    pub seed: u64,
    /// Safe local static cap enforced while unconnected or degraded.
    pub safe_cap: Watts,
    /// Wall-clock pause per 200 ms control interval, in milliseconds.
    pub pace_ms: u64,
    /// Stop after this many control intervals even with work left.
    pub max_intervals: Option<u64>,
    /// Emit machine-readable JSON instead of a human summary.
    pub json: bool,
    /// Optional JSONL output path for the node's decision trace.
    pub trace_out: Option<String>,
}

/// A parsed `chaos` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCmd {
    /// Master seed: the whole scorecard is a pure function of it.
    pub seed: u64,
    /// Fleet size.
    pub agents: usize,
    /// Virtual epochs per scenario.
    pub epochs: u64,
    /// Global fleet budget in watts.
    pub budget_w: f64,
    /// Run one named scenario instead of the whole matrix.
    pub scenario: Option<String>,
    /// Extra network-fault rules merged into every scenario: a path to a
    /// JSON plan (when the value ends in `.json`) or an inline DSL string
    /// (see `dufp_net::NetFaultPlan::parse`).
    pub net_fault_plan: Option<String>,
    /// MSR/actuation fault plan applied on the simulated agents (see
    /// `dufp_msr::FaultPlan::parse`).
    pub fault_plan: Option<String>,
    /// Write the scorecard as JSON Lines to this path.
    pub out: Option<String>,
    /// Print the scorecard as JSON Lines on stdout instead of a table.
    pub json: bool,
}

/// A parsed `scenario` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCmd {
    /// Path to a scenario TOML spec (`None` = the built-in example).
    pub spec: Option<String>,
    /// Seed: the whole scorecard is a pure function of it.
    pub seed: u64,
    /// Policies to score (labels accepted by `PolicyChoice::parse`).
    pub policies: Vec<String>,
    /// Worker count for the policy runs (`None` = all cores).
    pub jobs: Option<usize>,
    /// Write the scorecard as JSON Lines to this path.
    pub out: Option<String>,
    /// Write the first policy's decision trace as JSON Lines.
    pub trace_out: Option<String>,
    /// Print the scorecard as JSON Lines on stdout instead of a table.
    pub json: bool,
    /// Print the built-in example spec as TOML and exit.
    pub print_example: bool,
}

/// A parsed `sweep` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCmd {
    /// Path to a TOML grid file (`None` with `paper` = the paper grid).
    pub grid: Option<String>,
    /// Run the built-in paper evaluation grid.
    pub paper: bool,
    /// Worker count (`None` = all cores).
    pub jobs: Option<usize>,
    /// Output JSONL path.
    pub out: String,
    /// Emit a machine-readable summary instead of a human one.
    pub json: bool,
    /// Stepping engine override (`None` = whatever the grid file says,
    /// which itself defaults to the fast path).
    pub engine: Option<Engine>,
}

/// Subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run an application under a controller.
    Run(RunSpec),
    /// Resume a crashed journaled run.
    Resume(ResumeCmd),
    /// Inspect a journal directory.
    Journal(JournalCmd),
    /// Run once with tracing and render ASCII timelines.
    Timeline(RunSpec),
    /// Capture a counter trace into a workload spec file.
    Record(RecordSpec),
    /// Inspect a decision-trace JSONL file.
    Trace(TraceCmd),
    /// Recommend a tolerated-slowdown setting (§V-H).
    Plan(RunSpec),
    /// Run a batched experiment grid on a worker pool.
    Sweep(SweepCmd),
    /// Serve a fleet power budget over TCP.
    Coordinate(CoordinateCmd),
    /// Run a node agent against a coordinator.
    Agent(AgentCmd),
    /// Run the deterministic adversarial fleet soak.
    Chaos(ChaosCmd),
    /// Run a trace-driven datacenter scenario.
    Scenario(ScenarioCmd),
    /// Print the default platform as editable JSON.
    MachineTemplate,
    /// Print the platform description.
    Platform,
    /// List modeled applications.
    Apps,
    /// Check hardware access paths.
    Probe,
    /// Print usage.
    Help,
}

impl Cli {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Cli, String> {
        let mut it = argv.iter();
        let sub = it.next().map(String::as_str).unwrap_or("help");
        match sub {
            "platform" => Ok(Cli {
                command: Command::Platform,
            }),
            "machine-template" => Ok(Cli {
                command: Command::MachineTemplate,
            }),
            "apps" => Ok(Cli {
                command: Command::Apps,
            }),
            "probe" => Ok(Cli {
                command: Command::Probe,
            }),
            "help" | "--help" | "-h" => Ok(Cli {
                command: Command::Help,
            }),
            "trace" => {
                let file = it
                    .next()
                    .ok_or_else(|| format!("trace: missing <FILE.jsonl>\n\n{USAGE}"))?
                    .clone();
                let mut cmd = TraceCmd {
                    file,
                    summary: false,
                };
                for flag in it {
                    match flag.as_str() {
                        "--summary" => cmd.summary = true,
                        other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
                    }
                }
                Ok(Cli {
                    command: Command::Trace(cmd),
                })
            }
            "resume" => {
                let dir = it
                    .next()
                    .ok_or_else(|| format!("resume: missing <DIR>\n\n{USAGE}"))?
                    .clone();
                let mut cmd = ResumeCmd { dir, json: false };
                for flag in it {
                    match flag.as_str() {
                        "--json" => cmd.json = true,
                        other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
                    }
                }
                Ok(Cli {
                    command: Command::Resume(cmd),
                })
            }
            "journal" => {
                let dir = it
                    .next()
                    .ok_or_else(|| format!("journal: missing <DIR>\n\n{USAGE}"))?
                    .clone();
                if let Some(other) = it.next() {
                    return Err(format!("unknown flag {other}\n\n{USAGE}"));
                }
                Ok(Cli {
                    command: Command::Journal(JournalCmd { dir }),
                })
            }
            "record" => {
                let app = it
                    .next()
                    .ok_or_else(|| format!("record: missing <APP>\n\n{USAGE}"))?
                    .clone();
                let mut spec = RecordSpec {
                    app,
                    out: String::new(),
                    seed: 42,
                };
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--out" => spec.out = it.next().ok_or("--out needs a path")?.clone(),
                        "--seed" => {
                            let v = it.next().ok_or("--seed needs a value")?;
                            spec.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
                        }
                        other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
                    }
                }
                if spec.out.is_empty() {
                    return Err("record: --out FILE.json is required".into());
                }
                Ok(Cli {
                    command: Command::Record(spec),
                })
            }
            "sweep" => {
                let mut cmd = SweepCmd {
                    grid: None,
                    paper: false,
                    jobs: None,
                    out: "results.jsonl".into(),
                    json: false,
                    engine: None,
                };
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--grid" => {
                            cmd.grid = Some(it.next().ok_or("--grid needs a path")?.clone())
                        }
                        "--paper" => cmd.paper = true,
                        "--jobs" => {
                            let v = it.next().ok_or("--jobs needs a value")?;
                            let n: usize = v.parse().map_err(|_| format!("bad job count {v}"))?;
                            if n == 0 {
                                return Err("need at least one worker".into());
                            }
                            cmd.jobs = Some(n);
                        }
                        "--out" => cmd.out = it.next().ok_or("--out needs a path")?.clone(),
                        "--json" => cmd.json = true,
                        "--engine" => {
                            let v = it.next().ok_or("--engine needs tick|event")?;
                            cmd.engine = Some(Engine::parse(v).map_err(|e| e.to_string())?);
                        }
                        other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
                    }
                }
                match (&cmd.grid, cmd.paper) {
                    (None, false) => {
                        return Err("sweep: pick a grid with --grid FILE.toml or --paper".into())
                    }
                    (Some(_), true) => {
                        return Err("sweep: --grid and --paper are mutually exclusive".into())
                    }
                    _ => {}
                }
                Ok(Cli {
                    command: Command::Sweep(cmd),
                })
            }
            "coordinate" => {
                let mut cmd = CoordinateCmd {
                    listen: String::new(),
                    budget: Watts(0.0),
                    demand_based: true,
                    epoch_ms: 1000,
                    max_epochs: None,
                    json: false,
                    trace_out: None,
                    journal_dir: None,
                    standby_of: None,
                    successor: None,
                };
                let mut budget_seen = false;
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--listen" => {
                            cmd.listen = it.next().ok_or("--listen needs host:port")?.clone()
                        }
                        "--budget-w" => {
                            let v = it.next().ok_or("--budget-w needs a value")?;
                            let w: f64 = v.parse().map_err(|_| format!("bad budget {v}"))?;
                            cmd.budget = Watts(w);
                            budget_seen = true;
                        }
                        "--policy" => {
                            let v = it.next().ok_or("--policy needs static|demand")?;
                            cmd.demand_based = match v.as_str() {
                                "static" => false,
                                "demand" => true,
                                other => {
                                    return Err(format!("unknown policy {other} (static|demand)"))
                                }
                            };
                        }
                        "--epoch-ms" => {
                            let v = it.next().ok_or("--epoch-ms needs a value")?;
                            cmd.epoch_ms = v.parse().map_err(|_| format!("bad epoch {v}"))?;
                            if cmd.epoch_ms == 0 {
                                return Err("epoch must be at least 1 ms".into());
                            }
                        }
                        "--max-epochs" => {
                            let v = it.next().ok_or("--max-epochs needs a value")?;
                            cmd.max_epochs =
                                Some(v.parse().map_err(|_| format!("bad epoch count {v}"))?);
                        }
                        "--json" => cmd.json = true,
                        "--trace-out" => {
                            cmd.trace_out =
                                Some(it.next().ok_or("--trace-out needs a path")?.clone())
                        }
                        "--journal-dir" => {
                            cmd.journal_dir =
                                Some(it.next().ok_or("--journal-dir needs a path")?.clone())
                        }
                        "--standby-of" => {
                            cmd.standby_of =
                                Some(it.next().ok_or("--standby-of needs host:port")?.clone())
                        }
                        "--successor" => {
                            cmd.successor =
                                Some(it.next().ok_or("--successor needs host:port")?.clone())
                        }
                        other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
                    }
                }
                if cmd.listen.is_empty() {
                    return Err("coordinate: --listen host:port is required".into());
                }
                if !budget_seen {
                    return Err("coordinate: --budget-w W is required".into());
                }
                if cmd.standby_of.is_some() && cmd.journal_dir.is_none() {
                    return Err(
                        "coordinate: --standby-of requires --journal-dir (a standby \
                         promotes by replaying the shared journal)"
                            .into(),
                    );
                }
                Ok(Cli {
                    command: Command::Coordinate(cmd),
                })
            }
            "agent" => {
                let mut cmd = AgentCmd {
                    connect: String::new(),
                    standbys: Vec::new(),
                    node: String::new(),
                    apps: vec!["EP".into()],
                    slowdown: Ratio::from_percent(10.0),
                    seed: 42,
                    safe_cap: Watts(90.0),
                    pace_ms: 0,
                    max_intervals: None,
                    json: false,
                    trace_out: None,
                };
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--connect" => {
                            let v = it
                                .next()
                                .ok_or("--connect needs host:port[,host:port...]")?;
                            let mut addrs = v.split(',').map(str::to_string);
                            cmd.connect = addrs.next().unwrap_or_default();
                            cmd.standbys = addrs.collect();
                        }
                        "--node" => cmd.node = it.next().ok_or("--node needs a name")?.clone(),
                        "--app" => {
                            let v = it.next().ok_or("--app needs a name (or list A,B)")?;
                            cmd.apps = v.split(',').map(str::to_string).collect();
                        }
                        "--slowdown" => {
                            let v = it.next().ok_or("--slowdown needs a value")?;
                            let pct: f64 = v.parse().map_err(|_| format!("bad slowdown {v}"))?;
                            if !(0.0..100.0).contains(&pct) {
                                return Err(format!("slowdown {pct} outside [0, 100)"));
                            }
                            cmd.slowdown = Ratio::from_percent(pct);
                        }
                        "--seed" => {
                            let v = it.next().ok_or("--seed needs a value")?;
                            cmd.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
                        }
                        "--safe-cap" => {
                            let v = it.next().ok_or("--safe-cap needs a value")?;
                            let w: f64 = v.parse().map_err(|_| format!("bad safe cap {v}"))?;
                            cmd.safe_cap = Watts(w);
                        }
                        "--pace-ms" => {
                            let v = it.next().ok_or("--pace-ms needs a value")?;
                            cmd.pace_ms = v.parse().map_err(|_| format!("bad pace {v}"))?;
                        }
                        "--max-intervals" => {
                            let v = it.next().ok_or("--max-intervals needs a value")?;
                            cmd.max_intervals =
                                Some(v.parse().map_err(|_| format!("bad interval count {v}"))?);
                        }
                        "--json" => cmd.json = true,
                        "--trace-out" => {
                            cmd.trace_out =
                                Some(it.next().ok_or("--trace-out needs a path")?.clone())
                        }
                        other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
                    }
                }
                if cmd.connect.is_empty() {
                    return Err("agent: --connect host:port is required".into());
                }
                if cmd.node.is_empty() {
                    return Err("agent: --node NAME is required".into());
                }
                Ok(Cli {
                    command: Command::Agent(cmd),
                })
            }
            "chaos" => {
                let mut cmd = ChaosCmd {
                    seed: 42,
                    agents: 8,
                    epochs: 40,
                    budget_w: 700.0,
                    scenario: None,
                    net_fault_plan: None,
                    fault_plan: None,
                    out: None,
                    json: false,
                };
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--seed" => {
                            let v = it.next().ok_or("--seed needs a value")?;
                            cmd.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
                        }
                        "--agents" => {
                            let v = it.next().ok_or("--agents needs a value")?;
                            cmd.agents = v.parse().map_err(|_| format!("bad agent count {v}"))?;
                            if cmd.agents == 0 {
                                return Err("need at least one agent".into());
                            }
                        }
                        "--epochs" => {
                            let v = it.next().ok_or("--epochs needs a value")?;
                            cmd.epochs = v.parse().map_err(|_| format!("bad epoch count {v}"))?;
                            if cmd.epochs == 0 {
                                return Err("need at least one epoch".into());
                            }
                        }
                        "--budget-w" => {
                            let v = it.next().ok_or("--budget-w needs a value")?;
                            cmd.budget_w = v.parse().map_err(|_| format!("bad budget {v}"))?;
                        }
                        "--scenario" => {
                            cmd.scenario = Some(it.next().ok_or("--scenario needs a name")?.clone())
                        }
                        "--net-fault-plan" => {
                            cmd.net_fault_plan = Some(
                                it.next()
                                    .ok_or("--net-fault-plan needs a plan string or file")?
                                    .clone(),
                            )
                        }
                        "--fault-plan" => {
                            cmd.fault_plan = Some(
                                it.next()
                                    .ok_or("--fault-plan needs a plan string or file")?
                                    .clone(),
                            )
                        }
                        "--out" => cmd.out = Some(it.next().ok_or("--out needs a path")?.clone()),
                        "--json" => cmd.json = true,
                        other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
                    }
                }
                Ok(Cli {
                    command: Command::Chaos(cmd),
                })
            }
            "scenario" => {
                let mut cmd = ScenarioCmd {
                    spec: None,
                    seed: 42,
                    policies: vec![
                        "uncapped".into(),
                        "static-split".into(),
                        "demand-based".into(),
                    ],
                    jobs: None,
                    out: None,
                    trace_out: None,
                    json: false,
                    print_example: false,
                };
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--spec" => {
                            cmd.spec = Some(it.next().ok_or("--spec needs a path")?.clone())
                        }
                        "--seed" => {
                            let v = it.next().ok_or("--seed needs a value")?;
                            cmd.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
                        }
                        "--policies" => {
                            let v = it.next().ok_or("--policies needs a comma list")?;
                            cmd.policies = v.split(',').map(|s| s.trim().to_string()).collect();
                            if cmd.policies.iter().any(String::is_empty) {
                                return Err(format!("bad policy list {v}"));
                            }
                        }
                        "--jobs" => {
                            let v = it.next().ok_or("--jobs needs a value")?;
                            let jobs: usize =
                                v.parse().map_err(|_| format!("bad job count {v}"))?;
                            if jobs == 0 {
                                return Err("need at least one job".into());
                            }
                            cmd.jobs = Some(jobs);
                        }
                        "--out" => cmd.out = Some(it.next().ok_or("--out needs a path")?.clone()),
                        "--trace-out" => {
                            cmd.trace_out =
                                Some(it.next().ok_or("--trace-out needs a path")?.clone())
                        }
                        "--json" => cmd.json = true,
                        "--print-example" => cmd.print_example = true,
                        other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
                    }
                }
                Ok(Cli {
                    command: Command::Scenario(cmd),
                })
            }
            "run" | "timeline" | "plan" => {
                let app = it
                    .next()
                    .ok_or_else(|| format!("{sub}: missing <APP>\n\n{USAGE}"))?
                    .clone();
                let mut controller = "dufp".to_string();
                let mut slowdown_pct = 5.0;
                let mut spec = RunSpec {
                    app,
                    controller: ControllerKind::Default,
                    sockets: 4,
                    runs: 1,
                    seed: 42,
                    json: false,
                    machine: None,
                    trace_out: None,
                    fault_plan: None,
                    journal_dir: None,
                    fsync: None,
                    engine: Engine::default(),
                };
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--controller" => {
                            controller = it.next().ok_or("--controller needs a value")?.clone();
                        }
                        "--slowdown" => {
                            let v = it.next().ok_or("--slowdown needs a value")?;
                            let pct: f64 = v.parse().map_err(|_| format!("bad slowdown {v}"))?;
                            if !(0.0..100.0).contains(&pct) {
                                return Err(format!("slowdown {pct} outside [0, 100)"));
                            }
                            slowdown_pct = pct;
                        }
                        "--sockets" => {
                            let v = it.next().ok_or("--sockets needs a value")?;
                            spec.sockets =
                                v.parse().map_err(|_| format!("bad socket count {v}"))?;
                            if spec.sockets == 0 {
                                return Err("need at least one socket".into());
                            }
                        }
                        "--runs" => {
                            let v = it.next().ok_or("--runs needs a value")?;
                            spec.runs = v.parse().map_err(|_| format!("bad run count {v}"))?;
                            if spec.runs == 0 {
                                return Err("need at least one run".into());
                            }
                        }
                        "--seed" => {
                            let v = it.next().ok_or("--seed needs a value")?;
                            spec.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
                        }
                        "--json" => spec.json = true,
                        "--machine" => {
                            spec.machine = Some(it.next().ok_or("--machine needs a path")?.clone())
                        }
                        "--trace-out" => {
                            spec.trace_out =
                                Some(it.next().ok_or("--trace-out needs a path")?.clone())
                        }
                        "--fault-plan" => {
                            spec.fault_plan = Some(
                                it.next()
                                    .ok_or("--fault-plan needs a plan string or file")?
                                    .clone(),
                            )
                        }
                        "--journal-dir" => {
                            spec.journal_dir =
                                Some(it.next().ok_or("--journal-dir needs a path")?.clone())
                        }
                        "--fsync" => {
                            let v = it.next().ok_or("--fsync needs a policy")?;
                            spec.fsync = Some(parse_fsync(v)?);
                        }
                        "--engine" => {
                            let v = it.next().ok_or("--engine needs tick|event")?;
                            spec.engine = Engine::parse(v).map_err(|e| e.to_string())?;
                        }
                        other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
                    }
                }
                spec.controller =
                    dufp::policy_kind(&controller, slowdown_pct).map_err(|e| match e {
                        dufp_types::Error::InvalidValue { detail, .. } => detail,
                        other => other.to_string(),
                    })?;
                if spec.fsync.is_some() && spec.journal_dir.is_none() {
                    return Err("--fsync only applies to journaled runs; add --journal-dir".into());
                }
                if spec.journal_dir.is_some() && sub != "run" {
                    return Err(format!(
                        "--journal-dir is only valid with `run`, not `{sub}`"
                    ));
                }
                Ok(Cli {
                    command: match sub {
                        "timeline" => Command::Timeline(spec),
                        "plan" => Command::Plan(spec),
                        _ => Command::Run(spec),
                    },
                })
            }
            other => Err(format!("unknown subcommand {other}\n\n{USAGE}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Cli::parse(&v)
    }

    #[test]
    fn bare_invocation_is_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
    }

    #[test]
    fn run_with_all_flags() {
        let cli = parse(&[
            "run",
            "CG",
            "--controller",
            "dufp",
            "--slowdown",
            "10",
            "--sockets",
            "2",
            "--runs",
            "5",
            "--seed",
            "7",
            "--json",
        ])
        .unwrap();
        let Command::Run(spec) = cli.command else {
            panic!("expected run");
        };
        assert_eq!(spec.app, "CG");
        assert_eq!(
            spec.controller,
            ControllerKind::Dufp {
                slowdown: Ratio::from_percent(10.0)
            }
        );
        assert_eq!(spec.sockets, 2);
        assert_eq!(spec.runs, 5);
        assert_eq!(spec.seed, 7);
        assert!(spec.json);
    }

    #[test]
    fn record_and_plan_parse() {
        let cli = parse(&["record", "CG", "--out", "/tmp/cg.json", "--seed", "9"]).unwrap();
        let Command::Record(spec) = cli.command else {
            panic!()
        };
        assert_eq!(spec.app, "CG");
        assert_eq!(spec.out, "/tmp/cg.json");
        assert_eq!(spec.seed, 9);
        assert!(parse(&["record", "CG"]).unwrap_err().contains("--out"));

        let cli = parse(&["plan", "EP", "--runs", "4"]).unwrap();
        assert!(matches!(cli.command, Command::Plan(_)));
    }

    #[test]
    fn extension_controllers_parse() {
        let slowdown = Ratio::from_percent(5.0);
        for (name, want) in [
            ("dufpf", ControllerKind::DufpF { slowdown }),
            ("dufp-f", ControllerKind::DufpF { slowdown }),
            ("dnpc", ControllerKind::Dnpc { slowdown }),
        ] {
            let cli = parse(&["run", "CG", "--controller", name]).unwrap();
            let Command::Run(spec) = cli.command else {
                panic!()
            };
            assert_eq!(spec.controller, want, "{name}");
        }
    }

    #[test]
    fn trace_subcommand_parses() {
        let cli = parse(&["trace", "/tmp/t.jsonl", "--summary"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Trace(TraceCmd {
                file: "/tmp/t.jsonl".into(),
                summary: true,
            })
        );
        let cli = parse(&["trace", "/tmp/t.jsonl"]).unwrap();
        let Command::Trace(cmd) = cli.command else {
            panic!()
        };
        assert!(!cmd.summary);
        assert!(parse(&["trace"]).unwrap_err().contains("missing <FILE"));

        let cli = parse(&["run", "CG", "--trace-out", "/tmp/t.jsonl"]).unwrap();
        let Command::Run(spec) = cli.command else {
            panic!()
        };
        assert_eq!(spec.trace_out.as_deref(), Some("/tmp/t.jsonl"));
    }

    #[test]
    fn fault_plan_flag_parses() {
        let cli = parse(&["run", "CG", "--fault-plan", "seed=7;write,reg=cap,p=0.01"]).unwrap();
        let Command::Run(spec) = cli.command else {
            panic!()
        };
        assert_eq!(
            spec.fault_plan.as_deref(),
            Some("seed=7;write,reg=cap,p=0.01")
        );
        assert!(parse(&["run", "CG", "--fault-plan"])
            .unwrap_err()
            .contains("--fault-plan"));
    }

    #[test]
    fn journal_flags_parse() {
        let cli = parse(&["run", "EP", "--journal-dir", "/tmp/j", "--fsync", "every:4"]).unwrap();
        let Command::Run(spec) = cli.command else {
            panic!()
        };
        assert_eq!(spec.journal_dir.as_deref(), Some("/tmp/j"));
        assert_eq!(spec.fsync, Some(FsyncPolicy::EveryN(4)));

        for (v, want) in [
            ("always", FsyncPolicy::Always),
            ("never", FsyncPolicy::Never),
        ] {
            let cli = parse(&["run", "EP", "--journal-dir", "/tmp/j", "--fsync", v]).unwrap();
            let Command::Run(spec) = cli.command else {
                panic!()
            };
            assert_eq!(spec.fsync, Some(want), "{v}");
        }

        assert!(parse(&["run", "EP", "--fsync", "always"])
            .unwrap_err()
            .contains("--journal-dir"));
        assert!(parse(&["run", "EP", "--journal-dir", "/tmp/j", "--fsync", "every:0"]).is_err());
        assert!(parse(&[
            "run",
            "EP",
            "--journal-dir",
            "/tmp/j",
            "--fsync",
            "sometimes"
        ])
        .is_err());
        assert!(parse(&["timeline", "EP", "--journal-dir", "/tmp/j"])
            .unwrap_err()
            .contains("only valid with `run`"));
    }

    #[test]
    fn resume_and_journal_subcommands_parse() {
        let cli = parse(&["resume", "/tmp/j", "--json"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Resume(ResumeCmd {
                dir: "/tmp/j".into(),
                json: true,
            })
        );
        assert!(parse(&["resume"]).unwrap_err().contains("missing <DIR>"));

        let cli = parse(&["journal", "/tmp/j"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Journal(JournalCmd {
                dir: "/tmp/j".into(),
            })
        );
        assert!(parse(&["journal"]).unwrap_err().contains("missing <DIR>"));
        assert!(parse(&["journal", "/tmp/j", "--extra"]).is_err());
    }

    #[test]
    fn coordinate_subcommand_parses() {
        let cli = parse(&[
            "coordinate",
            "--listen",
            "127.0.0.1:7070",
            "--budget-w",
            "300",
            "--policy",
            "static",
            "--epoch-ms",
            "250",
            "--max-epochs",
            "40",
            "--json",
        ])
        .unwrap();
        let Command::Coordinate(cmd) = cli.command else {
            panic!()
        };
        assert_eq!(cmd.listen, "127.0.0.1:7070");
        assert_eq!(cmd.budget, Watts(300.0));
        assert!(!cmd.demand_based);
        assert_eq!(cmd.epoch_ms, 250);
        assert_eq!(cmd.max_epochs, Some(40));
        assert!(cmd.json);

        assert!(parse(&["coordinate", "--budget-w", "300"])
            .unwrap_err()
            .contains("--listen"));
        assert!(parse(&["coordinate", "--listen", "127.0.0.1:0"])
            .unwrap_err()
            .contains("--budget-w"));
        assert!(parse(&[
            "coordinate",
            "--listen",
            "127.0.0.1:0",
            "--budget-w",
            "300",
            "--policy",
            "greedy"
        ])
        .is_err());
    }

    #[test]
    fn coordinate_failover_flags_parse() {
        let cli = parse(&[
            "coordinate",
            "--listen",
            "127.0.0.1:7070",
            "--budget-w",
            "300",
            "--journal-dir",
            "/tmp/fleet-journal",
            "--successor",
            "127.0.0.1:7071",
        ])
        .unwrap();
        let Command::Coordinate(cmd) = cli.command else {
            panic!()
        };
        assert_eq!(cmd.journal_dir.as_deref(), Some("/tmp/fleet-journal"));
        assert_eq!(cmd.successor.as_deref(), Some("127.0.0.1:7071"));
        assert_eq!(cmd.standby_of, None);

        let cli = parse(&[
            "coordinate",
            "--listen",
            "127.0.0.1:7071",
            "--budget-w",
            "300",
            "--journal-dir",
            "/tmp/fleet-journal",
            "--standby-of",
            "127.0.0.1:7070",
        ])
        .unwrap();
        let Command::Coordinate(cmd) = cli.command else {
            panic!()
        };
        assert_eq!(cmd.standby_of.as_deref(), Some("127.0.0.1:7070"));

        // A standby without the shared journal cannot rebuild the fleet.
        let err = parse(&[
            "coordinate",
            "--listen",
            "127.0.0.1:7071",
            "--budget-w",
            "300",
            "--standby-of",
            "127.0.0.1:7070",
        ])
        .unwrap_err();
        assert!(err.contains("--journal-dir"), "{err}");
    }

    #[test]
    fn agent_subcommand_parses() {
        let cli = parse(&[
            "agent",
            "--connect",
            "127.0.0.1:7070",
            "--node",
            "n3",
            "--app",
            "EP,MG",
            "--safe-cap",
            "85",
            "--pace-ms",
            "5",
            "--max-intervals",
            "500",
        ])
        .unwrap();
        let Command::Agent(cmd) = cli.command else {
            panic!()
        };
        assert_eq!(cmd.connect, "127.0.0.1:7070");
        assert_eq!(cmd.node, "n3");
        assert_eq!(cmd.apps, vec!["EP".to_string(), "MG".to_string()]);
        assert_eq!(cmd.safe_cap, Watts(85.0));
        assert_eq!(cmd.pace_ms, 5);
        assert_eq!(cmd.max_intervals, Some(500));

        assert!(parse(&["agent", "--node", "n0"])
            .unwrap_err()
            .contains("--connect"));
        assert!(parse(&["agent", "--connect", "127.0.0.1:7070"])
            .unwrap_err()
            .contains("--node"));
    }

    #[test]
    fn agent_connect_list_splits_into_primary_and_standbys() {
        let cli = parse(&[
            "agent",
            "--connect",
            "127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072",
            "--node",
            "n0",
        ])
        .unwrap();
        let Command::Agent(cmd) = cli.command else {
            panic!()
        };
        assert_eq!(cmd.connect, "127.0.0.1:7070");
        assert_eq!(
            cmd.standbys,
            vec!["127.0.0.1:7071".to_string(), "127.0.0.1:7072".to_string()]
        );
    }

    #[test]
    fn chaos_subcommand_parses() {
        let cli = parse(&[
            "chaos",
            "--seed",
            "7",
            "--agents",
            "12",
            "--epochs",
            "60",
            "--budget-w",
            "900",
            "--scenario",
            "byzantine-minority",
            "--net-fault-plan",
            "drop,p=0.1",
            "--fault-plan",
            "write,reg=cap,p=0.01",
            "--out",
            "/tmp/score.jsonl",
            "--json",
        ])
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Chaos(ChaosCmd {
                seed: 7,
                agents: 12,
                epochs: 60,
                budget_w: 900.0,
                scenario: Some("byzantine-minority".into()),
                net_fault_plan: Some("drop,p=0.1".into()),
                fault_plan: Some("write,reg=cap,p=0.01".into()),
                out: Some("/tmp/score.jsonl".into()),
                json: true,
            })
        );

        // Defaults match the CI matrix shape.
        let cli = parse(&["chaos"]).unwrap();
        let Command::Chaos(cmd) = cli.command else {
            panic!()
        };
        assert_eq!(cmd.seed, 42);
        assert_eq!(cmd.agents, 8);
        assert_eq!(cmd.epochs, 40);
        assert_eq!(cmd.budget_w, 700.0);
        assert_eq!(cmd.scenario, None);

        assert!(parse(&["chaos", "--agents", "0"]).is_err());
        assert!(parse(&["chaos", "--epochs", "0"]).is_err());
        assert!(parse(&["chaos", "--scenario"]).is_err());
    }

    #[test]
    fn scenario_subcommand_parses() {
        let cli = parse(&[
            "scenario",
            "--spec",
            "day.toml",
            "--seed",
            "9",
            "--policies",
            "uncapped, demand-based",
            "--jobs",
            "3",
            "--out",
            "/tmp/rows.jsonl",
            "--trace-out",
            "/tmp/trace.jsonl",
            "--json",
        ])
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Scenario(ScenarioCmd {
                spec: Some("day.toml".into()),
                seed: 9,
                policies: vec!["uncapped".into(), "demand-based".into()],
                jobs: Some(3),
                out: Some("/tmp/rows.jsonl".into()),
                trace_out: Some("/tmp/trace.jsonl".into()),
                json: true,
                print_example: false,
            })
        );

        // Defaults: the example spec, the full policy set, all cores.
        let cli = parse(&["scenario"]).unwrap();
        let Command::Scenario(cmd) = cli.command else {
            panic!()
        };
        assert_eq!(cmd.spec, None);
        assert_eq!(cmd.seed, 42);
        assert_eq!(
            cmd.policies,
            vec!["uncapped", "static-split", "demand-based"]
        );
        assert!(!cmd.print_example);

        let cli = parse(&["scenario", "--print-example"]).unwrap();
        let Command::Scenario(cmd) = cli.command else {
            panic!()
        };
        assert!(cmd.print_example);

        assert!(parse(&["scenario", "--jobs", "0"]).is_err());
        assert!(parse(&["scenario", "--policies", "a,,b"]).is_err());
        assert!(parse(&["scenario", "--spec"]).is_err());
    }

    #[test]
    fn sweep_subcommand_parses() {
        let cli = parse(&[
            "sweep",
            "--paper",
            "--jobs",
            "4",
            "--out",
            "/tmp/r.jsonl",
            "--json",
        ])
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Sweep(SweepCmd {
                grid: None,
                paper: true,
                jobs: Some(4),
                out: "/tmp/r.jsonl".into(),
                json: true,
                engine: None,
            })
        );

        let cli = parse(&["sweep", "--grid", "g.toml"]).unwrap();
        let Command::Sweep(cmd) = cli.command else {
            panic!()
        };
        assert_eq!(cmd.grid.as_deref(), Some("g.toml"));
        assert_eq!(cmd.jobs, None, "default = all cores");
        assert_eq!(cmd.out, "results.jsonl");

        assert!(parse(&["sweep"]).unwrap_err().contains("--grid"));
        assert!(parse(&["sweep", "--grid", "g.toml", "--paper"])
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(parse(&["sweep", "--paper", "--jobs", "0"]).is_err());
        assert!(parse(&["sweep", "--paper", "--jobs", "lots"]).is_err());
    }

    #[test]
    fn engine_flag_parses_on_run_and_sweep() {
        let cli = parse(&["run", "CG", "--engine", "tick"]).unwrap();
        let Command::Run(spec) = cli.command else {
            panic!()
        };
        assert_eq!(spec.engine, Engine::Tick);

        let cli = parse(&["run", "CG"]).unwrap();
        let Command::Run(spec) = cli.command else {
            panic!()
        };
        assert_eq!(spec.engine, Engine::Event, "fast path is the default");

        let cli = parse(&["sweep", "--paper", "--engine", "tick"]).unwrap();
        let Command::Sweep(cmd) = cli.command else {
            panic!()
        };
        assert_eq!(cmd.engine, Some(Engine::Tick));

        let cli = parse(&["timeline", "CG", "--engine", "event"]).unwrap();
        let Command::Timeline(spec) = cli.command else {
            panic!()
        };
        assert_eq!(spec.engine, Engine::Event);

        assert!(parse(&["run", "CG", "--engine", "warp"])
            .unwrap_err()
            .contains("unknown engine"));
        assert!(parse(&["run", "CG", "--engine"]).is_err());
    }

    #[test]
    fn static_cap_controller_parses() {
        let cli = parse(&["run", "EP", "--controller", "cap:100"]).unwrap();
        let Command::Run(spec) = cli.command else {
            panic!()
        };
        assert_eq!(
            spec.controller,
            ControllerKind::StaticCap { cap: Watts(100.0) }
        );
    }

    #[test]
    fn defaults_match_paper_tool() {
        let cli = parse(&["run", "LU"]).unwrap();
        let Command::Run(spec) = cli.command else {
            panic!()
        };
        assert_eq!(
            spec.controller,
            ControllerKind::Dufp {
                slowdown: Ratio::from_percent(5.0)
            }
        );
        assert_eq!(spec.sockets, 4);
    }

    #[test]
    fn bad_inputs_are_rejected_with_messages() {
        assert!(parse(&["run"]).unwrap_err().contains("missing <APP>"));
        assert!(parse(&["run", "CG", "--slowdown", "150"])
            .unwrap_err()
            .contains("outside"));
        assert!(parse(&["run", "CG", "--controller", "magic"])
            .unwrap_err()
            .contains("unknown controller"));
        assert!(parse(&["run", "CG", "--sockets", "0"]).is_err());
        assert!(parse(&["run", "CG", "--runs", "0"]).is_err());
        assert!(parse(&["frobnicate"])
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(parse(&["run", "CG", "--controller", "cap:0"]).is_err());
    }
}
