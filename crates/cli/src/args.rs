//! Argument parsing for the `dufp` tool. Flag values are read through
//! [`dufp_types::argv`]; the fleet subcommands parse straight into the
//! library configs and validate them once, at the end of parsing.

use dufp::{ControllerKind, Engine};
use dufp_journal::FsyncPolicy;
use dufp_net::{AgentConfig, ChaosConfig, CoordinatorConfig, PolicyKind};
use dufp_scenario::PolicyChoice;
use dufp_types::argv::Args;
use dufp_types::{Ratio, Watts};
use std::time::Duration;

/// Usage text.
pub const USAGE: &str = "\
dufp — dynamic uncore frequency scaling and power capping

USAGE:
    dufp run <APP> [--controller default|duf|dufp|dufpf|dnpc|cap:<W>] [--slowdown PCT]
                   [--sockets N] [--runs N] [--seed S] [--json]
                   [--machine FILE.json] [--engine tick|event]
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
    dufp timeline <APP> [--controller ...] [--slowdown PCT] [--sockets N]
                        [--seed S] [--machine FILE.json]
                        [--fault-plan PLAN|FILE.json] [--engine tick|event]
                             render frequency/power/cap timelines (Fig 5 style)
    dufp machine-template    print the default platform as editable JSON
                             (use with --machine FILE on run/timeline/plan)
    dufp record <APP> --out FILE.json [--seed S]
                             run once, capture the counter trace and emit a
                             workload spec reproducing its phase signature
    dufp plan <APP> [--runs N] [--sockets N] [--seed S] [--machine FILE.json]
                    [--engine tick|event]
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
                    [--policy static-split|demand-based] [--epoch-ms N]
                    [--max-epochs N] [--journal-dir DIR] [--standby-of ADDR]
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

/// The flags each run-family subcommand accepts after `<APP>`.
const RUN_FAMILY: [(&str, &str); 3] = [
    (
        "run",
        "--controller --slowdown --sockets --runs --seed --json --machine \
         --trace-out --fault-plan --journal-dir --fsync --engine",
    ),
    (
        "timeline",
        "--controller --slowdown --sockets --seed --machine --fault-plan --engine",
    ),
    ("plan", "--runs --sockets --seed --machine --engine"),
];

fn unknown_flag(flag: &str) -> String {
    format!("unknown flag {flag}\n\n{USAGE}")
}

/// Consumes the remaining arguments, which may only be `name`; whether it
/// was given.
fn switch(args: &mut Args, name: &str) -> Result<bool, String> {
    let mut on = false;
    for flag in args {
        if flag != name {
            return Err(unknown_flag(flag));
        }
        on = true;
    }
    Ok(on)
}

/// The next argument, which `sub` requires (`what` names it in the error).
fn positional(args: &mut Args, sub: &str, what: &str) -> Result<String, String> {
    args.next()
        .map(str::to_string)
        .ok_or_else(|| format!("{sub}: missing {what}\n\n{USAGE}"))
}

/// A parsed `run`, `timeline` or `plan` invocation; each accepts only
/// its own flags (its row of the private `RUN_FAMILY` table) and leaves
/// the other fields at their defaults.
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

impl RunSpec {
    fn parse(sub: &str, args: &mut Args) -> Result<Self, String> {
        let mut spec = RunSpec {
            app: positional(args, sub, "<APP>")?,
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
        let (mut controller, mut slowdown_pct) = ("dufp", 5.0);
        while let Some(flag) = args.next() {
            let takers: Vec<&str> = RUN_FAMILY
                .iter()
                .filter(|(_, flags)| flags.split_whitespace().any(|f| f == flag))
                .map(|(name, _)| *name)
                .collect();
            if takers.is_empty() {
                return Err(unknown_flag(flag));
            }
            if !takers.contains(&sub) {
                return Err(format!(
                    "unknown flag {flag} for `{sub}` (only valid with `{}`)\n\n{USAGE}",
                    takers.join("`, `")
                ));
            }
            match flag {
                "--controller" => controller = args.value(flag)?,
                "--slowdown" => {
                    slowdown_pct = args.number(flag)?;
                    if !(0.0..100.0).contains(&slowdown_pct) {
                        return Err(format!("slowdown {slowdown_pct} outside [0, 100)"));
                    }
                }
                "--sockets" => spec.sockets = args.positive(flag)?,
                "--runs" => spec.runs = args.positive(flag)?,
                "--seed" => spec.seed = args.number(flag)?,
                "--json" => spec.json = true,
                "--machine" => spec.machine = Some(args.value(flag)?.into()),
                "--trace-out" => spec.trace_out = Some(args.value(flag)?.into()),
                "--fault-plan" => spec.fault_plan = Some(args.value(flag)?.into()),
                "--journal-dir" => spec.journal_dir = Some(args.value(flag)?.into()),
                "--fsync" => {
                    let policy = FsyncPolicy::parse(args.value(flag)?);
                    spec.fsync = Some(policy.map_err(|e| e.to_string())?);
                }
                "--engine" => spec.engine = parse_engine(args.value(flag)?)?,
                other => return Err(unknown_flag(other)),
            }
        }
        spec.controller = dufp::policy_kind(controller, slowdown_pct).map_err(|e| match e {
            dufp_types::Error::InvalidValue { detail, .. } => detail,
            other => other.to_string(),
        })?;
        if spec.fsync.is_some() && spec.journal_dir.is_none() {
            return Err("--fsync only applies to journaled runs; add --journal-dir".into());
        }
        Ok(spec)
    }
}

fn parse_engine(v: &str) -> Result<Engine, String> {
    Engine::parse(v).map_err(|e| e.to_string())
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

impl RecordSpec {
    fn parse(args: &mut Args) -> Result<Self, String> {
        let mut spec = RecordSpec {
            app: positional(args, "record", "<APP>")?,
            out: String::new(),
            seed: 42,
        };
        while let Some(flag) = args.next() {
            match flag {
                "--out" => spec.out = args.value(flag)?.into(),
                "--seed" => spec.seed = args.number(flag)?,
                other => return Err(unknown_flag(other)),
            }
        }
        if spec.out.is_empty() {
            return Err("record: --out FILE.json is required".into());
        }
        Ok(spec)
    }
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

impl SweepCmd {
    fn parse(args: &mut Args) -> Result<Self, String> {
        let mut cmd = SweepCmd {
            grid: None,
            paper: false,
            jobs: None,
            out: "results.jsonl".into(),
            json: false,
            engine: None,
        };
        while let Some(flag) = args.next() {
            match flag {
                "--grid" => cmd.grid = Some(args.value(flag)?.into()),
                "--paper" => cmd.paper = true,
                "--jobs" => cmd.jobs = Some(args.positive(flag)?),
                "--out" => cmd.out = args.value(flag)?.into(),
                "--json" => cmd.json = true,
                "--engine" => cmd.engine = Some(parse_engine(args.value(flag)?)?),
                other => return Err(unknown_flag(other)),
            }
        }
        match (&cmd.grid, cmd.paper) {
            (None, false) => Err("sweep: pick a grid with --grid FILE.toml or --paper".into()),
            (Some(_), true) => Err("sweep: --grid and --paper are mutually exclusive".into()),
            _ => Ok(cmd),
        }
    }
}

/// A parsed `coordinate` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinateCmd {
    /// The coordinator to serve, validated.
    pub config: CoordinatorConfig,
    /// Emit machine-readable JSON instead of a human summary.
    pub json: bool,
    /// Optional JSONL output path for the grant/reclaim decision trace.
    pub trace_out: Option<String>,
}

impl CoordinateCmd {
    fn parse(args: &mut Args) -> Result<Self, String> {
        let mut cmd = CoordinateCmd {
            config: CoordinatorConfig::new("", Watts(0.0)),
            json: false,
            trace_out: None,
        };
        let mut budget = None;
        while let Some(flag) = args.next() {
            let cfg = &mut cmd.config;
            match flag {
                "--listen" => cfg.listen = args.value(flag)?.into(),
                "--budget-w" => budget = Some(Watts(args.number(flag)?)),
                "--policy" => {
                    cfg.policy = PolicyKind::parse(args.value(flag)?).map_err(|e| e.to_string())?
                }
                "--epoch-ms" => {
                    let epoch = Duration::from_millis(args.number(flag)?);
                    cmd.config = cmd.config.with_epoch(epoch);
                }
                "--max-epochs" => cfg.max_epochs = Some(args.number(flag)?),
                "--journal-dir" => cfg.journal_dir = Some(args.value(flag)?.into()),
                "--standby-of" => cfg.standby_of = Some(args.value(flag)?.into()),
                "--successor" => cfg.successor = Some(args.value(flag)?.into()),
                "--json" => cmd.json = true,
                "--trace-out" => cmd.trace_out = Some(args.value(flag)?.into()),
                other => return Err(unknown_flag(other)),
            }
        }
        let cfg = &mut cmd.config;
        if cfg.listen.is_empty() {
            return Err("coordinate: --listen host:port is required".into());
        }
        cfg.budget = budget.ok_or("coordinate: --budget-w W is required")?;
        if cfg.standby_of.is_some() && cfg.journal_dir.is_none() {
            return Err(
                "coordinate: --standby-of requires --journal-dir (a standby \
                 promotes by replaying the shared journal)"
                    .into(),
            );
        }
        cfg.validate().map_err(|e| e.to_string())?;
        Ok(cmd)
    }
}

/// A parsed `agent` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentCmd {
    /// The agent to run, validated. `--connect`'s first address is the
    /// coordinator, the rest are standbys.
    pub config: AgentConfig,
    /// Emit machine-readable JSON instead of a human summary.
    pub json: bool,
    /// Optional JSONL output path for the node's decision trace.
    pub trace_out: Option<String>,
}

impl AgentCmd {
    fn parse(args: &mut Args) -> Result<Self, String> {
        let mut cmd = AgentCmd {
            config: AgentConfig::new("", "", "EP"),
            json: false,
            trace_out: None,
        };
        while let Some(flag) = args.next() {
            let cfg = &mut cmd.config;
            match flag {
                "--connect" => {
                    let mut addrs = args.value(flag)?.split(',').map(str::to_string);
                    cfg.connect = addrs.next().unwrap_or_default();
                    cfg.standbys = addrs.collect();
                }
                "--node" => cfg.node = args.value(flag)?.into(),
                "--app" => cfg.queue = args.value(flag)?.split(',').map(str::to_string).collect(),
                "--slowdown" => cfg.slowdown = Ratio::from_percent(args.number(flag)?),
                "--seed" => cfg.seed = args.number(flag)?,
                "--safe-cap" => cfg.safe_cap = Watts(args.number(flag)?),
                "--pace-ms" => cfg.pace = Duration::from_millis(args.number(flag)?),
                "--max-intervals" => cfg.max_intervals = Some(args.number(flag)?),
                "--json" => cmd.json = true,
                "--trace-out" => cmd.trace_out = Some(args.value(flag)?.into()),
                other => return Err(unknown_flag(other)),
            }
        }
        let cfg = &mut cmd.config;
        if cfg.connect.is_empty() {
            return Err("agent: --connect host:port is required".into());
        }
        if cfg.node.is_empty() {
            return Err("agent: --node NAME is required".into());
        }
        if !cfg.standbys.is_empty() {
            // Failover needs patience: a standby takes a few heartbeat
            // timeouts to notice the primary died and promote, so the
            // default (sub-second) retry ladder would degrade to the safe
            // cap before the successor even binds.
            cfg.retry.max_retries = 40;
            cfg.retry.base_backoff = Duration::from_millis(50);
            cfg.retry.max_backoff = Duration::from_millis(500);
        }
        cfg.validate().map_err(|e| e.to_string())?;
        Ok(cmd)
    }
}

/// A parsed `chaos` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCmd {
    /// The soak's shape, validated. Its fault plans stay empty here: the
    /// plan arguments may name files, which `commands::chaos` reads.
    pub config: ChaosConfig,
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

impl ChaosCmd {
    fn parse(args: &mut Args) -> Result<Self, String> {
        let mut cmd = ChaosCmd {
            config: ChaosConfig::new(42),
            scenario: None,
            net_fault_plan: None,
            fault_plan: None,
            out: None,
            json: false,
        };
        while let Some(flag) = args.next() {
            let cfg = &mut cmd.config;
            match flag {
                "--seed" => cfg.seed = args.number(flag)?,
                "--agents" => cfg.agents = args.number(flag)?,
                "--epochs" => cfg.epochs = args.number(flag)?,
                "--budget-w" => cfg.budget = Watts(args.number(flag)?),
                "--scenario" => cmd.scenario = Some(args.value(flag)?.into()),
                "--net-fault-plan" => cmd.net_fault_plan = Some(args.value(flag)?.into()),
                "--fault-plan" => cmd.fault_plan = Some(args.value(flag)?.into()),
                "--out" => cmd.out = Some(args.value(flag)?.into()),
                "--json" => cmd.json = true,
                other => return Err(unknown_flag(other)),
            }
        }
        cmd.config.validate().map_err(|e| e.to_string())?;
        Ok(cmd)
    }
}

/// A parsed `scenario` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCmd {
    /// Path to a scenario TOML spec (`None` = the built-in example).
    pub spec: Option<String>,
    /// Seed: the whole scorecard is a pure function of it.
    pub seed: u64,
    /// Policies to score, in order.
    pub policies: Vec<PolicyChoice>,
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

impl ScenarioCmd {
    fn parse(args: &mut Args) -> Result<Self, String> {
        let mut cmd = ScenarioCmd {
            spec: None,
            seed: 42,
            policies: PolicyChoice::ALL.to_vec(),
            jobs: None,
            out: None,
            trace_out: None,
            json: false,
            print_example: false,
        };
        while let Some(flag) = args.next() {
            match flag {
                "--spec" => cmd.spec = Some(args.value(flag)?.into()),
                "--seed" => cmd.seed = args.number(flag)?,
                "--policies" => {
                    cmd.policies = args
                        .value(flag)?
                        .split(',')
                        .map(|p| PolicyChoice::parse(p.trim()).map_err(|e| e.to_string()))
                        .collect::<Result<_, _>>()?
                }
                "--jobs" => cmd.jobs = Some(args.positive(flag)?),
                "--out" => cmd.out = Some(args.value(flag)?.into()),
                "--trace-out" => cmd.trace_out = Some(args.value(flag)?.into()),
                "--json" => cmd.json = true,
                "--print-example" => cmd.print_example = true,
                other => return Err(unknown_flag(other)),
            }
        }
        Ok(cmd)
    }
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

impl Command {
    /// Parses `argv` (without the program name). Every subcommand accepts
    /// exactly the flags it uses.
    pub fn parse(argv: &[String]) -> Result<Command, String> {
        let mut args = Args::new(argv);
        let command = match args.next().unwrap_or("help") {
            "platform" => Command::Platform,
            "machine-template" => Command::MachineTemplate,
            "apps" => Command::Apps,
            "probe" => Command::Probe,
            "help" | "--help" | "-h" => Command::Help,
            "journal" => Command::Journal(JournalCmd {
                dir: positional(&mut args, "journal", "<DIR>")?,
            }),
            "resume" => Command::Resume(ResumeCmd {
                dir: positional(&mut args, "resume", "<DIR>")?,
                json: switch(&mut args, "--json")?,
            }),
            "trace" => Command::Trace(TraceCmd {
                file: positional(&mut args, "trace", "<FILE.jsonl>")?,
                summary: switch(&mut args, "--summary")?,
            }),
            "record" => Command::Record(RecordSpec::parse(&mut args)?),
            "sweep" => Command::Sweep(SweepCmd::parse(&mut args)?),
            "coordinate" => Command::Coordinate(CoordinateCmd::parse(&mut args)?),
            "agent" => Command::Agent(AgentCmd::parse(&mut args)?),
            "chaos" => Command::Chaos(ChaosCmd::parse(&mut args)?),
            "scenario" => Command::Scenario(ScenarioCmd::parse(&mut args)?),
            "run" => Command::Run(RunSpec::parse("run", &mut args)?),
            "timeline" => Command::Timeline(RunSpec::parse("timeline", &mut args)?),
            "plan" => Command::Plan(RunSpec::parse("plan", &mut args)?),
            other => return Err(format!("unknown subcommand {other}\n\n{USAGE}")),
        };
        // Every flag loop drains the arguments: anything left over went to
        // a subcommand that takes no more.
        match args.next() {
            Some(extra) => Err(unknown_flag(extra)),
            None => Ok(command),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Command::parse(&v)
    }

    #[test]
    fn bare_invocation_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
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
        let Command::Run(spec) = cli else {
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
        let Command::Record(spec) = cli else { panic!() };
        assert_eq!(spec.app, "CG");
        assert_eq!(spec.out, "/tmp/cg.json");
        assert_eq!(spec.seed, 9);
        assert!(parse(&["record", "CG"]).unwrap_err().contains("--out"));

        let cli = parse(&["plan", "EP", "--runs", "4"]).unwrap();
        assert!(matches!(cli, Command::Plan(_)));
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
            let Command::Run(spec) = cli else { panic!() };
            assert_eq!(spec.controller, want, "{name}");
        }
    }

    #[test]
    fn trace_subcommand_parses() {
        let cli = parse(&["trace", "/tmp/t.jsonl", "--summary"]).unwrap();
        assert_eq!(
            cli,
            Command::Trace(TraceCmd {
                file: "/tmp/t.jsonl".into(),
                summary: true,
            })
        );
        let cli = parse(&["trace", "/tmp/t.jsonl"]).unwrap();
        let Command::Trace(cmd) = cli else { panic!() };
        assert!(!cmd.summary);
        assert!(parse(&["trace"]).unwrap_err().contains("missing <FILE"));

        let cli = parse(&["run", "CG", "--trace-out", "/tmp/t.jsonl"]).unwrap();
        let Command::Run(spec) = cli else { panic!() };
        assert_eq!(spec.trace_out.as_deref(), Some("/tmp/t.jsonl"));
    }

    #[test]
    fn fault_plan_flag_parses() {
        let cli = parse(&["run", "CG", "--fault-plan", "seed=7;write,reg=cap,p=0.01"]).unwrap();
        let Command::Run(spec) = cli else { panic!() };
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
        let Command::Run(spec) = cli else { panic!() };
        assert_eq!(spec.journal_dir.as_deref(), Some("/tmp/j"));
        assert_eq!(spec.fsync, Some(FsyncPolicy::EveryN(4)));

        for (v, want) in [
            ("always", FsyncPolicy::Always),
            ("never", FsyncPolicy::Never),
        ] {
            let cli = parse(&["run", "EP", "--journal-dir", "/tmp/j", "--fsync", v]).unwrap();
            let Command::Run(spec) = cli else { panic!() };
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
            cli,
            Command::Resume(ResumeCmd {
                dir: "/tmp/j".into(),
                json: true,
            })
        );
        assert!(parse(&["resume"]).unwrap_err().contains("missing <DIR>"));

        let cli = parse(&["journal", "/tmp/j"]).unwrap();
        assert_eq!(
            cli,
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
        let Command::Coordinate(cmd) = cli else {
            panic!()
        };
        assert_eq!(
            cmd,
            CoordinateCmd {
                config: CoordinatorConfig {
                    policy: PolicyKind::StaticSplit,
                    max_epochs: Some(40),
                    ..CoordinatorConfig::new("127.0.0.1:7070", Watts(300.0))
                        .with_epoch(Duration::from_millis(250))
                },
                json: true,
                trace_out: None,
            }
        );

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
        .unwrap_err()
        .contains("greedy"));
        // Single-value checks are the config's own, run at parse time.
        for (flag, v, field) in [
            ("--epoch-ms", "0", "epoch"),
            ("--max-epochs", "0", "max_epochs"),
            ("--budget-w", "-5", "budget"),
        ] {
            let err = parse(&[
                "coordinate",
                "--listen",
                "127.0.0.1:0",
                "--budget-w",
                "300",
                flag,
                v,
            ])
            .unwrap_err();
            assert!(err.contains(&format!("invalid value for {field}")), "{err}");
        }
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
        let Command::Coordinate(cmd) = cli else {
            panic!()
        };
        assert_eq!(
            cmd.config,
            CoordinatorConfig {
                journal_dir: Some("/tmp/fleet-journal".into()),
                successor: Some("127.0.0.1:7071".into()),
                ..CoordinatorConfig::new("127.0.0.1:7070", Watts(300.0))
            }
        );

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
        let Command::Coordinate(cmd) = cli else {
            panic!()
        };
        assert_eq!(cmd.config.standby_of.as_deref(), Some("127.0.0.1:7070"));

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
        let Command::Agent(cmd) = cli else { panic!() };
        assert_eq!(
            cmd,
            AgentCmd {
                config: AgentConfig {
                    queue: vec!["EP".into(), "MG".into()],
                    safe_cap: Watts(85.0),
                    pace: Duration::from_millis(5),
                    max_intervals: Some(500),
                    ..AgentConfig::new("127.0.0.1:7070", "n3", "EP")
                },
                json: false,
                trace_out: None,
            }
        );

        assert!(parse(&["agent", "--node", "n0"])
            .unwrap_err()
            .contains("--connect"));
        assert!(parse(&["agent", "--connect", "127.0.0.1:7070"])
            .unwrap_err()
            .contains("--node"));
        // Single-value checks are the config's own, run at parse time.
        for (flag, v, field) in [
            ("--slowdown", "150", "slowdown"),
            ("--safe-cap", "0", "safe_cap"),
            ("--max-intervals", "0", "max_intervals"),
        ] {
            let err = parse(&["agent", "--connect", "a:1", "--node", "n0", flag, v]).unwrap_err();
            assert!(err.contains(&format!("invalid value for {field}")), "{err}");
        }
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
        let Command::Agent(cmd) = cli else { panic!() };
        assert_eq!(cmd.config.connect, "127.0.0.1:7070");
        assert_eq!(
            cmd.config.standbys,
            vec!["127.0.0.1:7071".to_string(), "127.0.0.1:7072".to_string()]
        );
        // Standbys make reconnects patient enough to outlast a takeover.
        assert_eq!(cmd.config.retry.max_retries, 40);
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
            cli,
            Command::Chaos(ChaosCmd {
                config: ChaosConfig {
                    agents: 12,
                    epochs: 60,
                    budget: Watts(900.0),
                    ..ChaosConfig::new(7)
                },
                scenario: Some("byzantine-minority".into()),
                net_fault_plan: Some("drop,p=0.1".into()),
                fault_plan: Some("write,reg=cap,p=0.01".into()),
                out: Some("/tmp/score.jsonl".into()),
                json: true,
            })
        );

        // Defaults match the CI matrix shape.
        let cli = parse(&["chaos"]).unwrap();
        let Command::Chaos(cmd) = cli else { panic!() };
        assert_eq!(cmd.config, ChaosConfig::new(42));
        assert_eq!(cmd.scenario, None);

        assert!(parse(&["chaos", "--agents", "0"])
            .unwrap_err()
            .contains("invalid value for agents"));
        assert!(parse(&["chaos", "--epochs", "0"])
            .unwrap_err()
            .contains("invalid value for epochs"));
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
            cli,
            Command::Scenario(ScenarioCmd {
                spec: Some("day.toml".into()),
                seed: 9,
                policies: vec![PolicyChoice::Uncapped, PolicyChoice::DemandBased],
                jobs: Some(3),
                out: Some("/tmp/rows.jsonl".into()),
                trace_out: Some("/tmp/trace.jsonl".into()),
                json: true,
                print_example: false,
            })
        );

        // Defaults: the example spec, the full policy set, all cores.
        let cli = parse(&["scenario"]).unwrap();
        let Command::Scenario(cmd) = cli else {
            panic!()
        };
        assert_eq!(cmd.spec, None);
        assert_eq!(cmd.seed, 42);
        assert_eq!(cmd.policies, PolicyChoice::ALL);
        assert!(!cmd.print_example);

        let cli = parse(&["scenario", "--print-example"]).unwrap();
        let Command::Scenario(cmd) = cli else {
            panic!()
        };
        assert!(cmd.print_example);

        assert!(parse(&["scenario", "--jobs", "0"]).is_err());
        assert!(parse(&["scenario", "--policies", "a,,b"]).is_err());
        assert!(parse(&["scenario", "--policies", "uncapped,nope"])
            .unwrap_err()
            .contains("nope"));
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
            cli,
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
        let Command::Sweep(cmd) = cli else { panic!() };
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
        let Command::Run(spec) = cli else { panic!() };
        assert_eq!(spec.engine, Engine::Tick);

        let cli = parse(&["run", "CG"]).unwrap();
        let Command::Run(spec) = cli else { panic!() };
        assert_eq!(spec.engine, Engine::Event, "fast path is the default");

        let cli = parse(&["sweep", "--paper", "--engine", "tick"]).unwrap();
        let Command::Sweep(cmd) = cli else { panic!() };
        assert_eq!(cmd.engine, Some(Engine::Tick));

        let cli = parse(&["timeline", "CG", "--engine", "event"]).unwrap();
        let Command::Timeline(spec) = cli else {
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
        let Command::Run(spec) = cli else { panic!() };
        assert_eq!(
            spec.controller,
            ControllerKind::StaticCap { cap: Watts(100.0) }
        );
    }

    #[test]
    fn defaults_match_paper_tool() {
        let cli = parse(&["run", "LU"]).unwrap();
        let Command::Run(spec) = cli else { panic!() };
        assert_eq!(
            spec.controller,
            ControllerKind::Dufp {
                slowdown: Ratio::from_percent(5.0)
            }
        );
        assert_eq!(spec.sockets, 4);
    }

    #[test]
    fn the_cli_keeps_no_defaults_of_its_own() {
        let cli = parse(&["coordinate", "--listen", "a:1", "--budget-w", "300"]).unwrap();
        let Command::Coordinate(cmd) = cli else {
            panic!()
        };
        assert_eq!(cmd.config, CoordinatorConfig::new("a:1", Watts(300.0)));

        let cli = parse(&["agent", "--connect", "a:1", "--node", "n0"]).unwrap();
        let Command::Agent(cmd) = cli else { panic!() };
        assert_eq!(cmd.config, AgentConfig::new("a:1", "n0", "EP"));

        let Command::Chaos(cmd) = parse(&["chaos"]).unwrap() else {
            panic!()
        };
        assert_eq!(cmd.config, ChaosConfig::new(42));
    }

    #[test]
    fn policy_names_share_one_grammar() {
        for (name, want) in [
            ("static-split", PolicyKind::StaticSplit),
            ("static", PolicyKind::StaticSplit),
            ("demand-based", PolicyKind::DemandBased),
            ("demand", PolicyKind::DemandBased),
        ] {
            let argv = [
                "coordinate",
                "--listen",
                "a:1",
                "--budget-w",
                "300",
                "--policy",
                name,
            ];
            let cli = parse(&argv).unwrap();
            let Command::Coordinate(cmd) = cli else {
                panic!()
            };
            assert_eq!(cmd.config.policy, want, "{name}");

            let Command::Scenario(cmd) = parse(&["scenario", "--policies", name]).unwrap() else {
                panic!()
            };
            assert_eq!(cmd.policies[0].kind(), Some(want), "{name}");
        }
    }

    /// Every run-family flag with a value that parses, and the
    /// subcommands that use it.
    const RUN_FAMILY_MATRIX: [(&[&str], &[&str]); 12] = [
        (&["--controller", "duf"], &["run", "timeline"]),
        (&["--slowdown", "10"], &["run", "timeline"]),
        (&["--sockets", "2"], &["run", "timeline", "plan"]),
        (&["--runs", "3"], &["run", "plan"]),
        (&["--seed", "7"], &["run", "timeline", "plan"]),
        (&["--json"], &["run"]),
        (&["--machine", "m.json"], &["run", "timeline", "plan"]),
        (&["--trace-out", "t.jsonl"], &["run"]),
        (&["--fault-plan", "seed=1"], &["run", "timeline"]),
        (&["--journal-dir", "j"], &["run"]),
        (&["--journal-dir", "j", "--fsync", "never"], &["run"]),
        (&["--engine", "tick"], &["run", "timeline", "plan"]),
    ];

    #[test]
    fn run_family_flags_are_accepted_exactly_where_used() {
        for (flag, users) in RUN_FAMILY_MATRIX {
            for sub in ["run", "timeline", "plan"] {
                let argv: Vec<&str> = [sub, "EP"].iter().chain(flag).copied().collect();
                let got = parse(&argv);
                if users.contains(&sub) {
                    assert!(got.is_ok(), "{argv:?}: {got:?}");
                } else {
                    let err = got.unwrap_err();
                    assert!(err.starts_with("unknown flag --"), "{argv:?}: {err}");
                }
            }
        }
    }

    #[test]
    fn subcommands_reject_flags_they_would_ignore() {
        for argv in [
            &["plan", "EP", "--runs", "3", "--fault-plan", "seed=nope"][..],
            &["plan", "EP", "--trace-out", "x.jsonl"],
            &["plan", "EP", "--controller", "duf"],
            &["timeline", "EP", "--trace-out", "t.jsonl"],
            &["timeline", "EP", "--runs", "7"],
            &["timeline", "EP", "--json"],
            &["platform", "--json"],
            &["apps", "--bogus"],
            &["probe", "x"],
            &["machine-template", "--out", "m.json"],
            &["help", "run"],
            &["journal", "j", "--json"],
            &["resume", "j", "--summary"],
            &["trace", "t.jsonl", "--json"],
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.starts_with("unknown flag "), "{argv:?}: {err}");
        }
        let err = parse(&["plan", "EP", "--trace-out", "x.jsonl"]).unwrap_err();
        assert!(err.contains("only valid with `run`"), "{err}");
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
