//! Workload generators. Every input the program receives — sweep-grid TOML,
//! the datacenter scenario TOML, the chaos configuration and the journaled
//! fleet's demand plan — is a pure function of the seed and an explicit
//! size, so the same `--seed` always feeds the program the same bytes.

use dufp_net::chaos::ChaosConfig;
use dufp_types::Watts;
use std::fmt::Write as _;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's protocol: 4-socket YETI, 200 ms interval, 10 apps.
    PaperNode,
    /// One socket, every modeled app, 20 ms interval.
    FastControl,
    /// A generated 60-node heterogeneous scenario under three budgets.
    Datacenter,
    /// Chaos matrix at 256 agents plus a journaled fleet and its recovery.
    FleetFailover,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PaperNode,
        Workload::FastControl,
        Workload::Datacenter,
        Workload::FleetFailover,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperNode => "paper-node",
            Workload::FastControl => "fast-control",
            Workload::Datacenter => "datacenter",
            Workload::FleetFailover => "fleet-failover",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// SplitMix64, keyed by the run seed and a stream name so independent
/// inputs draw from independent streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in stream.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` distinct job seeds, small enough to survive the grid parser's
    /// round trip through `f64`.
    pub fn distinct_seeds(&mut self, n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let s = self.next_u64() >> 24;
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }
}

/// The paper's ten applications (Fig. 3).
pub const PAPER_APPS: [&str; 10] = [
    "BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "HPL", "LAMMPS",
];

/// Every modeled application.
pub const ALL_APPS: [&str; 13] = [
    "BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "HPL", "LAMMPS", "STREAM", "DGEMM", "CHASE",
];

/// The dynamic policies and the paper's tolerated slowdowns (Fig. 3).
pub const POLICIES: [&str; 4] = ["duf", "dufp", "dufpf", "dnpc"];
pub const SLOWDOWNS_PCT: [u32; 4] = [0, 5, 10, 20];

/// One sweep workload's shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepShape {
    pub apps: &'static [&'static str],
    pub sockets: u16,
    /// `None` keeps the runner's default (the paper's 200 ms).
    pub interval_ms: Option<u64>,
    pub seeds: usize,
}

impl SweepShape {
    /// The shape of a sweep workload with `scale` × its job seeds for 10 s
    /// of timed section, about half of what a 2-core host gets through.
    pub fn of(w: Workload, scale: f64) -> SweepShape {
        let (apps, sockets, interval_ms, seeds): (&'static [&'static str], _, _, _) = match w {
            Workload::FastControl => (&ALL_APPS, 1, Some(20), 10.0),
            _ => (&PAPER_APPS, 4, None, 6.0),
        };
        SweepShape {
            apps,
            sockets,
            interval_ms,
            seeds: ((seeds * scale).round() as usize).max(1),
        }
    }

    /// Jobs per seed: one `default` baseline plus every policy × slowdown.
    pub fn jobs(&self) -> usize {
        self.apps.len() * (1 + POLICIES.len() * SLOWDOWNS_PCT.len()) * self.seeds
    }
}

/// The two grid files of a sweep workload: the `default` baseline and the
/// dynamic policies, sharing the same job seeds (the paper's paired
/// protocol).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepInputs {
    pub baseline_toml: String,
    pub policies_toml: String,
}

pub fn sweep_inputs(seed: u64, shape: &SweepShape) -> SweepInputs {
    let seeds = Rng::new(seed, "sweep-seeds").distinct_seeds(shape.seeds);
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|a| format!("\"{a}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let list = |items: &[String]| items.join(", ");
    let grid = |policies: &[&str], slowdowns: &[u32]| {
        let mut t = String::new();
        let _ = writeln!(t, "apps = [{}]", quoted(shape.apps));
        let _ = writeln!(t, "policies = [{}]", quoted(policies));
        let slowdowns: Vec<String> = slowdowns.iter().map(u32::to_string).collect();
        let _ = writeln!(t, "slowdowns_pct = [{}]", list(&slowdowns));
        let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(t, "seeds = [{}]", list(&seeds));
        let _ = writeln!(t, "sockets = {}", shape.sockets);
        if let Some(ms) = shape.interval_ms {
            let _ = writeln!(t, "interval_ms = {ms}");
        }
        t
    };
    SweepInputs {
        baseline_toml: grid(&["default"], &[0]),
        policies_toml: grid(&POLICIES, &SLOWDOWNS_PCT),
    }
}

/// The datacenter workload's size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatacenterSize {
    pub nodes: usize,
    pub duration_s: u32,
    pub arrival_seeds: usize,
}

impl DatacenterSize {
    /// `scale` × the arrival seeds for 10 s of timed section, about half
    /// of what a 2-core host gets through.
    pub fn of(scale: f64) -> DatacenterSize {
        DatacenterSize {
            nodes: 60,
            duration_s: 200,
            arrival_seeds: ((8.0 * scale).round() as usize).max(1),
        }
    }
}

/// Per-node budget: below every class's PL1, so capping binds.
pub const DC_BUDGET_PER_NODE_W: f64 = 120.0;
const NPB: [&str; 8] = ["BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA"];
const ACCEL: [&str; 3] = ["HPL", "DGEMM", "STREAM"];

#[derive(Debug, Clone, PartialEq)]
pub struct DatacenterInputs {
    pub spec_toml: String,
    pub arrival_seeds: Vec<u64>,
}

/// A heterogeneous fleet: two thirds YETI nodes with two NPB co-tenants,
/// one third GPU-HBM nodes with one accelerator tenant, under a diurnal
/// day with bursts and one flash crowd. Tenants are dealt from a seeded
/// permutation so every seed places the same multiset of applications:
/// the seed moves placement, phase weights, the flash crowd and the
/// arrival streams, not the fleet's total work.
pub fn datacenter_inputs(seed: u64, size: &DatacenterSize) -> DatacenterInputs {
    let mut rng = Rng::new(seed, "datacenter-spec");
    let d = f64::from(size.duration_s);
    let mut t = String::new();
    let _ = writeln!(t, "[scenario]");
    let _ = writeln!(t, "name = \"ledger-datacenter\"");
    let _ = writeln!(t, "duration_s = {}", size.duration_s);
    let _ = writeln!(t, "interval_ms = 200");
    let _ = writeln!(t, "epoch_intervals = 5");
    let _ = writeln!(t, "budget_w = {}", DC_BUDGET_PER_NODE_W * size.nodes as f64);
    let _ = writeln!(t, "slo_backlog_s = 2.0");
    // Two co-tenants each offer `intensity` × a whole socket's design
    // rate, so the peak stays under half a socket per tenant: bursts and
    // the flash crowd push nodes over capacity, the diurnal curve does not.
    let _ = writeln!(t, "\n[arrival]");
    let _ = writeln!(t, "model = \"diurnal\"");
    let _ = writeln!(t, "period_s = {}", size.duration_s);
    let _ = writeln!(t, "peak = 0.42");
    let _ = writeln!(t, "trough = 0.15");
    let _ = writeln!(t, "bursts_per_hour = 180");
    let _ = writeln!(t, "burst_intensity = 0.15");
    let _ = writeln!(t, "burst_duration_s = 3.0");
    let _ = writeln!(t, "flash_at_s = {:.1}", d * rng.range(0.5, 0.8));
    let _ = writeln!(t, "flash_magnitude = 0.3");
    let _ = writeln!(t, "flash_decay_s = {:.1}", d * 0.02);
    let _ = writeln!(t, "node_stagger_s = {:.2}", d / size.nodes as f64);
    let _ = writeln!(t, "\n[machine.cpu]\nkind = \"yeti\"");
    let _ = writeln!(t, "\n[machine.gpu]\nkind = \"gpu-hbm\"");
    let mut npb = NPB;
    for i in (1..npb.len()).rev() {
        npb.swap(i, rng.below(i + 1));
    }
    let accel = rng.below(ACCEL.len());
    let (mut cpu, mut gpu) = (0, 0);
    for i in 0..size.nodes {
        let _ = writeln!(t, "\n[node.n{i:03}]");
        if i % 3 == 2 {
            let _ = writeln!(t, "machine = \"gpu\"");
            let _ = writeln!(t, "tenants = [\"{}\"]", ACCEL[(gpu + accel) % ACCEL.len()]);
            let _ = writeln!(t, "weights = [{:.3}]", rng.range(0.6, 0.9));
            gpu += 1;
        } else {
            let a = npb[cpu % npb.len()];
            let b = npb[(cpu + 1 + (cpu / npb.len()) % (npb.len() - 1)) % npb.len()];
            let w = rng.range(0.35, 0.65);
            let _ = writeln!(t, "machine = \"cpu\"");
            let _ = writeln!(t, "tenants = [\"{a}\", \"{b}\"]");
            let _ = writeln!(t, "weights = [{:.3}, {:.3}]", w, 1.0 - w);
            cpu += 1;
        }
    }
    DatacenterInputs {
        spec_toml: t,
        arrival_seeds: Rng::new(seed, "datacenter-arrivals").distinct_seeds(size.arrival_seeds),
    }
}

/// The fleet-failover workload's size: `rounds` rounds, each a chaos
/// matrix of `chaos_epochs` per scenario under its own seed plus a fresh
/// journaled fleet writing `journal_events`. `of(scale)` gives `scale` ×
/// the rounds for 10 s of timed section, about half of what a 2-core host
/// gets through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSize {
    pub agents: usize,
    pub rounds: usize,
    pub chaos_epochs: u64,
    pub journal_events: u64,
}

impl FleetSize {
    pub fn of(scale: f64) -> FleetSize {
        FleetSize {
            agents: 256,
            rounds: ((4.0 * scale).round() as usize).max(1),
            chaos_epochs: 100,
            journal_events: 15_000,
        }
    }
}

/// The chaos matrix's budget per agent: the CI shape's 700 W over 8
/// agents, scaled with the fleet so every honest floor stays fundable.
pub const FLEET_BUDGET_PER_AGENT_W: f64 = 87.5;

/// One agent's demand curve in the journaled fleet: a seeded base plus a
/// sinusoid over virtual epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentDemand {
    pub base_w: f64,
    pub swing_w: f64,
    pub period_epochs: f64,
    pub phase: f64,
}

impl AgentDemand {
    /// Watts the agent would draw uncapped at `epoch`, inside
    /// `[floor, node_max]` so every report is plausible to the vetting layer.
    pub fn at(&self, epoch: u64, floor: f64, node_max: f64) -> f64 {
        let angle = std::f64::consts::TAU * (epoch as f64 / self.period_epochs + self.phase);
        (self.base_w + self.swing_w * angle.sin()).clamp(floor, node_max)
    }
}

/// The journaled fleet: agents, the events to journal, and each agent's
/// demand curve.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalPlan {
    pub events: u64,
    pub demand: Vec<AgentDemand>,
}

#[derive(Debug, Clone)]
pub struct FleetInputs {
    /// One chaos configuration per round, each under its own seed.
    pub chaos: Vec<ChaosConfig>,
    /// The journaled fleet every round runs.
    pub journal: JournalPlan,
}

pub fn fleet_inputs(seed: u64, size: &FleetSize) -> FleetInputs {
    let mut rng = Rng::new(seed, "chaos");
    let chaos = (0..size.rounds)
        .map(|_| {
            let mut cfg = ChaosConfig::new(rng.next_u64());
            cfg.agents = size.agents;
            cfg.epochs = size.chaos_epochs;
            cfg.budget = Watts(FLEET_BUDGET_PER_AGENT_W * size.agents as f64);
            cfg
        })
        .collect();
    FleetInputs {
        chaos,
        journal: journal_plan(seed, size.agents, size.journal_events),
    }
}

/// Demand curves for `agents` agents. Bases and swings are stratified —
/// every seed deals the same evenly spaced values, in a seeded order — so
/// the fleet's total demand does not drift with the seed; periods and
/// phases are drawn freely.
pub fn journal_plan(seed: u64, agents: usize, events: u64) -> JournalPlan {
    let mut rng = Rng::new(seed, "journal-demand");
    let mut strata = |lo: f64, hi: f64| {
        let mut v: Vec<f64> = (0..agents)
            .map(|k| lo + (hi - lo) * (k as f64 + 0.5) / agents as f64)
            .collect();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i + 1));
        }
        v
    };
    let bases = strata(80.0, 115.0);
    let swings = strata(5.0, 30.0);
    JournalPlan {
        events,
        demand: bases
            .into_iter()
            .zip(swings)
            .map(|(base_w, swing_w)| AgentDemand {
                base_w,
                swing_w,
                period_epochs: rng.range(10.0, 40.0),
                phase: rng.unit(),
            })
            .collect(),
    }
}
