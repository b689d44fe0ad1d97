//! Typed, validated scenario specifications and their TOML-subset parser.
//!
//! A scenario spec is the one file that describes a whole datacenter
//! experiment: the global budget, the arrival model, the machine classes
//! (including GPU-style nodes with their own uncore transfer functions)
//! and the node → tenant topology. Specs are read by the same TOML-subset
//! reader as sweep grids ([`dufp_types::toml`]), which reports *line
//! numbers and keys* for syntax errors; validation reports *field paths*
//! for semantic ones — a spec typo fails in milliseconds with a pointed
//! message, not twenty virtual minutes into a fleet run.
//!
//! Sections: `[scenario]`, `[arrival]`, `[machine.<id>]` and
//! `[node.<id>]`, each holding `key = value` lines.

use crate::arrival::{ArrivalKind, ArrivalSpec};
use dufp_sim::SharedSocketCfg;
use dufp_types::toml::{self, Line};
use dufp_types::{ArchSpec, BytesPerSec, Error, FlopsPerSec, Hertz, Result, Seconds, Watts};
use dufp_workloads::MaterializeCtx;
use serde::{Deserialize, Serialize};

/// Hardware personality of a machine class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MachineKind {
    /// The paper's Xeon Gold 6130 package (Table I).
    Yeti,
    /// A small synthetic CPU node (fast tests).
    Tiny,
    /// A GPU-style node: HBM-class bandwidth behind a nearly *flat*
    /// uncore transfer function — lowering the uncore barely costs
    /// bandwidth, so uncore scaling behaves completely differently than
    /// on the CPU classes (arxiv 2502.03796's core observation).
    GpuHbm,
}

impl MachineKind {
    fn parse(s: &str) -> std::result::Result<Self, String> {
        match s {
            "yeti" => Ok(MachineKind::Yeti),
            "tiny" => Ok(MachineKind::Tiny),
            "gpu-hbm" | "gpu" => Ok(MachineKind::GpuHbm),
            other => Err(format!(
                "unknown machine kind {other:?} (expected yeti, tiny or gpu-hbm)"
            )),
        }
    }

    /// Label used in scorecards.
    pub fn label(self) -> &'static str {
        match self {
            MachineKind::Yeti => "yeti",
            MachineKind::Tiny => "tiny",
            MachineKind::GpuHbm => "gpu-hbm",
        }
    }
}

/// A synthetic GPU-style node description: one big package, many small
/// compute units, HBM-class bandwidth, a high power envelope.
fn gpu_hbm_arch() -> ArchSpec {
    ArchSpec {
        name: "gpu-hbm (synthetic)".to_owned(),
        microarch: "HBM accelerator".to_owned(),
        sockets: 1,
        cores_per_socket: 32,
        core_freq_min: Hertz::from_ghz(0.8),
        core_freq_base: Hertz::from_ghz(1.4),
        core_freq_max: Hertz::from_ghz(1.8),
        core_freq_step: Hertz::from_mhz(100.0),
        uncore_freq_min: Hertz::from_ghz(0.8),
        uncore_freq_max: Hertz::from_ghz(1.6),
        uncore_freq_step: Hertz::from_mhz(100.0),
        pl1_default: Watts(250.0),
        pl2_default: Watts(300.0),
        pl1_window: Seconds(1.0),
        pl2_window: Seconds(0.01),
        cap_step: Watts(10.0),
        cap_floor: Watts(100.0),
        peak_bandwidth: BytesPerSec::from_gib(800.0),
        peak_flops: FlopsPerSec::from_gflops(7000.0),
    }
}

/// One machine class: a kind plus optional per-spec physics overrides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineClass {
    /// Spec-local identifier nodes refer to.
    pub id: String,
    /// Hardware personality.
    pub kind: MachineKind,
    /// Override: bandwidth knee frequency (GHz).
    pub uncore_knee_ghz: Option<f64>,
    /// Override: sub-knee bandwidth scaling exponent.
    pub uncore_exponent: Option<f64>,
    /// Override: peak bandwidth (GiB/s).
    pub peak_bw_gib: Option<f64>,
    /// Override: default long-term power limit (W).
    pub pl1_w: Option<f64>,
    /// Override: lowest enforceable ceiling (W).
    pub cap_floor_w: Option<f64>,
}

impl MachineClass {
    fn new(id: &str, kind: MachineKind) -> Self {
        MachineClass {
            id: id.to_string(),
            kind,
            uncore_knee_ghz: None,
            uncore_exponent: None,
            peak_bw_gib: None,
            pl1_w: None,
            cap_floor_w: None,
        }
    }

    /// The architecture this class simulates, overrides applied.
    pub fn arch(&self) -> ArchSpec {
        let mut arch = match self.kind {
            MachineKind::Yeti => ArchSpec::yeti(),
            MachineKind::Tiny => ArchSpec::tiny(),
            MachineKind::GpuHbm => gpu_hbm_arch(),
        };
        if let Some(bw) = self.peak_bw_gib {
            arch.peak_bandwidth = BytesPerSec::from_gib(bw);
        }
        if let Some(pl1) = self.pl1_w {
            arch.pl1_default = Watts(pl1);
            arch.pl2_default = Watts(pl1 * 1.2);
        }
        if let Some(floor) = self.cap_floor_w {
            arch.cap_floor = Watts(floor);
        }
        arch
    }

    /// The shared-socket physics for this class: the per-kind uncore
    /// transfer function, then any spec overrides on top.
    pub fn shared_cfg(&self) -> SharedSocketCfg {
        let arch = self.arch();
        let mut cfg = SharedSocketCfg::from_arch(&arch);
        match self.kind {
            MachineKind::Yeti => {
                cfg.bandwidth = dufp_model::BandwidthModel::xeon_gold_6130();
                if let Some(bw) = self.peak_bw_gib {
                    cfg.bandwidth.peak = BytesPerSec::from_gib(bw);
                }
            }
            MachineKind::Tiny => {
                cfg.bandwidth.knee_freq = Hertz::from_ghz(1.6);
                cfg.bandwidth.uncore_exponent = 2.0;
                cfg.bandwidth.cap_knee = Watts(35.0);
            }
            MachineKind::GpuHbm => {
                // HBM: bandwidth is nearly insensitive to the uncore-like
                // domain, and only very deep caps starve it.
                cfg.bandwidth.knee_freq = Hertz::from_ghz(1.0);
                cfg.bandwidth.uncore_exponent = 1.1;
                cfg.bandwidth.cap_knee = Watts(180.0);
                cfg.bandwidth.cap_slope_per_watt = 0.008;
                cfg.bandwidth.cap_floor_factor = 0.5;
                cfg.power.base = Watts(45.0);
                cfg.power.core_cdyn = 2.0;
                cfg.power.uncore_leak_per_volt = 10.0;
                cfg.power.uncore_cdyn = 30.0;
            }
        }
        if let Some(knee) = self.uncore_knee_ghz {
            cfg.bandwidth.knee_freq = Hertz::from_ghz(knee);
        }
        if let Some(exp) = self.uncore_exponent {
            cfg.bandwidth.uncore_exponent = exp;
        }
        cfg
    }

    /// Materialization context for this class's phase tables.
    pub fn materialize_ctx(&self) -> MaterializeCtx {
        let cfg = self.shared_cfg();
        let arch = self.arch();
        MaterializeCtx {
            cores: cfg.cores,
            core_freq_max: cfg.core_freq_max,
            peak_bandwidth: cfg.bandwidth.peak,
            peak_flops: arch.peak_flops,
        }
    }
}

/// One node: a machine class plus its co-scheduled tenants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node name (unique per spec).
    pub id: String,
    /// Machine-class id this node instantiates.
    pub machine: String,
    /// Tenant applications co-scheduled on the shared socket.
    pub tenants: Vec<String>,
    /// Per-tenant weight (scales the phase table); defaults to
    /// `1/len(tenants)` so a co-tenant mix nominally fits the socket.
    pub weights: Vec<f64>,
}

/// A complete, validated scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (lands in every scorecard row).
    pub name: String,
    /// Virtual duration in seconds.
    pub duration_s: f64,
    /// Control interval in milliseconds.
    pub interval_ms: u64,
    /// Allocator epoch length in control intervals.
    pub epoch_intervals: u32,
    /// Global fleet power budget (package domains).
    pub budget_w: f64,
    /// Backlog threshold, in seconds of design-point work, past which a
    /// tenant-interval counts as an SLO violation.
    pub slo_backlog_s: f64,
    /// Arrival model.
    pub arrival: ArrivalSpec,
    /// Machine classes, in declaration order.
    pub machines: Vec<MachineClass>,
    /// Nodes, in declaration order.
    pub nodes: Vec<NodeSpec>,
}

/// The runnable example spec the README documents and CI exercises: a
/// diurnal + burst + flash-crowd day over a heterogeneous fleet of two
/// co-tenant CPU nodes and one GPU-style node.
pub const EXAMPLE_TOML: &str = r#"# A compressed datacenter "day": 60 virtual seconds of diurnal load with
# Poisson bursts and one flash crowd, over a heterogeneous 3-node fleet
# sharing a 380 W global budget.

[scenario]
name = "diurnal-hetero"
duration_s = 60
interval_ms = 200
epoch_intervals = 5
budget_w = 380
slo_backlog_s = 2.0

[arrival]
model = "diurnal"
period_s = 60
peak = 1.0
trough = 0.3
bursts_per_hour = 240
burst_intensity = 0.4
burst_duration_s = 2.5
flash_at_s = 40
flash_magnitude = 0.8
flash_decay_s = 6
node_stagger_s = 8

[machine.cpu]
kind = "yeti"

[machine.gpu]
kind = "gpu-hbm"

[node.web0]
machine = "cpu"
tenants = ["CG", "EP"]
weights = [0.55, 0.45]

[node.web1]
machine = "cpu"
tenants = ["MG", "LU"]
weights = [0.5, 0.5]

[node.accel0]
machine = "gpu"
tenants = ["HPL"]
weights = [0.8]
"#;

impl ScenarioSpec {
    /// Parses and validates a spec from its TOML text.
    pub fn from_toml(text: &str) -> Result<Self> {
        let spec = parse_spec(text)?;
        spec.validate()?;
        Ok(spec)
    }

    /// The example spec (parsed; infallible by test).
    pub fn example() -> Self {
        Self::from_toml(EXAMPLE_TOML).expect("example spec must parse")
    }

    /// A minimal fast scenario for tests and benches: one co-tenant tiny
    /// CPU node and one GPU-style node under a diurnal curve.
    pub fn mini() -> Self {
        ScenarioSpec {
            name: "mini".into(),
            duration_s: 24.0,
            interval_ms: 200,
            epoch_intervals: 5,
            budget_w: 220.0,
            slo_backlog_s: 2.0,
            arrival: ArrivalSpec {
                kind: ArrivalKind::Diurnal,
                period_s: 24.0,
                peak: 1.0,
                trough: 0.35,
                bursts_per_hour: 450.0,
                burst_intensity: 0.3,
                burst_duration_s: 1.5,
                flash_at_s: Some(16.0),
                flash_magnitude: 0.6,
                flash_decay_s: 3.0,
                node_stagger_s: 6.0,
                ..ArrivalSpec::default()
            },
            machines: vec![
                MachineClass::new("cpu", MachineKind::Tiny),
                MachineClass::new("gpu", MachineKind::GpuHbm),
            ],
            nodes: vec![
                NodeSpec {
                    id: "n0".into(),
                    machine: "cpu".into(),
                    tenants: vec!["CG".into(), "EP".into()],
                    weights: vec![0.6, 0.4],
                },
                NodeSpec {
                    id: "n1".into(),
                    machine: "gpu".into(),
                    tenants: vec!["HPL".into()],
                    weights: vec![0.8],
                },
            ],
        }
    }

    /// Total tenants across the fleet.
    pub fn tenant_count(&self) -> usize {
        self.nodes.iter().map(|n| n.tenants.len()).sum()
    }

    /// Resolves a node's machine class.
    pub fn class_of(&self, node: &NodeSpec) -> Option<&MachineClass> {
        self.machines.iter().find(|m| m.id == node.machine)
    }

    /// Semantic validation with field-path errors (`scenario.budget_w`,
    /// `node.web0.tenants`, …), the same typed-error discipline
    /// `SimConfig::validate` and `ClusterConfig::validate` follow.
    pub fn validate(&self) -> Result<()> {
        fn fail(path: impl Into<String>, why: impl std::fmt::Display) -> Result<()> {
            let path = path.into();
            Err(Error::invalid("scenario", format!("{path}: {why}")))
        }
        if self.name.is_empty() {
            return fail("scenario.name", "must not be empty");
        }
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 {
            return fail(
                "scenario.duration_s",
                format!("must be finite and > 0 (got {})", self.duration_s),
            );
        }
        if self.interval_ms < 10 {
            return fail(
                "scenario.interval_ms",
                format!("must be >= 10 ms (got {})", self.interval_ms),
            );
        }
        if self.epoch_intervals == 0 {
            return fail("scenario.epoch_intervals", "must be >= 1");
        }
        if !self.budget_w.is_finite() || self.budget_w <= 0.0 {
            return fail(
                "scenario.budget_w",
                format!("must be finite and > 0 (got {})", self.budget_w),
            );
        }
        if !self.slo_backlog_s.is_finite() || self.slo_backlog_s <= 0.0 {
            return fail(
                "scenario.slo_backlog_s",
                format!("must be finite and > 0 (got {})", self.slo_backlog_s),
            );
        }

        let a = &self.arrival;
        for (field, v) in [
            ("arrival.base", a.base),
            ("arrival.peak", a.peak),
            ("arrival.trough", a.trough),
            ("arrival.bursts_per_hour", a.bursts_per_hour),
            ("arrival.burst_intensity", a.burst_intensity),
            ("arrival.flash_magnitude", a.flash_magnitude),
            ("arrival.node_stagger_s", a.node_stagger_s),
        ] {
            if !v.is_finite() || v < 0.0 {
                return fail(
                    field,
                    format!("arrival rates must be finite and non-negative (got {v})"),
                );
            }
        }
        if !a.period_s.is_finite() || a.period_s <= 0.0 {
            return fail(
                "arrival.period_s",
                format!("must be finite and > 0 (got {})", a.period_s),
            );
        }
        if a.peak < a.trough {
            return fail(
                "arrival.peak",
                format!("peak {} must be >= trough {}", a.peak, a.trough),
            );
        }
        if a.bursts_per_hour > 0.0 && (!a.burst_duration_s.is_finite() || a.burst_duration_s <= 0.0)
        {
            return fail(
                "arrival.burst_duration_s",
                format!(
                    "must be finite and > 0 when bursts are enabled (got {})",
                    a.burst_duration_s
                ),
            );
        }
        if let Some(at) = a.flash_at_s {
            if !at.is_finite() || at < 0.0 {
                return fail(
                    "arrival.flash_at_s",
                    format!("must be finite and non-negative (got {at})"),
                );
            }
            if !a.flash_decay_s.is_finite() || a.flash_decay_s <= 0.0 {
                return fail(
                    "arrival.flash_decay_s",
                    format!("must be finite and > 0 (got {})", a.flash_decay_s),
                );
            }
        }

        if self.machines.is_empty() {
            return fail("machine", "at least one machine class is required");
        }
        for (i, m) in self.machines.iter().enumerate() {
            let path = format!("machine.{}", m.id);
            if self.machines[..i].iter().any(|o| o.id == m.id) {
                return fail(path, "duplicate machine id");
            }
            for (field, v) in [
                ("uncore_knee_ghz", m.uncore_knee_ghz),
                ("uncore_exponent", m.uncore_exponent),
                ("peak_bw_gib", m.peak_bw_gib),
                ("pl1_w", m.pl1_w),
                ("cap_floor_w", m.cap_floor_w),
            ] {
                if let Some(v) = v {
                    if !v.is_finite() || v <= 0.0 {
                        return fail(
                            format!("{path}.{field}"),
                            format!("must be finite and > 0 (got {v})"),
                        );
                    }
                }
            }
            if let (Some(floor), Some(pl1)) = (m.cap_floor_w, m.pl1_w) {
                if floor > pl1 {
                    return fail(
                        format!("{path}.cap_floor_w"),
                        format!("floor {floor} W exceeds pl1 {pl1} W"),
                    );
                }
            }
        }

        if self.nodes.is_empty() {
            return fail("node", "at least one node is required");
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let path = format!("node.{}", n.id);
            if self.nodes[..i].iter().any(|o| o.id == n.id) {
                return fail(path, "duplicate node id");
            }
            let Some(class) = self.class_of(n) else {
                return fail(
                    format!("{path}.machine"),
                    format!(
                        "machine id {:?} does not resolve (declared: {})",
                        n.machine,
                        self.machines
                            .iter()
                            .map(|m| m.id.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                );
            };
            if n.tenants.is_empty() {
                return fail(format!("{path}.tenants"), "empty tenant mix");
            }
            if !n.weights.is_empty() && n.weights.len() != n.tenants.len() {
                return fail(
                    format!("{path}.weights"),
                    format!(
                        "{} weights for {} tenants",
                        n.weights.len(),
                        n.tenants.len()
                    ),
                );
            }
            for w in &n.weights {
                if !w.is_finite() || *w <= 0.0 {
                    return fail(
                        format!("{path}.weights"),
                        format!("weights must be finite and > 0 (got {w})"),
                    );
                }
            }
            let ctx = class.materialize_ctx();
            // The socket splits its cores evenly over tenants with backlog;
            // past one tenant per core the highest slots would get none and
            // never be served.
            if n.tenants.len() > usize::from(ctx.cores) {
                return fail(
                    format!("{path}.tenants"),
                    format!("{} tenants on {} cores", n.tenants.len(), ctx.cores),
                );
            }
            for app in &n.tenants {
                if let Err(e) = dufp_workloads::apps::by_name(app, &ctx) {
                    return fail(format!("{path}.tenants"), format!("app {app:?}: {e}"));
                }
            }
        }
        // Capped nodes never run below their class floor, so a budget
        // under the floors' sum would be overspent by construction.
        let floors: f64 = self
            .nodes
            .iter()
            .filter_map(|n| self.class_of(n))
            .map(|m| m.arch().cap_floor.value())
            .sum();
        if self.budget_w < floors {
            return fail(
                "scenario.budget_w",
                format!(
                    "{} W cannot fund {} nodes at their cap floors ({floors} W)",
                    self.budget_w,
                    self.nodes.len()
                ),
            );
        }
        Ok(())
    }

    /// A node's tenant weights with the default (`1/len`) applied.
    pub fn weights_of(node: &NodeSpec) -> Vec<f64> {
        if node.weights.is_empty() {
            vec![1.0 / node.tenants.len() as f64; node.tenants.len()]
        } else {
            node.weights.clone()
        }
    }
}

/// Which section of the file a line belongs to.
#[derive(Debug, Clone, PartialEq)]
enum Section {
    None,
    Scenario,
    Arrival,
    Machine(usize),
    Node(usize),
}

fn parse_spec(text: &str) -> Result<ScenarioSpec> {
    let mut spec = ScenarioSpec {
        name: String::new(),
        duration_s: 60.0,
        interval_ms: 200,
        epoch_intervals: 5,
        budget_w: f64::NAN,
        slo_backlog_s: 2.0,
        arrival: ArrivalSpec::default(),
        machines: Vec::new(),
        nodes: Vec::new(),
    };
    let mut section = Section::None;

    toml::read(text, "scenario", |line| {
        let (key, value) = match line {
            Line::Header(header) => {
                section = spec.open_section(header)?;
                return Ok(());
            }
            Line::Pair { key, value } => (key, value),
        };
        let num = || toml::number(value);
        match &section {
            Section::None => return Err("key before any [section] header".into()),
            Section::Scenario => match key {
                "name" => spec.name = toml::string(value)?,
                "duration_s" => spec.duration_s = num()?,
                "interval_ms" => spec.interval_ms = toml::integer(value)?,
                "epoch_intervals" => spec.epoch_intervals = toml::integer(value)?,
                "budget_w" => spec.budget_w = num()?,
                "slo_backlog_s" => spec.slo_backlog_s = num()?,
                _ => return Err("unknown [scenario] key".into()),
            },
            Section::Arrival => {
                let a = &mut spec.arrival;
                match key {
                    "model" => {
                        a.kind = match toml::string(value)?.as_str() {
                            "constant" => ArrivalKind::Constant,
                            "diurnal" => ArrivalKind::Diurnal,
                            other => {
                                return Err(format!(
                                    "unknown arrival model {other:?} (expected constant or diurnal)"
                                ))
                            }
                        }
                    }
                    "base" => a.base = num()?,
                    "period_s" => a.period_s = num()?,
                    "peak" => a.peak = num()?,
                    "trough" => a.trough = num()?,
                    "bursts_per_hour" => a.bursts_per_hour = num()?,
                    "burst_intensity" => a.burst_intensity = num()?,
                    "burst_duration_s" => a.burst_duration_s = num()?,
                    "flash_at_s" => a.flash_at_s = Some(num()?),
                    "flash_magnitude" => a.flash_magnitude = num()?,
                    "flash_decay_s" => a.flash_decay_s = num()?,
                    "node_stagger_s" => a.node_stagger_s = num()?,
                    _ => return Err("unknown [arrival] key".into()),
                }
            }
            Section::Machine(i) => {
                let m = &mut spec.machines[*i];
                match key {
                    "kind" => m.kind = MachineKind::parse(&toml::string(value)?)?,
                    "uncore_knee_ghz" => m.uncore_knee_ghz = Some(num()?),
                    "uncore_exponent" => m.uncore_exponent = Some(num()?),
                    "peak_bw_gib" => m.peak_bw_gib = Some(num()?),
                    "pl1_w" => m.pl1_w = Some(num()?),
                    "cap_floor_w" => m.cap_floor_w = Some(num()?),
                    _ => return Err("unknown [machine] key".into()),
                }
            }
            Section::Node(i) => {
                let n = &mut spec.nodes[*i];
                match key {
                    "machine" => n.machine = toml::string(value)?,
                    "tenants" => n.tenants = toml::string_array(value)?,
                    "weights" => n.weights = toml::number_array(value)?,
                    _ => return Err("unknown [node] key".into()),
                }
            }
        }
        Ok(())
    })?;

    if spec.name.is_empty() {
        return Err(Error::invalid(
            "scenario",
            "scenario.name: missing (add name = \"...\" under [scenario])",
        ));
    }
    if !spec.budget_w.is_finite() {
        return Err(Error::invalid(
            "scenario",
            "scenario.budget_w: missing (add budget_w = <watts> under [scenario])",
        ));
    }
    Ok(spec)
}

impl ScenarioSpec {
    /// Opens the section a `[header]` names, declaring its machine or node.
    fn open_section(&mut self, header: &str) -> std::result::Result<Section, String> {
        if header == "scenario" {
            return Ok(Section::Scenario);
        }
        if header == "arrival" {
            return Ok(Section::Arrival);
        }
        if let Some(id) = header.strip_prefix("machine.") {
            if id.is_empty() {
                return Err("machine section needs an id".into());
            }
            self.machines.push(MachineClass::new(id, MachineKind::Yeti));
            return Ok(Section::Machine(self.machines.len() - 1));
        }
        if let Some(id) = header.strip_prefix("node.") {
            if id.is_empty() {
                return Err("node section needs an id".into());
            }
            self.nodes.push(NodeSpec {
                id: id.to_string(),
                machine: String::new(),
                tenants: Vec::new(),
                weights: Vec::new(),
            });
            return Ok(Section::Node(self.nodes.len() - 1));
        }
        Err(
            "unknown section (expected [scenario], [arrival], [machine.<id>] or [node.<id>])"
                .into(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detail(err: Error) -> String {
        match err {
            Error::InvalidValue { detail, .. } => detail,
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    #[test]
    fn example_spec_parses_and_validates() {
        let spec = ScenarioSpec::example();
        assert_eq!(spec.name, "diurnal-hetero");
        assert_eq!(spec.machines.len(), 2);
        assert_eq!(spec.nodes.len(), 3);
        assert_eq!(spec.tenant_count(), 5);
        assert_eq!(spec.nodes[2].machine, "gpu");
    }

    #[test]
    fn mini_spec_validates() {
        ScenarioSpec::mini().validate().unwrap();
    }

    #[test]
    fn a_budget_below_the_node_floors_is_rejected_naming_budget() {
        // mini's floors: tiny 20 W + gpu-hbm 100 W.
        let mut spec = ScenarioSpec::mini();
        spec.budget_w = 119.0;
        let err = detail(spec.validate().unwrap_err());
        assert!(err.contains("scenario.budget_w"), "{err}");
        spec.budget_w = 120.0;
        spec.validate().unwrap();
    }

    #[test]
    fn syntax_errors_name_the_line() {
        let err = ScenarioSpec::from_toml("[scenario]\nname? yes\n").unwrap_err();
        assert!(detail(err).contains("line 2"), "must cite the line");
        let err = ScenarioSpec::from_toml("[what]\n").unwrap_err();
        assert!(detail(err).contains("line 1"));
        let err = ScenarioSpec::from_toml("name = \"x\"\n").unwrap_err();
        assert!(detail(err).contains("before any [section]"));
        // Integer fields reject fractions, negatives and overflow instead
        // of truncating them.
        for (key, value) in [
            ("interval_ms", "200.9"),
            ("interval_ms", "-1"),
            ("interval_ms", "1e30"),
            ("epoch_intervals", "2.5"),
            ("epoch_intervals", "-1"),
            ("epoch_intervals", "4294967296"),
        ] {
            let text = format!("[scenario]\nname = \"x\"\n{key} = {value}\n");
            let d = detail(ScenarioSpec::from_toml(&text).unwrap_err());
            assert!(d.contains(&format!("line 3: {key}")), "{d}");
        }
    }

    #[test]
    fn negative_arrival_rate_rejected_with_field_path() {
        let mut spec = ScenarioSpec::mini();
        spec.arrival.bursts_per_hour = -3.0;
        let d = detail(spec.validate().unwrap_err());
        assert!(d.contains("arrival.bursts_per_hour"), "{d}");
        assert!(d.contains("non-negative"), "{d}");
    }

    #[test]
    fn non_finite_arrival_rate_rejected() {
        for v in [f64::NAN, f64::INFINITY] {
            let mut spec = ScenarioSpec::mini();
            spec.arrival.peak = v;
            let d = detail(spec.validate().unwrap_err());
            assert!(d.contains("arrival.peak"), "{d}");
        }
    }

    #[test]
    fn empty_tenant_mix_rejected() {
        let mut spec = ScenarioSpec::mini();
        spec.nodes[0].tenants.clear();
        spec.nodes[0].weights.clear();
        let d = detail(spec.validate().unwrap_err());
        assert!(d.contains("node.n0.tenants"), "{d}");
        assert!(d.contains("empty tenant mix"), "{d}");
    }

    #[test]
    fn more_tenants_than_cores_rejected() {
        // `n0` sits on the mini spec's 4-core `tiny` class.
        let mut spec = ScenarioSpec::mini();
        spec.nodes[0].tenants = ["CG", "EP", "MG", "LU", "BT"].map(String::from).to_vec();
        spec.nodes[0].weights.clear();
        let d = detail(spec.validate().unwrap_err());
        assert!(d.contains("node.n0.tenants: 5 tenants on 4 cores"), "{d}");
        // One tenant per core is still served.
        spec.nodes[0].tenants.pop();
        spec.validate().unwrap();
    }

    #[test]
    fn unresolved_machine_id_rejected() {
        let mut spec = ScenarioSpec::mini();
        spec.nodes[1].machine = "tpu".into();
        let d = detail(spec.validate().unwrap_err());
        assert!(d.contains("node.n1.machine"), "{d}");
        assert!(d.contains("does not resolve"), "{d}");
        assert!(d.contains("cpu, gpu"), "must list declared ids: {d}");
    }

    #[test]
    fn unknown_app_rejected() {
        let mut spec = ScenarioSpec::mini();
        spec.nodes[0].tenants[0] = "NOPE".into();
        let d = detail(spec.validate().unwrap_err());
        assert!(d.contains("node.n0.tenants"), "{d}");
    }

    #[test]
    fn weight_arity_and_sign_checked() {
        let mut spec = ScenarioSpec::mini();
        spec.nodes[0].weights = vec![1.0];
        let d = detail(spec.validate().unwrap_err());
        assert!(d.contains("node.n0.weights"), "{d}");

        let mut spec = ScenarioSpec::mini();
        spec.nodes[0].weights = vec![0.5, -0.5];
        let d = detail(spec.validate().unwrap_err());
        assert!(d.contains("finite and > 0"), "{d}");
    }

    #[test]
    fn budget_must_be_finite_positive() {
        for v in [0.0, -10.0, f64::NAN] {
            let mut spec = ScenarioSpec::mini();
            spec.budget_w = v;
            let d = detail(spec.validate().unwrap_err());
            assert!(d.contains("scenario.budget_w"), "{d}");
        }
    }

    #[test]
    fn missing_budget_reported_at_parse() {
        let d = detail(ScenarioSpec::from_toml("[scenario]\nname = \"x\"\n").unwrap_err());
        assert!(d.contains("budget_w"), "{d}");
    }

    #[test]
    fn gpu_class_has_flatter_uncore_transfer_than_cpu() {
        let spec = ScenarioSpec::mini();
        let cpu = spec.machines[0].shared_cfg();
        let gpu = spec.machines[1].shared_cfg();
        assert!(gpu.bandwidth.uncore_exponent < cpu.bandwidth.uncore_exponent);
        assert!(gpu.bandwidth.peak.value() > cpu.bandwidth.peak.value());
        // Halving the uncore costs the GPU class far less of its peak.
        let cpu_half = cpu
            .bandwidth
            .uncore_factor(Hertz(cpu.bandwidth.knee_freq.value() / 2.0));
        let gpu_half = gpu
            .bandwidth
            .uncore_factor(Hertz(gpu.bandwidth.knee_freq.value() / 2.0));
        assert!(gpu_half > cpu_half);
    }

    #[test]
    fn machine_overrides_apply() {
        let mut spec = ScenarioSpec::mini();
        spec.machines[0].uncore_exponent = Some(1.5);
        spec.machines[0].peak_bw_gib = Some(50.0);
        let cfg = spec.machines[0].shared_cfg();
        assert_eq!(cfg.bandwidth.uncore_exponent, 1.5);
        assert!((cfg.bandwidth.peak.value() - BytesPerSec::from_gib(50.0).value()).abs() < 1.0);
    }

    #[test]
    fn default_weights_split_evenly() {
        let node = NodeSpec {
            id: "n".into(),
            machine: "m".into(),
            tenants: vec!["CG".into(), "EP".into()],
            weights: vec![],
        };
        assert_eq!(ScenarioSpec::weights_of(&node), vec![0.5, 0.5]);
    }
}
