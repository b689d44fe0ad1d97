//! Per-node budget ceilings and the capper wrapper that enforces them.

use dufp_rapl::{Constraint, PowerCapper};
use dufp_types::check::positive;
use dufp_types::{Joules, Result, SocketId, Watts};
use parking_lot::Mutex;
use std::sync::Arc;

/// A node's current power ceiling, shared between the allocator (writer)
/// and the node's capper wrapper (reader).
#[derive(Debug)]
pub struct NodeBudget {
    ceiling: Mutex<Watts>,
}

impl NodeBudget {
    /// A budget at `ceiling`. Rejects ceilings no node can enforce (zero,
    /// negative, NaN, infinite) with a typed
    /// [`dufp_types::Error::InvalidValue`] naming the field — the same
    /// contract `ControlConfig::validate` gives control-side settings.
    pub fn try_new(ceiling: Watts) -> Result<Arc<Self>> {
        positive("ceiling", ceiling.value())?;
        Ok(Arc::new(NodeBudget {
            ceiling: Mutex::new(ceiling),
        }))
    }

    /// The current ceiling.
    pub fn ceiling(&self) -> Watts {
        *self.ceiling.lock()
    }

    /// Replaces the ceiling (allocator epoch).
    pub fn set_ceiling(&self, w: Watts) {
        *self.ceiling.lock() = w;
    }
}

/// Wraps a node's [`PowerCapper`] so every limit the node-local controller
/// programs — including "reset to defaults" — is clamped to the node's
/// allocated ceiling. DUFP runs unmodified underneath.
pub struct BudgetedCapper<C> {
    inner: C,
    budget: Arc<NodeBudget>,
}

impl<C: PowerCapper> BudgetedCapper<C> {
    /// Wraps `inner` under `budget`.
    pub fn new(inner: C, budget: Arc<NodeBudget>) -> Self {
        BudgetedCapper { inner, budget }
    }

    /// The node's budget handle.
    pub fn budget(&self) -> &Arc<NodeBudget> {
        &self.budget
    }

    /// Moves the node's ceiling to `ceiling`, then enforces it.
    pub fn set_ceiling(&self, socket: SocketId, ceiling: Watts) -> Result<()> {
        self.budget.set_ceiling(ceiling);
        self.enforce_ceiling(socket)
    }

    /// Re-applies the ceiling to the hardware if the currently programmed
    /// limits exceed it (called by the allocator after lowering a ceiling).
    pub fn enforce_ceiling(&self, socket: SocketId) -> Result<()> {
        let ceiling = self.budget.ceiling();
        if self.inner.limit(socket, Constraint::LongTerm)? > ceiling {
            self.inner
                .set_limit(socket, Constraint::LongTerm, ceiling)?;
        }
        if self.inner.limit(socket, Constraint::ShortTerm)? > ceiling {
            self.inner
                .set_limit(socket, Constraint::ShortTerm, ceiling)?;
        }
        Ok(())
    }
}

impl<C: PowerCapper> PowerCapper for BudgetedCapper<C> {
    fn set_limit(&self, socket: SocketId, which: Constraint, limit: Watts) -> Result<()> {
        self.inner
            .set_limit(socket, which, limit.min(self.budget.ceiling()))
    }

    fn limit(&self, socket: SocketId, which: Constraint) -> Result<Watts> {
        self.inner.limit(socket, which)
    }

    fn defaults(&self, socket: SocketId) -> Result<(Watts, Watts)> {
        // The ceiling *is* the node's default: a DUFP "reset" returns to the
        // allocation, not to the silicon's PL1/PL2.
        let (pl1, pl2) = self.inner.defaults(socket)?;
        let ceiling = self.budget.ceiling();
        Ok((pl1.min(ceiling), pl2.min(ceiling)))
    }

    fn package_energy(&self, socket: SocketId) -> Result<Joules> {
        self.inner.package_energy(socket)
    }

    fn dram_energy(&self, socket: SocketId) -> Result<Joules> {
        self.inner.dram_energy(socket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp_msr::registers::{
        PkgPowerLimit, RaplPowerUnit, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT,
        SKYLAKE_SP_POWER_UNIT_RAW,
    };
    use dufp_msr::FakeMsr;
    use dufp_rapl::MsrRapl;
    use dufp_types::{Error, Seconds};

    fn rig(ceiling: f64) -> (Arc<NodeBudget>, BudgetedCapper<MsrRapl<FakeMsr>>) {
        let m = FakeMsr::new(16);
        m.seed(MSR_RAPL_POWER_UNIT, SKYLAKE_SP_POWER_UNIT_RAW);
        let units = RaplPowerUnit::skylake_sp();
        let reg = PkgPowerLimit::defaults(Watts(125.0), Seconds(1.0), Watts(150.0), Seconds(0.01));
        m.seed(MSR_PKG_POWER_LIMIT, reg.encode(&units).unwrap());
        let budget = NodeBudget::try_new(Watts(ceiling)).unwrap();
        let capper = BudgetedCapper::new(MsrRapl::new(m, 1, 16).unwrap(), Arc::clone(&budget));
        (budget, capper)
    }

    #[test]
    fn try_new_rejects_unenforceable_ceilings() {
        for bad in [0.0, -10.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = NodeBudget::try_new(Watts(bad)).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::InvalidValue {
                        what: "ceiling",
                        ..
                    }
                ),
                "{bad}: {err:?}"
            );
        }
        assert_eq!(
            NodeBudget::try_new(Watts(100.0)).unwrap().ceiling(),
            Watts(100.0)
        );
    }

    #[test]
    fn limits_clamp_to_the_ceiling() {
        let (_, c) = rig(100.0);
        c.set_limit(SocketId(0), Constraint::LongTerm, Watts(120.0))
            .unwrap();
        assert_eq!(
            c.limit(SocketId(0), Constraint::LongTerm).unwrap(),
            Watts(100.0)
        );
        c.set_limit(SocketId(0), Constraint::LongTerm, Watts(80.0))
            .unwrap();
        assert_eq!(
            c.limit(SocketId(0), Constraint::LongTerm).unwrap(),
            Watts(80.0)
        );
    }

    #[test]
    fn defaults_are_the_allocation_not_the_silicon() {
        let (_, c) = rig(100.0);
        assert_eq!(
            c.defaults(SocketId(0)).unwrap(),
            (Watts(100.0), Watts(100.0))
        );
        // A DUFP reset therefore lands on the allocation.
        c.reset(SocketId(0)).unwrap();
        assert_eq!(
            c.limit(SocketId(0), Constraint::LongTerm).unwrap(),
            Watts(100.0)
        );
    }

    #[test]
    fn raising_the_ceiling_raises_defaults() {
        let (b, c) = rig(100.0);
        b.set_ceiling(Watts(120.0));
        assert_eq!(
            c.defaults(SocketId(0)).unwrap(),
            (Watts(120.0), Watts(120.0))
        );
        // Above the silicon limit the silicon wins.
        b.set_ceiling(Watts(500.0));
        assert_eq!(
            c.defaults(SocketId(0)).unwrap(),
            (Watts(125.0), Watts(150.0))
        );
    }

    #[test]
    fn enforce_ceiling_pulls_programmed_limits_down() {
        let (b, c) = rig(120.0);
        c.set_both(SocketId(0), Watts(115.0)).unwrap();
        b.set_ceiling(Watts(90.0));
        c.enforce_ceiling(SocketId(0)).unwrap();
        assert_eq!(
            c.limit(SocketId(0), Constraint::LongTerm).unwrap(),
            Watts(90.0)
        );
        assert_eq!(
            c.limit(SocketId(0), Constraint::ShortTerm).unwrap(),
            Watts(90.0)
        );
    }
}
