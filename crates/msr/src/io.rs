//! The MSR backend abstraction and an in-memory fake.
//!
//! Everything above this layer (the RAPL zone API, the controllers, the
//! simulator glue) talks to hardware exclusively through [`MsrIo`], so a
//! test, a simulation and a real Skylake-SP node are interchangeable.

use crate::fault::{FaultInjector, FaultOp, FaultPlan};
use dufp_types::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-CPU model-specific register access.
///
/// `cpu` is a machine-global logical CPU number (what `/dev/cpu/N/msr`
/// uses). Implementations must be safe to share across threads — DUFP runs
/// one controller thread per socket.
pub trait MsrIo: Send + Sync {
    /// Reads the 64-bit register `address` on `cpu`.
    fn read(&self, cpu: usize, address: u32) -> Result<u64>;

    /// Writes the 64-bit register `address` on `cpu`.
    fn write(&self, cpu: usize, address: u32, value: u64) -> Result<()>;

    /// Number of logical CPUs this backend can address.
    fn cpu_count(&self) -> usize;
}

impl<T: MsrIo + ?Sized> MsrIo for Arc<T> {
    fn read(&self, cpu: usize, address: u32) -> Result<u64> {
        (**self).read(cpu, address)
    }
    fn write(&self, cpu: usize, address: u32, value: u64) -> Result<()> {
        (**self).write(cpu, address, value)
    }
    fn cpu_count(&self) -> usize {
        (**self).cpu_count()
    }
}

/// An in-memory MSR file, for unit tests and as the storage behind the
/// simulator's MSR surface.
///
/// Registers read as zero until first written, except those pre-seeded via
/// [`FakeMsr::seed`]. Supports failure injection ([`FakeMsr::inject_plan`])
/// so the error paths of the layers above can be exercised.
pub struct FakeMsr {
    cpus: usize,
    regs: Mutex<HashMap<(usize, u32), u64>>,
    injector: Mutex<Option<Arc<FaultInjector>>>,
}

impl FakeMsr {
    /// Creates a fake with `cpus` logical CPUs, all registers zero.
    pub fn new(cpus: usize) -> Self {
        FakeMsr {
            cpus,
            regs: Mutex::new(HashMap::new()),
            injector: Mutex::new(None),
        }
    }

    /// Pre-seeds a register value on every CPU.
    pub fn seed(&self, address: u32, value: u64) {
        let mut regs = self.regs.lock();
        for cpu in 0..self.cpus {
            regs.insert((cpu, address), value);
        }
    }

    /// Pre-seeds a register value on one CPU.
    pub fn seed_cpu(&self, cpu: usize, address: u32, value: u64) {
        self.regs.lock().insert((cpu, address), value);
    }

    /// Arms a [`FaultPlan`] (replaces any previous plan), evaluated on
    /// every access: `write,reg=cap` fails every cap write, `any,cpu=1`
    /// every access on CPU 1. With no backend clock, `at=`/`window=`
    /// schedules count each rule's structurally matching accesses.
    pub fn inject_plan(&self, plan: FaultPlan) {
        *self.injector.lock() = if plan.is_empty() {
            None
        } else {
            Some(Arc::new(FaultInjector::new(plan)))
        };
    }

    /// Disarms any [`FaultPlan`].
    pub fn clear_faults(&self) {
        *self.injector.lock() = None;
    }

    fn check(&self, cpu: usize, address: u32, op: FaultOp) -> Result<()> {
        if cpu >= self.cpus {
            return Err(Error::NoSuchComponent(format!("cpu{cpu}")));
        }
        let injector = self.injector.lock().clone();
        match injector {
            Some(injector) => injector.check_msr(op, cpu, address),
            None => Ok(()),
        }
    }
}

impl MsrIo for FakeMsr {
    fn read(&self, cpu: usize, address: u32) -> Result<u64> {
        self.check(cpu, address, FaultOp::Read)?;
        Ok(*self.regs.lock().get(&(cpu, address)).unwrap_or(&0))
    }

    fn write(&self, cpu: usize, address: u32, value: u64) -> Result<()> {
        self.check(cpu, address, FaultOp::Write)?;
        self.regs.lock().insert((cpu, address), value);
        Ok(())
    }

    fn cpu_count(&self) -> usize {
        self.cpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::MSR_PKG_POWER_LIMIT;
    use std::sync::Arc;

    #[test]
    fn unwritten_registers_read_zero() {
        let m = FakeMsr::new(2);
        assert_eq!(m.read(0, 0x620).unwrap(), 0);
    }

    #[test]
    fn write_then_read_round_trips_per_cpu() {
        let m = FakeMsr::new(2);
        m.write(0, 0x620, 0x1212).unwrap();
        assert_eq!(m.read(0, 0x620).unwrap(), 0x1212);
        assert_eq!(m.read(1, 0x620).unwrap(), 0, "cpu 1 untouched");
    }

    #[test]
    fn seed_applies_to_all_cpus() {
        let m = FakeMsr::new(3);
        m.seed(0x606, 0xA0E03);
        for cpu in 0..3 {
            assert_eq!(m.read(cpu, 0x606).unwrap(), 0xA0E03);
        }
    }

    #[test]
    fn out_of_range_cpu_errors() {
        let m = FakeMsr::new(1);
        assert!(m.read(1, 0x620).is_err());
        assert!(m.write(1, 0x620, 0).is_err());
    }

    fn plan(text: &str) -> crate::FaultPlan {
        crate::FaultPlan::parse(text).expect("plan parses")
    }

    #[test]
    fn injected_faults_fire_selectively() {
        let m = FakeMsr::new(2);
        m.inject_plan(plan("write,reg=cap"));
        assert!(m.write(0, MSR_PKG_POWER_LIMIT, 1).is_err());
        assert!(m.write(0, 0x620, 1).is_ok(), "other registers unaffected");
        assert!(m.read(0, MSR_PKG_POWER_LIMIT).is_ok(), "reads unaffected");

        m.inject_plan(plan("read,reg=0x620"));
        assert!(m.read(0, 0x620).is_err());
        assert!(m.write(0, 0x620, 1).is_ok(), "writes unaffected");

        m.inject_plan(plan("any,cpu=1"));
        assert!(m.read(1, 0x620).is_err());
        assert!(m.write(1, 0x620, 1).is_err());
        assert!(m.read(0, 0x620).is_ok());

        m.clear_faults();
        assert!(m.write(0, MSR_PKG_POWER_LIMIT, 1).is_ok());
    }

    #[test]
    fn windowed_fault_plans_fail_only_inside_the_window() {
        let m = FakeMsr::new(2);
        m.inject_plan(plan("write,reg=cap,window=1+2"));
        assert!(m.write(0, MSR_PKG_POWER_LIMIT, 1).is_ok(), "before window");
        assert!(m.write(0, MSR_PKG_POWER_LIMIT, 2).is_err());
        assert!(m.write(0, MSR_PKG_POWER_LIMIT, 3).is_err());
        assert!(m.write(0, MSR_PKG_POWER_LIMIT, 4).is_ok(), "after window");
        assert_eq!(
            m.read(0, MSR_PKG_POWER_LIMIT).unwrap(),
            4,
            "failed writes must not land"
        );

        m.clear_faults();
        m.inject_plan(crate::FaultPlan::none());
        assert!(m.write(0, MSR_PKG_POWER_LIMIT, 5).is_ok());
    }

    #[test]
    fn arc_dyn_usable_across_threads() {
        let m: Arc<dyn MsrIo> = Arc::new(FakeMsr::new(4));
        let handles: Vec<_> = (0..4)
            .map(|cpu| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    m.write(cpu, 0x620, cpu as u64).unwrap();
                    m.read(cpu, 0x620).unwrap()
                })
            })
            .collect();
        for (cpu, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), cpu as u64);
        }
    }
}
