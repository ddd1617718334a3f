//! The CPU core model.
//!
//! Each [`Cpu`] tracks the execution state relevant to the paper's
//! protocols: whether it is running untrusted code, executing inside a
//! protected PAL session, or idled (on baseline hardware, a late launch
//! "requires all but one of the processors to be in a special idle
//! state", §4.2). It also carries the *proposed* PAL preemption timer
//! (§5.3.1) that lets the untrusted OS bound a PAL's execution time.

use crate::time::SimDuration;
use crate::types::{CpuId, PhysAddr};

/// What a CPU core is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CpuExecState {
    /// Running untrusted legacy code (OS / applications).
    #[default]
    Normal,
    /// Executing a protected PAL session whose SECB/SLB lives at the
    /// given physical address.
    SecureExec {
        /// Physical address of the SLB (baseline) or SECB (proposed).
        region_base: PhysAddr,
    },
    /// Parked in the special idle state baseline late launch requires of
    /// all other cores.
    ForcedIdle,
}

/// A single CPU core.
///
/// # Example
///
/// ```
/// use sea_hw::{Cpu, CpuId, PhysAddr};
///
/// let mut cpu = Cpu::new(CpuId(0), 2.2);
/// cpu.enter_secure(PhysAddr(0x10000));
/// assert!(cpu.in_secure_exec());
/// assert!(!cpu.interrupts_enabled());
/// cpu.leave_secure();
/// assert!(!cpu.in_secure_exec());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cpu {
    id: CpuId,
    ghz: f64,
    state: CpuExecState,
    interrupts_enabled: bool,
    /// Proposed hardware: OS-configured bound on PAL execution (§5.3.1).
    preemption_timer: Option<SimDuration>,
}

impl Cpu {
    /// Creates an idle core with the given clock rate in GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not positive and finite.
    pub fn new(id: CpuId, ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "clock rate must be positive");
        Cpu {
            id,
            ghz,
            state: CpuExecState::Normal,
            interrupts_enabled: true,
            preemption_timer: None,
        }
    }

    /// This core's identifier.
    pub fn id(&self) -> CpuId {
        self.id
    }

    /// Clock rate in GHz.
    pub fn ghz(&self) -> f64 {
        self.ghz
    }

    /// Current execution state.
    pub fn state(&self) -> CpuExecState {
        self.state
    }

    /// Whether the core is inside a protected PAL session.
    pub fn in_secure_exec(&self) -> bool {
        matches!(self.state, CpuExecState::SecureExec { .. })
    }

    /// Whether maskable interrupts are delivered to this core.
    pub fn interrupts_enabled(&self) -> bool {
        self.interrupts_enabled
    }

    /// The OS-configured PAL preemption bound, if any.
    pub fn preemption_timer(&self) -> Option<SimDuration> {
        self.preemption_timer
    }

    /// Configures the PAL preemption timer (proposed hardware, §5.3.1).
    /// `None` disables preemption (legacy behaviour).
    pub fn set_preemption_timer(&mut self, limit: Option<SimDuration>) {
        self.preemption_timer = limit;
    }

    /// Enters protected execution: models the CPU-state reinitialization
    /// performed by `SKINIT`/`SENTER`/`SLAUNCH` — "reinitializes the CPU
    /// ... to a well-known trusted state" and "disables interrupts to
    /// prevent previously executing code from regaining control" (§2.2.1,
    /// §5.1.1).
    pub fn enter_secure(&mut self, region_base: PhysAddr) {
        self.state = CpuExecState::SecureExec { region_base };
        self.interrupts_enabled = false;
    }

    /// Leaves protected execution and re-enables interrupts, modelling
    /// the secure state clear on PAL yield/exit ("any microarchitectural
    /// state that may persist long enough to leak the secrets of a PAL
    /// must be cleared", §5.3.1).
    pub fn leave_secure(&mut self) {
        self.state = CpuExecState::Normal;
        self.interrupts_enabled = true;
    }

    /// Parks the core in the baseline forced-idle state.
    pub fn force_idle(&mut self) {
        self.state = CpuExecState::ForcedIdle;
    }

    /// Returns the core from forced idle to normal execution.
    pub fn wake(&mut self) {
        if self.state == CpuExecState::ForcedIdle {
            self.state = CpuExecState::Normal;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_core_is_normal_with_interrupts() {
        let cpu = Cpu::new(CpuId(3), 1.8);
        assert_eq!(cpu.id(), CpuId(3));
        assert_eq!(cpu.state(), CpuExecState::Normal);
        assert!(cpu.interrupts_enabled());
        assert!(cpu.preemption_timer().is_none());
    }

    #[test]
    fn secure_entry_disables_interrupts() {
        let mut cpu = Cpu::new(CpuId(0), 2.2);
        cpu.enter_secure(PhysAddr(0x1000));
        assert_eq!(
            cpu.state(),
            CpuExecState::SecureExec {
                region_base: PhysAddr(0x1000)
            }
        );
        assert!(!cpu.interrupts_enabled());
        cpu.leave_secure();
        assert!(cpu.interrupts_enabled());
        assert_eq!(cpu.state(), CpuExecState::Normal);
    }

    #[test]
    fn forced_idle_and_wake() {
        let mut cpu = Cpu::new(CpuId(1), 2.2);
        cpu.force_idle();
        assert_eq!(cpu.state(), CpuExecState::ForcedIdle);
        cpu.wake();
        assert_eq!(cpu.state(), CpuExecState::Normal);
        // Wake is a no-op in secure state.
        cpu.enter_secure(PhysAddr(0));
        cpu.wake();
        assert!(cpu.in_secure_exec());
    }

    #[test]
    fn preemption_timer_roundtrip() {
        let mut cpu = Cpu::new(CpuId(0), 2.2);
        cpu.set_preemption_timer(Some(SimDuration::from_ms(10)));
        assert_eq!(cpu.preemption_timer(), Some(SimDuration::from_ms(10)));
        cpu.set_preemption_timer(None);
        assert!(cpu.preemption_timer().is_none());
    }

    #[test]
    #[should_panic(expected = "clock rate must be positive")]
    fn zero_clock_panics() {
        let _ = Cpu::new(CpuId(0), 0.0);
    }
}
