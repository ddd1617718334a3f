//! The memory controller (north bridge): baseline DMA protection and the
//! paper's proposed per-page × per-CPU access-control table.
//!
//! Baseline hardware (§2.2): AMD's Device Exclusion Vector (DEV) and
//! Intel's Memory Protection Table (MPT) are bit vectors that block *DMA*
//! to selected pages — they do nothing about other CPUs.
//!
//! Proposed hardware (§5.2): "the memory controller maintain\[s\] an access
//! control table with one entry per physical page, where each entry
//! specifies which CPUs (if any) have access to the physical page."
//! Entries move through the Figure 5(b) state machine:
//!
//! ```text
//!        SLAUNCH                suspend
//!  ALL ───────────▶ CPUᵢ ───────────────▶ NONE
//!   ▲                │  ▲                   │
//!   └──── SFREE ─────┘  └───── resume ──────┘
//! ```

use crate::error::HwError;
use crate::types::{AccessKind, CpuId, CpuMask, PageIndex, PageRange, Requester};

/// Access-control state of one physical page (Figure 5(b)).
///
/// The `Cpus` state generalizes the figure's `CPUᵢ` to a *set* of CPUs,
/// supporting the §6 *Multicore PALs* extension ("the join operation
/// serves to add the new CPU to the memory controller's access control
/// table for the PAL's pages"); a freshly launched PAL owns its pages
/// with a singleton set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageAccess {
    /// Accessible to all CPUs and DMA devices (default state).
    #[default]
    All,
    /// Accessible only to the CPUs in the mask (a PAL owns the page).
    Cpus(CpuMask),
    /// Accessible to nothing — the owning PAL is suspended.
    None,
}

impl PageAccess {
    /// The singleton owner state — the Figure 5(b) `CPUᵢ` entry.
    pub fn cpu(cpu: CpuId) -> Self {
        PageAccess::Cpus(CpuMask::single(cpu))
    }
}

/// The north-bridge memory controller.
///
/// # Example
///
/// ```
/// use sea_hw::{MemoryController, PageAccess, PageRange, PageIndex, CpuId,
///              Requester, AccessKind};
///
/// let mut mc = MemoryController::new(16);
/// let range = PageRange::new(PageIndex(2), 3);
/// mc.protect_for_cpu(range, CpuId(0)).unwrap();
/// // CPU 0 may access; CPU 1 may not.
/// assert!(mc.check(Requester::Cpu(CpuId(0)), AccessKind::Read, PageIndex(2)).is_ok());
/// assert!(mc.check(Requester::Cpu(CpuId(1)), AccessKind::Read, PageIndex(2)).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    table: Vec<PageAccess>,
    /// DEV/MPT bit per page: `true` means DMA to the page is blocked.
    dev: Vec<bool>,
    /// One-shot injected fault: the next `resume_pages` is spuriously
    /// denied (a transient TOCTOU window in the table-update queue).
    spurious: bool,
}

impl MemoryController {
    /// Creates a controller for `num_pages` pages, all in the `ALL` state
    /// with DMA permitted.
    pub fn new(num_pages: u32) -> Self {
        MemoryController {
            table: vec![PageAccess::All; num_pages as usize],
            dev: vec![false; num_pages as usize],
            spurious: false,
        }
    }

    /// Arms a one-shot injected fault: the next [`resume_pages`] call is
    /// spuriously denied without modifying the table, then the fault
    /// clears itself. Used by the fault-injection substrate.
    ///
    /// [`resume_pages`]: MemoryController::resume_pages
    pub fn arm_spurious_denial(&mut self) {
        self.spurious = true;
    }

    /// Clears a pending spurious denial, if any.
    pub fn disarm_spurious_denial(&mut self) {
        self.spurious = false;
    }

    /// Number of pages covered.
    pub fn num_pages(&self) -> u32 {
        self.table.len() as u32
    }

    /// Current table entry for `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn access(&self, page: PageIndex) -> PageAccess {
        self.table[page.0 as usize]
    }

    /// Checks whether `requester` may perform `kind` on `page`.
    ///
    /// Reads and writes are treated identically, as in the paper ("nothing
    /// currently executing on the platform is allowed to read or write to
    /// those pages", §5.2.1); `kind` is carried for trace fidelity.
    ///
    /// # Errors
    ///
    /// [`HwError::AccessDenied`] when the access-control table or DEV
    /// forbids the access; [`HwError::AddressOutOfRange`] for an
    /// uninstalled page.
    pub fn check(
        &self,
        requester: Requester,
        kind: AccessKind,
        page: PageIndex,
    ) -> Result<(), HwError> {
        let _ = kind;
        let idx = page.0 as usize;
        let entry = *self.table.get(idx).ok_or(HwError::AddressOutOfRange {
            addr: page.base_addr(),
        })?;
        let allowed = match (requester, entry) {
            (_, PageAccess::All) => match requester {
                // DEV applies even to pages in ALL: DMA protection is the
                // baseline mechanism and exists independently.
                Requester::Device(_) => !self.dev[idx],
                Requester::Cpu(_) => true,
            },
            (Requester::Cpu(c), PageAccess::Cpus(owners)) => owners.contains(c),
            (Requester::Device(_), PageAccess::Cpus(_)) => false,
            (_, PageAccess::None) => false,
        };
        if allowed {
            Ok(())
        } else {
            Err(HwError::AccessDenied { requester, page })
        }
    }

    /// `SLAUNCH` launch path: transitions every page in `range` from
    /// `ALL` to `CPUᵢ`.
    ///
    /// # Errors
    ///
    /// [`HwError::PageConflict`] if any page is not in the `ALL` state
    /// ("if the memory controller discovers that another PAL is already
    /// using any of these memory pages, it signals the CPU that SLAUNCH
    /// must return a failure code", §5.6). No page is modified on failure.
    pub fn protect_for_cpu(&mut self, range: PageRange, cpu: CpuId) -> Result<(), HwError> {
        self.check_installed(range)?;
        for page in range.iter() {
            if self.table[page.0 as usize] != PageAccess::All {
                return Err(HwError::PageConflict { page });
            }
        }
        for page in range.iter() {
            self.table[page.0 as usize] = PageAccess::cpu(cpu);
        }
        Ok(())
    }

    /// §6 *Multicore PALs* join: admits `new_cpu` to every page in
    /// `range`. Only a CPU already in the owner set may extend it (the
    /// join is initiated from inside the PAL).
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidPageTransition`] if any page is not owned by a
    /// set containing `requester`. No page is modified on failure.
    pub fn join_cpu(
        &mut self,
        range: PageRange,
        requester: CpuId,
        new_cpu: CpuId,
    ) -> Result<(), HwError> {
        self.check_installed(range)?;
        for page in range.iter() {
            match self.table[page.0 as usize] {
                PageAccess::Cpus(owners) if owners.contains(requester) => {}
                _ => return Err(HwError::InvalidPageTransition { page }),
            }
        }
        for page in range.iter() {
            if let PageAccess::Cpus(owners) = &mut self.table[page.0 as usize] {
                owners.insert(new_cpu);
            }
        }
        Ok(())
    }

    /// Suspend path: transitions every page in `range` from `CPUᵢ` to
    /// `NONE`. Only an owning CPU may suspend.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidPageTransition`] if any page is not owned by a
    /// set containing `cpu`. No page is modified on failure.
    pub fn suspend_pages(&mut self, range: PageRange, cpu: CpuId) -> Result<(), HwError> {
        self.check_installed(range)?;
        for page in range.iter() {
            match self.table[page.0 as usize] {
                PageAccess::Cpus(owners) if owners.contains(cpu) => {}
                _ => return Err(HwError::InvalidPageTransition { page }),
            }
        }
        for page in range.iter() {
            self.table[page.0 as usize] = PageAccess::None;
        }
        Ok(())
    }

    /// Resume path: transitions every page in `range` from `NONE` to
    /// `CPUᵢ` (possibly a *different* CPU than before — "the PAL may
    /// execute on a different CPU each time it is resumed", §5.3.1).
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidPageTransition`] if any page is not `NONE`
    /// — in particular, if the PAL is still running on another CPU
    /// ("any other CPU that tries to resume the same PAL will fail").
    /// [`HwError::AccessDenied`] if an injected spurious denial was
    /// armed (it clears on firing). No page is modified on failure.
    pub fn resume_pages(&mut self, range: PageRange, cpu: CpuId) -> Result<(), HwError> {
        self.check_installed(range)?;
        if self.spurious {
            self.spurious = false;
            return Err(HwError::AccessDenied {
                requester: Requester::Cpu(cpu),
                page: range.start,
            });
        }
        for page in range.iter() {
            if self.table[page.0 as usize] != PageAccess::None {
                return Err(HwError::InvalidPageTransition { page });
            }
        }
        for page in range.iter() {
            self.table[page.0 as usize] = PageAccess::cpu(cpu);
        }
        Ok(())
    }

    /// `SFREE`/`SKILL` path: returns every page in `range` to `ALL`.
    ///
    /// # Errors
    ///
    /// [`HwError::AddressOutOfRange`] if the range is not installed.
    pub fn release_pages(&mut self, range: PageRange) -> Result<(), HwError> {
        self.check_installed(range)?;
        for page in range.iter() {
            self.table[page.0 as usize] = PageAccess::All;
        }
        Ok(())
    }

    /// Sets or clears the DEV (DMA-block) bit for every page in `range`.
    /// This is the *baseline* protection `SKINIT` programs for the SLB.
    ///
    /// # Errors
    ///
    /// [`HwError::AddressOutOfRange`] if the range is not installed.
    pub fn set_dev(&mut self, range: PageRange, blocked: bool) -> Result<(), HwError> {
        self.check_installed(range)?;
        for page in range.iter() {
            self.dev[page.0 as usize] = blocked;
        }
        Ok(())
    }

    /// Counts pages currently in each state `(all, cpu_only, none)` —
    /// useful for invariant checks in tests.
    pub fn state_census(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for entry in &self.table {
            match entry {
                PageAccess::All => counts.0 += 1,
                PageAccess::Cpus(_) => counts.1 += 1,
                PageAccess::None => counts.2 += 1,
            }
        }
        counts
    }

    fn check_installed(&self, range: PageRange) -> Result<(), HwError> {
        let end = range.start.0 as u64 + range.count as u64;
        if end > self.table.len() as u64 {
            return Err(HwError::AddressOutOfRange {
                addr: range.base_addr(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DeviceId;

    fn mc() -> MemoryController {
        MemoryController::new(16)
    }

    fn range(start: u32, count: u32) -> PageRange {
        PageRange::new(PageIndex(start), count)
    }

    #[test]
    fn default_state_is_all_access() {
        let mc = mc();
        for p in 0..16 {
            assert_eq!(mc.access(PageIndex(p)), PageAccess::All);
            assert!(mc
                .check(Requester::Cpu(CpuId(0)), AccessKind::Write, PageIndex(p))
                .is_ok());
            assert!(mc
                .check(
                    Requester::Device(DeviceId(0)),
                    AccessKind::Read,
                    PageIndex(p)
                )
                .is_ok());
        }
    }

    #[test]
    fn protect_excludes_other_cpus_and_devices() {
        let mut mc = mc();
        mc.protect_for_cpu(range(4, 2), CpuId(1)).unwrap();
        assert!(mc
            .check(Requester::Cpu(CpuId(1)), AccessKind::Read, PageIndex(4))
            .is_ok());
        assert_eq!(
            mc.check(Requester::Cpu(CpuId(0)), AccessKind::Read, PageIndex(4)),
            Err(HwError::AccessDenied {
                requester: Requester::Cpu(CpuId(0)),
                page: PageIndex(4)
            })
        );
        assert!(mc
            .check(
                Requester::Device(DeviceId(0)),
                AccessKind::Write,
                PageIndex(5)
            )
            .is_err());
        // Pages outside the range unaffected.
        assert!(mc
            .check(Requester::Cpu(CpuId(0)), AccessKind::Read, PageIndex(6))
            .is_ok());
    }

    #[test]
    fn protect_conflict_is_atomic() {
        let mut mc = mc();
        mc.protect_for_cpu(range(4, 2), CpuId(0)).unwrap();
        // Overlapping protect fails...
        let err = mc.protect_for_cpu(range(3, 3), CpuId(1)).unwrap_err();
        assert!(matches!(err, HwError::PageConflict { page } if page == PageIndex(4)));
        // ...and page 3 was not modified (atomicity).
        assert_eq!(mc.access(PageIndex(3)), PageAccess::All);
    }

    #[test]
    fn suspend_then_nothing_can_access() {
        let mut mc = mc();
        mc.protect_for_cpu(range(4, 2), CpuId(0)).unwrap();
        mc.suspend_pages(range(4, 2), CpuId(0)).unwrap();
        for p in [4u32, 5] {
            assert_eq!(mc.access(PageIndex(p)), PageAccess::None);
            assert!(mc
                .check(Requester::Cpu(CpuId(0)), AccessKind::Read, PageIndex(p))
                .is_err());
            assert!(mc
                .check(
                    Requester::Device(DeviceId(0)),
                    AccessKind::Read,
                    PageIndex(p)
                )
                .is_err());
        }
    }

    #[test]
    fn only_owner_may_suspend() {
        let mut mc = mc();
        mc.protect_for_cpu(range(4, 2), CpuId(0)).unwrap();
        assert!(matches!(
            mc.suspend_pages(range(4, 2), CpuId(1)),
            Err(HwError::InvalidPageTransition { .. })
        ));
    }

    #[test]
    fn resume_can_move_to_a_different_cpu() {
        let mut mc = mc();
        mc.protect_for_cpu(range(4, 2), CpuId(0)).unwrap();
        mc.suspend_pages(range(4, 2), CpuId(0)).unwrap();
        mc.resume_pages(range(4, 2), CpuId(1)).unwrap();
        assert_eq!(mc.access(PageIndex(4)), PageAccess::cpu(CpuId(1)));
    }

    #[test]
    fn resume_fails_if_still_running_elsewhere() {
        let mut mc = mc();
        mc.protect_for_cpu(range(4, 2), CpuId(0)).unwrap();
        // Pages are owned by CPU 0, not NONE: a second resume must fail.
        assert!(matches!(
            mc.resume_pages(range(4, 2), CpuId(1)),
            Err(HwError::InvalidPageTransition { .. })
        ));
    }

    #[test]
    fn join_extends_owner_set() {
        let mut mc = mc();
        mc.protect_for_cpu(range(4, 2), CpuId(0)).unwrap();
        // Only an existing owner may initiate a join.
        assert!(matches!(
            mc.join_cpu(range(4, 2), CpuId(1), CpuId(2)),
            Err(HwError::InvalidPageTransition { .. })
        ));
        mc.join_cpu(range(4, 2), CpuId(0), CpuId(1)).unwrap();
        // Both CPUs now access; a third does not.
        for c in [CpuId(0), CpuId(1)] {
            assert!(mc
                .check(Requester::Cpu(c), AccessKind::Write, PageIndex(5))
                .is_ok());
        }
        assert!(mc
            .check(Requester::Cpu(CpuId(2)), AccessKind::Read, PageIndex(4))
            .is_err());
        // Devices remain excluded.
        assert!(mc
            .check(
                Requester::Device(DeviceId(0)),
                AccessKind::Read,
                PageIndex(4)
            )
            .is_err());
        // Either owner may suspend.
        mc.suspend_pages(range(4, 2), CpuId(1)).unwrap();
        assert_eq!(mc.access(PageIndex(4)), PageAccess::None);
        // Joining unowned (ALL or NONE) pages fails.
        assert!(mc.join_cpu(range(4, 2), CpuId(0), CpuId(1)).is_err());
        assert!(mc.join_cpu(range(10, 1), CpuId(0), CpuId(1)).is_err());
    }

    #[test]
    fn release_returns_to_all() {
        let mut mc = mc();
        mc.protect_for_cpu(range(4, 2), CpuId(0)).unwrap();
        mc.release_pages(range(4, 2)).unwrap();
        assert_eq!(mc.access(PageIndex(4)), PageAccess::All);
        assert_eq!(mc.state_census(), (16, 0, 0));
    }

    #[test]
    fn dev_blocks_dma_but_not_cpus() {
        let mut mc = mc();
        mc.set_dev(range(2, 1), true).unwrap();
        assert!(mc
            .check(
                Requester::Device(DeviceId(0)),
                AccessKind::Read,
                PageIndex(2)
            )
            .is_err());
        assert!(mc
            .check(Requester::Cpu(CpuId(0)), AccessKind::Write, PageIndex(2))
            .is_ok());
        mc.set_dev(range(2, 1), false).unwrap();
        assert!(mc
            .check(
                Requester::Device(DeviceId(0)),
                AccessKind::Read,
                PageIndex(2)
            )
            .is_ok());
    }

    #[test]
    fn out_of_range_operations_rejected() {
        let mut mc = mc();
        assert!(mc.protect_for_cpu(range(15, 2), CpuId(0)).is_err());
        assert!(mc.set_dev(range(16, 1), true).is_err());
        assert!(mc
            .check(Requester::Cpu(CpuId(0)), AccessKind::Read, PageIndex(16))
            .is_err());
    }

    #[test]
    fn census_counts_states() {
        let mut mc = mc();
        mc.protect_for_cpu(range(0, 3), CpuId(0)).unwrap();
        mc.protect_for_cpu(range(8, 2), CpuId(1)).unwrap();
        mc.suspend_pages(range(8, 2), CpuId(1)).unwrap();
        assert_eq!(mc.state_census(), (11, 3, 2));
    }
    #[test]
    fn spurious_denial_fires_once_and_modifies_nothing() {
        let mut mc = mc();
        mc.protect_for_cpu(range(4, 2), CpuId(0)).unwrap();
        mc.suspend_pages(range(4, 2), CpuId(0)).unwrap();
        mc.arm_spurious_denial();
        let err = mc.resume_pages(range(4, 2), CpuId(1)).unwrap_err();
        assert_eq!(
            err,
            HwError::AccessDenied {
                requester: Requester::Cpu(CpuId(1)),
                page: PageIndex(4)
            }
        );
        // Table untouched: the pages are still suspended...
        assert_eq!(mc.access(PageIndex(4)), PageAccess::None);
        // ...and the fault was one-shot: the retry succeeds.
        mc.resume_pages(range(4, 2), CpuId(1)).unwrap();
        assert_eq!(mc.access(PageIndex(4)), PageAccess::cpu(CpuId(1)));
        // Disarm clears a pending fault.
        mc.arm_spurious_denial();
        mc.disarm_spurious_denial();
        mc.suspend_pages(range(4, 2), CpuId(1)).unwrap();
        assert!(mc.resume_pages(range(4, 2), CpuId(1)).is_ok());
    }

    #[test]
    fn memorycontroller_is_send_sync() {
        // The concurrent session engine moves whole platforms across
        // worker threads; all state must be owned data.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemoryController>();
    }
}
