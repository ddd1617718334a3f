//! SEA on the paper's recommended hardware (§5).
//!
//! [`EnhancedSea`] implements the full PAL life cycle of Figures 6–7:
//!
//! * **`SLAUNCH`** ([`EnhancedSea::slaunch`]): the OS allocates a SECB and
//!   memory, the memory controller flips the pages to `CPUᵢ` (failing on
//!   conflict), the TPM measures the PAL **once** into a freshly
//!   allocated sePCR, and execution begins.
//! * **`SYIELD` / preemption** ([`EnhancedSea::step`]): context switches
//!   cost a VM exit + entry (~1 µs, Table 2) instead of the baseline's
//!   TPM Seal + SKINIT + Unseal (~200–1100 ms) — the six-orders-of-
//!   magnitude improvement §5.7 projects.
//! * **Resume** ([`EnhancedSea::resume`]): honors the Measured Flag only
//!   when the pages are `NONE`, can land on a *different* CPU, and fails
//!   while the PAL runs elsewhere.
//! * **`SFREE`** (automatic on PAL exit): pages erased of secrets and
//!   returned to `ALL`; the sePCR moves to the Quote state.
//! * **`SKILL`** ([`EnhancedSea::skill`]): erases a misbehaving PAL's
//!   pages and brands its sePCR with the kill constant.
//! * **Attestation** ([`EnhancedSea::quote_and_free`]): *untrusted* code
//!   quotes the sePCR and recycles it (§5.4.3).

use std::collections::HashMap;

use sea_hw::{
    CpuId, FaultKind, FaultPlan, Layer, Obs, PageIndex, PageRange, SimDuration, TraceEvent,
    PAGE_SIZE, TRANSPORT_FAULT_COST,
};
use sea_tpm::{Quote, Timed, TpmError};

use crate::error::SeaError;
use crate::pal::{PalCtx, PalLogic, PalOutcome, SealBinding};
use crate::platform::SecurePlatform;
use crate::report::SessionReport;
use crate::secb::{PalLifecycle, Secb};

/// Identifier of a launched PAL within an [`EnhancedSea`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PalId(pub u64);

/// Result of driving one PAL scheduling step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PalStep {
    /// The PAL yielded (`SYIELD`) or was preempted; it is suspended with
    /// its pages in the `NONE` state, awaiting [`EnhancedSea::resume`].
    Yielded,
    /// The PAL exited (`SFREE`); its resources are released and its
    /// sePCR awaits [`EnhancedSea::quote_and_free`].
    Exited {
        /// The PAL's output, now readable by untrusted code.
        output: Vec<u8>,
    },
}

/// Summary of a completed PAL run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PalDone {
    /// The PAL's output.
    pub output: Vec<u8>,
    /// Accumulated cost breakdown across launch, steps, and switches.
    pub report: SessionReport,
}

/// Bookkeeping for one live PAL.
#[derive(Debug)]
struct PalRun {
    secb: Secb,
    input_len: usize,
    state_capacity: usize,
    current_cpu: Option<CpuId>,
    /// §6 Multicore PALs: additional cores joined to this PAL while it
    /// executes. Cleared on every suspend — helpers must re-join.
    helper_cpus: Vec<CpuId>,
    report: SessionReport,
    output: Option<Vec<u8>>,
}

/// First page handed out by [`PalRegions`] (the low pages belong to the
/// "OS image").
const FIRST_PAL_PAGE: u32 = 64;

/// Bytes reserved in each PAL region for persistent state beyond image
/// and input.
const STATE_HEADROOM: usize = 2 * PAGE_SIZE;

/// Most spurious preemption-timer expiries a fault plan may inflict on
/// one session, so that every session makes progress.
const SPURIOUS_TIMER_BUDGET: u32 = 4;

/// Per-session fault-injection bookkeeping: a monotone roll counter and
/// how many spurious timer expiries the session has already absorbed.
#[derive(Debug, Default, Clone, Copy)]
struct FaultCursor {
    seq: u64,
    timer_count: u32,
}

/// Where `SLAUNCH` and the legacy fallback place PAL regions. A bump
/// pointer hands out never-used pages first, exactly as if no region
/// ever came back; once it would pass the end of DRAM, a launch takes the
/// first fit among the regions that `SFREE`, `SKILL` and finished legacy
/// fallbacks released, splitting a larger one and keeping the rest.
#[derive(Debug)]
struct PalRegions {
    next_page: u32,
    /// Released regions, sorted by first page, adjacent ones merged.
    released: Vec<PageRange>,
}

impl PalRegions {
    fn new() -> Self {
        PalRegions {
            next_page: FIRST_PAL_PAGE,
            released: Vec::new(),
        }
    }

    /// The region a launch of `pages` pages would get from `installed`
    /// pages of DRAM, and whether an earlier PAL released it. Takes
    /// nothing, so a launch that fails afterwards leaves no trace here.
    fn find(&self, pages: u32, installed: u32) -> Option<(PageRange, bool)> {
        if self
            .next_page
            .checked_add(pages)
            .is_some_and(|end| end <= installed)
        {
            return Some((PageRange::new(PageIndex(self.next_page), pages), false));
        }
        self.released
            .iter()
            .find(|r| r.count >= pages)
            .map(|r| (PageRange::new(r.start, pages), true))
    }

    /// Takes `range`, which [`PalRegions::find`] returned.
    fn take(&mut self, range: PageRange) {
        if range.start.0 == self.next_page {
            self.next_page += range.count;
        } else if let Some(i) = self.released.iter().position(|r| r.start == range.start) {
            let rest = self.released[i].count - range.count;
            if rest == 0 {
                self.released.remove(i);
            } else {
                self.released[i] = PageRange::new(PageIndex(range.start.0 + range.count), rest);
            }
        }
    }

    /// Gives back the region of a PAL whose pages are `ALL` again.
    fn release(&mut self, range: PageRange) {
        let i = self.released.partition_point(|r| r.start.0 < range.start.0);
        self.released.insert(i, range);
        let end = |r: &PageRange| r.start.0 + r.count;
        if i + 1 < self.released.len() && end(&self.released[i]) == self.released[i + 1].start.0 {
            self.released[i].count += self.released.remove(i + 1).count;
        }
        if i > 0 && end(&self.released[i - 1]) == self.released[i].start.0 {
            self.released[i - 1].count += self.released.remove(i).count;
        }
    }
}

/// SEA on the proposed hardware. See the crate-level example.
#[derive(Debug)]
pub struct EnhancedSea {
    platform: SecurePlatform,
    pals: HashMap<u64, PalRun>,
    next_id: u64,
    regions: PalRegions,
    fault_plan: Option<FaultPlan>,
    fault_cursors: HashMap<u64, FaultCursor>,
}

impl EnhancedSea {
    /// Creates the runtime.
    ///
    /// # Errors
    ///
    /// [`SeaError::SlaunchUnsupported`] on baseline platforms and
    /// [`SeaError::NoTpm`] on TPM-less ones.
    pub fn new(platform: SecurePlatform) -> Result<Self, SeaError> {
        if !platform.supports_slaunch() {
            return Err(SeaError::SlaunchUnsupported);
        }
        if platform.tpm().is_none() {
            return Err(SeaError::NoTpm);
        }
        Ok(EnhancedSea {
            platform,
            pals: HashMap::new(),
            next_id: 0,
            regions: PalRegions::new(),
            fault_plan: None,
            fault_cursors: HashMap::new(),
        })
    }

    /// Installs (or clears) a deterministic fault-injection plan. The
    /// `*_keyed` lifecycle operations consult it; the plain operations
    /// never inject. Installing a plan resets all per-session roll
    /// cursors, so the injection stream is a pure function of
    /// `(plan, session key, operation order within the session)`.
    pub(crate) fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
        self.fault_cursors.clear();
    }

    /// A full power loss: every live PAL evaporates (their pages, SECBs,
    /// and CPU bindings are volatile), the region allocator and fault
    /// cursors rewind, the machine rebuilds its volatile half, and the
    /// TPM applies v1.2 reset semantics — NVRAM (and thus the sealed
    /// session journal) survives. Returns the reboot's virtual cost,
    /// already charged to the machine clock; the machine records
    /// [`TraceEvent::PlatformReset`].
    pub(crate) fn power_cycle(&mut self) -> SimDuration {
        self.pals.clear();
        self.regions = PalRegions::new();
        self.fault_cursors.clear();
        self.platform.power_cycle()
    }

    /// The underlying platform.
    pub fn platform(&self) -> &SecurePlatform {
        &self.platform
    }

    /// Mutable access to the underlying platform.
    pub fn platform_mut(&mut self) -> &mut SecurePlatform {
        &mut self.platform
    }

    /// The machine's observability handle (cheap clone of an `Arc`).
    fn obs(&self) -> Obs {
        self.platform.machine().obs().clone()
    }

    /// Records `event` in the machine trace at the current virtual time.
    pub(crate) fn record(&mut self, event: TraceEvent) {
        let machine = self.platform.machine_mut();
        let now = machine.now();
        machine.trace_mut().record(now, event);
    }

    /// Finds a region of `pages` pages for a PAL of `needed` bytes,
    /// without taking it. A released region is zeroed first, so the new
    /// PAL never sees an earlier PAL's bytes in place of its empty state.
    fn find_region(&mut self, pages: u32, needed: usize) -> Result<PageRange, SeaError> {
        let memory = self.platform.machine_mut().memory_mut();
        let (range, released) =
            self.regions
                .find(pages, memory.num_pages())
                .ok_or(SeaError::RegionTooSmall {
                    needed,
                    available: 0,
                })?;
        if released {
            for p in range.iter() {
                memory.zero_page(p)?;
            }
        }
        Ok(range)
    }

    /// Cost of one suspend/resume pair on this platform (§5.7 expects
    /// the proposed context switch to cost about this much).
    pub fn context_switch_cost(&self) -> SimDuration {
        let virt = self.platform.machine().platform().virt;
        virt.vm_exit + virt.vm_enter
    }

    /// The SECB of a live PAL (diagnostics and tests).
    ///
    /// # Errors
    ///
    /// [`SeaError::NoSuchPal`] for unknown identifiers.
    pub fn secb(&self, id: PalId) -> Result<&Secb, SeaError> {
        Ok(&self.pals.get(&id.0).ok_or(SeaError::NoSuchPal(id.0))?.secb)
    }

    /// Accumulated cost report for a PAL.
    ///
    /// # Errors
    ///
    /// [`SeaError::NoSuchPal`] for unknown identifiers.
    pub fn report(&self, id: PalId) -> Result<SessionReport, SeaError> {
        Ok(self
            .pals
            .get(&id.0)
            .ok_or(SeaError::NoSuchPal(id.0))?
            .report)
    }

    /// `SLAUNCH` with `MF = 0` (Figure 7): allocates memory and a sePCR,
    /// installs isolation, measures the PAL, and leaves it in the
    /// `Execute` state ready for [`EnhancedSea::step`].
    ///
    /// The clock advances by the measurement cost (paid **once** per PAL,
    /// not per context switch — the heart of recommendation §5.3).
    ///
    /// # Errors
    ///
    /// [`SeaError::Hw`] with [`sea_hw::HwError::PageConflict`] if the
    /// region overlaps another PAL; [`SeaError::Tpm`] with
    /// [`sea_tpm::TpmError::NoFreeSePcr`] when the sePCR bank is
    /// exhausted (the pages are returned to `ALL` first, per Figure 7).
    pub fn slaunch(
        &mut self,
        pal: &mut dyn PalLogic,
        input: &[u8],
        cpu: CpuId,
        preemption_timer: Option<SimDuration>,
    ) -> Result<PalId, SeaError> {
        let image = pal.image();
        let region_bytes = image.len() + input.len() + STATE_HEADROOM;
        let pages = (region_bytes as u32).div_ceil(PAGE_SIZE as u32);
        let range = self.find_region(pages, region_bytes)?;

        // OS stages image and input into the (still-open) region.
        let machine = self.platform.machine_mut();
        machine.memory_mut().write_raw(range.base_addr(), &image)?;
        machine
            .memory_mut()
            .write_raw(range.base_addr().offset(image.len() as u64), input)?;

        let mut secb = Secb::new(pal.name(), range, image.len(), preemption_timer);
        assert!(secb.transition(PalLifecycle::Protect));

        // Memory controller: ALL → CPUᵢ (atomic; fails on conflict).
        machine.controller_mut().protect_for_cpu(range, cpu)?;

        assert!(secb.transition(PalLifecycle::Measure));
        // TPM: allocate + measure into a sePCR. On failure, return the
        // pages to ALL (Figure 7's failure path).
        let (machine, tpm) = self.platform.parts_mut();
        let tpm = tpm.ok_or(SeaError::NoTpm)?;
        let timed = match tpm.slaunch_measure(&image, cpu) {
            Ok(timed) => timed,
            Err(e) => {
                machine.controller_mut().release_pages(range)?;
                return Err(e.into());
            }
        };
        machine.charge(Layer::Tpm, "tpm.slaunch_measure", timed.elapsed);
        secb.bind_sepcr(timed.value);
        secb.set_measured();
        machine.cpu_mut(cpu)?.enter_secure(range.base_addr());
        machine.cpu_mut(cpu)?.set_preemption_timer(preemption_timer);
        assert!(secb.transition(PalLifecycle::Execute));

        let id = self.next_id;
        self.next_id += 1;
        self.regions.take(range);
        self.pals.insert(
            id,
            PalRun {
                secb,
                input_len: input.len(),
                state_capacity: STATE_HEADROOM - 16,
                current_cpu: Some(cpu),
                helper_cpus: Vec::new(),
                report: SessionReport {
                    late_launch: timed.elapsed,
                    ..SessionReport::default()
                },
                output: None,
            },
        );
        Ok(PalId(id))
    }

    /// Runs one scheduling quantum of a PAL in the `Execute` state.
    ///
    /// If the logic yields, the PAL suspends (pages → `NONE`, CPU state
    /// cleared) at VM-exit cost. If it exits, `SFREE` runs: state erased,
    /// pages → `ALL`, sePCR → Quote. If the step's work exceeds the
    /// preemption timer, the involuntary context switches are charged at
    /// VM-exit + VM-entry cost each.
    ///
    /// # Errors
    ///
    /// [`SeaError::WrongLifecycle`] outside `Execute`; PAL-logic and
    /// hardware errors propagate.
    pub fn step(&mut self, pal: &mut dyn PalLogic, id: PalId) -> Result<PalStep, SeaError> {
        let run = self.pals.get(&id.0).ok_or(SeaError::NoSuchPal(id.0))?;
        if run.secb.lifecycle() != PalLifecycle::Execute {
            return Err(SeaError::WrongLifecycle {
                actual: run.secb.lifecycle(),
                operation: "step",
            });
        }
        let cpu = run
            .current_cpu
            .ok_or(SeaError::EngineFault("Execute state without a CPU"))?;
        let range = run.secb.pages();
        let handle = run
            .secb
            .sepcr()
            .ok_or(SeaError::EngineFault("Execute state without a sePCR"))?;
        let state_off = (run.secb.image_len() + run.input_len) as u64;
        let input_off = run.secb.image_len() as u64;
        let input_len = run.input_len;
        let state_cap = run.state_capacity;
        let timer = run.secb.preemption_timer();

        // The PAL reads its input and persistent state from its pages.
        let machine = self.platform.machine();
        let input = machine.read(
            sea_hw::Requester::Cpu(cpu),
            range.base_addr().offset(input_off),
            input_len,
        )?;
        let state = read_state(machine, range, state_off, state_cap, cpu)?;

        // Run the logic with sePCR-bound seals.
        let (machine, tpm) = self.platform.parts_mut();
        let tpm = tpm.ok_or(SeaError::NoTpm)?;
        let mut ctx = PalCtx::new(
            Some(&mut *tpm),
            Some(SealBinding::SePcr { handle, cpu }),
            &input,
            state,
        );
        let outcome = pal.run(&mut ctx);
        let seal = ctx.seal_cost;
        let unseal = ctx.unseal_cost;
        let tpm_other = ctx.tpm_other_cost;
        let work = ctx.work_done;
        let new_state = ctx.into_state();
        let outcome = outcome?;

        // Involuntary preemptions: the timer slices long-running work.
        let virt = machine.platform().virt;
        let switch_cost = virt.vm_exit + virt.vm_enter;
        let preemptions = match timer {
            Some(t) if t > SimDuration::ZERO && work > t => {
                (work.as_ns().div_ceil(t.as_ns()) - 1) as u32
            }
            _ => 0,
        };
        let step_switches = switch_cost * preemptions as u64;
        machine.charge(Layer::Tpm, "tpm.seal", seal);
        machine.charge(Layer::Tpm, "tpm.unseal", unseal);
        machine.charge(Layer::Tpm, "tpm.other", tpm_other);
        machine.charge(Layer::Core, "core.pal_work", work);
        machine.charge(Layer::Hw, "hw.context_switch", step_switches);

        // Write back state (this CPU still owns the pages).
        write_state(machine, range, state_off, state_cap, cpu, &new_state)?;

        let run = self.pals.get_mut(&id.0).ok_or(SeaError::NoSuchPal(id.0))?;
        run.report.seal += seal;
        run.report.unseal += unseal;
        run.report.tpm_other += tpm_other;
        run.report.pal_work += work;
        run.report.context_switch += step_switches;

        match outcome {
            PalOutcome::Yield => {
                // SYIELD: pages → NONE, secure state clear, VM-exit cost.
                assert!(run.secb.transition(PalLifecycle::Suspend));
                run.current_cpu = None;
                let helpers = std::mem::take(&mut run.helper_cpus);
                run.report.context_switch += virt.vm_exit;
                machine.controller_mut().suspend_pages(range, cpu)?;
                machine.cpu_mut(cpu)?.leave_secure();
                for h in helpers {
                    machine.cpu_mut(h)?.leave_secure();
                }
                machine.charge(Layer::Hw, "hw.vm_exit", virt.vm_exit);
                Ok(PalStep::Yielded)
            }
            PalOutcome::Exit(output) => {
                // SFREE: erase secrets, release pages, sePCR → Quote.
                assert!(run.secb.transition(PalLifecycle::Done));
                run.current_cpu = None;
                let helpers = std::mem::take(&mut run.helper_cpus);
                run.output = Some(output.clone());
                // Erase the state area (the PAL's secret-clear duty).
                let state_pages_start = range.start.0 + (state_off / PAGE_SIZE as u64) as u32;
                for p in state_pages_start..range.start.0 + range.count {
                    machine.memory_mut().zero_page(PageIndex(p))?;
                }
                tpm.sepcr_release_to_quote(handle, cpu)?;
                machine.controller_mut().release_pages(range)?;
                self.regions.release(range);
                machine.cpu_mut(cpu)?.leave_secure();
                machine.cpu_mut(cpu)?.set_preemption_timer(None);
                for h in helpers {
                    machine.cpu_mut(h)?.leave_secure();
                }
                Ok(PalStep::Exited { output })
            }
        }
    }

    /// `SLAUNCH` with `MF = 1`: resumes a suspended PAL, possibly on a
    /// different CPU. Costs one VM entry (§5.7).
    ///
    /// # Errors
    ///
    /// [`SeaError::WrongLifecycle`] outside `Suspend`; [`SeaError::Hw`]
    /// with [`sea_hw::HwError::InvalidPageTransition`] if the pages are
    /// not `NONE` (e.g. the PAL is somehow running elsewhere — "any other
    /// CPU that tries to resume the same PAL will fail", §5.3.1).
    pub fn resume(&mut self, id: PalId, cpu: CpuId) -> Result<(), SeaError> {
        let run = self.pals.get_mut(&id.0).ok_or(SeaError::NoSuchPal(id.0))?;
        if run.secb.lifecycle() != PalLifecycle::Suspend {
            return Err(SeaError::WrongLifecycle {
                actual: run.secb.lifecycle(),
                operation: "resume",
            });
        }
        let range = run.secb.pages();
        let handle = run
            .secb
            .sepcr()
            .ok_or(SeaError::EngineFault("Suspend state without a sePCR"))?;

        // Hardware first, SECB transitions last: a transient hardware
        // failure must leave the PAL in `Suspend` so the caller can
        // retry the resume instead of stranding the SECB mid-protect.
        let (machine, tpm) = self.platform.parts_mut();
        let tpm = tpm.ok_or(SeaError::NoTpm)?;
        machine.controller_mut().resume_pages(range, cpu)?;
        if let Err(e) = tpm.sepcr_rebind(handle, cpu) {
            // Roll the pages back to `NONE` so a later resume can run.
            machine.controller_mut().suspend_pages(range, cpu)?;
            return Err(e.into());
        }
        machine.cpu_mut(cpu)?.enter_secure(range.base_addr());
        let vm_enter = machine.platform().virt.vm_enter;
        machine.charge(Layer::Hw, "hw.vm_enter", vm_enter);

        let run = self.pals.get_mut(&id.0).ok_or(SeaError::NoSuchPal(id.0))?;
        assert!(run.secb.transition(PalLifecycle::Protect));
        assert!(run.secb.transition(PalLifecycle::Execute));
        run.current_cpu = Some(cpu);
        run.report.context_switch += vm_enter;
        Ok(())
    }

    /// `SKILL` (§5.5): kills a suspended, misbehaving PAL — erases its
    /// pages, returns them to `ALL`, extends the kill constant into its
    /// sePCR, and frees the slot.
    ///
    /// # Errors
    ///
    /// [`SeaError::WrongLifecycle`] unless the PAL is `Suspend`ed.
    pub fn skill(&mut self, id: PalId) -> Result<(), SeaError> {
        let run = self.pals.get_mut(&id.0).ok_or(SeaError::NoSuchPal(id.0))?;
        if run.secb.lifecycle() != PalLifecycle::Suspend {
            return Err(SeaError::WrongLifecycle {
                actual: run.secb.lifecycle(),
                operation: "skill",
            });
        }
        let range = run.secb.pages();
        let handle = run
            .secb
            .sepcr()
            .ok_or(SeaError::EngineFault("Suspend state without a sePCR"))?;
        assert!(run.secb.transition(PalLifecycle::Done));
        run.current_cpu = None;

        let (machine, tpm) = self.platform.parts_mut();
        let tpm = tpm.ok_or(SeaError::NoTpm)?;
        for p in range.iter() {
            machine.memory_mut().zero_page(p)?;
        }
        machine.controller_mut().release_pages(range)?;
        self.regions.release(range);
        let timed = tpm.sepcr_skill(handle)?;
        machine.charge(Layer::Tpm, "tpm.skill", timed.elapsed);
        Ok(())
    }

    /// Untrusted post-termination attestation (§5.4.3): quotes the PAL's
    /// sePCR and frees it for reuse. Advances the clock by the quote
    /// cost.
    ///
    /// # Errors
    ///
    /// [`SeaError::WrongLifecycle`] unless the PAL exited normally (a
    /// `SKILL`ed PAL's sePCR is already free, carrying no quote).
    pub fn quote_and_free(&mut self, id: PalId, nonce: &[u8]) -> Result<Timed<Quote>, SeaError> {
        let run = self.pals.get(&id.0).ok_or(SeaError::NoSuchPal(id.0))?;
        if run.secb.lifecycle() != PalLifecycle::Done {
            return Err(SeaError::WrongLifecycle {
                actual: run.secb.lifecycle(),
                operation: "quote_and_free",
            });
        }
        let handle = run
            .secb
            .sepcr()
            .ok_or(SeaError::EngineFault("Done state without a sePCR"))?;
        let (machine, tpm) = self.platform.parts_mut();
        let tpm = tpm.ok_or(SeaError::NoTpm)?;
        let quote = tpm.sepcr_quote(handle, nonce)?;
        tpm.sepcr_free(handle)?;
        machine.charge(Layer::Tpm, "tpm.quote", quote.elapsed);
        Ok(quote)
    }

    /// §6 *Multicore PALs*: joins `new_cpu` to a PAL currently in the
    /// `Execute` state, granting it access to the PAL's pages so the
    /// application can parallelize internally ("a mechanism is needed to
    /// join a CPU to an existing PAL. The join operation serves to add
    /// the new CPU to the memory controller's access control table for
    /// the PAL's pages").
    ///
    /// Joined cores are revoked at every suspend and exit; they must
    /// re-join after each resume.
    ///
    /// # Errors
    ///
    /// [`SeaError::WrongLifecycle`] outside `Execute`; [`SeaError::Hw`]
    /// if the controller refuses the join.
    pub fn join(&mut self, id: PalId, new_cpu: CpuId) -> Result<(), SeaError> {
        let run = self.pals.get_mut(&id.0).ok_or(SeaError::NoSuchPal(id.0))?;
        if run.secb.lifecycle() != PalLifecycle::Execute {
            return Err(SeaError::WrongLifecycle {
                actual: run.secb.lifecycle(),
                operation: "join",
            });
        }
        let primary = run
            .current_cpu
            .ok_or(SeaError::EngineFault("Execute state without a CPU"))?;
        let range = run.secb.pages();
        let machine = self.platform.machine_mut();
        machine.controller_mut().join_cpu(range, primary, new_cpu)?;
        machine.cpu_mut(new_cpu)?.enter_secure(range.base_addr());
        let run = self.pals.get_mut(&id.0).ok_or(SeaError::NoSuchPal(id.0))?;
        run.helper_cpus.push(new_cpu);
        Ok(())
    }

    /// Recycles a terminated PAL's sePCR *without* generating a quote —
    /// `TPM_SEPCR_Free` is "executable from untrusted code" (§5.4.3) and
    /// an OS that does not need an attestation calls it directly.
    ///
    /// # Errors
    ///
    /// [`SeaError::WrongLifecycle`] unless the PAL exited normally.
    pub fn release_sepcr(&mut self, id: PalId) -> Result<(), SeaError> {
        let run = self.pals.get(&id.0).ok_or(SeaError::NoSuchPal(id.0))?;
        if run.secb.lifecycle() != PalLifecycle::Done {
            return Err(SeaError::WrongLifecycle {
                actual: run.secb.lifecycle(),
                operation: "release_sepcr",
            });
        }
        let handle = run
            .secb
            .sepcr()
            .ok_or(SeaError::EngineFault("Done state without a sePCR"))?;
        let (_, tpm) = self.platform.parts_mut();
        tpm.ok_or(SeaError::NoTpm)?.sepcr_free(handle)?;
        Ok(())
    }

    /// Convenience driver: steps and resumes (on `cpu`) until the PAL
    /// exits, then returns its output and accumulated report.
    ///
    /// # Errors
    ///
    /// As for [`EnhancedSea::step`] and [`EnhancedSea::resume`].
    pub fn run_to_exit(
        &mut self,
        pal: &mut dyn PalLogic,
        id: PalId,
        cpu: CpuId,
    ) -> Result<PalDone, SeaError> {
        loop {
            match self.step(pal, id)? {
                PalStep::Exited { output } => {
                    return Ok(PalDone {
                        output,
                        report: self.report(id)?,
                    });
                }
                PalStep::Yielded => self.resume(id, cpu)?,
            }
        }
    }

    // ------------------------------------------------------------------
    // Deterministic fault injection and recovery primitives.
    //
    // The `*_keyed` variants are the session engine's lifecycle calls.
    // With a key (the recovery layer drives the session) they pin the
    // session's obs track and consult the installed [`FaultPlan`] before
    // delegating to the plain operations; without one (the plain fast
    // path) they are the plain operations. Every injection decision is a
    // pure function of (plan, session key, per-session roll counter) —
    // never of wall-clock time or cross-session interleaving — so serial
    // and parallel drivers replaying the same keys see identical faults.
    // ------------------------------------------------------------------

    /// Rolls the next TPM-transport fault decision for session `key`.
    fn roll_tpm(&mut self, key: u64) -> Option<FaultKind> {
        let plan = self.fault_plan.as_ref()?;
        let cursor = self.fault_cursors.entry(key).or_default();
        let seq = cursor.seq;
        cursor.seq += 1;
        plan.roll_tpm_transport(key, seq)
    }

    /// Rolls the next spurious memory-controller denial for `key`.
    fn roll_mem(&mut self, key: u64) -> bool {
        let Some(plan) = self.fault_plan.as_ref() else {
            return false;
        };
        let cursor = self.fault_cursors.entry(key).or_default();
        let seq = cursor.seq;
        cursor.seq += 1;
        plan.roll_mem_denial(key, seq)
    }

    /// Rolls the next spurious preemption-timer expiry for `key`,
    /// honoring [`SPURIOUS_TIMER_BUDGET`] so a session cannot be
    /// preempted forever.
    fn roll_timer(&mut self, key: u64) -> bool {
        let Some(plan) = self.fault_plan.as_ref() else {
            return false;
        };
        let cursor = self.fault_cursors.entry(key).or_default();
        if cursor.timer_count >= SPURIOUS_TIMER_BUDGET {
            return false;
        }
        let seq = cursor.seq;
        cursor.seq += 1;
        if plan.roll_timer_expiry(key, seq) {
            cursor.timer_count += 1;
            true
        } else {
            false
        }
    }

    /// Arms a rolled TPM fault, runs `op`, then settles the books: if
    /// the injection landed, charge the transport-fault cost and record
    /// [`TraceEvent::FaultInjected`]; if `op` failed for an unrelated
    /// reason (or never reached the transport), disarm the fault so it
    /// cannot leak into a later, unrolled command.
    fn with_tpm_fault<T>(
        &mut self,
        rolled: Option<FaultKind>,
        key: u64,
        op: impl FnOnce(&mut Self) -> Result<T, SeaError>,
    ) -> Result<T, SeaError> {
        if let Some(FaultKind::TpmTransport { retryable }) = rolled {
            if let Some(tpm) = self.platform.tpm_mut() {
                tpm.arm_transport_fault(retryable);
            }
        }
        let result = op(self);
        if let Some(kind) = rolled {
            match &result {
                Err(SeaError::Tpm(TpmError::TransportFault { .. })) => {
                    self.platform.machine_mut().charge(
                        Layer::Tpm,
                        "tpm.transport_fault",
                        TRANSPORT_FAULT_COST,
                    );
                    self.record(TraceEvent::FaultInjected { kind, session: key });
                }
                _ => {
                    if let Some(tpm) = self.platform.tpm_mut() {
                        tpm.disarm_transport_fault();
                    }
                }
            }
        }
        result
    }

    /// [`EnhancedSea::slaunch`] under the fault plan: the launch-time
    /// sePCR measurement may suffer an injected transport fault, in
    /// which case the pages are already back in `ALL` (Figure 7's
    /// failure path) and the launch can simply be retried.
    ///
    /// # Errors
    ///
    /// As for [`EnhancedSea::slaunch`], plus [`SeaError::Tpm`] with
    /// [`TpmError::TransportFault`] for injected faults.
    pub(crate) fn slaunch_keyed(
        &mut self,
        pal: &mut dyn PalLogic,
        input: &[u8],
        cpu: CpuId,
        key: Option<u64>,
    ) -> Result<PalId, SeaError> {
        let Some(key) = key else {
            return self.slaunch(pal, input, cpu, None);
        };
        let obs = self.obs();
        obs.set_track(key);
        obs.open(Layer::Core, "session.slaunch");
        let rolled = self.roll_tpm(key);
        let result = self.with_tpm_fault(rolled, key, |sea| sea.slaunch(pal, input, cpu, None));
        obs.close();
        result
    }

    /// [`EnhancedSea::step`] under the fault plan: a spurious
    /// preemption-timer expiry suspends the PAL *before* its logic runs
    /// this quantum, so the injected preemption changes scheduling (and
    /// costs one extra suspend/resume pair) without perturbing the
    /// PAL's input/state byte stream.
    ///
    /// # Errors
    ///
    /// As for [`EnhancedSea::step`].
    pub(crate) fn step_keyed(
        &mut self,
        pal: &mut dyn PalLogic,
        id: PalId,
        key: Option<u64>,
    ) -> Result<PalStep, SeaError> {
        let Some(key) = key else {
            return self.step(pal, id);
        };
        let obs = self.obs();
        obs.set_track(key);
        obs.open(Layer::Core, "session.step");
        let result = self.step_keyed_impl(pal, id, key);
        obs.close();
        result
    }

    fn step_keyed_impl(
        &mut self,
        pal: &mut dyn PalLogic,
        id: PalId,
        key: u64,
    ) -> Result<PalStep, SeaError> {
        if self.roll_timer(key) {
            self.record(TraceEvent::FaultInjected {
                kind: FaultKind::TimerExpiry,
                session: key,
            });
            self.preempt(id)?;
            self.record(TraceEvent::SessionPreempted { session: key });
            return Ok(PalStep::Yielded);
        }
        self.step(pal, id)
    }

    /// [`EnhancedSea::resume`] under the fault plan: the memory
    /// controller may spuriously deny the page-table resume. The SECB
    /// stays in `Suspend` and nothing is modified, so the resume is
    /// retryable as-is.
    ///
    /// # Errors
    ///
    /// As for [`EnhancedSea::resume`], plus [`SeaError::Hw`] with
    /// [`sea_hw::HwError::AccessDenied`] for injected denials.
    pub(crate) fn resume_keyed(
        &mut self,
        id: PalId,
        cpu: CpuId,
        key: Option<u64>,
    ) -> Result<(), SeaError> {
        let Some(key) = key else {
            return self.resume(id, cpu);
        };
        let obs = self.obs();
        obs.set_track(key);
        obs.open(Layer::Core, "session.resume");
        let result = self.resume_keyed_impl(id, cpu, key);
        obs.close();
        result
    }

    fn resume_keyed_impl(&mut self, id: PalId, cpu: CpuId, key: u64) -> Result<(), SeaError> {
        let denial = self.roll_mem(key);
        if denial {
            self.platform
                .machine_mut()
                .controller_mut()
                .arm_spurious_denial();
        }
        let result = self.resume(id, cpu);
        if denial {
            match &result {
                Err(SeaError::Hw(sea_hw::HwError::AccessDenied { .. })) => {
                    self.record(TraceEvent::FaultInjected {
                        kind: FaultKind::MemDenial,
                        session: key,
                    });
                }
                _ => self
                    .platform
                    .machine_mut()
                    .controller_mut()
                    .disarm_spurious_denial(),
            }
        }
        result
    }

    /// [`EnhancedSea::quote_and_free`] under the fault plan: an injected
    /// transport fault leaves the sePCR in the Quote state, so the quote
    /// can be retried (or the slot reclaimed via
    /// [`EnhancedSea::kill_session`]).
    ///
    /// # Errors
    ///
    /// As for [`EnhancedSea::quote_and_free`], plus [`SeaError::Tpm`]
    /// with [`TpmError::TransportFault`] for injected faults.
    pub(crate) fn quote_and_free_keyed(
        &mut self,
        id: PalId,
        nonce: &[u8],
        key: Option<u64>,
    ) -> Result<Timed<Quote>, SeaError> {
        let Some(key) = key else {
            return self.quote_and_free(id, nonce);
        };
        let obs = self.obs();
        obs.set_track(key);
        obs.open(Layer::Core, "session.quote");
        let rolled = self.roll_tpm(key);
        let result = self.with_tpm_fault(rolled, key, |sea| sea.quote_and_free(id, nonce));
        obs.close();
        result
    }

    /// Forcibly suspends an `Execute`-state PAL without running its
    /// logic — the hardware preemption-timer expiry path. Pages go to
    /// `NONE`, helper cores are revoked, and one VM exit is charged,
    /// exactly as a voluntary `SYIELD`.
    ///
    /// # Errors
    ///
    /// [`SeaError::WrongLifecycle`] outside `Execute`.
    pub(crate) fn preempt(&mut self, id: PalId) -> Result<(), SeaError> {
        let run = self.pals.get_mut(&id.0).ok_or(SeaError::NoSuchPal(id.0))?;
        if run.secb.lifecycle() != PalLifecycle::Execute {
            return Err(SeaError::WrongLifecycle {
                actual: run.secb.lifecycle(),
                operation: "preempt",
            });
        }
        let cpu = run
            .current_cpu
            .ok_or(SeaError::EngineFault("Execute state without a CPU"))?;
        let range = run.secb.pages();
        assert!(run.secb.transition(PalLifecycle::Suspend));
        run.current_cpu = None;
        let helpers = std::mem::take(&mut run.helper_cpus);

        let machine = self.platform.machine_mut();
        let vm_exit = machine.platform().virt.vm_exit;
        machine.controller_mut().suspend_pages(range, cpu)?;
        machine.cpu_mut(cpu)?.leave_secure();
        for h in helpers {
            machine.cpu_mut(h)?.leave_secure();
        }
        machine.charge(Layer::Hw, "hw.vm_exit", vm_exit);

        let run = self.pals.get_mut(&id.0).ok_or(SeaError::NoSuchPal(id.0))?;
        run.report.context_switch += vm_exit;
        Ok(())
    }

    /// Tears down a session whose recovery budget is exhausted: an
    /// executing PAL is preempted then `SKILL`ed, a suspended one
    /// `SKILL`ed directly, and a terminated one has its sePCR freed
    /// without a quote. In every case the pages return to `ALL` and the
    /// sePCR slot to Free. Records [`TraceEvent::SessionKilled`].
    ///
    /// # Errors
    ///
    /// [`SeaError::NoSuchPal`] for unknown identifiers and
    /// [`SeaError::WrongLifecycle`] for PALs still mid-launch.
    pub(crate) fn kill_session(&mut self, id: PalId, key: u64) -> Result<(), SeaError> {
        let obs = self.obs();
        obs.set_track(key);
        obs.open(Layer::Core, "session.kill");
        let result = self.kill_session_impl(id, key);
        obs.close();
        result
    }

    fn kill_session_impl(&mut self, id: PalId, key: u64) -> Result<(), SeaError> {
        let lifecycle = self
            .pals
            .get(&id.0)
            .ok_or(SeaError::NoSuchPal(id.0))?
            .secb
            .lifecycle();
        match lifecycle {
            PalLifecycle::Execute => {
                self.preempt(id)?;
                self.skill(id)?;
            }
            PalLifecycle::Suspend => self.skill(id)?,
            PalLifecycle::Done => {
                // The sePCR may already have been recycled by a
                // successful quote; tolerate that.
                match self.release_sepcr(id) {
                    Ok(()) => {}
                    Err(SeaError::Tpm(TpmError::SePcrWrongState(_) | TpmError::NoSuchSePcr(_))) => {
                    }
                    Err(e) => return Err(e),
                }
            }
            other => {
                return Err(SeaError::WrongLifecycle {
                    actual: other,
                    operation: "kill_session",
                })
            }
        }
        self.record(TraceEvent::SessionKilled { session: key });
        Ok(())
    }

    /// [`EnhancedSea::run_legacy_fallback`] for a recovered session that
    /// found the sePCR bank saturated. The fallback rolls no faults, but
    /// like the other keyed operations it pins the session's track and
    /// lifecycle frame.
    ///
    /// # Errors
    ///
    /// As for [`EnhancedSea::run_legacy_fallback`].
    pub(crate) fn fallback_keyed(
        &mut self,
        pal: &mut dyn PalLogic,
        input: &[u8],
        cpu: CpuId,
        key: u64,
    ) -> Result<PalDone, SeaError> {
        let obs = self.obs();
        obs.set_track(key);
        obs.open(Layer::Core, "session.fallback");
        let done = self.run_legacy_fallback(pal, input, cpu);
        obs.close();
        obs.add("core.degraded", 1);
        done
    }

    /// Degraded path for sePCR-bank saturation: "if no sePCR is
    /// available, SLAUNCH must return a failure code" (§5.4.1), and the
    /// OS falls back to running the PAL the way today's hardware does —
    /// one monolithic late launch with seals bound to the dynamic
    /// measurement PCRs, paying the full SKINIT-class launch cost
    /// instead of the sePCR fast path. The PAL runs to completion inside
    /// the single launch (yields spin in place, carrying state along).
    ///
    /// # Errors
    ///
    /// Propagates hardware, TPM, and PAL-logic failures; the launch CPU
    /// is restored to normal operation even when the PAL logic fails.
    pub(crate) fn run_legacy_fallback(
        &mut self,
        pal: &mut dyn PalLogic,
        input: &[u8],
        cpu: CpuId,
    ) -> Result<PalDone, SeaError> {
        let image = pal.image();
        let pages = (image.len().max(1) as u32).div_ceil(PAGE_SIZE as u32);
        let range = self.find_region(pages, image.len())?;
        self.regions.take(range);

        self.platform
            .machine_mut()
            .memory_mut()
            .write_raw(range.base_addr(), &image)?;
        let launch = self.platform.late_launch(cpu, range, image.len())?;
        let selection = match self.platform.machine().platform().vendor {
            sea_hw::CpuVendor::Amd => vec![sea_tpm::PcrIndex(17)],
            sea_hw::CpuVendor::Intel => vec![sea_tpm::PcrIndex(17), sea_tpm::PcrIndex(18)],
        };

        let (machine, tpm) = self.platform.parts_mut();
        let tpm = tpm.ok_or(SeaError::NoTpm)?;
        let mut state = Vec::new();
        let mut report = SessionReport {
            late_launch: launch.total(),
            ..SessionReport::default()
        };
        let result = loop {
            let mut ctx = PalCtx::new(
                Some(&mut *tpm),
                Some(SealBinding::Pcrs(selection.clone())),
                input,
                state,
            );
            let outcome = pal.run(&mut ctx);
            report.seal += ctx.seal_cost;
            report.unseal += ctx.unseal_cost;
            report.tpm_other += ctx.tpm_other_cost;
            report.pal_work += ctx.work_done;
            machine.charge(Layer::Tpm, "tpm.seal", ctx.seal_cost);
            machine.charge(Layer::Tpm, "tpm.unseal", ctx.unseal_cost);
            machine.charge(Layer::Tpm, "tpm.other", ctx.tpm_other_cost);
            machine.charge(Layer::Core, "core.pal_work", ctx.work_done);
            state = ctx.into_state();
            match outcome {
                Ok(PalOutcome::Exit(bytes)) => break Ok(bytes),
                Ok(PalOutcome::Yield) => continue,
                Err(e) => break Err(e),
            }
        };

        self.platform.late_launch_exit(cpu, range)?;
        self.regions.release(range);
        let output = result?;
        Ok(PalDone { output, report })
    }
}

/// Reads the PAL's persistent state (8-byte length prefix + payload) from
/// its protected region, as the PAL itself would on its owning CPU.
fn read_state(
    machine: &sea_hw::Machine,
    range: PageRange,
    state_off: u64,
    capacity: usize,
    cpu: CpuId,
) -> Result<Vec<u8>, SeaError> {
    let base = range.base_addr().offset(state_off);
    let header = machine.read(sea_hw::Requester::Cpu(cpu), base, 8)?;
    let header: [u8; 8] = header
        .try_into()
        .map_err(|_| SeaError::EngineFault("short state header read"))?;
    let len = u64::from_le_bytes(header) as usize;
    if len == 0 {
        return Ok(Vec::new());
    }
    let len = len.min(capacity);
    Ok(machine.read(sea_hw::Requester::Cpu(cpu), base.offset(8), len)?)
}

/// Writes the PAL's persistent state back into its protected region.
fn write_state(
    machine: &mut sea_hw::Machine,
    range: PageRange,
    state_off: u64,
    capacity: usize,
    cpu: CpuId,
    state: &[u8],
) -> Result<(), SeaError> {
    if state.len() > capacity {
        return Err(SeaError::RegionTooSmall {
            needed: state.len(),
            available: capacity,
        });
    }
    let base = range.base_addr().offset(state_off);
    machine.write(
        sea_hw::Requester::Cpu(cpu),
        base,
        &(state.len() as u64).to_le_bytes(),
    )?;
    machine.write(sea_hw::Requester::Cpu(cpu), base.offset(8), state)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pal::FnPal;
    use sea_hw::{HwError, Platform, Requester};
    use sea_tpm::{KeyStrength, SePcrState, TpmError};

    fn sea(n_cpus: u16) -> EnhancedSea {
        EnhancedSea::new(SecurePlatform::new(
            Platform::recommended(n_cpus),
            KeyStrength::Demo512,
            b"enhanced test",
        ))
        .unwrap()
    }

    #[test]
    fn requires_proposed_hardware() {
        let baseline = SecurePlatform::new(Platform::hp_dc5750(), KeyStrength::Demo512, b"x");
        assert!(matches!(
            EnhancedSea::new(baseline),
            Err(SeaError::SlaunchUnsupported)
        ));
    }

    #[test]
    fn launch_step_exit_quote_lifecycle() {
        let mut sea = sea(2);
        let mut pal = FnPal::new("simple", |ctx| {
            ctx.work(SimDuration::from_us(100));
            Ok(PalOutcome::Exit(b"result".to_vec()))
        });
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        assert_eq!(sea.secb(id).unwrap().lifecycle(), PalLifecycle::Execute);
        assert!(sea.secb(id).unwrap().measured());

        let step = sea.step(&mut pal, id).unwrap();
        assert_eq!(
            step,
            PalStep::Exited {
                output: b"result".to_vec()
            }
        );
        assert_eq!(sea.secb(id).unwrap().lifecycle(), PalLifecycle::Done);

        let quote = sea.quote_and_free(id, b"nonce").unwrap();
        let aik = sea.platform().tpm().unwrap().aik_public().clone();
        assert!(quote.value.verify_signature(&aik));
        // The sePCR is recycled.
        assert_eq!(
            sea.platform().tpm().unwrap().sepcrs().free_count(),
            sea.platform().machine().platform().sepcr_count
        );
    }

    #[test]
    fn measurement_happens_once_not_per_switch() {
        let mut sea = sea(2);
        let mut remaining = 3u32;
        let mut pal = FnPal::new("yielder", move |ctx| {
            ctx.work(SimDuration::from_us(10));
            remaining -= 1;
            if remaining == 0 {
                Ok(PalOutcome::Exit(vec![]))
            } else {
                Ok(PalOutcome::Yield)
            }
        })
        .with_image_size(64 * 1024);
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        let done = sea.run_to_exit(&mut pal, id, CpuId(1)).unwrap();
        // Late launch charged exactly once (≈ 8.8 ms at bus speed).
        assert!((done.report.late_launch.as_ms_f64() - 8.82).abs() < 0.1);
        // Two suspend/resume pairs at ~1 µs each — not 1100 ms each.
        assert!(done.report.context_switch < SimDuration::from_us(5));
        assert!(done.report.context_switch >= SimDuration::from_us(2));
    }

    #[test]
    fn state_persists_across_suspend_resume_without_tpm_seal() {
        let mut sea = sea(2);
        let mut pal = FnPal::new("counter", |ctx| {
            let count = ctx.state().first().copied().unwrap_or(0);
            ctx.set_state(vec![count + 1]);
            if count + 1 == 3 {
                Ok(PalOutcome::Exit(vec![count + 1]))
            } else {
                Ok(PalOutcome::Yield)
            }
        });
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        let done = sea.run_to_exit(&mut pal, id, CpuId(0)).unwrap();
        assert_eq!(done.output, vec![3]);
        // No TPM sealing was needed to persist state across switches.
        assert_eq!(done.report.seal, SimDuration::ZERO);
        assert_eq!(done.report.unseal, SimDuration::ZERO);
    }

    #[test]
    fn suspended_pal_pages_unreadable_by_anyone() {
        let mut sea = sea(2);
        let mut pal = FnPal::new("secretive", |ctx| {
            ctx.set_state(b"top secret".to_vec());
            Ok(PalOutcome::Yield)
        });
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        sea.step(&mut pal, id).unwrap();
        assert_eq!(sea.secb(id).unwrap().lifecycle(), PalLifecycle::Suspend);
        let base = sea.secb(id).unwrap().pages().base_addr();
        for c in [CpuId(0), CpuId(1)] {
            assert!(matches!(
                sea.platform().machine().read(Requester::Cpu(c), base, 16),
                Err(HwError::AccessDenied { .. })
            ));
        }
    }

    #[test]
    fn running_pal_pages_unreadable_by_other_cpu() {
        let mut sea = sea(2);
        let mut pal = FnPal::new("private", |_| Ok(PalOutcome::Yield));
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        let base = sea.secb(id).unwrap().pages().base_addr();
        // While in Execute on CPU 0, CPU 1 is denied.
        assert!(sea
            .platform()
            .machine()
            .read(Requester::Cpu(CpuId(1)), base, 4)
            .is_err());
        // The owner may read.
        assert!(sea
            .platform()
            .machine()
            .read(Requester::Cpu(CpuId(0)), base, 4)
            .is_ok());
    }

    #[test]
    fn resume_can_move_cpus_and_double_resume_fails() {
        let mut sea = sea(2);
        let mut pal = FnPal::new("mover", |ctx| {
            if ctx.state().is_empty() {
                ctx.set_state(vec![1]);
                Ok(PalOutcome::Yield)
            } else {
                Ok(PalOutcome::Exit(b"moved".to_vec()))
            }
        });
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        sea.step(&mut pal, id).unwrap();
        // Resume on the *other* CPU.
        sea.resume(id, CpuId(1)).unwrap();
        // A second resume must fail (pages are CpuOnly(1), not NONE).
        assert!(sea.resume(id, CpuId(0)).is_err());
        let step = sea.step(&mut pal, id).unwrap();
        assert_eq!(
            step,
            PalStep::Exited {
                output: b"moved".to_vec()
            }
        );
    }

    #[test]
    fn sfree_releases_pages_and_erases_state() {
        let mut sea = sea(2);
        let mut pal = FnPal::new("cleaner", |ctx| {
            ctx.set_state(b"ephemeral secret".to_vec());
            Ok(PalOutcome::Exit(vec![]))
        });
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        sea.step(&mut pal, id).unwrap();
        let range = sea.secb(id).unwrap().pages();
        // Pages are ALL again: the OS can allocate them...
        let data = sea
            .platform()
            .machine()
            .read(
                Requester::Cpu(CpuId(1)),
                range.base_addr(),
                range.byte_len(),
            )
            .unwrap();
        // ...and the state area contains no trace of the secret.
        let needle = b"ephemeral secret";
        assert!(
            !data.windows(needle.len()).any(|w| w == needle),
            "secret must be erased at SFREE"
        );
    }

    #[test]
    fn skill_erases_brands_and_frees() {
        let mut sea = sea(2);
        let mut pal = FnPal::new("runaway", |ctx| {
            ctx.set_state(b"malware state".to_vec());
            Ok(PalOutcome::Yield)
        });
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        let handle = sea.secb(id).unwrap().sepcr().unwrap();
        sea.step(&mut pal, id).unwrap();
        // SKILL only valid from Suspend; it was suspended by the yield.
        sea.skill(id).unwrap();
        assert_eq!(sea.secb(id).unwrap().lifecycle(), PalLifecycle::Done);
        // Pages wiped and public again.
        let range = sea.secb(id).unwrap().pages();
        let data = sea
            .platform()
            .machine()
            .read(
                Requester::Cpu(CpuId(0)),
                range.base_addr(),
                range.byte_len(),
            )
            .unwrap();
        assert!(data.iter().all(|&b| b == 0));
        // sePCR slot freed (branded value was pushed through the chain).
        assert_eq!(
            sea.platform()
                .tpm()
                .unwrap()
                .sepcrs()
                .state(handle)
                .unwrap(),
            SePcrState::Free
        );
        // No quote is available for a killed PAL.
        assert!(sea.quote_and_free(id, b"n").is_err());
    }

    #[test]
    fn skill_requires_suspend() {
        let mut sea = sea(2);
        let mut pal = FnPal::new("x", |_| Ok(PalOutcome::Yield));
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        // Still Execute: SKILL refused.
        assert!(matches!(
            sea.skill(id),
            Err(SeaError::WrongLifecycle { .. })
        ));
    }

    #[test]
    fn concurrent_pals_have_disjoint_pages_and_sepcrs() {
        let mut sea = sea(4);
        let mut a = FnPal::new("a", |_| Ok(PalOutcome::Yield));
        let mut b = FnPal::new("b", |_| Ok(PalOutcome::Yield));
        let ia = sea.slaunch(&mut a, b"", CpuId(0), None).unwrap();
        let ib = sea.slaunch(&mut b, b"", CpuId(1), None).unwrap();
        let ra = sea.secb(ia).unwrap().pages();
        let rb = sea.secb(ib).unwrap().pages();
        assert!(!ra.overlaps(&rb));
        assert_ne!(sea.secb(ia).unwrap().sepcr(), sea.secb(ib).unwrap().sepcr());
        // PAL A's pages are closed to PAL B's CPU and vice versa.
        assert!(sea
            .platform()
            .machine()
            .read(Requester::Cpu(CpuId(1)), ra.base_addr(), 4)
            .is_err());
        assert!(sea
            .platform()
            .machine()
            .read(Requester::Cpu(CpuId(0)), rb.base_addr(), 4)
            .is_err());
    }

    #[test]
    fn sepcr_exhaustion_fails_launch_and_releases_pages() {
        let mut sea = EnhancedSea::new(SecurePlatform::new(
            Platform::recommended(2).with_sepcr_count(1),
            KeyStrength::Demo512,
            b"exhaust",
        ))
        .unwrap();
        let mut a = FnPal::new("a", |_| Ok(PalOutcome::Yield));
        let mut b = FnPal::new("b", |_| Ok(PalOutcome::Yield));
        sea.slaunch(&mut a, b"", CpuId(0), None).unwrap();
        let err = sea.slaunch(&mut b, b"", CpuId(1), None).unwrap_err();
        assert_eq!(err, SeaError::Tpm(TpmError::NoFreeSePcr));
        // Figure 7 failure path: B's pages were returned to ALL.
        let (all, cpu_only, none) = sea.platform().machine().controller().state_census();
        assert_eq!(none, 0);
        assert!(cpu_only > 0, "A's pages stay protected");
        assert!(all > 0);
        let _ = all;
    }

    #[test]
    fn preemption_timer_charges_context_switches() {
        let mut sea = sea(2);
        // 10 ms of work under a 1 ms timer → 9 involuntary switches.
        let mut pal = FnPal::new("longrunner", |ctx| {
            ctx.work(SimDuration::from_ms(10));
            Ok(PalOutcome::Exit(vec![]))
        });
        let id = sea
            .slaunch(&mut pal, b"", CpuId(0), Some(SimDuration::from_ms(1)))
            .unwrap();
        let done = sea.run_to_exit(&mut pal, id, CpuId(0)).unwrap();
        let expected = sea.context_switch_cost() * 9;
        assert_eq!(done.report.context_switch, expected);
    }

    #[test]
    fn inputs_flow_through_protected_pages() {
        let mut sea = sea(2);
        let mut pal = FnPal::new("echo", |ctx| Ok(PalOutcome::Exit(ctx.input().to_vec())));
        let id = sea.slaunch(&mut pal, b"hello pal", CpuId(0), None).unwrap();
        let done = sea.run_to_exit(&mut pal, id, CpuId(0)).unwrap();
        assert_eq!(done.output, b"hello pal");
    }

    #[test]
    fn step_in_wrong_state_rejected() {
        let mut sea = sea(2);
        let mut pal = FnPal::new("once", |_| Ok(PalOutcome::Exit(vec![])));
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        sea.step(&mut pal, id).unwrap();
        assert!(matches!(
            sea.step(&mut pal, id),
            Err(SeaError::WrongLifecycle { .. })
        ));
        assert!(matches!(
            sea.resume(id, CpuId(0)),
            Err(SeaError::WrongLifecycle { .. })
        ));
    }

    #[test]
    fn unknown_pal_id_errors() {
        let mut sea = sea(2);
        assert!(matches!(
            sea.resume(PalId(99), CpuId(0)),
            Err(SeaError::NoSuchPal(99))
        ));
        assert!(sea.secb(PalId(99)).is_err());
        assert!(sea.report(PalId(99)).is_err());
        assert!(sea.quote_and_free(PalId(99), b"n").is_err());
    }

    #[test]
    fn multicore_join_grants_and_revokes_access() {
        let mut sea = sea(4);
        let mut pal = FnPal::new("parallel", |ctx| {
            if ctx.state().is_empty() {
                ctx.set_state(vec![1]);
                Ok(PalOutcome::Yield)
            } else {
                Ok(PalOutcome::Exit(vec![]))
            }
        });
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        let base = sea.secb(id).unwrap().pages().base_addr();

        // Before join: CPU 2 is locked out.
        assert!(sea
            .platform()
            .machine()
            .read(Requester::Cpu(CpuId(2)), base, 4)
            .is_err());
        sea.join(id, CpuId(2)).unwrap();
        // After join: CPU 2 shares the PAL's pages; CPU 3 still out.
        assert!(sea
            .platform()
            .machine()
            .read(Requester::Cpu(CpuId(2)), base, 4)
            .is_ok());
        assert!(sea
            .platform()
            .machine()
            .read(Requester::Cpu(CpuId(3)), base, 4)
            .is_err());
        assert!(sea
            .platform()
            .machine()
            .cpu(CpuId(2))
            .unwrap()
            .in_secure_exec());

        // Suspend revokes the helper; it must re-join after resume.
        sea.step(&mut pal, id).unwrap();
        assert!(sea
            .platform()
            .machine()
            .read(Requester::Cpu(CpuId(2)), base, 4)
            .is_err());
        assert!(!sea
            .platform()
            .machine()
            .cpu(CpuId(2))
            .unwrap()
            .in_secure_exec());

        sea.resume(id, CpuId(1)).unwrap();
        // Join is primary-initiated: the new primary is CPU 1.
        sea.join(id, CpuId(3)).unwrap();
        assert!(sea
            .platform()
            .machine()
            .read(Requester::Cpu(CpuId(3)), base, 4)
            .is_ok());
        // Exit clears everything.
        sea.step(&mut pal, id).unwrap();
        assert!(!sea
            .platform()
            .machine()
            .cpu(CpuId(3))
            .unwrap()
            .in_secure_exec());
    }

    #[test]
    fn join_requires_execute_state() {
        let mut sea = sea(2);
        let mut pal = FnPal::new("j", |_| Ok(PalOutcome::Yield));
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        sea.step(&mut pal, id).unwrap(); // suspended
        assert!(matches!(
            sea.join(id, CpuId(1)),
            Err(SeaError::WrongLifecycle { .. })
        ));
        assert!(sea.join(PalId(99), CpuId(1)).is_err());
    }

    #[test]
    fn exhausted_bump_pointer_reuses_released_regions() {
        // DRAM with room for ten pages above the OS image.
        let mut sea = EnhancedSea::new(SecurePlatform::new(
            Platform::recommended(2).with_mem_pages(FIRST_PAL_PAGE + 10),
            KeyStrength::Demo512,
            b"regions",
        ))
        .unwrap();
        let start = |sea: &EnhancedSea, id| sea.secb(id).unwrap().pages().start.0 - FIRST_PAL_PAGE;
        let exit = |sea: &mut EnhancedSea, pal: &mut dyn PalLogic, id| {
            let PalStep::Exited { output } = sea.step(pal, id).unwrap() else {
                panic!("PAL must exit");
            };
            sea.quote_and_free(id, b"n").unwrap();
            output
        };
        let kill = |sea: &mut EnhancedSea, pal: &mut dyn PalLogic, id| {
            assert_eq!(sea.step(pal, id).unwrap(), PalStep::Yielded);
            sea.skill(id).unwrap();
        };
        let mut first = FnPal::new("first", |_| Ok(PalOutcome::Exit(vec![])));
        // Reports the state it found, which must be empty on a fresh
        // region.
        let mut reuse = FnPal::new("reuse", |ctx| Ok(PalOutcome::Exit(ctx.state().to_vec())));
        let mut yields = FnPal::new("yields", |_| Ok(PalOutcome::Yield));

        // The bump pointer goes first, even past a released region. A's
        // page-long input puts its state on page 1, so SFREE erases
        // pages 1..4 and page 0 keeps the input.
        let a = sea
            .slaunch(&mut first, &[0xff; PAGE_SIZE], CpuId(0), None)
            .unwrap();
        exit(&mut sea, &mut first, a);
        let b = sea.slaunch(&mut yields, b"", CpuId(0), None).unwrap();
        let c = sea.slaunch(&mut yields, b"", CpuId(1), None).unwrap();
        assert_eq!((start(&sea, a), start(&sea, b), start(&sea, c)), (0, 4, 7));

        // Exhausted, it splits A's four pages, zeroed first: A's input
        // sits where the new PAL's state header goes.
        let d = sea.slaunch(&mut reuse, b"", CpuId(0), None).unwrap();
        assert_eq!(start(&sea, d), 0);
        // A SKILLed region comes back too, merged with A's leftover page.
        kill(&mut sea, &mut yields, b);
        let e = sea.slaunch(&mut first, b"", CpuId(1), None).unwrap();
        assert_eq!(start(&sea, e), 3);
        assert!(matches!(
            sea.slaunch(&mut yields, b"", CpuId(0), None),
            Err(SeaError::RegionTooSmall { available: 0, .. })
        ));
        assert_eq!(exit(&mut sea, &mut reuse, d), Vec::<u8>::new());

        // Released neighbours merge into one region a bigger PAL fits.
        kill(&mut sea, &mut yields, c);
        exit(&mut sea, &mut first, e);
        let mut big =
            FnPal::new("big", |_| Ok(PalOutcome::Exit(vec![]))).with_image_size(8 * PAGE_SIZE);
        let f = sea.slaunch(&mut big, b"", CpuId(0), None).unwrap();
        assert_eq!(
            (start(&sea, f), sea.secb(f).unwrap().pages().count),
            (0, 10)
        );
        exit(&mut sea, &mut big, f);

        // A legacy fallback splits the region and gives its part back.
        let mut legacy = FnPal::new("legacy", |_| Ok(PalOutcome::Exit(b"ok".to_vec())));
        let done = sea.run_legacy_fallback(&mut legacy, b"", CpuId(0)).unwrap();
        assert_eq!(done.output, b"ok");
        let g = sea.slaunch(&mut big, b"", CpuId(0), None).unwrap();
        assert_eq!(start(&sea, g), 0);
    }

    #[test]
    fn power_cycle_evaporates_pals_and_frees_all_resources() {
        let mut sea = sea(2);
        let mut running = FnPal::new("running", |_| Ok(PalOutcome::Yield));
        let mut suspended = FnPal::new("suspended", |_| Ok(PalOutcome::Yield));
        let ra = sea.slaunch(&mut running, b"", CpuId(0), None).unwrap();
        let rb = sea.slaunch(&mut suspended, b"", CpuId(1), None).unwrap();
        sea.step(&mut suspended, rb).unwrap();

        let cost = sea.power_cycle();
        assert_eq!(cost, sea_hw::RESET_REBOOT_COST);
        // Both PALs are gone...
        assert!(matches!(sea.secb(ra), Err(SeaError::NoSuchPal(_))));
        assert!(matches!(sea.secb(rb), Err(SeaError::NoSuchPal(_))));
        // ...their pages are public again...
        let (_, cpu_only, none) = sea.platform().machine().controller().state_census();
        assert_eq!((cpu_only, none), (0, 0));
        // ...and every sePCR slot is Free.
        let tpm = sea.platform().tpm().unwrap();
        assert_eq!(
            tpm.sepcrs().free_count(),
            sea.platform().machine().platform().sepcr_count
        );
        // The allocator rewound: a fresh launch reuses the low pages.
        let mut again = FnPal::new("again", |_| Ok(PalOutcome::Exit(vec![])));
        let id = sea.slaunch(&mut again, b"", CpuId(0), None).unwrap();
        assert_eq!(sea.secb(id).unwrap().pages().start.0, FIRST_PAL_PAGE);
    }

    #[test]
    fn sealed_state_survives_whole_pal_lifetimes() {
        // Cross-lifetime persistence still uses the TPM (§5.4.4), but
        // within a lifetime no sealing is needed.
        let mut sea = sea(2);
        let mut holder = None;
        {
            let h = &mut holder;
            let mut first = FnPal::new("persistent", move |ctx| {
                *h = Some(ctx.seal(b"across lifetimes")?);
                Ok(PalOutcome::Exit(vec![]))
            });
            let id = sea.slaunch(&mut first, b"", CpuId(0), None).unwrap();
            sea.run_to_exit(&mut first, id, CpuId(0)).unwrap();
            sea.quote_and_free(id, b"n").unwrap();
        }
        let blob = holder.unwrap();
        let mut second = FnPal::new("persistent", move |ctx| {
            Ok(PalOutcome::Exit(ctx.unseal(&blob)?))
        });
        let id = sea.slaunch(&mut second, b"", CpuId(1), None).unwrap();
        let done = sea.run_to_exit(&mut second, id, CpuId(1)).unwrap();
        assert_eq!(done.output, b"across lifetimes");
    }
}
