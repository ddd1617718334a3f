//! The Secure Execution Control Block (Figure 5(a)) and the PAL life
//! cycle (Figure 6).

use sea_hw::{PageRange, SimDuration};
use sea_tpm::SePcrHandle;

/// The Figure 6 life-cycle states of a PAL.
///
/// ```text
///                      measurement
///  Start ──SLAUNCH──▶ Protect ──▶ Measure ──▶ Execute ──SFREE──▶ Done
///             MF=0                 complete      │  ▲              ▲
///                                                ▼  │ SLAUNCH MF=1 │
///                                              Suspend ───SKILL────┘
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PalLifecycle {
    /// SECB allocated by the OS; nothing protected yet.
    #[default]
    Start,
    /// Memory-controller protections being installed.
    Protect,
    /// PAL image streaming to the TPM for measurement.
    Measure,
    /// Running on a CPU with full hardware protections.
    Execute,
    /// Context-switched out; pages are `NONE`, state inaccessible to all.
    Suspend,
    /// Terminated (`SFREE` or `SKILL`); resources returned to the OS.
    Done,
}

/// The Secure Execution Control Block: the in-memory structure holding a
/// PAL's state and resource allocations (Figure 5(a)).
///
/// Fields mirror the figure: saved CPU state (modelled as the persistent
/// PAL byte-state held in its protected pages), the allocated memory
/// pages, the Measured Flag, the preemption timer, and the sePCR handle.
#[derive(Debug, Clone)]
pub struct Secb {
    /// Human-readable PAL name (diagnostics only; not part of identity).
    name: String,
    /// Physical pages allocated to the PAL ("the PAL and SECB should be
    /// contiguous in memory", §5.1.1).
    pages: PageRange,
    /// Length of the measured PAL image within the region.
    image_len: usize,
    /// The Measured Flag: distinguishes first launch (measure!) from
    /// resume (§5.3.1). "The Measured Flag is honored only if the SECB's
    /// memory page is set to NONE."
    measured: bool,
    /// OS-configured preemption budget per scheduling quantum (§5.3.1).
    preemption_timer: Option<SimDuration>,
    /// Handle of the sePCR bound at first launch (§5.4.1).
    sepcr: Option<SePcrHandle>,
    /// Current life-cycle state.
    lifecycle: PalLifecycle,
}

impl Secb {
    /// Creates a fresh SECB in the `Start` state.
    pub fn new(
        name: &str,
        pages: PageRange,
        image_len: usize,
        preemption_timer: Option<SimDuration>,
    ) -> Self {
        Secb {
            name: name.to_owned(),
            pages,
            image_len,
            measured: false,
            preemption_timer,
            sepcr: None,
            lifecycle: PalLifecycle::Start,
        }
    }

    /// The PAL's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The allocated page range.
    pub fn pages(&self) -> PageRange {
        self.pages
    }

    /// Length of the measured image.
    pub(crate) fn image_len(&self) -> usize {
        self.image_len
    }

    /// The Measured Flag.
    pub fn measured(&self) -> bool {
        self.measured
    }

    pub(crate) fn set_measured(&mut self) {
        self.measured = true;
    }

    /// The preemption budget, if the OS configured one.
    pub fn preemption_timer(&self) -> Option<SimDuration> {
        self.preemption_timer
    }

    /// The bound sePCR handle (after measurement).
    pub fn sepcr(&self) -> Option<SePcrHandle> {
        self.sepcr
    }

    pub(crate) fn bind_sepcr(&mut self, handle: SePcrHandle) {
        self.sepcr = Some(handle);
    }

    /// Current life-cycle state.
    pub fn lifecycle(&self) -> PalLifecycle {
        self.lifecycle
    }

    /// Transitions along a Figure 6 edge. Returns `false` (and leaves the
    /// state unchanged) if the figure has no such edge — the hardware
    /// would refuse.
    pub(crate) fn transition(&mut self, to: PalLifecycle) -> bool {
        use PalLifecycle::*;
        let legal = matches!(
            (self.lifecycle, to),
            (Start, Protect)
                | (Protect, Measure)
                | (Protect, Execute)   // resume path: MF=1 skips Measure
                | (Measure, Execute)
                | (Execute, Suspend)
                | (Execute, Done)      // SFREE
                | (Suspend, Protect)   // SLAUNCH resume
                | (Suspend, Done) // SKILL
        );
        if legal {
            self.lifecycle = to;
        }
        legal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_hw::PageIndex;

    fn secb() -> Secb {
        Secb::new(
            "test",
            PageRange::new(PageIndex(4), 4),
            100,
            Some(SimDuration::from_ms(5)),
        )
    }

    #[test]
    fn fresh_secb_state() {
        let s = secb();
        assert_eq!(s.lifecycle(), PalLifecycle::Start);
        assert!(!s.measured());
        assert!(s.sepcr().is_none());
        assert_eq!(s.preemption_timer(), Some(SimDuration::from_ms(5)));
        assert_eq!(s.image_len(), 100);
        assert_eq!(s.name(), "test");
    }

    #[test]
    fn happy_path_first_launch() {
        let mut s = secb();
        assert!(s.transition(PalLifecycle::Protect));
        assert!(s.transition(PalLifecycle::Measure));
        assert!(s.transition(PalLifecycle::Execute));
        assert!(s.transition(PalLifecycle::Done));
        assert_eq!(s.lifecycle(), PalLifecycle::Done);
    }

    #[test]
    fn suspend_resume_cycle() {
        let mut s = secb();
        s.transition(PalLifecycle::Protect);
        s.transition(PalLifecycle::Measure);
        s.transition(PalLifecycle::Execute);
        assert!(s.transition(PalLifecycle::Suspend));
        // Resume: Protect then directly Execute (Measured Flag set).
        assert!(s.transition(PalLifecycle::Protect));
        assert!(s.transition(PalLifecycle::Execute));
        assert!(s.transition(PalLifecycle::Suspend));
        // SKILL from Suspend.
        assert!(s.transition(PalLifecycle::Done));
    }

    #[test]
    fn illegal_edges_rejected() {
        let mut s = secb();
        // Cannot execute or suspend from Start.
        assert!(!s.transition(PalLifecycle::Execute));
        assert!(!s.transition(PalLifecycle::Suspend));
        assert!(!s.transition(PalLifecycle::Done));
        assert_eq!(s.lifecycle(), PalLifecycle::Start);
        // Done is terminal.
        s.transition(PalLifecycle::Protect);
        s.transition(PalLifecycle::Measure);
        s.transition(PalLifecycle::Execute);
        s.transition(PalLifecycle::Done);
        for to in [
            PalLifecycle::Start,
            PalLifecycle::Protect,
            PalLifecycle::Measure,
            PalLifecycle::Execute,
            PalLifecycle::Suspend,
        ] {
            assert!(!s.transition(to), "{to:?} should be rejected from Done");
        }
    }

    #[test]
    fn flags_are_settable_once_bound() {
        let mut s = secb();
        s.set_measured();
        assert!(s.measured());
        s.bind_sepcr(SePcrHandle(3));
        assert_eq!(s.sepcr(), Some(SePcrHandle(3)));
    }
}
