//! Hardware event tracing.
//!
//! The experiments and security tests want to *observe* what the
//! hardware did — which accesses the memory controller denied, when
//! protections changed, when late launches ran — without printf
//! archaeology. [`Trace`] is a bounded, virtual-time-stamped event log
//! the [`crate::Machine`] records into; tests assert on event sequences
//! and the bench harness can dump them for debugging.

use std::collections::VecDeque;
use std::fmt;

use crate::fault::FaultKind;
use crate::types::{CpuId, DeviceId, PageRange, PhysAddr, Requester};
use crate::SimTime;

/// A hardware event worth recording.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// The memory controller denied an access.
    AccessDenied {
        /// Who was denied.
        requester: Requester,
        /// The address the request targeted.
        addr: PhysAddr,
    },
    /// A page range was protected for a CPU (`SLAUNCH` launch path).
    RangeProtected {
        /// The protected range.
        range: PageRange,
        /// The owning CPU.
        cpu: CpuId,
    },
    /// A page range was suspended to `NONE`.
    RangeSuspended {
        /// The suspended range.
        range: PageRange,
    },
    /// A page range was returned to `ALL`.
    RangeReleased {
        /// The released range.
        range: PageRange,
    },
    /// DEV/MPT DMA protection toggled over a range.
    DevChanged {
        /// The affected range.
        range: PageRange,
        /// New blocked state.
        blocked: bool,
    },
    /// A CPU entered secure execution.
    SecureEnter {
        /// The CPU.
        cpu: CpuId,
        /// Base of the protected region it executes.
        region: PhysAddr,
    },
    /// A CPU left secure execution.
    SecureLeave {
        /// The CPU.
        cpu: CpuId,
    },
    /// A device performed DMA (successfully).
    DmaAccess {
        /// The device.
        device: DeviceId,
        /// The address accessed.
        addr: PhysAddr,
    },
    /// A [`FaultKind`] was injected into a session by a fault plan.
    FaultInjected {
        /// What was injected.
        kind: FaultKind,
        /// The session key the injection was rolled against.
        session: u64,
    },
    /// The recovery layer retried a session operation after a
    /// transient fault.
    SessionRetried {
        /// The session key.
        session: u64,
        /// Which attempt this retry is (1-based).
        attempt: u32,
    },
    /// The recovery layer gave up on a session and tore it down via
    /// `SKILL`, reclaiming its sePCR and pages.
    SessionKilled {
        /// The session key.
        session: u64,
    },
    /// A hardware mechanism blocked an adversary action.
    AttackBlocked {
        /// The mechanism that stopped it (e.g. "access-control table").
        mechanism: String,
    },
    /// An injected preemption-timer expiry forced a session off its CPU
    /// (the session resumes on its next turn; no retry is consumed).
    SessionPreempted {
        /// The session key.
        session: u64,
    },
    /// The platform lost power and reset: CPUs, the access-control
    /// table, and all in-flight sessions vanished; NVRAM-resident TPM
    /// state survived.
    PlatformReset,
    /// A torn session was relaunched from the journal after a platform
    /// reset.
    SessionRelaunched {
        /// The session key.
        session: u64,
    },
    /// Free-form annotation from higher layers.
    Note(String),
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::AccessDenied { requester, addr } => {
                write!(f, "DENY {requester} @ {addr}")
            }
            TraceEvent::RangeProtected { range, cpu } => {
                write!(f, "PROTECT {range} -> {cpu}")
            }
            TraceEvent::RangeSuspended { range } => write!(f, "SUSPEND {range}"),
            TraceEvent::RangeReleased { range } => write!(f, "RELEASE {range}"),
            TraceEvent::DevChanged { range, blocked } => {
                write!(f, "DEV {range} blocked={blocked}")
            }
            TraceEvent::SecureEnter { cpu, region } => {
                write!(f, "SECURE-ENTER {cpu} @ {region}")
            }
            TraceEvent::SecureLeave { cpu } => write!(f, "SECURE-LEAVE {cpu}"),
            TraceEvent::DmaAccess { device, addr } => {
                write!(f, "DMA {device} @ {addr}")
            }
            TraceEvent::FaultInjected { kind, session } => {
                write!(f, "FAULT {kind} session={session}")
            }
            TraceEvent::SessionRetried { session, attempt } => {
                write!(f, "RETRY session={session} attempt={attempt}")
            }
            TraceEvent::SessionKilled { session } => write!(f, "SKILL session={session}"),
            TraceEvent::AttackBlocked { mechanism } => write!(f, "BLOCKED by {mechanism}"),
            TraceEvent::SessionPreempted { session } => {
                write!(f, "PREEMPT session={session}")
            }
            TraceEvent::PlatformReset => write!(f, "RESET platform"),
            TraceEvent::SessionRelaunched { session } => {
                write!(f, "RELAUNCH session={session}")
            }
            TraceEvent::Note(s) => write!(f, "NOTE {s}"),
        }
    }
}

/// Default capacity of the bounded event buffer.
const DEFAULT_CAPACITY: usize = 4096;

/// A bounded, timestamped hardware event log.
///
/// # Example
///
/// ```
/// use sea_hw::{SimTime, Trace, TraceEvent};
///
/// let mut trace = Trace::new();
/// trace.record(SimTime::ZERO, TraceEvent::Note("boot".into()));
/// assert_eq!(trace.len(), 1);
/// assert!(trace.iter().any(|(_, e)| matches!(e, TraceEvent::Note(_))));
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    events: VecDeque<(SimTime, TraceEvent)>,
    capacity: usize,
    dropped: u64,
    recorded: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// Creates a trace with the default capacity.
    pub fn new() -> Self {
        Trace::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a trace holding at most `capacity` events; older
    /// events are dropped (and counted) once full.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
            recorded: 0,
        }
    }

    /// Records `event` at virtual time `at`.
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((at, event));
        self.recorded += 1;
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events dropped due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded. This is the monotone counter reset
    /// plans cut against: it never rewinds, even when the bounded
    /// buffer evicts or [`Trace::clear`] runs.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Iterates over retained events in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.events.iter()
    }

    /// Retained events matching `pred`, in order.
    pub fn filtered<'a>(
        &'a self,
        pred: impl Fn(&TraceEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a (SimTime, TraceEvent)> {
        self.events.iter().filter(move |(_, e)| pred(e))
    }

    /// Clears all retained events (the drop counter persists).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, e) in &self.events {
            writeln!(f, "[{t}] {e}")?;
        }
        if self.dropped > 0 {
            writeln!(f, "({} earlier events dropped)", self.dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PageIndex;

    fn note(s: &str) -> TraceEvent {
        TraceEvent::Note(s.to_owned())
    }

    #[test]
    fn records_in_order() {
        let mut t = Trace::new();
        t.record(SimTime::from_ns(1), note("a"));
        t.record(SimTime::from_ns(2), note("b"));
        let seq: Vec<&TraceEvent> = t.iter().map(|(_, e)| e).collect();
        assert_eq!(seq, vec![&note("a"), &note("b")]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn bounded_with_drop_accounting() {
        let mut t = Trace::with_capacity(2);
        for i in 0..5 {
            t.record(SimTime::from_ns(i), note(&i.to_string()));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        // Oldest survivors are the last two.
        let kept: Vec<String> = t.iter().map(|(_, e)| e.to_string()).collect();
        assert_eq!(kept, vec!["NOTE 3", "NOTE 4"]);
    }

    #[test]
    fn filtering_and_display() {
        let mut t = Trace::new();
        t.record(
            SimTime::ZERO,
            TraceEvent::RangeProtected {
                range: PageRange::new(PageIndex(4), 2),
                cpu: CpuId(1),
            },
        );
        t.record(SimTime::from_ns(5), note("x"));
        let protects: Vec<_> = t
            .filtered(|e| matches!(e, TraceEvent::RangeProtected { .. }))
            .collect();
        assert_eq!(protects.len(), 1);
        let rendered = t.to_string();
        assert!(rendered.contains("PROTECT pages[4..6) -> cpu1"));
        assert!(rendered.contains("NOTE x"));
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn event_display_covers_variants() {
        let events = [
            TraceEvent::AccessDenied {
                requester: Requester::Device(DeviceId(0)),
                addr: PhysAddr(0x1000),
            },
            TraceEvent::RangeSuspended {
                range: PageRange::new(PageIndex(1), 1),
            },
            TraceEvent::RangeReleased {
                range: PageRange::new(PageIndex(1), 1),
            },
            TraceEvent::DevChanged {
                range: PageRange::new(PageIndex(1), 1),
                blocked: true,
            },
            TraceEvent::SecureEnter {
                cpu: CpuId(0),
                region: PhysAddr(0),
            },
            TraceEvent::SecureLeave { cpu: CpuId(0) },
            TraceEvent::DmaAccess {
                device: DeviceId(2),
                addr: PhysAddr(8),
            },
            TraceEvent::FaultInjected {
                kind: FaultKind::MemDenial,
                session: 3,
            },
            TraceEvent::SessionRetried {
                session: 3,
                attempt: 1,
            },
            TraceEvent::SessionKilled { session: 3 },
            TraceEvent::AttackBlocked {
                mechanism: "access-control table".into(),
            },
            TraceEvent::SessionPreempted { session: 3 },
            TraceEvent::PlatformReset,
            TraceEvent::SessionRelaunched { session: 3 },
        ];
        for e in events {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn reset_events_render() {
        assert_eq!(TraceEvent::PlatformReset.to_string(), "RESET platform");
        assert_eq!(
            TraceEvent::SessionRelaunched { session: 7 }.to_string(),
            "RELAUNCH session=7"
        );
        assert_eq!(
            TraceEvent::SessionPreempted { session: 2 }.to_string(),
            "PREEMPT session=2"
        );
    }

    #[test]
    fn recorded_counter_is_monotone() {
        let mut t = Trace::with_capacity(2);
        for i in 0..5 {
            t.record(SimTime::from_ns(i), note(&i.to_string()));
        }
        assert_eq!(t.recorded(), 5);
        t.clear();
        assert_eq!(t.recorded(), 5, "clear() must not rewind the counter");
        t.record(SimTime::from_ns(9), note("post"));
        assert_eq!(t.recorded(), 6);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Trace::with_capacity(0);
    }
}
