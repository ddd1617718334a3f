//! Hardware TPM arbitration (§5.4.5).
//!
//! "Today's TPM-to-CPU communication architecture assumes the use of
//! software locking ... With the introduction of SLAUNCH, we require a
//! hardware mechanism to arbitrate TPM access from PALs executing on
//! multiple CPUs. A simple arbitration mechanism is hardware locking."
//!
//! Three forms live here: [`TpmLock`], the lock as the paper states it;
//! [`ShardedTpmArbiter`], the per-CPU-lane virtual-time gate the
//! discrete-event executor runs; and [`EventOrderedTpmLock`], the
//! single-queue reference its grant order is tested against. The
//! thread-pool executor uses neither arbiter: sea-core's rank-0 runtime
//! lock already serializes every TPM command.

use sea_hw::{CpuId, SimTime};

use crate::error::TpmError;

/// The proposed hardware TPM lock.
///
/// # Example
///
/// ```
/// use sea_tpm::TpmLock;
/// use sea_hw::CpuId;
///
/// let mut lock = TpmLock::new();
/// lock.acquire(CpuId(0)).unwrap();
/// assert!(lock.acquire(CpuId(1)).is_err()); // other CPUs must wait
/// lock.release(CpuId(0)).unwrap();
/// assert!(lock.acquire(CpuId(1)).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TpmLock {
    holder: Option<CpuId>,
}

impl TpmLock {
    /// Creates an unheld lock.
    pub fn new() -> Self {
        TpmLock { holder: None }
    }

    /// The CPU currently holding the lock, if any.
    pub fn holder(&self) -> Option<CpuId> {
        self.holder
    }

    /// Attempts to take the lock for `cpu`. Re-acquisition by the current
    /// holder is a no-op (the hardware sees one requester).
    ///
    /// # Errors
    ///
    /// [`TpmError::LockHeld`] if another CPU holds the lock — the caller
    /// "wait\[s\] until the TPM is free to attempt communication".
    pub fn acquire(&mut self, cpu: CpuId) -> Result<(), TpmError> {
        match self.holder {
            None => {
                self.holder = Some(cpu);
                Ok(())
            }
            Some(h) if h == cpu => Ok(()),
            Some(h) => Err(TpmError::LockHeld { holder: h }),
        }
    }

    /// Releases the lock.
    ///
    /// # Errors
    ///
    /// [`TpmError::LockHeld`] if `cpu` is not the holder (a CPU cannot
    /// release another CPU's lock).
    pub fn release(&mut self, cpu: CpuId) -> Result<(), TpmError> {
        match self.holder {
            Some(h) if h == cpu => {
                self.holder = None;
                Ok(())
            }
            Some(h) => Err(TpmError::LockHeld { holder: h }),
            None => Ok(()),
        }
    }
}

/// The hardware TPM lock as a *virtual-time* resource: CPUs file
/// requests stamped with the virtual instant they reached the TPM, and
/// the arbiter grants in deterministic `(time, cpu)` order.
///
/// A discrete-event executor has no racing threads, so the grant order
/// can be a pure function of the event timeline: earliest requester
/// wins, ties broken by the lower CPU id. This is the same policy the
/// paper's hardware arbiter could implement with a fixed-priority daisy
/// chain, and it makes TPM serialization replayable. The executor runs
/// [`ShardedTpmArbiter`]; this single-queue form is the reference its
/// grant order is tested against.
///
/// # Example
///
/// ```
/// use sea_tpm::EventOrderedTpmLock;
/// use sea_hw::{CpuId, SimTime};
///
/// let mut arbiter = EventOrderedTpmLock::new();
/// arbiter.request(SimTime::from_ns(20), CpuId(1));
/// arbiter.request(SimTime::from_ns(10), CpuId(3));
/// arbiter.request(SimTime::from_ns(10), CpuId(2));
/// // Earliest request wins; equal times resolve to the lower CPU id.
/// assert_eq!(arbiter.grant(), Some(CpuId(2)));
/// assert_eq!(arbiter.grant(), None); // held until released
/// arbiter.release(CpuId(2)).unwrap();
/// assert_eq!(arbiter.grant(), Some(CpuId(3)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventOrderedTpmLock {
    holder: Option<CpuId>,
    /// Pending requests as `(request time, cpu)`, unsorted; `grant`
    /// selects the minimum, so the queue never depends on arrival
    /// order beyond the timestamps themselves.
    pending: Vec<(SimTime, CpuId)>,
}

impl EventOrderedTpmLock {
    /// Creates an unheld arbiter with no pending requests.
    pub fn new() -> Self {
        Self::default()
    }

    /// The CPU currently granted the TPM, if any.
    pub fn holder(&self) -> Option<CpuId> {
        self.holder
    }

    /// Number of CPUs waiting for a grant.
    pub fn waiting(&self) -> usize {
        self.pending.len()
    }

    /// Files a request from `cpu` stamped `at`. Duplicate requests from
    /// the same CPU keep the earliest stamp (hardware sees one request
    /// line per CPU).
    pub fn request(&mut self, at: SimTime, cpu: CpuId) {
        if self.holder == Some(cpu) {
            return; // reentrant: the holder already owns the TPM
        }
        match self.pending.iter_mut().find(|(_, c)| *c == cpu) {
            Some(slot) => slot.0 = slot.0.min(at),
            None => self.pending.push((at, cpu)),
        }
    }

    /// Grants the lock to the best pending requester — earliest stamp,
    /// ties to the lowest CPU id — if the TPM is free. Returns the
    /// winner, or `None` if the lock is held or nobody is waiting.
    pub fn grant(&mut self) -> Option<CpuId> {
        if self.holder.is_some() || self.pending.is_empty() {
            return None;
        }
        let best = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, c))| (t, c))
            .map(|(i, _)| i)?;
        let (_, cpu) = self.pending.swap_remove(best);
        self.holder = Some(cpu);
        Some(cpu)
    }

    /// Releases the grant.
    ///
    /// # Errors
    ///
    /// [`TpmError::LockHeld`] if `cpu` is not the holder.
    pub fn release(&mut self, cpu: CpuId) -> Result<(), TpmError> {
        match self.holder {
            Some(h) if h == cpu => {
                self.holder = None;
                Ok(())
            }
            Some(h) => Err(TpmError::LockHeld { holder: h }),
            None => Ok(()),
        }
    }
}

/// One granted TPM command slot: who won, and when they asked.
///
/// The request stamp is what turns the arbiter into an observability
/// source — `grant time - requested` is exactly the virtual time the CPU
/// spent queued behind other TPM commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpmGrant {
    /// The CPU the TPM is granted to.
    pub cpu: CpuId,
    /// The virtual instant that CPU filed its request.
    pub requested: SimTime,
}

/// The TPM command gate with one hardware request line per CPU.
///
/// Functionally equivalent to [`EventOrderedTpmLock`] — grants
/// resolve in `(request time, CPU id)` order, requests are reentrant for
/// the holder, duplicate requests keep the earliest stamp, only the
/// holder releases — but structured as per-CPU lanes the way the paper's
/// daisy-chained hardware arbiter would be, and each grant carries its
/// request stamp so callers can attribute lock-wait time.
///
/// # Example
///
/// ```
/// use sea_tpm::ShardedTpmArbiter;
/// use sea_hw::{CpuId, SimTime};
///
/// let mut arbiter = ShardedTpmArbiter::new();
/// arbiter.request(SimTime::from_ns(20), CpuId(1));
/// arbiter.request(SimTime::from_ns(10), CpuId(3));
/// arbiter.request(SimTime::from_ns(10), CpuId(2));
/// // Earliest request wins; equal times resolve to the lower CPU id.
/// let grant = arbiter.grant().unwrap();
/// assert_eq!(grant.cpu, CpuId(2));
/// assert_eq!(grant.requested, SimTime::from_ns(10));
/// assert_eq!(arbiter.grant(), None); // held until released
/// arbiter.release(CpuId(2)).unwrap();
/// assert_eq!(arbiter.grant().unwrap().cpu, CpuId(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShardedTpmArbiter {
    /// Request lanes indexed by CPU id: `Some(stamp)` when that CPU's
    /// request line is raised. Grown on demand.
    lanes: Vec<Option<SimTime>>,
    granted: Option<TpmGrant>,
}

impl ShardedTpmArbiter {
    /// Creates an idle arbiter with no raised request lines.
    pub fn new() -> Self {
        Self::default()
    }

    /// The CPU currently granted the TPM, if any.
    pub fn holder(&self) -> Option<CpuId> {
        self.granted.map(|g| g.cpu)
    }

    /// The current grant (holder plus its request stamp), if any.
    pub fn granted(&self) -> Option<TpmGrant> {
        self.granted
    }

    /// Number of CPUs with a raised request line.
    pub fn waiting(&self) -> usize {
        self.lanes.iter().filter(|l| l.is_some()).count()
    }

    /// Raises `cpu`'s request line stamped `at`. A raised line keeps its
    /// earliest stamp (the hardware has one line per CPU); a request from
    /// the current holder is a no-op.
    pub fn request(&mut self, at: SimTime, cpu: CpuId) {
        if self.holder() == Some(cpu) {
            return; // reentrant: the holder already owns the TPM
        }
        let lane = cpu.0 as usize;
        if lane >= self.lanes.len() {
            self.lanes.resize(lane + 1, None);
        }
        self.lanes[lane] = Some(match self.lanes[lane] {
            Some(existing) => existing.min(at),
            None => at,
        });
    }

    /// Grants the TPM to the best raised line — earliest stamp, ties to
    /// the lowest CPU id — if it is free. Returns the grant (including
    /// the winner's request stamp), or `None` if the TPM is held or no
    /// line is raised.
    pub fn grant(&mut self) -> Option<TpmGrant> {
        if self.granted.is_some() {
            return None;
        }
        // Scanning lanes in ascending CPU order with a strict `<` makes
        // the tie-break to the lower CPU id structural.
        let mut best: Option<(SimTime, usize)> = None;
        for (lane, stamp) in self.lanes.iter().enumerate() {
            if let Some(t) = stamp {
                if best.is_none_or(|(bt, _)| *t < bt) {
                    best = Some((*t, lane));
                }
            }
        }
        let (requested, lane) = best?;
        self.lanes[lane] = None;
        let grant = TpmGrant {
            cpu: CpuId(lane as u16),
            requested,
        };
        self.granted = Some(grant);
        Some(grant)
    }

    /// Releases the grant.
    ///
    /// # Errors
    ///
    /// [`TpmError::LockHeld`] if `cpu` is not the holder (releasing an
    /// unheld arbiter is harmless).
    pub fn release(&mut self, cpu: CpuId) -> Result<(), TpmError> {
        match self.granted {
            Some(g) if g.cpu == cpu => {
                self.granted = None;
                Ok(())
            }
            Some(g) => Err(TpmError::LockHeld { holder: g.cpu }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_acquisition() {
        let mut lock = TpmLock::new();
        assert_eq!(lock.holder(), None);
        lock.acquire(CpuId(0)).unwrap();
        assert_eq!(lock.holder(), Some(CpuId(0)));
        assert_eq!(
            lock.acquire(CpuId(1)),
            Err(TpmError::LockHeld { holder: CpuId(0) })
        );
    }

    #[test]
    fn reentrant_for_holder() {
        let mut lock = TpmLock::new();
        lock.acquire(CpuId(2)).unwrap();
        assert!(lock.acquire(CpuId(2)).is_ok());
    }

    #[test]
    fn only_holder_releases() {
        let mut lock = TpmLock::new();
        lock.acquire(CpuId(0)).unwrap();
        assert!(lock.release(CpuId(1)).is_err());
        lock.release(CpuId(0)).unwrap();
        assert_eq!(lock.holder(), None);
        // Releasing an unheld lock is harmless.
        assert!(lock.release(CpuId(0)).is_ok());
    }

    #[test]
    fn event_ordered_grants_resolve_time_then_cpu() {
        let mut arb = EventOrderedTpmLock::new();
        arb.request(SimTime::from_ns(50), CpuId(0));
        arb.request(SimTime::from_ns(10), CpuId(9));
        arb.request(SimTime::from_ns(10), CpuId(4));
        assert_eq!(arb.waiting(), 3);
        // t=10 beats t=50; cpu4 beats cpu9 at equal time.
        assert_eq!(arb.grant(), Some(CpuId(4)));
        assert_eq!(arb.holder(), Some(CpuId(4)));
        assert_eq!(arb.grant(), None);
        arb.release(CpuId(4)).unwrap();
        assert_eq!(arb.grant(), Some(CpuId(9)));
        arb.release(CpuId(9)).unwrap();
        assert_eq!(arb.grant(), Some(CpuId(0)));
        arb.release(CpuId(0)).unwrap();
        assert_eq!(arb.grant(), None);
    }

    #[test]
    fn event_ordered_dedupes_requests_and_guards_release() {
        let mut arb = EventOrderedTpmLock::new();
        arb.request(SimTime::from_ns(30), CpuId(1));
        arb.request(SimTime::from_ns(5), CpuId(1)); // earlier stamp wins
        arb.request(SimTime::from_ns(20), CpuId(2));
        assert_eq!(arb.waiting(), 2);
        assert_eq!(arb.grant(), Some(CpuId(1)));
        // The holder re-requesting is a no-op, not a queued duplicate.
        arb.request(SimTime::from_ns(40), CpuId(1));
        assert_eq!(arb.waiting(), 1);
        assert_eq!(
            arb.release(CpuId(2)),
            Err(TpmError::LockHeld { holder: CpuId(1) })
        );
        arb.release(CpuId(1)).unwrap();
        assert!(arb.release(CpuId(1)).is_ok()); // releasing unheld is harmless
        assert_eq!(arb.grant(), Some(CpuId(2)));
    }

    #[test]
    fn arbiter_grant_order_matches_the_event_ordered_lock() {
        // Drive both arbiters through the same pseudorandom schedule of
        // request/grant/release steps and demand identical grant streams.
        let mut sharded = ShardedTpmArbiter::new();
        let mut reference = EventOrderedTpmLock::new();
        let mut sharded_grants = Vec::new();
        let mut reference_grants = Vec::new();
        let mut state = 0x5EED_CAFE_u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..500 {
            match rand() % 3 {
                0 => {
                    let at = SimTime::from_ns(rand() % 64);
                    let cpu = CpuId((rand() % 8) as u16);
                    sharded.request(at, cpu);
                    reference.request(at, cpu);
                }
                1 => {
                    let s = sharded.grant().map(|g| g.cpu);
                    let r = reference.grant();
                    assert_eq!(s, r);
                    sharded_grants.extend(s);
                    reference_grants.extend(r);
                }
                _ => {
                    if let Some(h) = sharded.holder() {
                        assert_eq!(reference.holder(), Some(h));
                        sharded.release(h).unwrap();
                        reference.release(h).unwrap();
                    }
                }
            }
            assert_eq!(sharded.holder(), reference.holder());
            assert_eq!(sharded.waiting(), reference.waiting());
        }
        assert_eq!(sharded_grants, reference_grants);
        assert!(!sharded_grants.is_empty(), "schedule exercised no grants");
    }

    #[test]
    fn arbiter_reports_request_stamps_and_dedupes_lanes() {
        let mut arb = ShardedTpmArbiter::new();
        arb.request(SimTime::from_ns(30), CpuId(1));
        arb.request(SimTime::from_ns(5), CpuId(1)); // earlier stamp wins
        arb.request(SimTime::from_ns(20), CpuId(2));
        assert_eq!(arb.waiting(), 2);
        let g = arb.grant().unwrap();
        assert_eq!(
            g,
            TpmGrant {
                cpu: CpuId(1),
                requested: SimTime::from_ns(5)
            }
        );
        assert_eq!(arb.granted(), Some(g));
        // The holder re-requesting is a no-op, not a queued duplicate.
        arb.request(SimTime::from_ns(40), CpuId(1));
        assert_eq!(arb.waiting(), 1);
        assert_eq!(
            arb.release(CpuId(2)),
            Err(TpmError::LockHeld { holder: CpuId(1) })
        );
        arb.release(CpuId(1)).unwrap();
        assert!(arb.release(CpuId(1)).is_ok()); // releasing unheld is harmless
        assert_eq!(arb.grant().unwrap().requested, SimTime::from_ns(20));
    }
}
