//! Hardware TPM arbitration (§5.4.5).
//!
//! "Today's TPM-to-CPU communication architecture assumes the use of
//! software locking ... With the introduction of SLAUNCH, we require a
//! hardware mechanism to arbitrate TPM access from PALs executing on
//! multiple CPUs. A simple arbitration mechanism is hardware locking."
//!
//! [`ShardedTpmArbiter`] is that lock as a virtual-time resource, and
//! the discrete-event executor runs it in front of every quote. The
//! thread-pool executor does not use it: sea-core's engine lock already
//! serializes every TPM command.

use sea_hw::{CpuId, SimTime};

use crate::error::TpmError;

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
/// CPUs raise their line stamped with the virtual instant they reached
/// the TPM, and the arbiter grants in deterministic `(request time, CPU
/// id)` order: earliest requester wins, ties go to the lower CPU id.
/// That is the policy the paper's hardware arbiter could implement with
/// a fixed-priority daisy chain, and it makes TPM serialization a pure
/// function of the event timeline. Requests are reentrant for the
/// holder, a raised line keeps its earliest stamp, only the holder
/// releases, and each grant carries its request stamp so callers can
/// attribute lock-wait time.
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

    fn granted_cpu(arb: &mut ShardedTpmArbiter) -> Option<CpuId> {
        arb.grant().map(|g| g.cpu)
    }

    #[test]
    fn exclusive_grant() {
        let mut arb = ShardedTpmArbiter::new();
        assert_eq!(arb.holder(), None);
        arb.request(SimTime::ZERO, CpuId(0));
        assert_eq!(granted_cpu(&mut arb), Some(CpuId(0)));
        assert_eq!(arb.holder(), Some(CpuId(0)));
        // Other CPUs must wait; the holder re-requesting is a no-op.
        arb.request(SimTime::ZERO, CpuId(1));
        arb.request(SimTime::ZERO, CpuId(0));
        assert_eq!(arb.grant(), None);
        assert_eq!(arb.holder(), Some(CpuId(0)));
        // Only CPU 1 was queued: it wins next, then nobody is left.
        arb.release(CpuId(0)).unwrap();
        assert_eq!(granted_cpu(&mut arb), Some(CpuId(1)));
        arb.release(CpuId(1)).unwrap();
        assert_eq!(arb.grant(), None);
    }

    #[test]
    fn only_holder_releases() {
        let mut arb = ShardedTpmArbiter::new();
        arb.request(SimTime::ZERO, CpuId(0));
        assert_eq!(granted_cpu(&mut arb), Some(CpuId(0)));
        assert_eq!(
            arb.release(CpuId(1)),
            Err(TpmError::LockHeld { holder: CpuId(0) })
        );
        arb.release(CpuId(0)).unwrap();
        assert_eq!(arb.holder(), None);
        // Releasing an unheld arbiter is harmless.
        assert!(arb.release(CpuId(0)).is_ok());
    }

    #[test]
    fn grants_resolve_time_then_cpu() {
        let mut arb = ShardedTpmArbiter::new();
        arb.request(SimTime::from_ns(50), CpuId(0));
        arb.request(SimTime::from_ns(10), CpuId(9));
        arb.request(SimTime::from_ns(10), CpuId(4));
        // t=10 beats t=50; cpu4 beats cpu9 at equal time.
        assert_eq!(granted_cpu(&mut arb), Some(CpuId(4)));
        assert_eq!(arb.holder(), Some(CpuId(4)));
        assert_eq!(arb.grant(), None);
        arb.release(CpuId(4)).unwrap();
        assert_eq!(granted_cpu(&mut arb), Some(CpuId(9)));
        arb.release(CpuId(9)).unwrap();
        assert_eq!(granted_cpu(&mut arb), Some(CpuId(0)));
        arb.release(CpuId(0)).unwrap();
        assert_eq!(arb.grant(), None);
    }

    #[test]
    fn arbiter_grant_order_matches_the_event_ordered_lock() {
        // The grant stream a single-queue reference lock (one pending
        // list, minimum `(time, cpu)` wins) produced on this schedule;
        // the per-lane arbiter must keep reproducing it.
        const REFERENCE_GRANTS: [u16; 88] = [
            6, 3, 6, 5, 2, 7, 4, 1, 3, 6, 1, 2, 3, 4, 4, 0, 5, 6, 4, 7, 6, 3, 6, 1, 4, 2, 5, 1, 4,
            7, 2, 0, 1, 7, 4, 1, 0, 3, 3, 6, 1, 3, 2, 6, 0, 7, 2, 3, 7, 4, 5, 7, 0, 6, 2, 1, 7, 0,
            7, 6, 2, 3, 5, 1, 0, 3, 2, 0, 1, 4, 3, 2, 7, 5, 0, 4, 1, 7, 6, 0, 3, 1, 0, 4, 7, 1, 5,
            0,
        ];
        let mut arb = ShardedTpmArbiter::new();
        let mut grants = Vec::new();
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
                    arb.request(at, cpu);
                }
                1 => grants.extend(arb.grant().map(|g| g.cpu.0)),
                _ => {
                    if let Some(h) = arb.holder() {
                        arb.release(h).unwrap();
                    }
                }
            }
        }
        assert_eq!(grants, REFERENCE_GRANTS);
    }

    #[test]
    fn arbiter_reports_request_stamps_and_dedupes_lanes() {
        let mut arb = ShardedTpmArbiter::new();
        arb.request(SimTime::from_ns(30), CpuId(1));
        arb.request(SimTime::from_ns(5), CpuId(1)); // earlier stamp wins
        arb.request(SimTime::from_ns(20), CpuId(2));
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
        assert_eq!(
            arb.release(CpuId(2)),
            Err(TpmError::LockHeld { holder: CpuId(1) })
        );
        arb.release(CpuId(1)).unwrap();
        assert!(arb.release(CpuId(1)).is_ok()); // releasing unheld is harmless

        // CPU 2 was the only line left raised.
        assert_eq!(arb.grant().unwrap().requested, SimTime::from_ns(20));
        arb.release(CpuId(2)).unwrap();
        assert_eq!(arb.grant(), None);
    }
}
