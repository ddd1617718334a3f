//! Secure-execution PCRs (sePCRs) — the paper's proposed TPM extension.
//!
//! §5.4: concurrent PALs need one measurement chain each, but a v1.2 TPM
//! has a single PCR 17. The paper proposes a bank of sePCRs, each bound
//! to one PAL for its lifetime and moving through three states:
//!
//! ```text
//!              SLAUNCH                SFREE              TPM_Quote /
//!   Free ───────────────▶ Exclusive ─────────▶ Quote ─── TPM_SEPCR_Free ──▶ Free
//!                             │
//!                             └────────── SKILL (extend constant) ────────▶ Free
//! ```
//!
//! While Exclusive, only the bound PAL (enforced here by the owning CPU's
//! identity, standing in for the CPU/memory-controller enforcement of
//! §5.4.1) may extend, seal, or unseal against the sePCR. In the Quote
//! state, *untrusted* code may generate the attestation and then free the
//! slot — exactly the hand-off §5.4.3 describes.

use std::fmt;

use sea_crypto::Sha1Digest;
use sea_hw::CpuId;

use crate::error::TpmError;
use crate::pcr::PcrValue;

/// The well-known constant `SKILL` extends into a killed PAL's sePCR so
/// that any later attestation reveals the abnormal termination (§5.5).
pub const SKILL_CONSTANT: Sha1Digest = [0x5Bu8; 20];

/// Handle naming a sePCR slot. Handles "need not be secret" (§5.4.2):
/// possession conveys no authority — the owner binding does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SePcrHandle(pub u16);

impl fmt::Display for SePcrHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sePCR{}", self.0)
    }
}

/// Life-cycle state of a sePCR slot (§5.4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SePcrState {
    /// Unallocated; eligible for the next `SLAUNCH`.
    #[default]
    Free,
    /// Bound to a running or suspended PAL; inaccessible to all others.
    Exclusive,
    /// The PAL has terminated; untrusted code may quote and then free.
    Quote,
}

#[derive(Debug, Clone)]
struct SePcrSlot {
    state: SePcrState,
    value: PcrValue,
    owner: Option<CpuId>,
}

/// The bank of secure-execution PCRs.
///
/// "The number of sePCRs present in a TPM establishes the limit for the
/// number of concurrently executing PALs" (§5.4) — [`SePcrBank::allocate`]
/// fails with [`TpmError::NoFreeSePcr`] when the bank is exhausted, which
/// the `ablation_sepcr` bench measures.
#[derive(Debug, Clone)]
pub struct SePcrBank {
    slots: Vec<SePcrSlot>,
}

impl SePcrBank {
    /// Creates a bank of `count` free sePCRs.
    pub fn new(count: u16) -> Self {
        SePcrBank {
            slots: (0..count)
                .map(|_| SePcrSlot {
                    state: SePcrState::Free,
                    value: PcrValue::ZERO,
                    owner: None,
                })
                .collect(),
        }
    }

    /// Total number of sePCR slots.
    pub fn count(&self) -> u16 {
        self.slots.len() as u16
    }

    /// Number of slots currently in the `Free` state.
    pub fn free_count(&self) -> u16 {
        self.slots
            .iter()
            .filter(|s| s.state == SePcrState::Free)
            .count() as u16
    }

    /// `SLAUNCH` path: allocates a free sePCR, resets it to zero, extends
    /// the PAL `measurement`, binds it to `owner`, and returns the handle
    /// (§5.4.1).
    ///
    /// # Errors
    ///
    /// [`TpmError::NoFreeSePcr`] when every slot is Exclusive or Quote.
    pub fn allocate(
        &mut self,
        measurement: &Sha1Digest,
        owner: CpuId,
    ) -> Result<SePcrHandle, TpmError> {
        let (i, slot) = self
            .slots
            .iter_mut()
            .enumerate()
            .find(|(_, s)| s.state == SePcrState::Free)
            .ok_or(TpmError::NoFreeSePcr)?;
        slot.state = SePcrState::Exclusive;
        slot.value = PcrValue::ZERO.extended(measurement);
        slot.owner = Some(owner);
        Ok(SePcrHandle(i as u16))
    }

    fn slot(&self, handle: SePcrHandle) -> Result<&SePcrSlot, TpmError> {
        self.slots
            .get(handle.0 as usize)
            .ok_or(TpmError::NoSuchSePcr(handle))
    }

    fn slot_mut(&mut self, handle: SePcrHandle) -> Result<&mut SePcrSlot, TpmError> {
        self.slots
            .get_mut(handle.0 as usize)
            .ok_or(TpmError::NoSuchSePcr(handle))
    }

    /// Current state of a slot.
    ///
    /// # Errors
    ///
    /// [`TpmError::NoSuchSePcr`] for an invalid handle.
    pub fn state(&self, handle: SePcrHandle) -> Result<SePcrState, TpmError> {
        Ok(self.slot(handle)?.state)
    }

    /// The CPU currently bound to a slot, if any.
    ///
    /// # Errors
    ///
    /// [`TpmError::NoSuchSePcr`] for an invalid handle.
    pub fn owner(&self, handle: SePcrHandle) -> Result<Option<CpuId>, TpmError> {
        Ok(self.slot(handle)?.owner)
    }

    fn check_exclusive_owner(&self, handle: SePcrHandle, requester: CpuId) -> Result<(), TpmError> {
        let slot = self.slot(handle)?;
        if slot.state != SePcrState::Exclusive {
            return Err(TpmError::SePcrWrongState(handle));
        }
        if slot.owner != Some(requester) {
            return Err(TpmError::SePcrAccessDenied { handle, requester });
        }
        Ok(())
    }

    /// Reads a sePCR value from its owning PAL's CPU (Exclusive state).
    ///
    /// # Errors
    ///
    /// [`TpmError::SePcrAccessDenied`] from any other CPU;
    /// [`TpmError::SePcrWrongState`] outside Exclusive.
    pub fn read_exclusive(
        &self,
        handle: SePcrHandle,
        requester: CpuId,
    ) -> Result<PcrValue, TpmError> {
        self.check_exclusive_owner(handle, requester)?;
        Ok(self.slot(handle)?.value)
    }

    /// Extends `measurement` into the sePCR, from the owning CPU only
    /// (PALs "access \[their\] own sePCR to invoke TPM Extend to measure
    /// \[their\] inputs", §5.4.2).
    ///
    /// # Errors
    ///
    /// As for [`SePcrBank::read_exclusive`].
    pub fn extend(
        &mut self,
        handle: SePcrHandle,
        requester: CpuId,
        measurement: &Sha1Digest,
    ) -> Result<PcrValue, TpmError> {
        self.check_exclusive_owner(handle, requester)?;
        let slot = self.slot_mut(handle)?;
        slot.value = slot.value.extended(measurement);
        Ok(slot.value)
    }

    /// Hardware resume path: rebinds the slot's owner to the CPU now
    /// executing the PAL ("the PAL may execute on a different CPU each
    /// time it is resumed", §5.3.1). Only invoked by `SLAUNCH` microcode
    /// in the model (`sea-core`).
    ///
    /// # Errors
    ///
    /// [`TpmError::SePcrWrongState`] outside Exclusive.
    pub(crate) fn rebind_owner(
        &mut self,
        handle: SePcrHandle,
        owner: CpuId,
    ) -> Result<(), TpmError> {
        let slot = self.slot_mut(handle)?;
        if slot.state != SePcrState::Exclusive {
            return Err(TpmError::SePcrWrongState(handle));
        }
        slot.owner = Some(owner);
        Ok(())
    }

    /// `SFREE` path: Exclusive → Quote, from the owning CPU.
    ///
    /// # Errors
    ///
    /// As for [`SePcrBank::read_exclusive`].
    pub fn release_to_quote(
        &mut self,
        handle: SePcrHandle,
        requester: CpuId,
    ) -> Result<(), TpmError> {
        self.check_exclusive_owner(handle, requester)?;
        let slot = self.slot_mut(handle)?;
        slot.state = SePcrState::Quote;
        slot.owner = None;
        Ok(())
    }

    /// Reads a sePCR value in the Quote state (open to untrusted code,
    /// which needs it to build the attestation).
    ///
    /// # Errors
    ///
    /// [`TpmError::SePcrWrongState`] outside Quote.
    pub(crate) fn read_for_quote(&self, handle: SePcrHandle) -> Result<PcrValue, TpmError> {
        let slot = self.slot(handle)?;
        if slot.state != SePcrState::Quote {
            return Err(TpmError::SePcrWrongState(handle));
        }
        Ok(slot.value)
    }

    /// `TPM_SEPCR_Free` (§5.4.3): Quote → Free, callable from untrusted
    /// code after the quote has been generated.
    ///
    /// # Errors
    ///
    /// [`TpmError::SePcrWrongState`] outside Quote.
    pub fn free(&mut self, handle: SePcrHandle) -> Result<(), TpmError> {
        let slot = self.slot_mut(handle)?;
        if slot.state != SePcrState::Quote {
            return Err(TpmError::SePcrWrongState(handle));
        }
        slot.state = SePcrState::Free;
        slot.value = PcrValue::ZERO;
        slot.owner = None;
        Ok(())
    }

    /// `SKILL` path (§5.5): extends [`SKILL_CONSTANT`] into the sePCR of
    /// a misbehaving PAL and frees the slot.
    ///
    /// # Errors
    ///
    /// [`TpmError::SePcrWrongState`] outside Exclusive.
    pub fn skill(&mut self, handle: SePcrHandle) -> Result<(), TpmError> {
        let slot = self.slot_mut(handle)?;
        if slot.state != SePcrState::Exclusive {
            return Err(TpmError::SePcrWrongState(handle));
        }
        slot.value = slot.value.extended(&SKILL_CONSTANT);
        slot.state = SePcrState::Free;
        slot.owner = None;
        Ok(())
    }

    /// Platform reset: every slot — Exclusive, Quote, or Free — returns
    /// to Free with a zero chain and no owner. sePCRs are *volatile*
    /// state: the PALs they were bound to ceased to exist when power
    /// was lost, so no binding may survive into the next boot (the
    /// reset analogue of static PCRs zeroing at reboot). Any session
    /// whose quote had not been generated before the cut loses it; the
    /// durable engine's journal is what brings those sessions back.
    pub(crate) fn platform_reset(&mut self) {
        for slot in &mut self.slots {
            slot.state = SePcrState::Free;
            slot.value = PcrValue::ZERO;
            slot.owner = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_crypto::Sha1;

    fn m(label: &[u8]) -> Sha1Digest {
        Sha1::digest(label)
    }

    #[test]
    fn allocate_resets_extends_and_binds() {
        let mut bank = SePcrBank::new(2);
        let h = bank.allocate(&m(b"pal"), CpuId(0)).unwrap();
        assert_eq!(bank.state(h).unwrap(), SePcrState::Exclusive);
        assert_eq!(bank.owner(h).unwrap(), Some(CpuId(0)));
        // Value is exactly extend(0, measurement) — same chain PCR 17
        // would hold after SKINIT.
        let expected = PcrValue::ZERO.extended(&m(b"pal"));
        assert_eq!(bank.read_exclusive(h, CpuId(0)).unwrap(), expected);
        assert_eq!(bank.free_count(), 1);
    }

    #[test]
    fn exhaustion_fails_allocation() {
        let mut bank = SePcrBank::new(1);
        bank.allocate(&m(b"a"), CpuId(0)).unwrap();
        assert_eq!(
            bank.allocate(&m(b"b"), CpuId(1)),
            Err(TpmError::NoFreeSePcr)
        );
    }

    #[test]
    fn non_owner_is_denied_exclusive_ops() {
        let mut bank = SePcrBank::new(1);
        let h = bank.allocate(&m(b"pal"), CpuId(0)).unwrap();
        assert!(matches!(
            bank.read_exclusive(h, CpuId(1)),
            Err(TpmError::SePcrAccessDenied { .. })
        ));
        assert!(matches!(
            bank.extend(h, CpuId(1), &m(b"input")),
            Err(TpmError::SePcrAccessDenied { .. })
        ));
        assert!(matches!(
            bank.release_to_quote(h, CpuId(1)),
            Err(TpmError::SePcrAccessDenied { .. })
        ));
    }

    #[test]
    fn lifecycle_free_exclusive_quote_free() {
        let mut bank = SePcrBank::new(1);
        let h = bank.allocate(&m(b"pal"), CpuId(0)).unwrap();
        // Cannot quote-read or free while Exclusive.
        assert!(matches!(
            bank.read_for_quote(h),
            Err(TpmError::SePcrWrongState(_))
        ));
        assert!(matches!(bank.free(h), Err(TpmError::SePcrWrongState(_))));

        bank.release_to_quote(h, CpuId(0)).unwrap();
        assert_eq!(bank.state(h).unwrap(), SePcrState::Quote);
        // Untrusted code may now read the value...
        let v = bank.read_for_quote(h).unwrap();
        assert_eq!(v, PcrValue::ZERO.extended(&m(b"pal")));
        // ...but exclusive ops are gone.
        assert!(bank.extend(h, CpuId(0), &m(b"late")).is_err());

        bank.free(h).unwrap();
        assert_eq!(bank.state(h).unwrap(), SePcrState::Free);
        assert_eq!(bank.free_count(), 1);
    }

    #[test]
    fn freed_slot_is_reusable_with_fresh_chain() {
        let mut bank = SePcrBank::new(1);
        let h1 = bank.allocate(&m(b"pal-a"), CpuId(0)).unwrap();
        bank.release_to_quote(h1, CpuId(0)).unwrap();
        bank.free(h1).unwrap();
        let h2 = bank.allocate(&m(b"pal-b"), CpuId(1)).unwrap();
        assert_eq!(h1, h2, "slot is recycled");
        // The chain restarted from zero: no residue of pal-a.
        assert_eq!(
            bank.read_exclusive(h2, CpuId(1)).unwrap(),
            PcrValue::ZERO.extended(&m(b"pal-b"))
        );
    }

    #[test]
    fn rebind_owner_moves_pal_between_cpus() {
        let mut bank = SePcrBank::new(1);
        let h = bank.allocate(&m(b"pal"), CpuId(0)).unwrap();
        bank.rebind_owner(h, CpuId(3)).unwrap();
        assert!(bank.read_exclusive(h, CpuId(0)).is_err());
        assert!(bank.read_exclusive(h, CpuId(3)).is_ok());
    }

    #[test]
    fn skill_extends_constant_and_frees() {
        let mut bank = SePcrBank::new(1);
        let h = bank.allocate(&m(b"pal"), CpuId(0)).unwrap();
        let before = bank.read_exclusive(h, CpuId(0)).unwrap();
        bank.skill(h).unwrap();
        assert_eq!(bank.state(h).unwrap(), SePcrState::Free);
        // Re-allocating shows a fresh chain; the SKILL-extended value was
        // before.extended(SKILL_CONSTANT) while it existed.
        let skilled = before.extended(&SKILL_CONSTANT);
        assert_ne!(skilled, before);
        // SKILL from non-Exclusive states is rejected.
        let h2 = bank.allocate(&m(b"pal2"), CpuId(0)).unwrap();
        bank.release_to_quote(h2, CpuId(0)).unwrap();
        assert!(matches!(bank.skill(h2), Err(TpmError::SePcrWrongState(_))));
    }

    #[test]
    fn platform_reset_frees_every_slot_regardless_of_state() {
        let mut bank = SePcrBank::new(3);
        // Slot 0: Exclusive (a PAL was mid-flight at the cut).
        let h0 = bank.allocate(&m(b"running"), CpuId(0)).unwrap();
        // Slot 1: Quote (terminated, quote not yet pulled).
        let h1 = bank.allocate(&m(b"done"), CpuId(1)).unwrap();
        bank.release_to_quote(h1, CpuId(1)).unwrap();
        // Slot 2 stays Free.
        assert_eq!(bank.free_count(), 1);

        bank.platform_reset();

        assert_eq!(bank.free_count(), 3);
        for h in [h0, h1, SePcrHandle(2)] {
            assert_eq!(bank.state(h).unwrap(), SePcrState::Free);
            assert_eq!(bank.owner(h).unwrap(), None);
        }
        // Chains restart from zero: a fresh allocation shows no residue
        // of the pre-reset PAL.
        let h = bank.allocate(&m(b"after"), CpuId(2)).unwrap();
        assert_eq!(
            bank.read_exclusive(h, CpuId(2)).unwrap(),
            PcrValue::ZERO.extended(&m(b"after"))
        );
    }

    #[test]
    fn invalid_handle_rejected_everywhere() {
        let mut bank = SePcrBank::new(1);
        let bogus = SePcrHandle(7);
        assert!(matches!(bank.state(bogus), Err(TpmError::NoSuchSePcr(_))));
        assert!(bank.read_exclusive(bogus, CpuId(0)).is_err());
        assert!(bank.extend(bogus, CpuId(0), &m(b"x")).is_err());
        assert!(bank.free(bogus).is_err());
        assert!(bank.skill(bogus).is_err());
        assert!(bank.rebind_owner(bogus, CpuId(0)).is_err());
    }

    #[test]
    fn concurrent_pals_get_distinct_slots() {
        let mut bank = SePcrBank::new(3);
        let h1 = bank.allocate(&m(b"a"), CpuId(0)).unwrap();
        let h2 = bank.allocate(&m(b"b"), CpuId(1)).unwrap();
        let h3 = bank.allocate(&m(b"c"), CpuId(2)).unwrap();
        assert_ne!(h1, h2);
        assert_ne!(h2, h3);
        assert_eq!(bank.free_count(), 0);
        // Each PAL sees only its own chain.
        assert_eq!(
            bank.read_exclusive(h2, CpuId(1)).unwrap(),
            PcrValue::ZERO.extended(&m(b"b"))
        );
    }
}
