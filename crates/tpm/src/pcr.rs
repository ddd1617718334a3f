//! Platform Configuration Registers with TPM v1.2 reset semantics.
//!
//! §2.1.3 of the paper: PCRs 0–16 are *static* (only a reboot resets
//! them, to zero); PCRs 17–23 are *dynamic* — a reboot sets them to −1
//! (all ones) "so that an external verifier can distinguish between a
//! reboot and a dynamic reset", while a late launch resets them to zero
//! before extending the launched code's measurement into PCR 17.

use std::fmt;

use sea_crypto::{Sha1, Sha1Digest, SHA1_DIGEST_LEN};

use crate::error::TpmError;

/// Number of PCRs in a v1.2 TPM.
const NUM_PCRS: u8 = 24;

/// First dynamically resettable PCR.
pub(crate) const DYNAMIC_PCR_FIRST: u8 = 17;

/// Last dynamically resettable PCR.
const DYNAMIC_PCR_LAST: u8 = 23;

/// Index of a PCR (0–23).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PcrIndex(pub u8);

impl PcrIndex {
    /// Whether this PCR is dynamically resettable (17–23).
    fn is_dynamic(self) -> bool {
        (DYNAMIC_PCR_FIRST..=DYNAMIC_PCR_LAST).contains(&self.0)
    }
}

impl fmt::Display for PcrIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PCR{}", self.0)
    }
}

/// The 20-byte contents of a PCR.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PcrValue(pub Sha1Digest);

impl PcrValue {
    /// The all-zeroes value (post-reset / post-dynamic-reset).
    pub const ZERO: PcrValue = PcrValue([0u8; SHA1_DIGEST_LEN]);

    /// The all-ones (−1) value dynamic PCRs take at reboot.
    pub const MINUS_ONE: PcrValue = PcrValue([0xFFu8; SHA1_DIGEST_LEN]);

    /// The extend operation: `v ← SHA-1(v ‖ m)`.
    pub fn extended(&self, measurement: &Sha1Digest) -> PcrValue {
        let mut h = Sha1::new();
        h.update_bytes(&self.0);
        h.update_bytes(measurement);
        PcrValue(h.finalize_fixed())
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &Sha1Digest {
        &self.0
    }
}

impl fmt::Debug for PcrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PcrValue(")?;
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

impl fmt::Display for PcrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// The bank of 24 PCRs.
///
/// # Example
///
/// ```
/// use sea_tpm::{PcrBank, PcrIndex, PcrValue};
///
/// let mut bank = PcrBank::new();
/// // After power-on, dynamic PCRs read −1.
/// assert_eq!(bank.read(PcrIndex(17)).unwrap(), PcrValue::MINUS_ONE);
/// // A late launch resets them to zero before measuring.
/// bank.dynamic_reset();
/// assert_eq!(bank.read(PcrIndex(17)).unwrap(), PcrValue::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcrBank {
    values: [PcrValue; NUM_PCRS as usize],
}

impl Default for PcrBank {
    fn default() -> Self {
        Self::new()
    }
}

impl PcrBank {
    /// A bank in the post-reboot state: static PCRs zero, dynamic PCRs −1.
    pub fn new() -> Self {
        let mut bank = PcrBank {
            values: [PcrValue::ZERO; NUM_PCRS as usize],
        };
        bank.reboot();
        bank
    }

    /// Applies reboot semantics: static → 0, dynamic → −1.
    pub fn reboot(&mut self) {
        for (i, v) in self.values.iter_mut().enumerate() {
            *v = if PcrIndex(i as u8).is_dynamic() {
                PcrValue::MINUS_ONE
            } else {
                PcrValue::ZERO
            };
        }
    }

    /// Resets the dynamic PCRs (17–23) to zero — what `TPM_HASH_START`
    /// does at the start of a late launch. Only hardware may trigger
    /// this; the [`crate::Tpm`] wrapper enforces locality.
    pub fn dynamic_reset(&mut self) {
        for i in DYNAMIC_PCR_FIRST..=DYNAMIC_PCR_LAST {
            self.values[i as usize] = PcrValue::ZERO;
        }
    }

    /// Reads a PCR.
    ///
    /// # Errors
    ///
    /// [`TpmError::PcrOutOfRange`] for indices ≥ 24.
    pub fn read(&self, index: PcrIndex) -> Result<PcrValue, TpmError> {
        self.values
            .get(index.0 as usize)
            .copied()
            .ok_or(TpmError::PcrOutOfRange(index))
    }

    /// Extends `measurement` into a PCR: `v ← SHA-1(v ‖ m)`.
    ///
    /// # Errors
    ///
    /// [`TpmError::PcrOutOfRange`] for indices ≥ 24.
    pub fn extend(
        &mut self,
        index: PcrIndex,
        measurement: &Sha1Digest,
    ) -> Result<PcrValue, TpmError> {
        let slot = self
            .values
            .get_mut(index.0 as usize)
            .ok_or(TpmError::PcrOutOfRange(index))?;
        *slot = slot.extended(measurement);
        Ok(*slot)
    }

    /// The composite digest over a PCR selection: `SHA-1(i₁‖v₁‖…‖iₙ‖vₙ)`.
    /// This is the value sealed storage binds to and quotes sign.
    ///
    /// # Errors
    ///
    /// [`TpmError::PcrOutOfRange`] if the selection names an invalid PCR.
    pub fn composite(&self, selection: &[PcrIndex]) -> Result<Sha1Digest, TpmError> {
        let mut h = Sha1::new();
        for &idx in selection {
            let v = self.read(idx)?;
            h.update_bytes(&[idx.0]);
            h.update_bytes(v.as_bytes());
        }
        Ok(h.finalize_fixed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reboot_state_distinguishes_static_and_dynamic() {
        let bank = PcrBank::new();
        for i in 0..DYNAMIC_PCR_FIRST {
            assert_eq!(bank.read(PcrIndex(i)).unwrap(), PcrValue::ZERO);
        }
        for i in DYNAMIC_PCR_FIRST..=DYNAMIC_PCR_LAST {
            assert_eq!(bank.read(PcrIndex(i)).unwrap(), PcrValue::MINUS_ONE);
        }
    }

    #[test]
    fn dynamic_reset_zeroes_only_dynamic() {
        let mut bank = PcrBank::new();
        let m = Sha1::digest(b"boot event");
        bank.extend(PcrIndex(0), &m).unwrap();
        let static_val = bank.read(PcrIndex(0)).unwrap();
        bank.dynamic_reset();
        assert_eq!(bank.read(PcrIndex(17)).unwrap(), PcrValue::ZERO);
        assert_eq!(bank.read(PcrIndex(0)).unwrap(), static_val);
    }

    #[test]
    fn extend_is_order_sensitive() {
        let mut a = PcrBank::new();
        let mut b = PcrBank::new();
        let m1 = Sha1::digest(b"one");
        let m2 = Sha1::digest(b"two");
        a.extend(PcrIndex(0), &m1).unwrap();
        a.extend(PcrIndex(0), &m2).unwrap();
        b.extend(PcrIndex(0), &m2).unwrap();
        b.extend(PcrIndex(0), &m1).unwrap();
        assert_ne!(a.read(PcrIndex(0)).unwrap(), b.read(PcrIndex(0)).unwrap());
    }

    #[test]
    fn extend_records_full_history() {
        // A PCR extended with the same measurement twice differs from one
        // extended once: the chain encodes multiplicity.
        let mut once = PcrBank::new();
        let mut twice = PcrBank::new();
        let m = Sha1::digest(b"event");
        once.extend(PcrIndex(5), &m).unwrap();
        twice.extend(PcrIndex(5), &m).unwrap();
        twice.extend(PcrIndex(5), &m).unwrap();
        assert_ne!(
            once.read(PcrIndex(5)).unwrap(),
            twice.read(PcrIndex(5)).unwrap()
        );
    }

    #[test]
    fn reboot_vs_dynamic_reset_distinguishable() {
        // §2.1.3: a verifier can tell −1 (reboot) from 0 (dynamic reset).
        let mut bank = PcrBank::new();
        assert_eq!(bank.read(PcrIndex(17)).unwrap(), PcrValue::MINUS_ONE);
        bank.dynamic_reset();
        assert_eq!(bank.read(PcrIndex(17)).unwrap(), PcrValue::ZERO);
        bank.reboot();
        assert_eq!(bank.read(PcrIndex(17)).unwrap(), PcrValue::MINUS_ONE);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut bank = PcrBank::new();
        assert_eq!(
            bank.read(PcrIndex(24)),
            Err(TpmError::PcrOutOfRange(PcrIndex(24)))
        );
        assert!(bank.extend(PcrIndex(200), &[0u8; 20]).is_err());
        assert!(bank.composite(&[PcrIndex(0), PcrIndex(99)]).is_err());
    }

    #[test]
    fn composite_depends_on_selection_and_values() {
        let mut bank = PcrBank::new();
        let c_17 = bank.composite(&[PcrIndex(17)]).unwrap();
        let c_17_18 = bank.composite(&[PcrIndex(17), PcrIndex(18)]).unwrap();
        assert_ne!(c_17, c_17_18);
        bank.extend(PcrIndex(17), &Sha1::digest(b"pal")).unwrap();
        assert_ne!(bank.composite(&[PcrIndex(17)]).unwrap(), c_17);
    }

    #[test]
    fn pcr_value_display_roundtrip() {
        let v = PcrValue::ZERO;
        assert_eq!(v.to_string(), "0".repeat(40));
        assert!(format!("{v:?}").starts_with("PcrValue(0000"));
    }

    #[test]
    fn dynamic_index_classification() {
        assert!(!PcrIndex(16).is_dynamic());
        assert!(PcrIndex(17).is_dynamic());
        assert!(PcrIndex(23).is_dynamic());
    }
}
