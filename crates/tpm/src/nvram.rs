//! Non-volatile TPM storage — the state that survives a platform reset.
//!
//! §2.1.3–§2.1.4 split TPM state into two halves. The volatile half —
//! PCR banks, the sePCR bank, transport sessions, the command lock —
//! is rebuilt from scratch at every reboot. The persistent half lives
//! in NVRAM inside the TPM package and survives arbitrary power loss:
//!
//! * the endorsement/storage key material (modelled as the seed every
//!   key on this TPM is derived from),
//! * monotonic counters ("a trusted source of randomness, a monotonic
//!   counter, and the ability to perform cryptographic operations" are
//!   what the paper keeps *inside* the TCB for exactly this reason),
//! * opaque blobs the platform stores by index — the durable session
//!   engine keeps its sealed write-ahead journal here, which is what
//!   makes crash recovery possible at all.
//!
//! [`Nvram`] is deliberately free of policy: it neither seals nor
//! authorises. Sealing happens above it ([`crate::Tpm::seal`] binds to
//! PCR state); NVRAM just keeps the resulting bytes across resets.

use std::collections::BTreeMap;

/// The TPM's non-volatile storage. Everything in here survives
/// [`crate::Tpm::reboot`]; nothing in here is cleared by power loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nvram {
    ek_seed: Vec<u8>,
    counters: BTreeMap<u32, u64>,
    blobs: BTreeMap<u32, Vec<u8>>,
}

impl Nvram {
    /// Fresh NVRAM for a TPM manufactured from `seed`: the endorsement
    /// seed is burned in, all counters read zero, no blobs are stored.
    pub fn new(seed: &[u8]) -> Self {
        Nvram {
            ek_seed: seed.to_vec(),
            counters: BTreeMap::new(),
            blobs: BTreeMap::new(),
        }
    }

    /// The endorsement seed burned in at manufacture. Key derivation
    /// (SRK, AIK) starts here, which is why identical seeds rebuild
    /// identical keys after a reset.
    pub fn ek_seed(&self) -> &[u8] {
        &self.ek_seed
    }

    /// Current value of monotonic counter `id` (zero if never bumped).
    pub fn counter(&self, id: u32) -> u64 {
        self.counters.get(&id).copied().unwrap_or(0)
    }

    /// Increments monotonic counter `id` and returns the new value.
    /// Counters never decrease and never reset — that is the whole
    /// point of keeping them in NVRAM.
    pub fn increment_counter(&mut self, id: u32) -> u64 {
        let v = self.counters.entry(id).or_insert(0);
        *v += 1;
        *v
    }

    /// Stores an opaque blob at `index`, replacing any previous
    /// occupant.
    pub fn store_blob(&mut self, index: u32, bytes: &[u8]) {
        self.blobs.insert(index, bytes.to_vec());
    }

    /// Reads the blob at `index`, if one is stored.
    pub fn read_blob(&self, index: u32) -> Option<&[u8]> {
        self.blobs.get(&index).map(Vec::as_slice)
    }

    /// Deletes the blob at `index`; returns whether one was present.
    pub fn delete_blob(&mut self, index: u32) -> bool {
        self.blobs.remove(&index).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_nvram_has_seed_zero_counters_no_blobs() {
        let nv = Nvram::new(b"ek-seed");
        assert_eq!(nv.ek_seed(), b"ek-seed");
        assert_eq!(nv.counter(0), 0);
        assert_eq!(nv.counter(42), 0);
        assert!(nv.read_blob(0).is_none());
    }

    #[test]
    fn counters_are_monotonic_and_independent() {
        let mut nv = Nvram::new(b"s");
        assert_eq!(nv.increment_counter(1), 1);
        assert_eq!(nv.increment_counter(1), 2);
        assert_eq!(nv.increment_counter(2), 1);
        assert_eq!(nv.counter(1), 2);
        assert_eq!(nv.counter(2), 1);
    }

    #[test]
    fn blobs_store_replace_and_delete() {
        let mut nv = Nvram::new(b"s");
        nv.store_blob(9, b"first");
        assert_eq!(nv.read_blob(9), Some(&b"first"[..]));
        nv.store_blob(9, b"second");
        assert_eq!(nv.read_blob(9), Some(&b"second"[..]));
        assert!(nv.delete_blob(9));
        assert!(!nv.delete_blob(9));
        assert!(nv.read_blob(9).is_none());
    }

    #[test]
    fn clone_is_a_faithful_snapshot() {
        let mut nv = Nvram::new(b"s");
        nv.increment_counter(3);
        nv.store_blob(1, b"journal");
        let snap = nv.clone();
        nv.increment_counter(3);
        nv.delete_blob(1);
        assert_eq!(snap.counter(3), 1);
        assert_eq!(snap.read_blob(1), Some(&b"journal"[..]));
    }
}
