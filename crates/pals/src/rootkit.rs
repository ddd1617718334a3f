//! Wire protocol of the kernel rootkit detector PAL (§4.1).
//!
//! The untrusted OS hands the PAL a snapshot of the kernel's text pages;
//! the PAL hashes it, compares against a whitelist of known-good kernel
//! builds compiled into its measured image, measures the snapshot into
//! its attestation chain, and reports a verdict. Because the verdict is
//! produced inside the isolated session and the snapshot hash is in the
//! measurement chain, a remote verifier can trust a "clean" answer even
//! when the kernel itself is compromised.
//!
//! The executed-bytecode PAL [`crate::vm::vm_rootkit`] speaks this
//! protocol.

/// Outcome of a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootkitVerdict {
    /// The snapshot hash matched a whitelisted kernel build.
    Clean,
    /// The snapshot hash matched no whitelisted build — possible rootkit.
    Tampered,
}

impl RootkitVerdict {
    /// Single-byte wire encoding (the PAL's output format).
    pub fn to_byte(self) -> u8 {
        match self {
            RootkitVerdict::Clean => 1,
            RootkitVerdict::Tampered => 0,
        }
    }

    /// Decodes a PAL output byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(RootkitVerdict::Clean),
            0 => Some(RootkitVerdict::Tampered),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_byte_roundtrip() {
        for v in [RootkitVerdict::Clean, RootkitVerdict::Tampered] {
            assert_eq!(RootkitVerdict::from_byte(v.to_byte()), Some(v));
        }
        assert_eq!(RootkitVerdict::from_byte(7), None);
    }
}
