//! Wire protocol of the distributed-factoring PAL (§4.1).
//!
//! "An application performing a distributed computing task (such as our
//! factoring application or SETI@Home) might perform a limited amount of
//! work and then seal its intermediate state so that it can later resume
//! its computations." (§4.1)
//!
//! The PAL factors a semiprime by trial division, a bounded number of
//! candidate divisors per invocation. Where the intermediate state lives
//! is the paper's whole point:
//!
//! * [`PersistMode::TpmSeal`] (baseline): progress is `TPM_Seal`ed on
//!   every exit and `TPM_Unseal`ed on every entry — hundreds of
//!   milliseconds per quantum (Figure 2's PAL-Use pattern).
//! * [`PersistMode::InRegion`] (proposed): progress lives in the PAL's
//!   protected pages across `SYIELD`/resume — the TPM is not involved
//!   after launch.
//!
//! The executed-bytecode PAL [`crate::vm::vm_factoring`] speaks this
//! protocol.

/// Where the PAL persists progress between execution quanta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistMode {
    /// Baseline hardware: TPM sealed storage across full sessions.
    TpmSeal,
    /// Proposed hardware: protected in-region state across suspends.
    InRegion,
}

/// Decodes a completed run's output back into the factor pair.
pub fn decode_factors(output: &[u8]) -> Option<(u64, u64)> {
    if output.len() != 16 {
        return None;
    }
    let p = u64::from_le_bytes(output[..8].try_into().ok()?);
    let q = u64::from_le_bytes(output[8..].try_into().ok()?);
    Some((p, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_factors_validates_length() {
        assert_eq!(decode_factors(&[]), None);
        assert_eq!(decode_factors(&[0; 15]), None);
        assert!(decode_factors(&[0; 16]).is_some());
    }
}
