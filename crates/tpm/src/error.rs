//! TPM error type.

use std::error::Error;
use std::fmt;

use crate::pcr::PcrIndex;
use crate::sepcr::SePcrHandle;
use sea_crypto::CryptoError;
use sea_hw::CpuId;

/// Errors returned by TPM commands.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TpmError {
    /// A PCR index outside the bank (valid indices are 0–23).
    PcrOutOfRange(PcrIndex),
    /// The command requires hardware (CPU) locality — e.g. only the CPU's
    /// `SKINIT`/`SLAUNCH` microcode may reset dynamic PCRs via
    /// `TPM_HASH_START` (§2.1.3: "software cannot reset PCR 17").
    LocalityDenied,
    /// `TPM_Unseal` found the platform in a different configuration than
    /// the blob was sealed to (PCR composite mismatch).
    WrongPcrState,
    /// A sealed blob failed structural or cryptographic validation
    /// (tampered, truncated, or produced by a different TPM).
    InvalidBlob,
    /// `SLAUNCH` could not allocate a sePCR: all are in use. "If no sePCR
    /// is available, SLAUNCH must return a failure code" (§5.4.1).
    NoFreeSePcr,
    /// A sePCR command was issued in the wrong life-cycle state (e.g.
    /// quoting a sePCR still in Exclusive, or freeing one in Exclusive).
    SePcrWrongState(SePcrHandle),
    /// A sePCR handle does not exist in this TPM.
    NoSuchSePcr(SePcrHandle),
    /// A CPU other than the sePCR's bound owner attempted an exclusive
    /// command ("other code attempting any TPM commands with the PAL's
    /// sePCR handle will fail", §5.4.2).
    SePcrAccessDenied {
        /// The handle that was addressed.
        handle: SePcrHandle,
        /// The CPU that issued the rejected command.
        requester: CpuId,
    },
    /// The hardware TPM lock is held by another CPU (§5.4.5).
    LockHeld {
        /// The CPU currently holding the lock.
        holder: CpuId,
    },
    /// A `TPM_HASH_DATA`/`TPM_HASH_END` arrived with no open hash session.
    NoHashSession,
    /// `TPM_Seal` or `TPM_Quote` was given more PCR indices than a
    /// sealed blob or a quote can record (both encodings count them in
    /// one byte, so at most 255).
    SelectionTooLong {
        /// The number of indices requested.
        len: usize,
    },
    /// The command died on the LPC transport before the TPM processed
    /// it (injected by the fault substrate). Retryable faults are bus
    /// glitches; non-retryable ones model a wedged chip.
    TransportFault {
        /// Whether retrying the command can succeed.
        retryable: bool,
    },
    /// An underlying cryptographic operation failed.
    Crypto(CryptoError),
}

impl TpmError {
    /// Whether a caller may reasonably retry the failed command: only a
    /// transient transport glitch clears on its own. No TPM command
    /// returns [`TpmError::LockHeld`]; only a non-holder releasing
    /// [`crate::ShardedTpmArbiter`] does, and that is a bug to surface,
    /// not a wait to retry.
    pub fn is_retryable(&self) -> bool {
        matches!(self, TpmError::TransportFault { retryable: true })
    }
}

impl fmt::Display for TpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TpmError::PcrOutOfRange(i) => write!(f, "PCR index {} out of range", i.0),
            TpmError::LocalityDenied => {
                write!(f, "command requires hardware (CPU) locality")
            }
            TpmError::WrongPcrState => {
                write!(
                    f,
                    "unseal denied: PCR composite does not match sealed state"
                )
            }
            TpmError::InvalidBlob => write!(f, "sealed blob failed validation"),
            TpmError::NoFreeSePcr => write!(f, "no free sePCR available"),
            TpmError::SePcrWrongState(h) => {
                write!(f, "sePCR {} is in the wrong state for this command", h.0)
            }
            TpmError::NoSuchSePcr(h) => write!(f, "no such sePCR: {}", h.0),
            TpmError::SePcrAccessDenied { handle, requester } => {
                write!(f, "{requester} may not address sePCR {}", handle.0)
            }
            TpmError::LockHeld { holder } => {
                write!(f, "TPM lock is held by {holder}")
            }
            TpmError::NoHashSession => write!(f, "no open TPM_HASH session"),
            TpmError::SelectionTooLong { len } => {
                write!(
                    f,
                    "PCR selection of {len} indices exceeds the 255 a blob or quote records"
                )
            }
            TpmError::TransportFault { retryable: true } => {
                write!(f, "transient LPC transport fault (retryable)")
            }
            TpmError::TransportFault { retryable: false } => {
                write!(f, "fatal LPC transport fault (TPM wedged)")
            }
            TpmError::Crypto(e) => write!(f, "cryptographic failure: {e}"),
        }
    }
}

impl Error for TpmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TpmError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for TpmError {
    fn from(e: CryptoError) -> Self {
        TpmError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_for_all_variants() {
        let cases = [
            TpmError::PcrOutOfRange(PcrIndex(24)),
            TpmError::LocalityDenied,
            TpmError::WrongPcrState,
            TpmError::InvalidBlob,
            TpmError::NoFreeSePcr,
            TpmError::SePcrWrongState(SePcrHandle(0)),
            TpmError::NoSuchSePcr(SePcrHandle(9)),
            TpmError::SePcrAccessDenied {
                handle: SePcrHandle(1),
                requester: CpuId(2),
            },
            TpmError::LockHeld { holder: CpuId(0) },
            TpmError::NoHashSession,
            TpmError::SelectionTooLong { len: 256 },
            TpmError::TransportFault { retryable: true },
            TpmError::TransportFault { retryable: false },
            TpmError::Crypto(CryptoError::InvalidCiphertext),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn retryability_classification() {
        assert!(TpmError::TransportFault { retryable: true }.is_retryable());
        assert!(!TpmError::LockHeld { holder: CpuId(1) }.is_retryable());
        assert!(!TpmError::TransportFault { retryable: false }.is_retryable());
        assert!(!TpmError::NoFreeSePcr.is_retryable());
        assert!(!TpmError::WrongPcrState.is_retryable());
    }

    #[test]
    fn crypto_error_converts_and_sources() {
        let e: TpmError = CryptoError::BadSignature.into();
        assert!(matches!(e, TpmError::Crypto(_)));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&TpmError::LocalityDenied).is_none());
    }
}
