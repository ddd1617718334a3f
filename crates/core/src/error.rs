//! SEA-level error type.

use std::error::Error;
use std::fmt;

use sea_hw::HwError;
use sea_tpm::TpmError;

use crate::secb::PalLifecycle;

/// Errors returned by the SEA runtimes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SeaError {
    /// A hardware operation failed (memory protection, missing CPU, …).
    Hw(HwError),
    /// A TPM command failed (sealing policy, sePCR state, …).
    Tpm(TpmError),
    /// The operation requires a TPM and this platform has none (e.g. the
    /// Tyan n3600R test machine).
    NoTpm,
    /// The platform lacks the proposed `SLAUNCH` hardware; only
    /// [`crate::LegacySea`] runs here.
    SlaunchUnsupported,
    /// A PAL life-cycle operation arrived in the wrong state (Figure 6
    /// has no such edge).
    WrongLifecycle {
        /// State the PAL was actually in.
        actual: PalLifecycle,
        /// The operation that was attempted.
        operation: &'static str,
    },
    /// No PAL with the given identifier is registered.
    NoSuchPal(u64),
    /// The memory region allocated to a PAL is too small for its image,
    /// input, and state.
    RegionTooSmall {
        /// Bytes required.
        needed: usize,
        /// Bytes available in the allocated region.
        available: usize,
    },
    /// The PAL's application logic reported a failure.
    PalFailed(String),
    /// The concurrent engine was asked for more worker threads than the
    /// platform has CPUs (each worker drives one CPU).
    NotEnoughCpus {
        /// Workers requested.
        requested: usize,
        /// CPUs the platform actually has.
        available: usize,
    },
    /// The recovery layer exhausted a session's retry budget (or hit a
    /// fatal fault) and tore the session down via `SKILL`.
    SessionKilled {
        /// The session key the recovery layer was driving.
        session: u64,
        /// Attempts made before giving up (1 initial + retries).
        attempts: u32,
    },
    /// The engine's own machinery failed (a worker thread panicked, a
    /// result slot was left unfilled, an internal invariant broke).
    /// Surfaced as an error so a batch driver can report and continue
    /// instead of aborting the process.
    EngineFault(&'static str),
    /// The write-ahead session journal recovered from NVRAM failed to
    /// parse — the persistent record is unusable and recovery cannot
    /// trust it.
    JournalCorrupt(&'static str),
}

impl fmt::Display for SeaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeaError::Hw(e) => write!(f, "hardware error: {e}"),
            SeaError::Tpm(e) => write!(f, "TPM error: {e}"),
            SeaError::NoTpm => write!(f, "platform has no TPM"),
            SeaError::SlaunchUnsupported => {
                write!(f, "platform does not implement SLAUNCH (baseline hardware)")
            }
            SeaError::WrongLifecycle { actual, operation } => {
                write!(f, "{operation} is not valid in the {actual:?} state")
            }
            SeaError::NoSuchPal(id) => write!(f, "no such PAL: {id}"),
            SeaError::RegionTooSmall { needed, available } => {
                write!(
                    f,
                    "PAL region too small: need {needed} bytes, have {available}"
                )
            }
            SeaError::PalFailed(msg) => write!(f, "PAL logic failed: {msg}"),
            SeaError::NotEnoughCpus {
                requested,
                available,
            } => {
                write!(
                    f,
                    "pool wants {requested} workers but the platform has {available} CPUs"
                )
            }
            SeaError::SessionKilled { session, attempts } => {
                write!(
                    f,
                    "session {session} killed after {attempts} failed attempts"
                )
            }
            SeaError::EngineFault(what) => write!(f, "engine fault: {what}"),
            SeaError::JournalCorrupt(what) => write!(f, "session journal corrupt: {what}"),
        }
    }
}

impl Error for SeaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SeaError::Hw(e) => Some(e),
            SeaError::Tpm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HwError> for SeaError {
    fn from(e: HwError) -> Self {
        SeaError::Hw(e)
    }
}

impl From<TpmError> for SeaError {
    fn from(e: TpmError) -> Self {
        SeaError::Tpm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_hw::CpuId;

    #[test]
    fn display_and_sources() {
        let hw: SeaError = HwError::NoSuchCpu(CpuId(4)).into();
        assert!(hw.to_string().contains("cpu4"));
        assert!(Error::source(&hw).is_some());

        let tpm: SeaError = TpmError::NoFreeSePcr.into();
        assert!(tpm.to_string().contains("sePCR"));
        assert!(Error::source(&tpm).is_some());

        for e in [
            SeaError::NoTpm,
            SeaError::SlaunchUnsupported,
            SeaError::WrongLifecycle {
                actual: PalLifecycle::Done,
                operation: "resume",
            },
            SeaError::NoSuchPal(3),
            SeaError::RegionTooSmall {
                needed: 10,
                available: 5,
            },
            SeaError::PalFailed("boom".into()),
            SeaError::NotEnoughCpus {
                requested: 8,
                available: 4,
            },
            SeaError::SessionKilled {
                session: 7,
                attempts: 5,
            },
            SeaError::EngineFault("worker thread panicked"),
            SeaError::JournalCorrupt("bad magic"),
        ] {
            assert!(!e.to_string().is_empty());
            assert!(Error::source(&e).is_none());
        }
    }
}
