//! OS-level error type.

use std::error::Error;
use std::fmt;

use sea_core::SeaError;

/// Errors raised by the untrusted-OS simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OsError {
    /// A SEA operation performed on the OS's behalf failed.
    Sea(SeaError),
    /// The scheduler was asked to run with no work registered.
    NothingToRun,
    /// A scheduler invariant was violated — a bug in the OS simulator
    /// itself, surfaced as an error instead of a panic so batch drivers
    /// can report it.
    SchedulerInternal(&'static str),
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::Sea(e) => write!(f, "SEA operation failed: {e}"),
            OsError::NothingToRun => write!(f, "scheduler has no jobs"),
            OsError::SchedulerInternal(what) => write!(f, "scheduler invariant violated: {what}"),
        }
    }
}

impl Error for OsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OsError::Sea(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SeaError> for OsError {
    fn from(e: SeaError) -> Self {
        OsError::Sea(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let s: OsError = SeaError::NoTpm.into();
        assert!(Error::source(&s).is_some());
        assert!(!OsError::NothingToRun.to_string().is_empty());
        assert!(Error::source(&OsError::NothingToRun).is_none());
        let i = OsError::SchedulerInternal("slot unfilled");
        assert!(i.to_string().contains("slot unfilled"));
        assert!(Error::source(&i).is_none());
    }
}
