//! Wire protocol of the SSH password-handling PAL (§4.1).
//!
//! "...and to secure an SSH server's password handling routines." The
//! server's password database entry (salted digest) is sealed to the
//! PAL, and login attempts are checked *inside* the protected session —
//! a compromised sshd or kernel never sees the stored verifier or a
//! timing-usable comparison.
//!
//! The executed-bytecode PAL [`crate::vm::vm_ssh`] speaks this protocol.

/// A request to the SSH-password PAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SshRequest {
    /// Store a new password (enrollment); output byte `1` on success.
    Enroll(Vec<u8>),
    /// Check a login attempt; output byte `1` (accept) or `0` (reject).
    Verify(Vec<u8>),
}

impl SshRequest {
    /// Wire encoding passed as PAL input.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            SshRequest::Enroll(pw) => {
                let mut v = vec![0x00];
                v.extend_from_slice(pw);
                v
            }
            SshRequest::Verify(pw) => {
                let mut v = vec![0x01];
                v.extend_from_slice(pw);
                v
            }
        }
    }
}
