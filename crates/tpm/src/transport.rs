//! TPM secure transport sessions (§3.3).
//!
//! "The south bridge is not included in the TCB since the TPM is capable
//! of creating a secure channel to the PAL (by engaging in secure
//! transport sessions)." The TPM sits on the LPC bus behind the south
//! bridge (Figure 1); without a protected channel, a malicious south
//! bridge could tamper with commands and responses in flight.
//!
//! The model follows the TPM v1.2 transport-session construction in
//! spirit: the caller encrypts a fresh session secret to the TPM's
//! storage key (OAEP), and both ends then authenticate every
//! command/response with HMAC over the payload and a rolling sequence
//! number. Tampering and replay by the bus are detected by either end.

use sea_crypto::{CryptoError, Drbg, Hmac, OaepLabel, RsaPrivateKey, RsaPublicKey, Sha256};

use crate::error::TpmError;

const TRANSPORT_LABEL: &[u8] = b"TPM_TRANSPORT";
const SECRET_LEN: usize = 16;

/// A message protected by a transport session: payload + MAC + sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedMessage {
    /// The (cleartext) command or response bytes. Transport sessions
    /// provide *integrity and freshness*; payload confidentiality, when
    /// needed, comes from sealing.
    pub payload: Vec<u8>,
    /// Message sequence number within the session.
    pub seq: u64,
    /// HMAC-SHA-256 over direction ‖ seq ‖ payload.
    pub mac: Vec<u8>,
}

/// Which way a message travels (bound into the MAC so the bus cannot
/// reflect a command back as a response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    ToTpm,
    FromTpm,
}

fn mac_message(key: &[u8], dir: Direction, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut h = Hmac::<Sha256>::new(key);
    h.update(&[match dir {
        Direction::ToTpm => 0x00,
        Direction::FromTpm => 0x01,
    }]);
    h.update(&seq.to_be_bytes());
    h.update(payload);
    h.finalize()
}

/// One endpoint of an established transport session.
///
/// Both the caller (PAL side) and the TPM side hold one; the
/// construction is symmetric apart from the direction tags.
#[derive(Debug, Clone)]
pub struct TransportEndpoint {
    key: Vec<u8>,
    send_seq: u64,
    recv_seq: u64,
    outbound: Direction,
}

impl TransportEndpoint {
    fn new(secret: &[u8], outbound: Direction) -> Self {
        TransportEndpoint {
            key: Hmac::<Sha256>::mac(secret, b"transport-mac-key"),
            send_seq: 0,
            recv_seq: 0,
            outbound,
        }
    }

    /// Protects an outbound message.
    pub fn protect(&mut self, payload: &[u8]) -> SealedMessage {
        let seq = self.send_seq;
        self.send_seq += 1;
        SealedMessage {
            payload: payload.to_vec(),
            seq,
            mac: mac_message(&self.key, self.outbound, seq, payload),
        }
    }

    /// Verifies an inbound message's MAC and sequence, returning the
    /// payload.
    ///
    /// # Errors
    ///
    /// [`TpmError::InvalidBlob`] on tampering, reflection, replay, or
    /// reordering.
    pub fn open(&mut self, msg: &SealedMessage) -> Result<Vec<u8>, TpmError> {
        let expected_dir = match self.outbound {
            Direction::ToTpm => Direction::FromTpm,
            Direction::FromTpm => Direction::ToTpm,
        };
        if msg.seq != self.recv_seq {
            return Err(TpmError::InvalidBlob);
        }
        let expected = mac_message(&self.key, expected_dir, msg.seq, &msg.payload);
        if expected != msg.mac {
            return Err(TpmError::InvalidBlob);
        }
        self.recv_seq += 1;
        Ok(msg.payload.clone())
    }
}

/// Establishes a transport session toward a TPM whose storage public key
/// is `tpm_public`. Returns the caller's endpoint plus the encrypted
/// session secret to ship across the (untrusted) bus.
///
/// # Errors
///
/// Propagates RSA failures as [`CryptoError`].
pub fn establish(
    tpm_public: &RsaPublicKey,
    rng: &mut Drbg,
) -> Result<(TransportEndpoint, Vec<u8>), CryptoError> {
    let secret = rng.fill(SECRET_LEN);
    let enc = tpm_public.encrypt_oaep(&secret, &OaepLabel(TRANSPORT_LABEL.to_vec()), rng)?;
    Ok((TransportEndpoint::new(&secret, Direction::ToTpm), enc))
}

/// TPM-side acceptance of a transport session: decrypts the session
/// secret with the storage private key.
///
/// # Errors
///
/// [`TpmError::InvalidBlob`] if the encrypted secret fails OAEP
/// validation (wrong key, tampered in flight).
pub(crate) fn accept(
    srk: &RsaPrivateKey,
    encrypted_secret: &[u8],
) -> Result<TransportEndpoint, TpmError> {
    let secret = srk
        .decrypt_oaep(encrypted_secret, &OaepLabel(TRANSPORT_LABEL.to_vec()))
        .map_err(|_| TpmError::InvalidBlob)?;
    if secret.len() != SECRET_LEN {
        return Err(TpmError::InvalidBlob);
    }
    Ok(TransportEndpoint::new(&secret, Direction::FromTpm))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> (TransportEndpoint, TransportEndpoint) {
        let srk = RsaPrivateKey::generate(512, &mut Drbg::new(b"transport srk")).unwrap();
        let mut rng = Drbg::new(b"transport rng");
        let (caller, enc) = establish(srk.public_key(), &mut rng).unwrap();
        let tpm = accept(&srk, &enc).unwrap();
        (caller, tpm)
    }

    #[test]
    fn command_response_roundtrip() {
        let (mut caller, mut tpm) = session();
        let cmd = caller.protect(b"TPM_Extend(17, ...)");
        assert_eq!(tpm.open(&cmd).unwrap(), b"TPM_Extend(17, ...)");
        let resp = tpm.protect(b"OK");
        assert_eq!(caller.open(&resp).unwrap(), b"OK");
        // Sequences advance independently per direction.
        let cmd2 = caller.protect(b"TPM_Quote(...)");
        assert_eq!(cmd2.seq, 1);
        assert!(tpm.open(&cmd2).is_ok());
    }

    #[test]
    fn bus_tampering_detected() {
        let (mut caller, mut tpm) = session();
        let mut cmd = caller.protect(b"TPM_Seal(secret)");
        cmd.payload[4] ^= 0x01; // the south bridge flips a bit
        assert_eq!(tpm.open(&cmd).unwrap_err(), TpmError::InvalidBlob);
    }

    #[test]
    fn replay_detected() {
        let (mut caller, mut tpm) = session();
        let cmd = caller.protect(b"TPM_GetRandom(128)");
        assert!(tpm.open(&cmd).is_ok());
        // The bus replays the same command.
        assert_eq!(tpm.open(&cmd).unwrap_err(), TpmError::InvalidBlob);
    }

    #[test]
    fn reordering_detected() {
        let (mut caller, mut tpm) = session();
        let c0 = caller.protect(b"first");
        let c1 = caller.protect(b"second");
        // Bus delivers the second command first.
        assert_eq!(tpm.open(&c1).unwrap_err(), TpmError::InvalidBlob);
        // In-order delivery still works afterwards.
        assert!(tpm.open(&c0).is_ok());
        assert!(tpm.open(&c1).is_ok());
    }

    #[test]
    fn reflection_detected() {
        let (mut caller, tpm) = session();
        let cmd = caller.protect(b"echo");
        // The bus bounces the caller's own message back as a "response".
        assert_eq!(caller.open(&cmd).unwrap_err(), TpmError::InvalidBlob);
        let _ = tpm;
    }

    #[test]
    fn wrong_key_rejected_at_accept() {
        let srk = RsaPrivateKey::generate(512, &mut Drbg::new(b"srk-a")).unwrap();
        let other = RsaPrivateKey::generate(512, &mut Drbg::new(b"srk-b")).unwrap();
        let mut rng = Drbg::new(b"rng");
        let (_caller, enc) = establish(srk.public_key(), &mut rng).unwrap();
        assert_eq!(accept(&other, &enc).unwrap_err(), TpmError::InvalidBlob);
    }

    #[test]
    fn distinct_sessions_do_not_cross() {
        let (mut caller_a, _tpm_a) = session();
        let srk = RsaPrivateKey::generate(512, &mut Drbg::new(b"other srk")).unwrap();
        let mut rng = Drbg::new(b"other rng");
        let (_caller_b, enc_b) = establish(srk.public_key(), &mut rng).unwrap();
        let mut tpm_b = accept(&srk, &enc_b).unwrap();
        let cmd = caller_a.protect(b"cross-session");
        assert_eq!(tpm_b.open(&cmd).unwrap_err(), TpmError::InvalidBlob);
    }
}
