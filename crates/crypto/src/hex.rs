//! Hexadecimal encoding helpers.
//!
//! Measurements, PCR values, and key fingerprints are exchanged and
//! logged as hex throughout the trusted-computing ecosystem; these
//! helpers keep that dependency-free.

/// Encodes bytes as lowercase hex.
///
/// # Example
///
/// ```
/// assert_eq!(sea_crypto::to_hex(&[0xde, 0xad, 0x01]), "dead01");
/// assert_eq!(sea_crypto::to_hex(&[]), "");
/// ```
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_digest_encoding() {
        // SHA-1("abc") in hex, cross-checking the hash module's vector.
        let d = crate::Sha1::digest(b"abc");
        assert_eq!(to_hex(&d), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }
}
