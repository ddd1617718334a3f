//! Pioneer-style software-based attestation — the §7 related-work
//! comparator, implemented so the repository can *demonstrate* the
//! paper's criticism rather than assert it.
//!
//! "Seshadri et al. explore an alternate means for creating a dynamic
//! root of trust at runtime, called Pioneer. Pioneer is not a realistic
//! alternative today as the verifier must possess intimate knowledge of
//! the microarchitectural design of the challenged system's CPU and
//! cannot tolerate moderate network latency."
//!
//! The scheme: the verifier sends a nonce; the device computes a
//! checksum over its memory with a function engineered so any emulating
//! or redirecting attacker is measurably *slower*; the verifier accepts
//! only answers that are both correct and fast enough. No TPM involved —
//! trust comes entirely from the timing side channel, which is exactly
//! what makes it fragile: the accept threshold must absorb network
//! jitter, and once jitter approaches the attacker's slowdown, honest
//! and forged responses become indistinguishable.

use sea_crypto::{Sha1, Sha1Digest};
use sea_hw::SimDuration;

/// The canonical attacker slowdown for Pioneer-class checksum functions:
/// the best known emulation attack costs ~33% extra time.
const ATTACKER_SLOWDOWN: f64 = 1.33;

/// A verifier challenge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PioneerChallenge {
    /// Unpredictable nonce seeding the checksum traversal.
    pub nonce: Vec<u8>,
    /// Checksum iterations; more iterations amplify the attacker's
    /// absolute time penalty relative to fixed jitter.
    pub iterations: u32,
}

/// A device response: checksum plus the time the computation took
/// (as observed by the verifier, i.e. including network latency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PioneerResponse {
    /// The computed checksum.
    pub checksum: Sha1Digest,
    /// Round-trip time the verifier observed.
    pub observed: SimDuration,
}

/// Verifier verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PioneerVerdict {
    /// Correct checksum within the time budget.
    Accepted,
    /// Wrong checksum.
    WrongChecksum,
    /// Correct but too slow — emulation suspected.
    TooSlow,
}

/// Cost of one checksum iteration on the honest device (fixed by the
/// microarchitecture the verifier must know "intimately").
const NS_PER_ITERATION: u64 = 600;

/// Computes the Pioneer checksum over `memory` (both parties run this —
/// the verifier on its reference copy, the device on its live memory).
pub fn checksum(memory: &[u8], challenge: &PioneerChallenge) -> Sha1Digest {
    // Nonce-seeded, strongly ordered traversal: each round folds the
    // previous digest and a pseudo-random memory window.
    let mut state = Sha1::digest(&challenge.nonce);
    let window = 64usize;
    for i in 0..challenge.iterations {
        let offset = if memory.is_empty() {
            0
        } else {
            (u32::from_be_bytes([state[0], state[1], state[2], state[3]]) as usize + i as usize)
                % memory.len()
        };
        let mut h = Sha1::new();
        h.update_bytes(&state);
        if !memory.is_empty() {
            let end = (offset + window).min(memory.len());
            h.update_bytes(&memory[offset..end]);
        }
        h.update_bytes(&i.to_be_bytes());
        state = h.finalize_fixed();
    }
    state
}

/// Honest computation time for a challenge on the reference CPU.
pub fn honest_duration(challenge: &PioneerChallenge) -> SimDuration {
    SimDuration::from_ns(challenge.iterations as u64 * NS_PER_ITERATION)
}

/// Attacker computation time: correct result, 1.33× slower (the
/// emulation overhead of the best known attack).
pub fn forged_duration(challenge: &PioneerChallenge) -> SimDuration {
    SimDuration::from_ns_f64(honest_duration(challenge).as_ns() as f64 * ATTACKER_SLOWDOWN)
}

/// The verifier: holds the reference memory image and the timing model
/// of the device's exact CPU.
#[derive(Debug, Clone)]
pub struct PioneerVerifier {
    reference_memory: Vec<u8>,
    /// Worst-case network latency the verifier is willing to absorb.
    latency_allowance: SimDuration,
}

impl PioneerVerifier {
    /// Creates a verifier for a device whose correct memory contents are
    /// `reference_memory`, absorbing up to `latency_allowance` of
    /// network delay.
    pub fn new(reference_memory: Vec<u8>, latency_allowance: SimDuration) -> Self {
        PioneerVerifier {
            reference_memory,
            latency_allowance,
        }
    }

    /// Builds a challenge (nonce derived from `seed` for determinism).
    pub fn challenge(&self, seed: &[u8], iterations: u32) -> PioneerChallenge {
        PioneerChallenge {
            nonce: Sha1::digest(seed).to_vec(),
            iterations,
        }
    }

    /// Checks a response: the checksum must match the reference memory
    /// and arrive within `honest_time + latency_allowance`.
    pub fn verify(
        &self,
        challenge: &PioneerChallenge,
        response: &PioneerResponse,
    ) -> PioneerVerdict {
        let expected = checksum(&self.reference_memory, challenge);
        if response.checksum != expected {
            return PioneerVerdict::WrongChecksum;
        }
        let budget = honest_duration(challenge) + self.latency_allowance;
        if response.observed > budget {
            PioneerVerdict::TooSlow
        } else {
            PioneerVerdict::Accepted
        }
    }

    /// The smallest iteration count at which an attacker's extra time
    /// exceeds the latency allowance — i.e. where the scheme *can* work.
    /// Grows linearly with tolerated latency, which is the paper's
    /// point: at internet latencies the challenge must run so long that
    /// the protocol stops being practical.
    #[cfg(test)]
    fn min_secure_iterations(&self) -> u32 {
        let slack_ns = self.latency_allowance.as_ns() as f64;
        let per_iter_gap = NS_PER_ITERATION as f64 * (ATTACKER_SLOWDOWN - 1.0);
        (slack_ns / per_iter_gap).ceil() as u32 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory() -> Vec<u8> {
        (0..4096u32).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn honest_device_accepted_on_lan() {
        let mem = memory();
        let verifier = PioneerVerifier::new(mem.clone(), SimDuration::from_us(50));
        let ch = verifier.challenge(b"round-1", 10_000);
        let response = PioneerResponse {
            checksum: checksum(&mem, &ch),
            observed: honest_duration(&ch) + SimDuration::from_us(30), // LAN RTT
        };
        assert_eq!(verifier.verify(&ch, &response), PioneerVerdict::Accepted);
    }

    #[test]
    fn tampered_memory_yields_wrong_checksum() {
        let mem = memory();
        let verifier = PioneerVerifier::new(mem.clone(), SimDuration::from_us(50));
        let ch = verifier.challenge(b"round-2", 5_000);
        let mut rooted = mem.clone();
        rooted[100] ^= 0xFF; // a hook the attacker installed
        let response = PioneerResponse {
            checksum: checksum(&rooted, &ch),
            observed: honest_duration(&ch),
        };
        assert_eq!(
            verifier.verify(&ch, &response),
            PioneerVerdict::WrongChecksum
        );
    }

    #[test]
    fn emulating_attacker_detected_on_lan() {
        // The attacker computes the *correct* checksum over a pristine
        // copy while hiding its rootkit — but pays the emulation
        // slowdown, which a LAN-latency budget cannot hide.
        let mem = memory();
        let verifier = PioneerVerifier::new(mem.clone(), SimDuration::from_us(50));
        let ch = verifier.challenge(b"round-3", 10_000);
        let response = PioneerResponse {
            checksum: checksum(&mem, &ch),
            observed: forged_duration(&ch) + SimDuration::from_us(30),
        };
        assert_eq!(verifier.verify(&ch, &response), PioneerVerdict::TooSlow);
    }

    #[test]
    fn moderate_network_latency_breaks_the_scheme() {
        // §7's criticism, demonstrated: with a 50 ms latency allowance
        // (ordinary WAN), the attacker's slowdown on a 10k-iteration
        // challenge (~2 ms extra) vanishes inside the budget.
        let mem = memory();
        let verifier = PioneerVerifier::new(mem.clone(), SimDuration::from_ms(50));
        let ch = verifier.challenge(b"round-4", 10_000);
        let forged = PioneerResponse {
            checksum: checksum(&mem, &ch),
            observed: forged_duration(&ch) + SimDuration::from_ms(3),
        };
        // The forger is ACCEPTED — the timing channel failed.
        assert_eq!(verifier.verify(&ch, &forged), PioneerVerdict::Accepted);
        // Fixing it needs enormously longer challenges:
        let needed = verifier.min_secure_iterations();
        let needed_time = SimDuration::from_ns(needed as u64 * NS_PER_ITERATION);
        assert!(
            needed_time > SimDuration::from_ms(100),
            "securing 50 ms of jitter needs >100 ms challenges (got {needed_time})"
        );
    }

    #[test]
    fn min_secure_iterations_scales_with_latency() {
        let mem = memory();
        let lan = PioneerVerifier::new(mem.clone(), SimDuration::from_us(50));
        let wan = PioneerVerifier::new(mem, SimDuration::from_ms(50));
        assert!(wan.min_secure_iterations() > lan.min_secure_iterations() * 500);
    }

    #[test]
    fn checksum_depends_on_nonce_and_iterations() {
        let mem = memory();
        let a = checksum(
            &mem,
            &PioneerChallenge {
                nonce: b"a".to_vec(),
                iterations: 100,
            },
        );
        let b = checksum(
            &mem,
            &PioneerChallenge {
                nonce: b"b".to_vec(),
                iterations: 100,
            },
        );
        let c = checksum(
            &mem,
            &PioneerChallenge {
                nonce: b"a".to_vec(),
                iterations: 101,
            },
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic for equal inputs.
        let a2 = checksum(
            &mem,
            &PioneerChallenge {
                nonce: b"a".to_vec(),
                iterations: 100,
            },
        );
        assert_eq!(a, a2);
    }

    #[test]
    fn empty_memory_is_handled() {
        let ch = PioneerChallenge {
            nonce: b"n".to_vec(),
            iterations: 10,
        };
        let d = checksum(&[], &ch);
        assert_ne!(d, [0u8; 20]);
    }
}
