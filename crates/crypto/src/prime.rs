//! Probabilistic prime generation (Miller–Rabin) for RSA key generation.

use crate::bignum::{BigUint, Montgomery};
use crate::drbg::Drbg;
use crate::error::CryptoError;

/// Small primes used for fast trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Number of Miller–Rabin rounds. 40 rounds gives a failure probability
/// below 2^-80 for random candidates, far beyond simulation needs.
const MR_ROUNDS: usize = 40;

/// Tests whether `n` is probably prime using trial division plus
/// Miller–Rabin with witnesses drawn from `rng`.
///
/// # Example
///
/// ```
/// use sea_crypto::{is_probably_prime, BigUint, Drbg};
///
/// let mut rng = Drbg::new(b"witnesses");
/// assert!(is_probably_prime(&BigUint::from_u64(65_537), &mut rng));
/// assert!(!is_probably_prime(&BigUint::from_u64(65_539 * 3), &mut rng));
/// ```
pub fn is_probably_prime(n: &BigUint, rng: &mut Drbg) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    if n == &BigUint::from_u64(2) {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n.rem_u64(p) == 0 {
            return n == &BigUint::from_u64(p);
        }
    }

    // n - 1 = d * 2^s with d odd
    let one = BigUint::one();
    let n_minus_1 = n.checked_sub(&one).expect("n >= 2");
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr_bits(1);
        s += 1;
    }

    let two = BigUint::from_u64(2);
    let mont = Montgomery::new(n);
    'witness: for _ in 0..MR_ROUNDS {
        // Witness a in [2, n-2]
        let a = random_below(&n_minus_1, rng);
        let a = if a < two { two.clone() } else { a };
        let mut x = mont.modexp(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = x.mul_ref(&x).rem_ref(n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime of exactly `bits` bits.
///
/// The two most-significant bits are forced to 1 (guaranteeing that the
/// product of two such primes has exactly `2*bits` bits, as RSA key
/// generation requires), and the low bit is forced to 1.
///
/// # Errors
///
/// Returns [`CryptoError::PrimeGenerationFailed`] if no prime is found
/// within the iteration budget, and [`CryptoError::InvalidKeySize`] if
/// `bits < 8`.
pub fn generate_prime(bits: usize, rng: &mut Drbg) -> Result<BigUint, CryptoError> {
    if bits < 8 {
        return Err(CryptoError::InvalidKeySize { bits });
    }
    // Expected gap between primes near 2^bits is ~ bits * ln(2); a budget of
    // 40 * bits candidates makes failure astronomically unlikely.
    let budget = 40 * bits;
    for _ in 0..budget {
        let mut candidate = random_bits(bits, rng);
        // Force top two bits and the low bit.
        candidate = force_bit(candidate, bits - 1);
        candidate = force_bit(candidate, bits - 2);
        candidate = force_bit(candidate, 0);
        if is_probably_prime(&candidate, rng) {
            return Ok(candidate);
        }
    }
    Err(CryptoError::PrimeGenerationFailed)
}

/// Returns a uniformly random value with at most `bits` bits.
pub(crate) fn random_bits(bits: usize, rng: &mut Drbg) -> BigUint {
    let nbytes = bits.div_ceil(8);
    let mut bytes = rng.fill(nbytes);
    let excess = nbytes * 8 - bits;
    if excess > 0 {
        bytes[0] &= 0xFF >> excess;
    }
    BigUint::from_bytes_be(&bytes)
}

/// Returns a uniformly random value in `[0, bound)` by rejection sampling.
pub(crate) fn random_below(bound: &BigUint, rng: &mut Drbg) -> BigUint {
    assert!(!bound.is_zero(), "random_below bound must be positive");
    let bits = bound.bit_len();
    loop {
        let candidate = random_bits(bits, rng);
        if &candidate < bound {
            return candidate;
        }
    }
}

fn force_bit(v: BigUint, bit: usize) -> BigUint {
    if v.bit(bit) {
        v
    } else {
        v.add_ref(&BigUint::one().shl_bits(bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sha1;

    #[test]
    fn small_primes_recognized() {
        let mut rng = Drbg::new(b"t");
        for p in [2u64, 3, 5, 7, 11, 13, 97, 101, 211, 65_537] {
            assert!(
                is_probably_prime(&BigUint::from_u64(p), &mut rng),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut rng = Drbg::new(b"t");
        for c in [0u64, 1, 4, 6, 9, 15, 91, 221, 65_539 * 3] {
            assert!(
                !is_probably_prime(&BigUint::from_u64(c), &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat but not Miller–Rabin.
        let mut rng = Drbg::new(b"t");
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(
                !is_probably_prime(&BigUint::from_u64(c), &mut rng),
                "Carmichael {c} should be composite"
            );
        }
    }

    #[test]
    fn pseudoprime_verdicts_known_answer() {
        // Carmichael numbers (Chernick's (6k+1)(12k+1)(18k+1) beyond one
        // limb) and strong pseudoprimes to the first 9, 12 and 13 prime
        // bases, all with every factor above the trial-division primes so
        // only Miller–Rabin can reject them, then primes for contrast. The
        // witness stream's next word after each verdict is folded into a
        // SHA-1, so a change in how many witnesses were drawn shows too.
        let hex = |s: &str| BigUint::from_bytes_be(&crate::from_hex(s).unwrap());
        let mersenne = |p: usize| {
            BigUint::one()
                .shl_bits(p)
                .checked_sub(&BigUint::one())
                .unwrap()
        };
        let cases = [
            (hex("14406f288b626f0b4d71"), false),
            (hex("0a2000000ea3e700070e6d2ae12238f401a9"), false),
            (
                hex("01440000000000234d9bc0000001483f3d83b00003f95773cb3301"),
                false,
            ),
            (hex("351591274f9af9fb"), false),
            (hex("437ae92817f9fc85b7e5"), false),
            (hex("02be6951adc5b22410a5fd"), false),
            (mersenne(61), true),
            (mersenne(89), true),
            (mersenne(127), true),
            (mersenne(521), true),
        ];
        let mut rng = Drbg::new(b"verdict known answer");
        let mut fold = Sha1::new();
        for (n, prime) in cases {
            assert_eq!(is_probably_prime(&n, &mut rng), prime, "{n:?}");
            fold.update_bytes(&rng.next_u64().to_be_bytes());
        }
        assert_eq!(
            crate::to_hex(&fold.finalize_fixed()),
            "408f31c218ef7f0593858cccd68b9f9aa441a607"
        );
    }

    #[test]
    fn generated_primes_have_exact_bit_length() {
        let mut rng = Drbg::new(b"gen");
        for bits in [16usize, 32, 64, 128] {
            let p = generate_prime(bits, &mut rng).unwrap();
            assert_eq!(p.bit_len(), bits, "bits={bits}");
            assert!(!p.is_even());
            assert!(p.bit(bits - 2), "second-highest bit forced");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p1 = generate_prime(64, &mut Drbg::new(b"same")).unwrap();
        let p2 = generate_prime(64, &mut Drbg::new(b"same")).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn tiny_bit_count_is_error() {
        let mut rng = Drbg::new(b"t");
        assert_eq!(
            generate_prime(4, &mut rng),
            Err(CryptoError::InvalidKeySize { bits: 4 })
        );
    }

    #[test]
    fn random_below_stays_below() {
        let mut rng = Drbg::new(b"t");
        let bound = BigUint::from_u64(1000);
        for _ in 0..50 {
            assert!(random_below(&bound, &mut rng) < bound);
        }
    }

    #[test]
    fn random_bits_respects_width() {
        let mut rng = Drbg::new(b"t");
        for bits in [1usize, 7, 8, 9, 63, 64, 65] {
            for _ in 0..10 {
                assert!(random_bits(bits, &mut rng).bit_len() <= bits);
            }
        }
    }
}
