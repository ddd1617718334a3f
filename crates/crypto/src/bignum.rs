//! Arbitrary-precision unsigned integers for the RSA substrate.
//!
//! The TPM's `Seal`, `Unseal`, and `Quote` commands are 2048-bit RSA
//! operations (the dominant source of the latencies measured in Figure 3 of
//! the paper), so the reproduction carries a real big-integer engine:
//!
//! * little-endian `u64` limbs, always normalized (no high zero limbs),
//! * schoolbook multiplication with `u128` accumulation,
//! * Knuth Algorithm D division,
//! * Montgomery (CIOS) modular exponentiation for odd moduli, and
//! * extended-Euclid modular inversion for key generation.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Shl, Shr, Sub};

/// An arbitrary-precision unsigned integer.
///
/// # Example
///
/// ```
/// use sea_crypto::BigUint;
///
/// let a = BigUint::from_u64(1 << 40);
/// let b = &a * &a;
/// assert_eq!(b.bit_len(), 81);
/// assert_eq!(&b % &a, BigUint::zero());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigUint {
    /// Little-endian limbs; invariant: no trailing (most-significant) zeros.
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{:x})", self)
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Hex display keeps the implementation dependency-free; decimal
        // conversion is not needed anywhere in the simulator.
        write!(f, "0x{:x}", self)
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for &limb in self.limbs.iter().rev() {
            if first {
                write!(f, "{limb:x}")?;
                first = false;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        Ok(())
    }
}

impl Default for BigUint {
    fn default() -> Self {
        Self::zero()
    }
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Constructs from big-endian bytes. Leading zero bytes are permitted.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut cur: u64 = 0;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            cur |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(cur);
                cur = 0;
                shift = 0;
            }
        }
        if cur != 0 {
            limbs.push(cur);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Serializes to minimal big-endian bytes (empty vector for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first_nonzero);
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padded with
    /// zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(
            raw.len() <= len,
            "value of {} bytes does not fit in {} bytes",
            raw.len(),
            len
        );
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// `true` iff the value is `0`.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff the value is `1`.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// `true` iff the value is even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (`0` for the value zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order; bit 0 is the LSB).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        match self.limbs.get(limb) {
            None => false,
            Some(&l) => (l >> (i % 64)) & 1 == 1,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Addition.
    #[allow(clippy::needless_range_loop)] // indexed form mirrors the carry chain
    pub fn add_ref(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry: u128 = 0;
        for i in 0..long.len() {
            let s = long[i] as u128 + short.get(i).copied().unwrap_or(0) as u128 + carry;
            out.push(s as u64);
            carry = s >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        BigUint { limbs: out }
    }

    /// Subtraction, returning `None` on underflow (`self < other`).
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow: i128 = 0;
        for i in 0..self.limbs.len() {
            let d =
                self.limbs[i] as i128 - other.limbs.get(i).copied().unwrap_or(0) as i128 - borrow;
            if d < 0 {
                out.push((d + (1i128 << 64)) as u64);
                borrow = 1;
            } else {
                out.push(d as u64);
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        let mut r = BigUint { limbs: out };
        r.normalize();
        Some(r)
    }

    /// Multiplication (schoolbook, `u128` accumulation).
    pub fn mul_ref(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let s = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = s as u64;
                carry = s >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let s = out[k] as u128 + carry;
                out[k] = s as u64;
                carry = s >> 64;
                k += 1;
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Left shift by `bits`.
    pub fn shl_bits(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = (bits % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by `bits`.
    pub fn shr_bits(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = (bits % 64) as u32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Division with remainder: returns `(quotient, remainder)` with
    /// `self == quotient * divisor + remainder` and
    /// `remainder < divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            return self.divrem_u64(divisor.limbs[0]);
        }
        self.divrem_knuth(divisor)
    }

    fn divrem_u64(&self, d: u64) -> (BigUint, BigUint) {
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem: u128 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut quot = BigUint { limbs: q };
        quot.normalize();
        (quot, BigUint::from_u64(rem as u64))
    }

    /// `self mod d` for a nonzero one-limb divisor, without allocating.
    pub(crate) fn rem_u64(&self, d: u64) -> u64 {
        let d = d as u128;
        let rem = self
            .limbs
            .iter()
            .rev()
            .fold(0, |rem, &limb| ((rem << 64) | limb as u128) % d);
        rem as u64
    }

    /// Knuth Algorithm D (TAOCP Vol. 2, 4.3.1), 64-bit limb port.
    fn divrem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        let top = divisor
            .limbs
            .last()
            .expect("divrem sends only multi-limb divisors here");
        let shift = top.leading_zeros() as usize;
        let v = divisor.shl_bits(shift).limbs;
        let mut u = self.shl_bits(shift).limbs;
        let n = v.len();
        u.push(0); // u gains one extra high limb for the algorithm
        let m = u.len() - n - 1;
        let mut q = vec![0u64; m + 1];

        const BASE: u128 = 1u128 << 64;
        for j in (0..=m).rev() {
            // Estimate qhat from the top two limbs of the current window.
            let num = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = num / v[n - 1] as u128;
            let mut rhat = num % v[n - 1] as u128;
            while qhat >= BASE || qhat * v[n - 2] as u128 > ((rhat << 64) | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v[n - 1] as u128;
                if rhat >= BASE {
                    break;
                }
            }

            // Multiply-subtract: u[j..j+n+1] -= qhat * v.
            let mut k: i128 = 0;
            for i in 0..n {
                let p = qhat * v[i] as u128;
                let t = u[j + i] as i128 - k - (p as u64) as i128;
                u[j + i] = t as u64;
                k = (p >> 64) as i128 - (t >> 64);
            }
            let t = u[j + n] as i128 - k;
            u[j + n] = t as u64;

            if t < 0 {
                // qhat was one too large: add one divisor back.
                qhat -= 1;
                let mut carry: u128 = 0;
                for i in 0..n {
                    let s = u[j + i] as u128 + v[i] as u128 + carry;
                    u[j + i] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }

        let mut quot = BigUint { limbs: q };
        quot.normalize();
        let mut rem = BigUint {
            limbs: u[..n].to_vec(),
        };
        rem.normalize();
        (quot, rem.shr_bits(shift))
    }

    /// `self mod modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn rem_ref(&self, modulus: &BigUint) -> BigUint {
        self.divrem(modulus).1
    }

    /// Modular exponentiation `self^exponent mod modulus`.
    ///
    /// Uses Montgomery (CIOS) multiplication when the modulus is odd — the
    /// case for every RSA modulus — and falls back to division-based
    /// square-and-multiply otherwise. A base below the modulus is used as
    /// it is; a larger one is reduced first.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn modexp(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modexp with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if exponent.is_zero() {
            return BigUint::one();
        }
        if modulus.is_even() {
            return self.modexp_generic(exponent, modulus);
        }
        let mont = Montgomery::new(modulus);
        if self < modulus {
            mont.modexp(self, exponent)
        } else {
            mont.modexp(&self.rem_ref(modulus), exponent)
        }
    }

    fn modexp_generic(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        let mut result = BigUint::one();
        let mut base = self.rem_ref(modulus);
        for i in 0..exponent.bit_len() {
            if exponent.bit(i) {
                result = result.mul_ref(&base).rem_ref(modulus);
            }
            base = base.mul_ref(&base).rem_ref(modulus);
        }
        result
    }

    /// Greatest common divisor (binary-free Euclid via `divrem`).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem_ref(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: returns `x` with `self * x ≡ 1 (mod modulus)`, or
    /// `None` if `gcd(self, modulus) != 1`.
    pub fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        // Extended Euclid with a signed coefficient track.
        let mut old_r = self.rem_ref(modulus);
        let mut r = modulus.clone();
        let mut old_t = Signed::pos(BigUint::one());
        let mut t = Signed::pos(BigUint::zero());
        // Standard loop but with (old_r, r) roles such that the invariant
        // old_t * self ≡ old_r (mod modulus) holds.
        while !r.is_zero() {
            let (q, rem) = old_r.divrem(&r);
            let new_t = old_t.sub(&t.mul_mag(&q));
            old_r = std::mem::replace(&mut r, rem);
            old_t = std::mem::replace(&mut t, new_t);
        }
        if !old_r.is_one() {
            return None;
        }
        Some(old_t.normalize_mod(modulus))
    }
}

/// Minimal signed big integer used only inside the extended Euclid.
#[derive(Clone, Debug)]
struct Signed {
    neg: bool,
    mag: BigUint,
}

impl Signed {
    fn pos(mag: BigUint) -> Self {
        Signed { neg: false, mag }
    }

    fn mul_mag(&self, m: &BigUint) -> Signed {
        Signed {
            neg: self.neg && !m.is_zero(),
            mag: self.mag.mul_ref(m),
        }
    }

    fn sub(&self, other: &Signed) -> Signed {
        match (self.neg, other.neg) {
            (false, true) => Signed::pos(self.mag.add_ref(&other.mag)),
            (true, false) => {
                let mag = self.mag.add_ref(&other.mag);
                Signed {
                    neg: !mag.is_zero(),
                    mag,
                }
            }
            (a_neg, _) => {
                // Same sign: |result| = |a| - |b| with possible flip.
                if self.mag >= other.mag {
                    let mag = self.mag.checked_sub(&other.mag).expect("|a| >= |b|");
                    Signed {
                        neg: a_neg && !mag.is_zero(),
                        mag,
                    }
                } else {
                    let mag = other.mag.checked_sub(&self.mag).expect("|b| > |a|");
                    Signed {
                        neg: !a_neg && !mag.is_zero(),
                        mag,
                    }
                }
            }
        }
    }

    fn normalize_mod(&self, modulus: &BigUint) -> BigUint {
        let r = self.mag.rem_ref(modulus);
        if self.neg && !r.is_zero() {
            modulus
                .checked_sub(&r)
                .expect("a remainder is below its modulus")
        } else {
            r
        }
    }
}

/// Montgomery multiplication context (CIOS method) for an odd modulus.
///
/// Crate-internal: [`BigUint::modexp`] builds one per call, Miller–Rabin
/// ([`crate::prime`]) one per candidate, and the RSA CRT path
/// ([`crate::rsa`]) one per prime half for every private-key operation.
/// An exponentiation pads its operands to the modulus' `k` limbs and
/// allocates its buffers once, at entry; a multiply allocates nothing.
pub(crate) struct Montgomery {
    /// The modulus, `k` limbs.
    m: Vec<u64>,
    /// `-m^-1 mod 2^64`.
    n0inv: u64,
    /// `R^2 mod m` at `k` limbs, where `R = 2^(64k)`: the factor that
    /// converts a value into Montgomery form.
    r2: Vec<u64>,
}

impl Montgomery {
    pub(crate) fn new(modulus: &BigUint) -> Self {
        debug_assert!(!modulus.is_even());
        let m = modulus.limbs.clone();
        // n0inv = -m[0]^-1 mod 2^64 via Newton iteration.
        let m0 = m[0];
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let k = m.len();
        let mut r2 = BigUint::one().shl_bits(128 * k).rem_ref(modulus).limbs;
        r2.resize(k, 0);
        Montgomery {
            m,
            n0inv: inv.wrapping_neg(),
            r2,
        }
    }

    /// CIOS Montgomery product: leaves `a * b * R^-1 mod m` in `t[..k]`,
    /// for `a` and `b` below `m` whose first `k` limbs are their value,
    /// and `t` a scratch buffer of `k + 2` limbs.
    fn mont_mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let m = &self.m[..];
        let k = m.len();
        let (a, b, t) = (&a[..k], &b[..k], &mut t[..k + 2]);
        t.fill(0);
        for &ai in a {
            // t += ai * b
            let mut carry: u128 = 0;
            for (tj, &bj) in t.iter_mut().zip(b) {
                let s = *tj as u128 + ai as u128 * bj as u128 + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;

            // Reduce one limb: t = (t + mi * m) / 2^64
            let mi = t[0].wrapping_mul(self.n0inv);
            let mut carry = (t[0] as u128 + mi as u128 * m[0] as u128) >> 64;
            for j in 1..k {
                let s = t[j] as u128 + mi as u128 * m[j] as u128 + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + (s >> 64) as u64;
        }

        // Conditional final subtraction: the product lies in [0, 2m).
        if t[k] != 0 || cmp_limbs(&t[..k], m) != Ordering::Less {
            let mut borrow = false;
            for (tj, &mj) in t.iter_mut().zip(m) {
                let (d, b1) = tj.overflowing_sub(mj);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                *tj = d;
                borrow = b1 | b2;
            }
        }
    }

    /// `base^exponent mod m` for `base` already reduced below the modulus.
    ///
    /// Scans the exponent from the top in fixed windows: 4 bits wide when
    /// it is longer than 64 bits (private exponents, Miller–Rabin's `d`),
    /// so each window costs four squarings and at most one multiply by a
    /// precomputed power; 1 bit wide otherwise (the public exponent
    /// 65537), which is square-and-multiply, since a 16-entry table would
    /// cost more products than it saves.
    pub(crate) fn modexp(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        let k = self.m.len();
        let bits = exponent.bit_len();
        let width = if bits > 64 { 4 } else { 1 };
        let mut t = vec![0u64; k + 2];
        let mut one = vec![0u64; k];
        one[0] = 1;
        // table[d] = base^d in Montgomery form, for every window digit d;
        // mont(x, R^2) = xR mod m converts x into that form.
        let mut table = vec![0u64; k << width];
        table[k..k + base.limbs.len()].copy_from_slice(&base.limbs);
        for d in 0..1 << width {
            match d {
                0 => self.mont_mul(&one, &self.r2, &mut t),
                1 => self.mont_mul(&table[k..], &self.r2, &mut t),
                _ => self.mont_mul(&table[(d - 1) * k..], &table[k..], &mut t),
            }
            table[d * k..(d + 1) * k].copy_from_slice(&t[..k]);
        }

        let digit = |w: usize| {
            let bit = w * width;
            (exponent.limbs[bit / 64] >> (bit % 64)) as usize & ((1 << width) - 1)
        };
        let windows = bits.div_ceil(width);
        // The running product, `k + 2` limbs so that it and the scratch
        // buffer trade places after each product instead of copying.
        let mut acc = vec![0u64; k + 2];
        let top = if windows == 0 { 0 } else { digit(windows - 1) };
        acc[..k].copy_from_slice(&table[top * k..(top + 1) * k]);
        for w in (0..windows.saturating_sub(1)).rev() {
            for _ in 0..width {
                self.mont_mul(&acc, &acc, &mut t);
                std::mem::swap(&mut acc, &mut t);
            }
            let d = digit(w);
            if d != 0 {
                self.mont_mul(&acc, &table[d * k..], &mut t);
                std::mem::swap(&mut acc, &mut t);
            }
        }
        // Out of Montgomery form: mont(xR, 1) = x.
        self.mont_mul(&acc, &one, &mut t);
        debug_assert_eq!(cmp_limbs(&t[..k], &self.m), Ordering::Less);
        let mut r = BigUint {
            limbs: t[..k].to_vec(),
        };
        r.normalize();
        r
    }
}

fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => cmp_limbs(&self.limbs, &other.limbs),
            other => other,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        self.add_ref(rhs)
    }
}

impl Sub for &BigUint {
    type Output = BigUint;
    /// # Panics
    ///
    /// Panics on underflow; use [`BigUint::checked_sub`] to handle it.
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        self.mul_ref(rhs)
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        self.shr_bits(bits)
    }
}

impl std::ops::Rem for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.rem_ref(rhs)
    }
}

impl std::ops::Div for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.divrem(rhs).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{random_below, random_bits};
    use crate::{Drbg, Sha1};

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn bytes_roundtrip() {
        let cases: [&[u8]; 5] = [
            &[],
            &[0x01],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
            &[0x12, 0x34, 0x56],
            &[0x80, 0, 0, 0, 0, 0, 0, 0, 0],
        ];
        for bytes in cases {
            let v = BigUint::from_bytes_be(bytes);
            let back = v.to_bytes_be();
            // Round trip strips leading zeros.
            let stripped: Vec<u8> = bytes.iter().copied().skip_while(|&b| b == 0).collect();
            assert_eq!(back, stripped);
        }
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 0, 5]), BigUint::from_u64(5));
    }

    #[test]
    fn padded_serialization() {
        let v = n(0x1234);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_serialization_too_small_panics() {
        n(0x123456).to_bytes_be_padded(2);
    }

    #[test]
    fn add_with_carry_chains() {
        let a = BigUint::from_bytes_be(&[0xff; 16]);
        let b = BigUint::one();
        let sum = &a + &b;
        assert_eq!(sum.bit_len(), 129);
        assert_eq!(&sum - &b, a);
    }

    #[test]
    fn sub_underflow_is_none() {
        assert!(n(3).checked_sub(&n(5)).is_none());
        assert_eq!(n(5).checked_sub(&n(3)).unwrap(), n(2));
        assert_eq!(n(5).checked_sub(&n(5)).unwrap(), BigUint::zero());
    }

    #[test]
    fn mul_small_and_large() {
        assert_eq!(&n(7) * &n(6), n(42));
        assert_eq!(&n(0) * &n(6), BigUint::zero());
        let big = BigUint::from_bytes_be(&[0xff; 32]);
        let sq = &big * &big;
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1 -> 512 bits
        assert_eq!(sq.bit_len(), 512);
    }

    #[test]
    fn shifts_inverse_each_other() {
        let v = BigUint::from_bytes_be(&[0xde, 0xad, 0xbe, 0xef, 0x12, 0x34]);
        for bits in [0, 1, 7, 63, 64, 65, 130] {
            assert_eq!((&(&v << bits)) >> bits, v, "bits={bits}");
        }
    }

    #[test]
    fn divrem_simple_cases() {
        let (q, r) = n(17).divrem(&n(5));
        assert_eq!((q, r), (n(3), n(2)));
        let (q, r) = n(4).divrem(&n(5));
        assert_eq!((q, r), (BigUint::zero(), n(4)));
        let (q, r) = n(5).divrem(&n(5));
        assert_eq!((q, r), (BigUint::one(), BigUint::zero()));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divrem_by_zero_panics() {
        let _ = n(1).divrem(&BigUint::zero());
    }

    #[test]
    fn divrem_multi_limb_knuth_path() {
        // Construct values forcing the Knuth path (divisor > 1 limb).
        let a = BigUint::from_bytes_be(&[0xab; 40]);
        let d = BigUint::from_bytes_be(&[0x17; 17]);
        let (q, r) = a.divrem(&d);
        assert!(r < d);
        assert_eq!(&(&q * &d) + &r, a);
    }

    #[test]
    fn divrem_knuth_addback_case() {
        // A classic add-back trigger: u = b^4 / 2, v = b^2 / 2 + 1 style
        // values where qhat overestimates.
        let b64 = BigUint::one().shl_bits(64);
        let u = BigUint::one()
            .shl_bits(256)
            .checked_sub(&BigUint::one())
            .unwrap();
        let v = b64.shl_bits(64).checked_sub(&BigUint::one()).unwrap();
        let (q, r) = u.divrem(&v);
        assert_eq!(&(&q * &v) + &r, u);
        assert!(r < v);
    }

    #[test]
    fn modexp_small_known_values() {
        // 4^13 mod 497 = 445
        assert_eq!(n(4).modexp(&n(13), &n(497)), n(445));
        // base^0 = 1
        assert_eq!(n(9).modexp(&n(0), &n(7)), BigUint::one());
        // mod 1 = 0
        assert_eq!(n(9).modexp(&n(5), &n(1)), BigUint::zero());
    }

    #[test]
    fn modexp_even_modulus_fallback() {
        // 3^5 mod 16 = 243 mod 16 = 3
        assert_eq!(n(3).modexp(&n(5), &n(16)), n(3));
    }

    #[test]
    fn modexp_known_answer() {
        // Moduli of 1 to 33 limbs, odd and even, each raising a base
        // below it and one above it to exponents on both sides of every
        // limb and 4-bit window boundary, folded into one SHA-1 recorded
        // from the bit-at-a-time square-and-multiply kernel.
        let mut rng = Drbg::new(b"modexp known answer");
        let mut fold = Sha1::new();
        for limbs in 1..=33 {
            for odd in [true, false] {
                let mut bytes = rng.fill(8 * limbs);
                bytes[0] |= 1; // exactly `limbs` limbs
                let last = bytes.len() - 1;
                bytes[last] = if odd {
                    bytes[last] | 1
                } else {
                    bytes[last] & !1
                };
                let m = BigUint::from_bytes_be(&bytes);
                let below = random_below(&m, &mut rng);
                let above = BigUint::from_bytes_be(&rng.fill(8 * limbs + 9));
                assert!(above > m);
                for bits in [0, 1, 17, 63, 64, 65, 255, 256, 257, 512, 1024, 2048] {
                    let e = match bits {
                        0 => BigUint::zero(),
                        _ => random_bits(bits - 1, &mut rng)
                            .add_ref(&BigUint::one().shl_bits(bits - 1)),
                    };
                    assert_eq!(e.bit_len(), bits);
                    for base in [&below, &above] {
                        let r = base.modexp(&e, &m);
                        assert!(r < m);
                        let out = r.to_bytes_be();
                        fold.update_bytes(&(out.len() as u32).to_be_bytes());
                        fold.update_bytes(&out);
                    }
                }
            }
        }
        assert_eq!(
            crate::to_hex(&fold.finalize_fixed()),
            "a1dc1728cb897d690f2d7781aa2daede4ddff86b"
        );
    }

    #[test]
    fn montgomery_matches_generic_modexp() {
        // Deterministic pseudo-random multi-limb values.
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        // Exponents of up to 64 bits, then from 65 up to 2,048 bits.
        let exp_lens = [8usize; 10]
            .into_iter()
            .chain([9, 16, 31, 32, 33, 64, 128, 255, 256]);
        for exp_len in exp_lens {
            let base_bytes: Vec<u8> = (0..24).map(|_| next() as u8).collect();
            let exp_bytes: Vec<u8> = (0..exp_len).map(|_| next() as u8).collect();
            let mut mod_bytes: Vec<u8> = (0..24).map(|_| next() as u8).collect();
            mod_bytes[0] |= 0x80; // full size
            *mod_bytes.last_mut().unwrap() |= 1; // odd
            let b = BigUint::from_bytes_be(&base_bytes);
            let e = BigUint::from_bytes_be(&exp_bytes);
            let m = BigUint::from_bytes_be(&mod_bytes);
            assert_eq!(b.modexp(&e, &m), b.modexp_generic(&e, &m));
        }
    }

    #[test]
    fn gcd_and_inverse() {
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(5)), n(1));
        // 3 * 4 = 12 ≡ 1 mod 11
        assert_eq!(n(3).mod_inverse(&n(11)).unwrap(), n(4));
        // gcd != 1 -> None
        assert!(n(4).mod_inverse(&n(8)).is_none());
        // mod 1 -> None (degenerate)
        assert!(n(4).mod_inverse(&n(1)).is_none());
    }

    #[test]
    fn inverse_multi_limb() {
        let m = BigUint::from_bytes_be(&[
            0xc7, 0x2e, 0x9b, 0x3f, 0x11, 0x88, 0x5d, 0x2a, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab,
            0xcd, 0xef, 0x13,
        ]);
        let a = n(65537);
        if let Some(inv) = a.mod_inverse(&m) {
            assert_eq!(a.mul_ref(&inv).rem_ref(&m), BigUint::one());
        } else {
            panic!("expected inverse to exist");
        }
    }

    #[test]
    fn ordering_is_by_value() {
        assert!(n(5) < n(6));
        assert!(BigUint::from_bytes_be(&[1, 0, 0, 0, 0, 0, 0, 0, 0]) > n(u64::MAX));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", n(255)), "0xff");
        assert_eq!(format!("{:x}", BigUint::zero()), "0");
        assert!(format!("{:?}", n(16)).contains("0x10"));
        // Multi-limb hex keeps interior zero padding.
        let v = BigUint::one().shl_bits(64);
        assert_eq!(format!("{v:x}"), format!("1{}", "0".repeat(16)));
    }
}
