//! Machine-speed calibration.
//!
//! On a shared host the speed of one instruction mix drifts by tens of
//! percent within seconds, as co-tenants come and go on the same cores;
//! a raw host time measures that drift as much as the program. So the
//! benchmark brackets every timed unit (and every set-up) with a fixed
//! calibration kernel and reports times at *reference speed*: host time
//! scaled by [`REF_MS`] over the kernel's own host time measured beside
//! it. The kernel is the benchmark's own code, so no change to the
//! simulator can make it faster or slower; a simulator that gets 20%
//! faster reads 20% faster, whatever the host does meanwhile.
//!
//! The kernel mixes the instruction profiles of the layers the
//! workloads spend their time in, by time about half SHA-256
//! compressions (measurement, sealing, MACs), a quarter 1024-bit
//! schoolbook multiplications (RSA) and a quarter wide memory fills
//! (platform memory). It runs on as many threads as the unit it
//! calibrates keeps busy at once. It has no part standing in for the PAL
//! VM's dispatch loop: a division-bound loop barely moves with the
//! host's speed, and the VM's own time follows the mix above.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Host ms the kernel takes at reference speed: a time of `x` ms read
/// beside a kernel time of `k` ms is reported as `x * REF_MS / k`.
pub const REF_MS: f64 = 10.0;

/// SHA-256 passes over the hash buffer per sample.
const SHA_PASSES: usize = 36;
/// Bytes hashed per pass.
const SHA_BYTES: usize = 16 * 1024;
/// 1024-bit multiplications per sample.
const MULS: usize = 8_000;
/// Bytes of the memory each thread fills per pass.
const FILL_BYTES: usize = 8 << 20;
/// Fill passes per sample.
const FILL_PASSES: u8 = 2;

/// SHA-256 round constants.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// One SHA-256 compression of a 64-byte block into `h`.
fn compress(h: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, word) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let mut v = *h;
    for i in 0..64 {
        let [a, b, c, d, e, f, g, hh] = v;
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        v = [
            t1.wrapping_add(s0.wrapping_add(maj)),
            a,
            b,
            c,
            d.wrapping_add(t1),
            e,
            f,
            g,
        ];
    }
    for (x, y) in h.iter_mut().zip(v) {
        *x = x.wrapping_add(y);
    }
}

/// SHA-256 state after `passes` passes of compressions over `buf`.
fn sha256_passes(buf: &[u8], passes: usize) -> [u32; 8] {
    let mut h = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    for _ in 0..passes {
        for block in buf.chunks_exact(64) {
            compress(&mut h, block);
        }
    }
    h
}

/// `reps` chained 1024-bit schoolbook multiplications.
fn bignum_muls(reps: usize) -> u64 {
    let a: [u64; 16] = std::array::from_fn(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut b: [u64; 16] =
        std::array::from_fn(|i| (i as u64 + 7).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    let mut out = [0u64; 32];
    for _ in 0..reps {
        out = [0; 32];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let t = u128::from(x) * u128::from(y) + u128::from(out[i + j]) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + 16] = carry as u64;
        }
        b.copy_from_slice(&out[8..24]);
        black_box(&mut b);
    }
    out[0]
}

/// One thread's share of a calibration sample.
fn kernel(hashed: &[u8], fill: &mut [u8], round: u8) -> u64 {
    let h = sha256_passes(black_box(hashed), SHA_PASSES);
    let m = bignum_muls(black_box(MULS));
    for pass in 0..FILL_PASSES {
        fill.fill(round.wrapping_add(pass));
        black_box(&mut *fill);
    }
    u64::from(h[0]) ^ m
}

/// The calibration kernel's buffers and helper threads, made once.
pub struct Calibration {
    hashed: Arc<[u8]>,
    fill: Vec<u8>,
    helpers: Vec<Helper>,
    round: u8,
}

/// A thread that runs its share of every sample. It lives as long as the
/// [`Calibration`]: threads started per sample changed how the
/// allocator's per-thread arenas were handed to the units' own threads,
/// and left `fleet_churn`'s peak memory 64 MiB higher in about one run
/// in five.
struct Helper {
    /// Carries each sample's fill round.
    go: Sender<u8>,
    /// Answers when the thread's share has run.
    done: Receiver<()>,
    thread: JoinHandle<()>,
}

impl Calibration {
    /// Buffers and helpers for a kernel on up to `threads` threads. Made
    /// before the first unit, so that the helpers' allocator arenas are
    /// not ones a unit's threads filled and left.
    pub fn new(threads: usize) -> Self {
        let hashed: Arc<[u8]> = (0..SHA_BYTES).map(|i| (i * 31) as u8).collect();
        let helpers = (1..threads)
            .map(|_| {
                let (go, rounds) = channel();
                let (finished, done) = channel();
                let hashed = Arc::clone(&hashed);
                let thread = std::thread::spawn(move || {
                    let mut fill = vec![1; FILL_BYTES];
                    for round in rounds {
                        black_box(kernel(&hashed, &mut fill, round));
                        if finished.send(()).is_err() {
                            break;
                        }
                    }
                });
                Helper { go, done, thread }
            })
            .collect();
        let mut c = Calibration {
            hashed,
            fill: vec![1; FILL_BYTES],
            helpers,
            round: 0,
        };
        c.sample_ms(threads);
        c
    }

    /// MiB the buffers keep resident, to leave out of the process's peak.
    pub fn resident_mib(&self) -> f64 {
        (self.hashed.len() + self.fill.len() * (1 + self.helpers.len())) as f64 / (1024.0 * 1024.0)
    }

    /// Host ms of one run of the kernel on `threads` threads at once.
    pub fn sample_ms(&mut self, threads: usize) -> f64 {
        assert!(threads <= 1 + self.helpers.len(), "{threads} threads");
        let helpers = &self.helpers[..threads.saturating_sub(1)];
        self.round = self.round.wrapping_add(FILL_PASSES);
        let start = Instant::now();
        for h in helpers {
            h.go.send(self.round).expect("calibration helper running");
        }
        black_box(kernel(&self.hashed, &mut self.fill, self.round));
        for h in helpers {
            h.done.recv().expect("calibration helper running");
        }
        start.elapsed().as_secs_f64() * 1e3
    }
}

impl Drop for Calibration {
    fn drop(&mut self) {
        for Helper { go, thread, .. } in self.helpers.drain(..) {
            drop(go);
            let _ = thread.join();
        }
    }
}

/// `host` (any unit) at reference speed, given the kernel's host ms
/// measured before and after it.
pub fn at_reference(host: f64, before_ms: f64, after_ms: f64) -> f64 {
    host * REF_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_compression_matches_the_standard() {
        // SHA-256("abc"), one padded block.
        let mut block = [0u8; 64];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[63] = 24;
        let h = sha256_passes(&block, 1);
        assert_eq!(h[0], 0xba7816bf);
        assert_eq!(h[7], 0xf20015ad);
    }

    #[test]
    fn kernel_work_is_fixed() {
        let mut fill = vec![0u8; 64];
        let a = kernel(&[7; 128], &mut fill, 3);
        assert_eq!(kernel(&[7; 128], &mut fill, 3), a);
        assert!(fill.iter().all(|&b| b == 3 + FILL_PASSES - 1));
    }

    #[test]
    fn times_scale_to_reference_speed() {
        // A unit twice the kernel's length reads twice REF_MS; a host
        // that runs everything at half speed changes nothing.
        assert_eq!(at_reference(20.0, 10.0, 10.0), 2.0 * REF_MS);
        assert_eq!(at_reference(40.0, 15.0, 25.0), 2.0 * REF_MS);
        let mut c = Calibration::new(2);
        assert!(c.sample_ms(1) > 0.0 && c.sample_ms(2) > 0.0);
    }
}
