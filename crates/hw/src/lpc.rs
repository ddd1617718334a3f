//! The Low Pin Count (LPC) bus connecting the TPM to the south bridge.
//!
//! Table 1 of the paper shows that `SKINIT` latency is dominated by
//! pushing the PAL across this bus to the TPM: the bus peaks at
//! 16.67 MB/s, and the TPM may additionally stretch every
//! `TPM_HASH_DATA` transfer (1–4 bytes each) to the *long wait cycle*
//! of the LPC control-flow mechanism. The paper measures ≈8.82 ms for a
//! 64 KB transfer with no TPM attached (≈134.6 ns/B — close to but below
//! peak bandwidth) and ≈177.52 ms with the Broadcom TPM attached
//! (≈2.71 µs/B) — a ~20× slowdown caused entirely by TPM wait states.

use crate::time::SimDuration;

/// A model of the LPC bus with a fixed effective per-byte cost.
///
/// # Example
///
/// ```
/// use sea_hw::LpcBus;
///
/// // The Tyan n3600R's measured effective rate (no TPM wait states).
/// let bus = LpcBus::new(134.6);
/// let t = bus.transfer_time(64 * 1024);
/// assert!((t.as_ms_f64() - 8.82).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpcBus {
    ns_per_byte: f64,
}

impl LpcBus {
    /// Creates a bus with the given effective transfer cost in
    /// nanoseconds per byte.
    ///
    /// # Panics
    ///
    /// Panics if `ns_per_byte` is not finite and positive.
    pub fn new(ns_per_byte: f64) -> Self {
        assert!(
            ns_per_byte.is_finite() && ns_per_byte > 0.0,
            "ns_per_byte must be positive and finite"
        );
        LpcBus { ns_per_byte }
    }

    /// Time to move `bytes` bytes across the bus.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_ns_f64(bytes as f64 * self.ns_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_linearly() {
        let bus = LpcBus::new(100.0);
        assert_eq!(bus.transfer_time(0), SimDuration::ZERO);
        assert_eq!(
            bus.transfer_time(2000).as_ns(),
            2 * bus.transfer_time(1000).as_ns()
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_panics() {
        let _ = LpcBus::new(0.0);
    }
}
