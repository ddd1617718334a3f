//! Virtual time: the simulator's only notion of time.
//!
//! Every latency in the reproduction — `SKINIT` transfer costs, TPM RSA
//! operations, VM entries — is accounted in nanoseconds of *virtual* time
//! advanced on a [`SimClock`]. This makes every experiment deterministic
//! and lets the benchmark harness report the same quantities the paper's
//! tables report without depending on host hardware.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration of virtual time, in nanoseconds.
///
/// # Example
///
/// ```
/// use sea_hw::SimDuration;
///
/// let d = SimDuration::from_ms(177); // the paper's 64 KB SKINIT cost
/// assert_eq!(d.as_ns(), 177_000_000);
/// assert!((d.as_ms_f64() - 177.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Constructs from a fractional count of milliseconds (saturating at
    /// zero for negative inputs).
    pub fn from_ms_f64(ms: f64) -> Self {
        SimDuration((ms.max(0.0) * 1e6).round() as u64)
    }

    /// Constructs from a fractional count of nanoseconds (saturating at
    /// zero for negative inputs).
    pub fn from_ns_f64(ns: f64) -> Self {
        SimDuration(ns.max(0.0).round() as u64)
    }

    /// The duration in whole nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// The duration in fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The duration in fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2} ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.2} µs", self.as_us_f64())
        } else {
            write!(f, "{} ns", self.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics on underflow; use [`SimDuration::saturating_sub`] otherwise.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// An instant of virtual time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from nanoseconds since simulation start.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is later than self"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_ns())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_ns();
    }
}

/// The simulation's monotonic clock.
///
/// # Example
///
/// ```
/// use sea_hw::{SimClock, SimDuration};
///
/// let mut clock = SimClock::new();
/// let start = clock.now();
/// clock.advance(SimDuration::from_us(3));
/// assert_eq!(clock.now().duration_since(start), SimDuration::from_us(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// Creates a clock at the simulation epoch.
    pub fn new() -> Self {
        SimClock { now: SimTime::ZERO }
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances virtual time by `d`.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Advances the clock to `t` if `t` is in the future; otherwise leaves
    /// it unchanged. Returns the (possibly unchanged) current time.
    ///
    /// Used by the multi-core scheduler where independent per-CPU
    /// completion times join back into the global timeline.
    pub fn advance_to(&mut self, t: SimTime) -> SimTime {
        if t > self.now {
            self.now = t;
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_us(1), SimDuration::from_ns(1_000));
        assert_eq!(SimDuration::from_ms(1), SimDuration::from_us(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_ms(1_000));
        assert_eq!(SimDuration::from_ms_f64(1.5), SimDuration::from_us(1_500));
        assert_eq!(SimDuration::from_ns_f64(2.4), SimDuration::from_ns(2));
        assert_eq!(SimDuration::from_ns_f64(-5.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_ms(2);
        let b = SimDuration::from_ms(3);
        assert_eq!(a + b, SimDuration::from_ms(5));
        assert_eq!(b - a, SimDuration::from_ms(1));
        assert_eq!(a * 4, SimDuration::from_ms(8));
        assert_eq!(b / 3, SimDuration::from_ms(1));
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        let total: SimDuration = [a, b, a].into_iter().sum();
        assert_eq!(total, SimDuration::from_ms(7));
    }

    #[test]
    #[should_panic(expected = "SimDuration underflow")]
    fn sub_underflow_panics() {
        let _ = SimDuration::from_ms(1) - SimDuration::from_ms(2);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_ns(17).to_string(), "17 ns");
        assert_eq!(SimDuration::from_us(2).to_string(), "2.00 µs");
        assert_eq!(SimDuration::from_ms(15).to_string(), "15.00 ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000 s");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SimClock::new();
        c.advance(SimDuration::from_ms(5));
        let t5 = c.now();
        c.advance_to(SimTime::from_ns(1)); // in the past: no-op
        assert_eq!(c.now(), t5);
        c.advance_to(SimTime::from_ns(10_000_000));
        assert_eq!(c.now(), SimTime::from_ns(10_000_000));
    }

    #[test]
    fn time_duration_roundtrip() {
        let t0 = SimTime::from_ns(100);
        let t1 = t0 + SimDuration::from_ns(50);
        assert_eq!(t1.duration_since(t0), SimDuration::from_ns(50));
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn duration_since_backwards_panics() {
        let _ = SimTime::from_ns(1).duration_since(SimTime::from_ns(2));
    }

    #[test]
    fn clock_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimClock>();
    }
}
