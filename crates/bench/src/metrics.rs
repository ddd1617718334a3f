//! Integer-only structured metrics distilled from the observability
//! span stream ([`sea_hw::Obs`]), one value per suite experiment.
//!
//! Everything here is a `u64` of virtual nanoseconds or a plain count —
//! never a float — so [`ExperimentMetrics`] derives `Eq` and the suite's
//! byte-identity contract (serial vs parallel, any worker count) extends
//! to the structured rows, not just the rendered text.

use sea_hw::{Layer, LockStats, ObsSnapshot};

/// Contention attribution for one lock class, distilled from
/// [`sea_hw::RecordingSink::lock_stats`]: virtual time spent *waiting*
/// for the resource (queued behind other holders) and *holding* it,
/// charged separately so a bench row can say whether a lock is
/// contended or merely busy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockRow {
    /// Lock class name (`"tpm.gate"`, `"core.runtime"`,
    /// `"journal.seal"`, ...).
    pub class: String,
    /// The [`Layer`] the class charges to, as its JSON name.
    pub layer: String,
    /// Acquisitions recorded.
    pub acquisitions: u64,
    /// Total virtual wait (queued before the grant) in ns.
    pub wait_ns: u64,
    /// Total virtual hold (occupied after the grant) in ns.
    pub hold_ns: u64,
    /// Log₂ wait histogram bucket counts
    /// ([`sea_hw::LayerHistogram::buckets`]).
    pub wait_buckets: Vec<u64>,
}

/// Structured, machine-readable metrics for one suite experiment,
/// aggregated from the [`ObsSnapshot`] its instrumented run produced.
///
/// The per-layer attribution is fed exclusively by *leaf* charges (every
/// [`sea_hw::Machine::charge`] and bare-TPM command cost), so
/// `total_virtual_ns` is exactly the virtual time the experiment charged
/// — lifecycle frames bracket that time but never add to it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExperimentMetrics {
    /// Virtual time attributed to each layer in ns, ordered as
    /// [`Layer::ALL`] (hw, tpm, core, os).
    pub layer_ns: [u64; 4],
    /// Total attributed virtual time in ns — the sum of `layer_ns`.
    pub total_virtual_ns: u64,
    /// Leaf charges recorded.
    pub leaf_spans: u64,
    /// All spans recorded (leaves plus session-lifecycle frames).
    pub spans: u64,
    /// Named integer inputs of the experiment (runs, trials, jobs,
    /// seeds, ...), in insertion order.
    pub scalars: Vec<(&'static str, u64)>,
    /// Counters emitted through the span stream, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-lock-class contention rows, sorted by class name (the order
    /// [`sea_hw::RecordingSink::lock_stats`] returns).
    pub locks: Vec<LockRow>,
}

impl ExperimentMetrics {
    /// Aggregates a snapshot into metrics: per-layer histogram totals,
    /// span counts, and counters (already name-sorted by the sink).
    pub(crate) fn from_snapshot(snap: &ObsSnapshot) -> Self {
        let mut layer_ns = [0u64; 4];
        for (slot, layer) in layer_ns.iter_mut().zip(Layer::ALL) {
            *slot = snap.layer_total(layer).as_ns();
        }
        ExperimentMetrics {
            layer_ns,
            total_virtual_ns: snap.total().as_ns(),
            leaf_spans: snap.leaves().count() as u64,
            spans: snap.spans.len() as u64,
            scalars: Vec::new(),
            counters: snap.counters.clone(),
            locks: Vec::new(),
        }
    }

    /// Appends a named integer input (builder-style).
    pub(crate) fn with_scalar(mut self, name: &'static str, value: u64) -> Self {
        self.scalars.push((name, value));
        self
    }

    /// Attaches per-lock-class contention rows (builder-style), as
    /// returned by [`sea_hw::RecordingSink::lock_stats`].
    pub(crate) fn with_locks(mut self, stats: &[(String, LockStats)]) -> Self {
        self.locks = stats
            .iter()
            .map(|(class, s)| LockRow {
                class: class.clone(),
                layer: s.layer.as_str().to_string(),
                acquisitions: s.acquisitions,
                wait_ns: s.wait.as_ns(),
                hold_ns: s.hold.as_ns(),
                wait_buckets: s.wait_hist.buckets.to_vec(),
            })
            .collect();
        self
    }

    /// Total virtual lock-wait across all classes, in ns.
    pub(crate) fn lock_wait_ns(&self) -> u64 {
        self.locks.iter().map(|l| l.wait_ns).sum()
    }

    /// Total virtual lock-hold across all classes, in ns.
    pub(crate) fn lock_hold_ns(&self) -> u64 {
        self.locks.iter().map(|l| l.hold_ns).sum()
    }

    /// The attributed virtual time of one layer, in ns.
    pub fn layer(&self, layer: Layer) -> u64 {
        let idx = Layer::ALL
            .iter()
            .position(|l| *l == layer)
            .expect("layer in ALL");
        self.layer_ns[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_hw::{Obs, SimDuration};

    #[test]
    fn from_snapshot_sums_layers() {
        let (obs, sink) = Obs::recording();
        obs.leaf(Layer::Hw, "hw.reset", SimDuration::from_us(3));
        obs.leaf(Layer::Tpm, "tpm.seal", SimDuration::from_us(5));
        obs.open(Layer::Core, "session.step");
        obs.leaf(Layer::Core, "core.pal_work", SimDuration::from_us(7));
        obs.close();
        obs.add("core.retries", 2);

        let m = ExperimentMetrics::from_snapshot(&sink.snapshot());
        assert_eq!(m.layer(Layer::Hw), 3_000);
        assert_eq!(m.layer(Layer::Tpm), 5_000);
        assert_eq!(m.layer(Layer::Core), 7_000);
        assert_eq!(m.layer(Layer::Os), 0);
        assert_eq!(m.total_virtual_ns, 15_000);
        assert_eq!(m.leaf_spans, 3);
        assert_eq!(m.spans, 4);
        assert_eq!(m.counters, vec![("core.retries".to_string(), 2)]);
    }

    #[test]
    fn scalars_keep_insertion_order() {
        let m = ExperimentMetrics::default()
            .with_scalar("runs", 2)
            .with_scalar("jobs", 8);
        assert_eq!(m.scalars, vec![("runs", 2), ("jobs", 8)]);
    }

    #[test]
    fn empty_snapshot_is_default() {
        let (_obs, sink) = Obs::recording();
        let m = ExperimentMetrics::from_snapshot(&sink.snapshot());
        assert_eq!(m, ExperimentMetrics::default());
    }

    #[test]
    fn with_locks_distills_wait_and_hold() {
        let (obs, sink) = Obs::recording();
        obs.lock_event(
            "tpm.gate",
            Layer::Tpm,
            SimDuration::from_us(4),
            SimDuration::from_us(6),
        );
        obs.lock_event(
            "tpm.gate",
            Layer::Tpm,
            SimDuration::from_us(1),
            SimDuration::from_us(2),
        );
        obs.lock_event(
            "core.runtime",
            Layer::Core,
            SimDuration::ZERO,
            SimDuration::from_us(3),
        );

        let m = ExperimentMetrics::from_snapshot(&sink.snapshot()).with_locks(&sink.lock_stats());
        assert_eq!(m.locks.len(), 2);
        // Rows arrive sorted by class name.
        assert_eq!(m.locks[0].class, "core.runtime");
        assert_eq!(m.locks[0].layer, "core");
        assert_eq!(m.locks[0].acquisitions, 1);
        assert_eq!(m.locks[0].wait_ns, 0);
        assert_eq!(m.locks[0].hold_ns, 3_000);
        assert_eq!(m.locks[1].class, "tpm.gate");
        assert_eq!(m.locks[1].acquisitions, 2);
        assert_eq!(m.locks[1].wait_ns, 5_000);
        assert_eq!(m.locks[1].hold_ns, 8_000);
        assert_eq!(m.lock_wait_ns(), 5_000);
        assert_eq!(m.lock_hold_ns(), 11_000);
        // Lock events attribute contention only; they never inflate the
        // layer timeline the spans already account for.
        assert_eq!(m.total_virtual_ns, 0);
    }
}
