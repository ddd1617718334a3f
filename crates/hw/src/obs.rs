//! The structured observability layer: virtual-time spans, counters,
//! and fixed-bucket histograms shared by every crate in the workspace.
//!
//! The paper's whole contribution is a *measurement* argument — Tables
//! 1–2 and Figures 2–3 stand or fall on careful latency accounting — so
//! every layer of this reproduction emits into one instrumentation
//! pipeline instead of keeping private tallies. The design follows the
//! SoK observation that TEE designs are only comparable through
//! uniform, layer-attributed cost breakdowns:
//!
//! * **Leaf spans** are emitted at the exact call sites where virtual
//!   time is charged to the machine clock (see `Machine::charge` in
//!   this crate, and the engine layers above). A leaf span advances its
//!   *track cursor* by the charged [`SimDuration`] and feeds the
//!   per-layer histograms, so "sum of leaf spans" and "total charged
//!   time" agree *by construction*.
//! * **Interior spans** (session lifecycle frames such as
//!   `session.step`) open at the current cursor and close at the cursor
//!   reached after their children — they group leaves without adding
//!   time, which makes the span tree well-nested by construction.
//! * **Tracks** keep concurrent emitters deterministic: each session is
//!   charged on the track of its stable session *key*, and platform-wide
//!   work (resets, journal checkpoints) lands on [`PLATFORM_TRACK`].
//!   Span offsets are *track-relative*, never absolute machine time, so
//!   a 4-worker batch records byte-identical tracks to a 1-worker run
//!   even though the shared clock interleaves differently.
//!
//! Everything is integer nanoseconds; no floats, no wall-clock reads,
//! no allocation on the null path. Sinks are `Send + Sync`, so
//! `SessionEngine` workers emit through the same handle they already
//! serialize on (the engine lock).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::time::SimDuration;

/// Track used for platform-scoped charges that belong to no single
/// session: power-loss reboots, journal checkpoints, recovery unseals.
pub const PLATFORM_TRACK: u64 = u64::MAX;

/// Number of logarithmic histogram buckets. Bucket `i` counts leaf
/// durations `d` with `i == bit_length(d.as_ns())` (bucket 0 holds
/// zero-length charges); the last bucket absorbs everything larger.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// The layer a span or histogram sample is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Hardware substrate: CPU init, VM entry/exit, LPC transfers,
    /// interrupt routing, platform resets.
    Hw,
    /// TPM commands: seals, unseals, quotes, measurements, transport
    /// faults.
    Tpm,
    /// Session engine: PAL work, recovery backoff.
    Core,
    /// Scheduler/OS bookkeeping.
    Os,
}

impl Layer {
    /// Every layer, in canonical (serialization) order.
    pub const ALL: [Layer; 4] = [Layer::Hw, Layer::Tpm, Layer::Core, Layer::Os];

    /// Stable lower-case name used in artifacts and `BENCH_suite.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Hw => "hw",
            Layer::Tpm => "tpm",
            Layer::Core => "core",
            Layer::Os => "os",
        }
    }

    fn index(self) -> usize {
        match self {
            Layer::Hw => 0,
            Layer::Tpm => 1,
            Layer::Core => 2,
            Layer::Os => 3,
        }
    }
}

/// Whether a span carries charged time (leaf) or only groups children
/// (interior lifecycle frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Emitted by a charge site; advances the track cursor by
    /// `end - start` and feeds the layer histogram.
    Leaf,
    /// A lifecycle frame opened/closed around child spans; adds no time
    /// of its own.
    Interior,
}

/// One recorded span. `start`/`end` are offsets on the span's track
/// (cursor positions), not absolute machine time — that is what keeps
/// multi-worker runs byte-identical to serial ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The track (session key, or [`PLATFORM_TRACK`]) charged.
    pub track: u64,
    /// Emission order within the track (pre-order over the span tree).
    pub seq: u64,
    /// Nesting depth at emission (0 = top level).
    pub depth: u16,
    /// Layer attribution.
    pub layer: Layer,
    /// Operation name (`"tpm.seal"`, `"session.step"`, ...).
    pub op: &'static str,
    /// Track-relative start offset.
    pub start: SimDuration,
    /// Track-relative end offset.
    pub end: SimDuration,
    /// Leaf or interior.
    pub kind: SpanKind,
}

impl SpanRecord {
    /// The span's extent (`end - start`).
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_ns(self.end.as_ns() - self.start.as_ns())
    }
}

/// Deterministic fixed-bucket histogram of one layer's leaf durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerHistogram {
    /// Number of leaf spans recorded.
    pub count: u64,
    /// Sum of all recorded leaf durations.
    pub total: SimDuration,
    /// Log₂ buckets: bucket `i` counts durations whose nanosecond value
    /// has bit-length `i` (0 ⇒ zero-length), saturating at the top.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for LayerHistogram {
    fn default() -> Self {
        LayerHistogram {
            count: 0,
            total: SimDuration::ZERO,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl LayerHistogram {
    /// The bucket index a duration falls into.
    fn bucket_of(d: SimDuration) -> usize {
        let bits = (u64::BITS - d.as_ns().leading_zeros()) as usize;
        bits.min(HISTOGRAM_BUCKETS - 1)
    }

    fn record(&mut self, d: SimDuration) {
        self.count += 1;
        self.total += d;
        self.buckets[Self::bucket_of(d)] += 1;
    }
}

/// Accumulated contention statistics for one lock (or gate) class.
///
/// Lock events ride a side channel next to the span stream: they attribute
/// *waiting* (virtual time queued behind another holder) separately from
/// *holding* (virtual time the resource was occupied doing charged work).
/// They deliberately do not appear in [`ObsSnapshot`] — hold times are
/// already charged to layers through the ordinary leaf stream, so folding
/// them into `layers` would double-count; read them through
/// [`RecordingSink::lock_stats`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockStats {
    /// The layer this lock class belongs to (e.g. the TPM command gate
    /// charges to [`Layer::Tpm`]).
    pub layer: Layer,
    /// Number of acquisitions recorded.
    pub acquisitions: u64,
    /// Total virtual time spent queued before the grant.
    pub wait: SimDuration,
    /// Total virtual time the resource stayed occupied after the grant.
    pub hold: SimDuration,
    /// Log₂ histogram of individual wait durations (same bucketing as
    /// [`LayerHistogram`]).
    pub wait_hist: LayerHistogram,
}

impl LockStats {
    fn new(layer: Layer) -> Self {
        LockStats {
            layer,
            acquisitions: 0,
            wait: SimDuration::ZERO,
            hold: SimDuration::ZERO,
            wait_hist: LayerHistogram::default(),
        }
    }
}

/// A point-in-time copy of everything a recording sink has gathered.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsSnapshot {
    /// All spans, ordered by `(track, seq)`.
    pub spans: Vec<SpanRecord>,
    /// Monotonic counters, ordered by name.
    pub counters: Vec<(String, u64)>,
    /// Per-layer leaf histograms, indexed by `Layer::index` order
    /// (i.e. [`Layer::ALL`]).
    pub layers: [LayerHistogram; 4],
}

impl ObsSnapshot {
    /// Total charged time attributed to `layer`.
    pub fn layer_total(&self, layer: Layer) -> SimDuration {
        self.layers[layer.index()].total
    }

    /// Total charged time across every layer — the snapshot's notion of
    /// "total virtual time observed".
    pub fn total(&self) -> SimDuration {
        Layer::ALL.iter().map(|&l| self.layer_total(l)).sum()
    }

    /// The value of a counter, `0` if never bumped.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Leaf spans only (the ones that carried charged time).
    pub fn leaves(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(|s| s.kind == SpanKind::Leaf)
    }
}

/// Where spans, counters, and histogram samples go. Implementations
/// must be cheap when disabled and safe to share across threads.
pub trait Sink: Send + Sync {
    /// Whether this sink records anything (lets hot paths skip work).
    fn enabled(&self) -> bool;
    /// Selects the track subsequent ambient emissions charge to.
    fn set_track(&self, track: u64);
    /// Opens an interior span on the current track.
    fn open(&self, layer: Layer, op: &'static str);
    /// Closes the innermost open interior span on the current track.
    fn close(&self);
    /// Records a leaf span of `d` on the current track.
    fn leaf(&self, layer: Layer, op: &'static str, d: SimDuration);
    /// Records a leaf span of `d` on an explicit track, leaving the
    /// current track untouched (used for [`PLATFORM_TRACK`] charges).
    fn leaf_on(&self, track: u64, layer: Layer, op: &'static str, d: SimDuration);
    /// Bumps a named counter.
    fn add(&self, counter: &'static str, n: u64);
    /// Records one acquisition of lock class `class`: `wait` virtual time
    /// queued before the grant, `hold` virtual time occupied after it.
    /// Defaults to dropping the event so span-only sinks need no change.
    fn lock_event(&self, class: &'static str, layer: Layer, wait: SimDuration, hold: SimDuration) {
        let _ = (class, layer, wait, hold);
    }
}

/// A sink that drops everything (the default wiring).
#[derive(Debug, Default, Clone, Copy)]
struct NullSink;

impl Sink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn set_track(&self, _track: u64) {}
    fn open(&self, _layer: Layer, _op: &'static str) {}
    fn close(&self) {}
    fn leaf(&self, _layer: Layer, _op: &'static str, _d: SimDuration) {}
    fn leaf_on(&self, _track: u64, _layer: Layer, _op: &'static str, _d: SimDuration) {}
    fn add(&self, _counter: &'static str, _n: u64) {}
}

/// Per-track recording state: the cursor, the open-frame stack, and the
/// spans emitted so far.
#[derive(Debug, Default)]
struct TrackState {
    cursor: SimDuration,
    seq: u64,
    /// Indices into `spans` of the currently-open interior frames.
    open: Vec<usize>,
    spans: Vec<SpanRecord>,
}

impl TrackState {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

#[derive(Debug, Default)]
struct RecordingInner {
    current: u64,
    tracks: BTreeMap<u64, TrackState>,
    counters: BTreeMap<&'static str, u64>,
    layers: [LayerHistogram; 4],
    locks: BTreeMap<&'static str, LockStats>,
}

impl RecordingInner {
    fn leaf_on_track(&mut self, track: u64, layer: Layer, op: &'static str, d: SimDuration) {
        self.layers[layer.index()].record(d);
        let t = self.tracks.entry(track).or_default();
        let seq = t.next_seq();
        let start = t.cursor;
        let end = start + d;
        t.cursor = end;
        let depth = t.open.len() as u16;
        t.spans.push(SpanRecord {
            track,
            seq,
            depth,
            layer,
            op,
            start,
            end,
            kind: SpanKind::Leaf,
        });
    }
}

/// The recording sink: deterministic, integer-only, lock-per-emission.
///
/// Emission order within one track is the program order of that
/// session's operations (each engine operation runs under the engine
/// lock), so per-track contents are independent of worker interleaving.
#[derive(Debug, Default)]
pub struct RecordingSink {
    inner: Mutex<RecordingInner>,
}

impl RecordingSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// Copies out everything recorded so far, spans ordered by
    /// `(track, seq)`. Open interior frames are closed at the current
    /// cursor in the copy (the live state is unaffected).
    pub fn snapshot(&self) -> ObsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut spans = Vec::new();
        for t in inner.tracks.values() {
            let mut track_spans = t.spans.clone();
            for &i in &t.open {
                track_spans[i].end = t.cursor;
            }
            spans.extend(track_spans);
        }
        ObsSnapshot {
            spans,
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
            layers: inner.layers.clone(),
        }
    }

    /// Copies out the per-class lock statistics, ordered by class name.
    ///
    /// Kept out of [`ObsSnapshot`] on purpose: hold time is already
    /// attributed through the leaf stream, so these are a parallel view
    /// for contention analysis, not part of the charged-time identity the
    /// snapshot equality tests pin.
    pub fn lock_stats(&self) -> Vec<(String, LockStats)> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .locks
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect()
    }
}

impl Sink for RecordingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn set_track(&self, track: u64) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).current = track;
    }

    fn open(&self, layer: Layer, op: &'static str) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let track = inner.current;
        let t = inner.tracks.entry(track).or_default();
        let seq = t.next_seq();
        let start = t.cursor;
        let depth = t.open.len() as u16;
        let index = t.spans.len();
        t.spans.push(SpanRecord {
            track,
            seq,
            depth,
            layer,
            op,
            start,
            end: start,
            kind: SpanKind::Interior,
        });
        t.open.push(index);
    }

    fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let track = inner.current;
        let Some(t) = inner.tracks.get_mut(&track) else {
            return;
        };
        if let Some(index) = t.open.pop() {
            t.spans[index].end = t.cursor;
        }
    }

    fn leaf(&self, layer: Layer, op: &'static str, d: SimDuration) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let track = inner.current;
        inner.leaf_on_track(track, layer, op, d);
    }

    fn leaf_on(&self, track: u64, layer: Layer, op: &'static str, d: SimDuration) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.leaf_on_track(track, layer, op, d);
    }

    fn add(&self, counter: &'static str, n: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        *inner.counters.entry(counter).or_insert(0) += n;
    }

    fn lock_event(&self, class: &'static str, layer: Layer, wait: SimDuration, hold: SimDuration) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let stats = inner
            .locks
            .entry(class)
            .or_insert_with(|| LockStats::new(layer));
        stats.acquisitions += 1;
        stats.wait += wait;
        stats.hold += hold;
        stats.wait_hist.record(wait);
    }
}

/// A cheap, cloneable handle to a [`Sink`], embedded in [`crate::Machine`]
/// and the TPM. Defaults to the null sink.
#[derive(Clone)]
pub struct Obs(Arc<dyn Sink>);

impl Default for Obs {
    fn default() -> Self {
        Obs::null()
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.0.enabled())
            .finish()
    }
}

impl Obs {
    /// The no-op handle.
    pub fn null() -> Self {
        Obs(Arc::new(NullSink))
    }

    /// A handle over a caller-supplied sink.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Obs(sink)
    }

    /// A fresh recording sink plus the handle that feeds it.
    pub fn recording() -> (Obs, Arc<RecordingSink>) {
        let sink = Arc::new(RecordingSink::new());
        (Obs(sink.clone()), sink)
    }

    /// Whether emissions are recorded.
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Selects the ambient track (usually a session key).
    pub fn set_track(&self, track: u64) {
        self.0.set_track(track);
    }

    /// Opens an interior span on the ambient track.
    pub fn open(&self, layer: Layer, op: &'static str) {
        self.0.open(layer, op);
    }

    /// Closes the innermost open interior span on the ambient track.
    pub fn close(&self) {
        self.0.close();
    }

    /// Records a charged leaf span on the ambient track.
    pub fn leaf(&self, layer: Layer, op: &'static str, d: SimDuration) {
        self.0.leaf(layer, op, d);
    }

    /// Records a charged leaf span on an explicit track.
    pub fn leaf_on(&self, track: u64, layer: Layer, op: &'static str, d: SimDuration) {
        self.0.leaf_on(track, layer, op, d);
    }

    /// Bumps a named counter.
    pub fn add(&self, counter: &'static str, n: u64) {
        self.0.add(counter, n);
    }

    /// Records one lock acquisition on class `class` (see
    /// [`Sink::lock_event`]).
    pub fn lock_event(
        &self,
        class: &'static str,
        layer: Layer,
        wait: SimDuration,
        hold: SimDuration,
    ) {
        self.0.lock_event(class, layer, wait, hold);
    }
}

/// Checks that `spans` (one snapshot's worth, ordered `(track, seq)`)
/// form a well-nested forest per track: every span lies inside its
/// enclosing interior frame and does not overlap a sibling. Returns the
/// first violation as a human-readable message.
///
/// This is the invariant the observability property tests assert; it
/// holds by construction because leaves advance the cursor and interior
/// frames only bracket it.
pub fn check_well_nested(spans: &[SpanRecord]) -> Result<(), String> {
    let mut by_track: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_track.entry(s.track).or_default().push(s);
    }
    for (track, track_spans) in by_track {
        // (depth, start, end) of currently-open ancestors plus the most
        // recently closed span per depth (for sibling-overlap checks).
        let mut stack: Vec<(u16, SimDuration, SimDuration)> = Vec::new();
        for s in track_spans {
            if s.end < s.start {
                return Err(format!("track {track}: span {} ends before start", s.op));
            }
            while let Some(&(d, _, _)) = stack.last() {
                if d >= s.depth {
                    stack.pop();
                } else {
                    break;
                }
            }
            if s.depth as usize != stack.len() {
                return Err(format!(
                    "track {track}: span {} at depth {} but {} ancestors open",
                    s.op,
                    s.depth,
                    stack.len()
                ));
            }
            if let Some(&(_, pstart, pend)) = stack.last() {
                if s.start < pstart || s.end > pend {
                    return Err(format!(
                        "track {track}: span {} [{}, {}] escapes its parent [{pstart}, {pend}]",
                        s.op, s.start, s.end
                    ));
                }
            }
            stack.push((s.depth, s.start, s.end));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let obs = Obs::null();
        assert!(!obs.enabled());
        obs.open(Layer::Core, "x");
        obs.leaf(Layer::Tpm, "y", SimDuration::from_us(1));
        obs.close();
        obs.add("c", 3);
    }

    #[test]
    fn leaves_advance_the_cursor_and_feed_histograms() {
        let (obs, sink) = Obs::recording();
        obs.leaf(Layer::Tpm, "tpm.seal", SimDuration::from_ms(20));
        obs.leaf(Layer::Hw, "hw.vm_exit", SimDuration::from_ns(490));
        let snap = sink.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].start, SimDuration::ZERO);
        assert_eq!(snap.spans[0].end, SimDuration::from_ms(20));
        assert_eq!(snap.spans[1].start, SimDuration::from_ms(20));
        assert_eq!(snap.layer_total(Layer::Tpm), SimDuration::from_ms(20));
        assert_eq!(snap.layer_total(Layer::Hw), SimDuration::from_ns(490));
        assert_eq!(
            snap.total(),
            SimDuration::from_ms(20) + SimDuration::from_ns(490)
        );
        assert_eq!(snap.layers[Layer::Tpm.index()].count, 1);
    }

    #[test]
    fn interior_frames_bracket_their_children() {
        let (obs, sink) = Obs::recording();
        obs.open(Layer::Core, "session.step");
        obs.leaf(Layer::Tpm, "tpm.seal", SimDuration::from_ms(1));
        obs.leaf(Layer::Core, "core.pal_work", SimDuration::from_ms(2));
        obs.close();
        obs.leaf(Layer::Hw, "hw.vm_exit", SimDuration::from_us(1));
        let snap = sink.snapshot();
        let frame = &snap.spans[0];
        assert_eq!(frame.kind, SpanKind::Interior);
        assert_eq!(frame.start, SimDuration::ZERO);
        assert_eq!(frame.end, SimDuration::from_ms(3));
        assert_eq!(snap.spans[1].depth, 1);
        check_well_nested(&snap.spans).unwrap();
        // Interior frames add no charged time.
        assert_eq!(
            snap.total(),
            SimDuration::from_ms(3) + SimDuration::from_us(1)
        );
    }

    #[test]
    fn tracks_are_independent_and_sorted() {
        let (obs, sink) = Obs::recording();
        obs.set_track(7);
        obs.leaf(Layer::Core, "a", SimDuration::from_us(5));
        obs.set_track(3);
        obs.leaf(Layer::Core, "b", SimDuration::from_us(9));
        obs.leaf_on(
            PLATFORM_TRACK,
            Layer::Hw,
            "hw.reset",
            SimDuration::from_ms(1),
        );
        obs.set_track(7);
        obs.leaf(Layer::Core, "c", SimDuration::from_us(1));
        let snap = sink.snapshot();
        let tracks: Vec<u64> = snap.spans.iter().map(|s| s.track).collect();
        assert_eq!(tracks, vec![3, 7, 7, PLATFORM_TRACK]);
        // Each track's cursor starts at zero and is private to it.
        assert_eq!(snap.spans[0].start, SimDuration::ZERO);
        assert_eq!(snap.spans[1].start, SimDuration::ZERO);
        assert_eq!(snap.spans[2].start, SimDuration::from_us(5));
        check_well_nested(&snap.spans).unwrap();
    }

    #[test]
    fn counters_accumulate_sorted_by_name() {
        let (obs, sink) = Obs::recording();
        obs.add("os.steps", 2);
        obs.add("os.enqueued", 1);
        obs.add("os.steps", 3);
        let snap = sink.snapshot();
        assert_eq!(snap.counter("os.steps"), 5);
        assert_eq!(snap.counter("os.enqueued"), 1);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.counters[0].0, "os.enqueued");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LayerHistogram::bucket_of(SimDuration::ZERO), 0);
        assert_eq!(LayerHistogram::bucket_of(SimDuration::from_ns(1)), 1);
        assert_eq!(LayerHistogram::bucket_of(SimDuration::from_ns(2)), 2);
        assert_eq!(LayerHistogram::bucket_of(SimDuration::from_ns(3)), 2);
        assert_eq!(
            LayerHistogram::bucket_of(SimDuration::from_ms(10_000_000)),
            HISTOGRAM_BUCKETS - 1
        );
    }

    #[test]
    fn check_well_nested_catches_escapes() {
        let bad = vec![
            SpanRecord {
                track: 0,
                seq: 0,
                depth: 0,
                layer: Layer::Core,
                op: "parent",
                start: SimDuration::ZERO,
                end: SimDuration::from_us(1),
                kind: SpanKind::Interior,
            },
            SpanRecord {
                track: 0,
                seq: 1,
                depth: 1,
                layer: Layer::Tpm,
                op: "child",
                start: SimDuration::ZERO,
                end: SimDuration::from_us(2),
                kind: SpanKind::Leaf,
            },
        ];
        assert!(check_well_nested(&bad).is_err());
    }

    #[test]
    fn lock_events_accumulate_per_class_and_stay_out_of_snapshots() {
        let (obs, sink) = Obs::recording();
        obs.lock_event(
            "tpm.gate",
            Layer::Tpm,
            SimDuration::from_us(3),
            SimDuration::from_us(7),
        );
        obs.lock_event(
            "tpm.gate",
            Layer::Tpm,
            SimDuration::ZERO,
            SimDuration::from_us(5),
        );
        obs.lock_event(
            "core.runtime",
            Layer::Core,
            SimDuration::ZERO,
            SimDuration::from_us(1),
        );

        let stats = sink.lock_stats();
        assert_eq!(stats.len(), 2);
        // BTreeMap order: class names sorted.
        assert_eq!(stats[0].0, "core.runtime");
        assert_eq!(stats[1].0, "tpm.gate");
        let gate = &stats[1].1;
        assert_eq!(gate.layer, Layer::Tpm);
        assert_eq!(gate.acquisitions, 2);
        assert_eq!(gate.wait, SimDuration::from_us(3));
        assert_eq!(gate.hold, SimDuration::from_us(12));
        assert_eq!(gate.wait_hist.count, 2);
        assert_eq!(gate.wait_hist.total, SimDuration::from_us(3));

        // The side channel must not perturb the span/counter snapshot.
        let snap = sink.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert_eq!(snap.total(), SimDuration::ZERO);
    }

    #[test]
    fn null_sink_drops_lock_events() {
        let obs = Obs::null();
        obs.lock_event(
            "tpm.gate",
            Layer::Tpm,
            SimDuration::from_us(1),
            SimDuration::from_us(1),
        );
    }

    #[test]
    fn obs_handle_is_send_sync_and_debug() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
        assert_send_sync::<RecordingSink>();
        let (obs, _sink) = Obs::recording();
        assert!(format!("{obs:?}").contains("enabled"));
    }
}
