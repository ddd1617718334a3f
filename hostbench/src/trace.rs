//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span holds its name, start, end, parent and the unit it belongs to.
//! Spans stay in memory and are written out when the run ends. A span's
//! self time is its duration minus the durations of its children, so the
//! self times of one unit add up to the unit's host time exactly; the
//! root span's self time is the unit's unattributed remainder.
//!
//! Some layers cannot be reached from outside one call (a whole durable
//! batch, a whole fleet run). For those the benchmark *replays* the same
//! public calls on the same inputs after the real call returns, and files
//! the replayed spans as children of the real call's span: they stand in
//! for the part of the real call they reproduce, labelled `replayed`. The
//! wall time spent replaying is excluded from the unit's host time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent id of a unit's root span.
const NO_PARENT: u32 = u32::MAX;

/// Name of every unit's root span.
pub const ROOT: &str = "unit";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `tpm.quote`.
    pub name: &'static str,
    /// The unit the span belongs to.
    pub unit: u32,
    /// The span it is filed under ([`NO_PARENT`] for a unit's root).
    pub parent: u32,
    /// Host ns since the tracer was made.
    pub start_ns: u64,
    /// Host ns since the tracer was made.
    pub end_ns: u64,
    /// Whether the span replays a call standing in for part of its parent.
    pub replayed: bool,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// The layer breakdown of one traced unit.
#[derive(Debug, Clone, Default)]
pub struct UnitProfile {
    /// The unit's host time, replay sections excluded.
    pub host_ns: u64,
    /// Self time per span name; the root's is under [`ROOT`]. Signed: a
    /// replay that costs more than the real call it stands in for shows
    /// as a negative self time rather than being hidden.
    pub self_ns: BTreeMap<&'static str, i64>,
    /// Counts recorded during the unit.
    pub counts: BTreeMap<&'static str, f64>,
}

impl UnitProfile {
    /// Self time of `name` (0 when no such span ran).
    pub fn ns(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64
    }

    /// Count `name` (0 when never recorded).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Records spans and counts for the units of one traced run. A tracer
/// made with [`Tracer::off`] records nothing and costs one branch per
/// call, so the same code path serves the untraced comparison.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    unit: u32,
    replay_under: Option<u32>,
    replay_started: Option<Instant>,
    replay_ns: BTreeMap<u32, u64>,
    counts: BTreeMap<u32, BTreeMap<&'static str, f64>>,
    unit_started: Option<Instant>,
    unit_replay_ns: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
            replay_under: None,
            replay_started: None,
            replay_ns: BTreeMap::new(),
            counts: BTreeMap::new(),
            unit_started: None,
            unit_replay_ns: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span under the innermost open span. While a replay
    /// section is open, spans opened directly under the root are filed
    /// under the replayed real span instead.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let (parent, replayed) = match (self.replay_under, self.stack.len()) {
            (Some(real), 1) => (real, true),
            (_, 0) => (NO_PARENT, false),
            _ => {
                let top = self.stack[self.stack.len() - 1];
                (top, self.spans[top as usize].replayed)
            }
        };
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent,
            start_ns,
            end_ns: start_ns,
            replayed,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span, and
    /// returns its duration in host ns (0 when tracing is off).
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(id) = open.0 else { return 0 };
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        span.dur()
    }

    /// Closes `open` under the name `name`, for calls whose layer is
    /// known only from their result.
    pub fn end_as(&mut self, open: Open, name: &'static str) -> u64 {
        if let Some(id) = open.0 {
            self.spans[id as usize].name = name;
        }
        self.end(open)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Opens the next unit's root span. The unit's host time is taken
    /// whether or not tracing is on; see [`Tracer::end_unit`].
    pub fn begin_unit(&mut self) -> Open {
        if self.on {
            self.unit += 1;
            assert!(self.stack.is_empty(), "units do not nest");
        }
        self.unit_started = Some(Instant::now());
        self.unit_replay_ns = 0;
        self.begin(ROOT)
    }

    /// Closes the unit's root span and returns the unit's host time in
    /// ns, replay sections excluded.
    pub fn end_unit(&mut self, root: Open) -> u64 {
        self.end(root);
        let started = self.unit_started.take().expect("a unit is open");
        started.elapsed().as_nanos() as u64 - self.unit_replay_ns
    }

    /// Starts a replay section standing in for the closed real span
    /// `real`; only the unit's root may be open.
    pub fn begin_replay(&mut self, real: Open) {
        if let (Some(real), true) = (real.0, self.on) {
            assert_eq!(self.stack.len(), 1, "replays run directly under the root");
            self.replay_under = Some(real);
            self.replay_started = Some(Instant::now());
        }
    }

    /// Ends the open replay section.
    pub fn end_replay(&mut self) {
        if let Some(started) = self.replay_started.take() {
            self.replay_under = None;
            let ns = started.elapsed().as_nanos() as u64;
            *self.replay_ns.entry(self.unit).or_default() += ns;
            self.unit_replay_ns += ns;
        }
    }

    /// Adds `value` to the current unit's count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self
                .counts
                .entry(self.unit)
                .or_default()
                .entry(name)
                .or_default() += value;
        }
    }

    /// The breakdown of unit `unit` (numbered from 1).
    pub fn profile(&self, unit: u32) -> UnitProfile {
        let spans: Vec<(u32, &Span)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.unit == unit)
            .map(|(i, s)| (i as u32, s))
            .collect();
        let mut children: BTreeMap<u32, u64> = BTreeMap::new();
        for (_, s) in &spans {
            *children.entry(s.parent).or_default() += s.dur();
        }
        let replay = self.replay_ns.get(&unit).copied().unwrap_or(0);
        let mut profile = UnitProfile {
            counts: self.counts.get(&unit).cloned().unwrap_or_default(),
            ..UnitProfile::default()
        };
        for (id, s) in spans {
            let mut own = s.dur() as i64 - children.get(&id).copied().unwrap_or(0) as i64;
            if s.parent == NO_PARENT {
                profile.host_ns = s.dur() - replay;
                own -= replay as i64;
            }
            *profile.self_ns.entry(s.name).or_default() += own;
        }
        profile
    }

    /// Number of units opened so far.
    pub fn units(&self) -> u32 {
        self.unit
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"unit\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}",
                s.unit, id, parent, s.name, s.start_ns, s.end_ns, s.replayed
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {}
    }

    #[test]
    fn self_times_sum_to_the_unit_host_time() {
        let mut t = Tracer::on();
        let root = t.begin_unit();
        t.time("a", || spin(200));
        let real = t.begin("b");
        spin(400);
        t.end(real);
        t.begin_replay(real);
        t.time("b.part", || spin(100));
        t.end_replay();
        let host = t.end_unit(root);

        let p = t.profile(1);
        let sum: i64 = p.self_ns.values().sum();
        assert_eq!(sum, p.host_ns as i64);
        assert!(host.abs_diff(p.host_ns) < 50_000);
        assert!(p.ns("b.part") > 0.0);
        // The replayed part is carved out of the real span, not added.
        assert!(p.ns("b") + p.ns("b.part") < p.host_ns as f64);
        assert!(p.ns(ROOT) >= 0.0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let root = t.begin_unit();
        t.time("a", || ());
        t.count("c", 1.0);
        assert!(t.end_unit(root) > 0);
        assert_eq!(t.units(), 0);
        assert!(t.to_jsonl().is_empty());
    }
}
