//! Deterministic observability: a metrics registry (counters, gauges,
//! fixed-bucket histograms) and a bounded structured event tracer.
//!
//! Everything here is std-only and designed around the repo's determinism
//! contract: snapshots are rendered in sorted name order, histograms use a
//! pure power-of-two bucket function, and *time* is always a logical clock
//! (VM instruction fuel, simulated cycles, request sequence numbers) —
//! never wall-clock. A registry fed exclusively from exactly-once
//! computations (the `RunCache` guarantees per-key exactly-once execution)
//! therefore snapshots to byte-identical text at any `--jobs` level.
//!
//! Hot-path cost: metric handles are `Arc`-shared atomics — registration
//! allocates once, updates are a single atomic RMW with no allocation.
//! Trace events are `Copy` (`&'static str` label + integer fields) written
//! into a preallocated ring, so recording never allocates either.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of histogram buckets: bucket 0 holds zero values, bucket `i`
/// (1..=64) holds values in `[2^(i-1), 2^i)`. Covers all of `u64` with a
/// pure function — no configuration, no float math, no clamping surprises.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value falls into: 0 for 0, else `floor(log2(v)) + 1`.
/// Pure — byte-identical bucketing everywhere, forever.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of a bucket (the inverse of [`bucket_index`]):
/// bucket 0 starts at 0, bucket `i >= 1` at `2^(i-1)`.
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// A monotonically increasing counter handle. Clone freely; all clones
/// share the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (saturating at `u64::MAX` is not needed — counters count
    /// events, and 2^64 events do not happen).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeInner {
    value: AtomicU64,
    max: AtomicU64,
}

/// A gauge: a settable level plus its high-water mark.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    /// Sets the current level, raising the high-water mark if exceeded.
    pub fn set(&self, v: u64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Highest level ever set.
    pub fn max_seen(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram over `u64` samples (power-of-two buckets, see
/// [`bucket_index`]). Observation is three relaxed atomic adds.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Samples observed.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Occupancy of one bucket.
    pub fn bucket(&self, index: usize) -> u64 {
        self.0.buckets[index].load(Ordering::Relaxed)
    }

    /// `(bucket index, occupancy)` for every nonempty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let c = self.bucket(i);
                (c > 0).then_some((i, c))
            })
            .collect()
    }

    /// Bucket-resolution quantile estimate: the inclusive lower bound of
    /// the bucket holding the `q`-th sample (`q` clamped to `[0, 1]`).
    /// With power-of-two buckets the estimate is within 2× of the true
    /// sample value — good enough for latency dashboards and budget
    /// assertions, with no per-sample storage. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based; q = 0 means the first
        // sample, q = 1 the last.
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            seen += self.bucket(i);
            if seen >= rank {
                return bucket_lower_bound(i);
            }
        }
        bucket_lower_bound(HISTOGRAM_BUCKETS - 1)
    }
}

/// One structured trace event. `Copy` by construction: the label is a
/// `&'static str`, the clock is a *logical* timestamp (fuel, cycles, or a
/// sequence number — never wall time), and `a`/`b` carry event-specific
/// integer payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical timestamp.
    pub clock: u64,
    /// Static event label (e.g. `"figure"`, `"request"`).
    pub label: &'static str,
    /// First payload field.
    pub a: u64,
    /// Second payload field.
    pub b: u64,
}

#[derive(Debug)]
struct TracerState {
    events: Vec<TraceEvent>,
    next: usize,
    total: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s. The buffer is allocated once
/// at construction; recording overwrites the oldest slot and never
/// allocates. Snapshots sort by `(clock, label, a, b)` so concurrent
/// recorders with logical clocks still render deterministically.
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    state: Mutex<TracerState>,
}

impl Tracer {
    /// A tracer holding at most `capacity` events (0 disables tracing).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            capacity,
            state: Mutex::new(TracerState {
                events: Vec::with_capacity(capacity),
                next: 0,
                total: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let mut st = self.lock();
        st.total += 1;
        if st.events.len() < self.capacity {
            st.events.push(event);
        } else {
            let at = st.next;
            st.events[at] = event;
        }
        st.next = (st.next + 1) % self.capacity;
    }

    /// Events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.lock().total
    }

    /// The retained events in deterministic `(clock, label, a, b)` order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut events = self.lock().events.clone();
        events.sort_by(|x, y| (x.clock, x.label, x.a, x.b).cmp(&(y.clock, y.label, y.a, y.b)));
        events
    }
}

/// The registry: named metrics plus one tracer. Lookup-or-create takes a
/// lock and may allocate; keep the returned handle for hot paths.
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    tracer: Tracer,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry with a 1024-event tracer.
    pub fn new() -> Self {
        Self::with_trace_capacity(1024)
    }

    /// An empty registry with a tracer of the given capacity.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            tracer: Tracer::with_capacity(capacity),
        }
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Convenience: add `n` to the counter named `name` (registration
    /// path — not for hot loops).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// The registry's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Records a trace event.
    pub fn trace(&self, event: TraceEvent) {
        self.tracer.record(event);
    }

    /// A point-in-time copy of every metric and the retained trace, in
    /// the deterministic order both renderings use.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| {
                    let g = GaugeSnapshot {
                        value: v.get(),
                        max: v.max_seen(),
                    };
                    (k.clone(), g)
                })
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, h)| {
                    let h = HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.nonzero_buckets(),
                    };
                    (k.clone(), h)
                })
                .collect(),
            trace: self
                .tracer
                .snapshot()
                .into_iter()
                .map(|e| TraceLine {
                    clock: e.clock,
                    label: e.label.to_string(),
                    a: e.a,
                    b: e.b,
                })
                .collect(),
        }
    }

    /// Stable text rendering (see [`Snapshot::to_text`]).
    pub fn snapshot_text(&self) -> String {
        self.snapshot().to_text()
    }

    /// Stable JSON rendering (see [`Snapshot::to_json`]).
    pub fn snapshot_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// A gauge's level and high-water mark at snapshot time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Current level.
    pub value: u64,
    /// Highest level ever set.
    pub max: u64,
}

/// A histogram at snapshot time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// `(bucket index, occupancy)` for every nonempty bucket, ascending.
    pub buckets: Vec<(usize, u64)>,
}

/// A trace event at snapshot time (the label is owned, so a parsed
/// snapshot can carry labels no `&'static str` names).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceLine {
    /// Logical timestamp.
    pub clock: u64,
    /// Event label.
    pub label: String,
    /// First payload field.
    pub a: u64,
    /// Second payload field.
    pub b: u64,
}

/// A registry's contents, detached from the live atomics: what
/// [`Registry::snapshot`] captures, [`Snapshot::to_text`] renders, and
/// [`Snapshot::parse`] reads back. This is the one metrics vocabulary of
/// every `stats` body.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Retained trace events in `(clock, label, a, b)` order.
    pub trace: Vec<TraceLine>,
}

impl Snapshot {
    /// The value of the counter `name`, if the snapshot has one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The current level of the gauge `name`, if the snapshot has one.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).map(|g| g.value)
    }

    /// Stable text rendering: one line per metric, sections in fixed
    /// order (`counter`, `gauge`, `histogram`, `trace`), names sorted.
    /// Byte-identical for equal contents; [`Snapshot::parse`] inverts it.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, g) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {} max {}", g.value, g.max);
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<String> = h.buckets.iter().map(|(i, c)| format!("{i}:{c}")).collect();
            let _ = writeln!(
                out,
                "histogram {name} count {} sum {} buckets {}",
                h.count,
                h.sum,
                if buckets.is_empty() {
                    "-".to_string()
                } else {
                    buckets.join(",")
                }
            );
        }
        for e in &self.trace {
            let _ = writeln!(out, "trace {} {} {} {}", e.clock, e.label, e.a, e.b);
        }
        out
    }

    /// Stable JSON rendering (same ordering contract as
    /// [`Snapshot::to_text`]).
    pub fn to_json(&self) -> String {
        let counters = self.counters.iter().map(|(k, v)| format!("\"{k}\": {v}"));
        let gauges = self
            .gauges
            .iter()
            .map(|(k, g)| format!("\"{k}\": {{\"value\": {}, \"max\": {}}}", g.value, g.max));
        let histograms = self.histograms.iter().map(|(k, h)| {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(b, c)| format!("\"{b}\": {c}"))
                .collect();
            format!(
                "\"{k}\": {{\"count\": {}, \"sum\": {}, \"buckets\": {{{}}}}}",
                h.count,
                h.sum,
                buckets.join(", ")
            )
        });
        let trace = self.trace.iter().map(|e| {
            format!(
                "{{\"clock\": {}, \"label\": \"{}\", \"a\": {}, \"b\": {}}}",
                e.clock, e.label, e.a, e.b
            )
        });
        let mut out = String::from("{\n");
        json_member(&mut out, "\"counters\": {", counters.collect(), "},");
        json_member(&mut out, "\"gauges\": {", gauges.collect(), "},");
        json_member(&mut out, "\"histograms\": {", histograms.collect(), "},");
        json_member(&mut out, "\"trace\": [", trace.collect(), "]");
        out.push_str("}\n");
        out
    }

    /// Parses [`Snapshot::to_text`] output back into a snapshot: the one
    /// reader of the `counter|gauge|histogram|trace` line format.
    ///
    /// # Errors
    ///
    /// Names the first line that is not a well-formed registry line.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        for (n, line) in text.lines().enumerate() {
            let bad = || format!("line {}: not a registry line: `{line}`", n + 1);
            let int = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let fields: Vec<&str> = line.split(' ').collect();
            match fields.as_slice() {
                ["counter", name, v] => {
                    snap.counters.insert(name.to_string(), int(v)?);
                }
                ["gauge", name, v, "max", m] => {
                    let g = GaugeSnapshot {
                        value: int(v)?,
                        max: int(m)?,
                    };
                    snap.gauges.insert(name.to_string(), g);
                }
                ["histogram", name, "count", c, "sum", s, "buckets", b] => {
                    let mut buckets = Vec::new();
                    if *b != "-" {
                        for pair in b.split(',') {
                            let (i, c) = pair.split_once(':').ok_or_else(bad)?;
                            let i = i.parse::<usize>().map_err(|_| bad())?;
                            if i >= HISTOGRAM_BUCKETS {
                                return Err(bad());
                            }
                            buckets.push((i, int(c)?));
                        }
                    }
                    let h = HistogramSnapshot {
                        count: int(c)?,
                        sum: int(s)?,
                        buckets,
                    };
                    snap.histograms.insert(name.to_string(), h);
                }
                ["trace", clock, label, a, b] => snap.trace.push(TraceLine {
                    clock: int(clock)?,
                    label: label.to_string(),
                    a: int(a)?,
                    b: int(b)?,
                }),
                _ => return Err(bad()),
            }
        }
        Ok(snap)
    }
}

/// One top-level member of [`Snapshot::to_json`]: `open`, then one item
/// per line (none for an empty collection), then `close`.
fn json_member(out: &mut String, open: &str, items: Vec<String>, close: &str) {
    let _ = write!(out, "  {open}");
    if !items.is_empty() {
        let _ = write!(out, "\n    {}\n  ", items.join(",\n    "));
    }
    let _ = writeln!(out, "{close}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_pure_pow2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            // The lower bound maps back into its own bucket.
            assert_eq!(bucket_index(bucket_lower_bound(i)), i);
        }
        // And the value just below each bound lands in the bucket below.
        for i in 2..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(i) - 1), i - 1);
        }
    }

    #[test]
    fn histogram_quantiles_resolve_to_bucket_bounds() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        // 90 samples in [8, 16) and 10 in [1024, 2048).
        for _ in 0..90 {
            h.observe(9);
        }
        for _ in 0..10 {
            h.observe(1500);
        }
        assert_eq!(h.quantile(0.0), 8);
        assert_eq!(h.quantile(0.5), 8);
        assert_eq!(h.quantile(0.9), 8);
        assert_eq!(h.quantile(0.95), 1024);
        assert_eq!(h.quantile(1.0), 1024);
    }

    #[test]
    fn counters_and_gauges_share_state_across_clones() {
        let reg = Registry::new();
        let c = reg.counter("x");
        let c2 = reg.counter("x");
        c.add(3);
        c2.inc();
        assert_eq!(reg.counter("x").get(), 4);

        let g = reg.gauge("depth");
        g.set(5);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(reg.gauge("depth").max_seen(), 5);
    }

    #[test]
    fn histogram_counts_sum_and_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        for v in [0, 1, 1, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1005);
        assert_eq!(h.bucket(0), 1); // the zero
        assert_eq!(h.bucket(1), 2); // the two ones
        assert_eq!(h.bucket(2), 1); // the three
        assert_eq!(h.bucket(10), 1); // 1000 in [512, 1024)
    }

    #[test]
    fn tracer_ring_evicts_oldest() {
        let t = Tracer::with_capacity(3);
        for i in 0..5u64 {
            t.record(TraceEvent {
                clock: i,
                label: "e",
                a: i,
                b: 0,
            });
        }
        assert_eq!(t.total_recorded(), 5);
        let kept: Vec<u64> = t.snapshot().iter().map(|e| e.clock).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn snapshots_are_sorted_and_stable() {
        let mk = |order_flip: bool| {
            let reg = Registry::new();
            let names = if order_flip {
                ["b.second", "a.first"]
            } else {
                ["a.first", "b.second"]
            };
            for n in names {
                reg.counter(n).add(7);
            }
            reg.histogram("h").observe(9);
            reg.gauge("g").set(2);
            reg.trace(TraceEvent {
                clock: 1,
                label: "x",
                a: 0,
                b: 0,
            });
            (reg.snapshot_text(), reg.snapshot_json())
        };
        // Registration order must not leak into the rendering.
        assert_eq!(mk(false), mk(true));
        let (text, json) = mk(false);
        assert!(text.contains("counter a.first 7\n"), "{text}");
        assert!(text.starts_with("counter a.first"), "{text}");
        assert!(json.contains("\"a.first\": 7"), "{json}");
        assert!(json.contains("\"buckets\": {\"4\": 1}"), "{json}");
    }

    #[test]
    fn out_of_order_recording_snapshots_identically() {
        let forward = Tracer::with_capacity(8);
        let backward = Tracer::with_capacity(8);
        let ev = |i: u64| TraceEvent {
            clock: i,
            label: "e",
            a: 10 - i,
            b: 0,
        };
        for i in 0..4 {
            forward.record(ev(i));
        }
        for i in (0..4).rev() {
            backward.record(ev(i));
        }
        assert_eq!(forward.snapshot(), backward.snapshot());
    }

    #[test]
    fn parse_inverts_snapshot_text() {
        let reg = Registry::with_trace_capacity(4);
        reg.counter("a.first").add(7);
        reg.counter("zero");
        let g = reg.gauge("depth");
        g.set(9);
        g.set(3);
        reg.gauge("idle");
        let h = reg.histogram("lat");
        for v in [0, 1, 3, 1000, u64::MAX / 2] {
            h.observe(v);
        }
        reg.histogram("empty");
        for i in 0..6u64 {
            reg.trace(TraceEvent {
                clock: i,
                label: "server.request",
                a: i,
                b: i % 2,
            });
        }
        let text = reg.snapshot_text();
        let parsed = Snapshot::parse(&text).unwrap();
        assert_eq!(parsed, reg.snapshot());
        assert_eq!(parsed.to_text(), text);
        assert_eq!(parsed.to_json(), reg.snapshot_json());
        assert_eq!(parsed.counter("a.first"), Some(7));
        assert_eq!(parsed.counter("missing"), None);
        assert_eq!(parsed.gauge("depth"), Some(3));
        assert_eq!(parsed.gauges["depth"].max, 9);
        assert_eq!(parsed.histograms["lat"].count, 5);
        assert!(parsed.histograms["empty"].buckets.is_empty());
        assert_eq!(parsed.trace.len(), 4, "the ring kept the last four");
        assert_eq!(parsed.trace[0].label, "server.request");
        assert_eq!(Snapshot::parse("").unwrap(), Snapshot::default());
    }

    #[test]
    fn parse_rejects_lines_outside_the_vocabulary() {
        for bad in [
            "requests 3",
            "counter x",
            "counter x y",
            "gauge g 1 2",
            "histogram h count 1 sum 2 buckets 65:1",
            "histogram h count 1 sum 2 buckets 3",
            "trace 1 x 2",
            "== router ==",
            "counter  x 1",
        ] {
            let text = format!("counter ok 1\n{bad}\n");
            let err = Snapshot::parse(&text).unwrap_err();
            assert!(err.starts_with("line 2:"), "{bad}: {err}");
        }
    }
}
