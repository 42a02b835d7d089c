//! Tracing from outside the system: wall-clock spans around each call
//! into a layer's public API, and sampled timing of the VM's inner-loop
//! calls into the memory model and the profiler runtime.
//!
//! A span has a name (its layer), start, end, parent and the request it
//! serves. A layer's self time is the span's duration minus the part its
//! child spans cover. Spans stay in memory and are written out at the
//! end of the run.
//!
//! Spans around the VM's per-access calls would cost more than the calls
//! themselves (145 M simulated loads at paper scale), so those calls go
//! through [`TimedMemory`] and [`TimedProfiler`]: every call is counted,
//! a pseudo-random 1 in 64 is timed, and the calibrated cost of an empty
//! timer pair is subtracted. The estimate is attributed to its layer and
//! taken out of the enclosing VM span's self time.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;
use stride_ir::{EdgeId, FuncId, InstrId};
use stride_vm::{AccessKind, MemoryTiming, ProfilingRuntime};

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u32,
    /// Enclosing span (0 at top level).
    pub parent: u32,
    /// The layer the span times.
    pub name: &'static str,
    /// Request the span serves (0 outside request replay).
    pub req: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Counts gathered inside the span (VM runs: instructions, sampled
    /// calls and their estimated time).
    pub attrs: Vec<(&'static str, u64)>,
}

/// Time and work attributed to one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Self time, in nanoseconds.
    pub self_ns: f64,
    /// Spans recorded under the layer's name.
    pub spans: u64,
    /// Inner-loop calls attributed by sampling.
    pub calls: u64,
}

struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
    child_ns: f64,
    attrs: Vec<(&'static str, u64)>,
}

/// Records spans and per-layer totals. A disabled recorder runs the same
/// code with no timing at all, for the untraced comparison run.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    timer_overhead_ns: f64,
    sampler_seed: u64,
    req: u64,
    next_id: u32,
    open: Vec<Open>,
    spans: Vec<Span>,
    layers: BTreeMap<&'static str, LayerTotal>,
}

impl Recorder {
    /// A recorder; `enabled` false makes every method a pass-through.
    pub fn new(enabled: bool, timer_overhead_ns: f64) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            timer_overhead_ns,
            sampler_seed: 0x5eed_0f7a,
            req: 0,
            next_id: 1,
            open: Vec::new(),
            spans: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags spans opened from now on with request `id` (0 = none).
    pub fn set_request(&mut self, id: u64) {
        self.req = id;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map_or(0, |o| o.id);
        self.open.push(Open {
            id,
            parent,
            name,
            start: Instant::now(),
            child_ns: 0.0,
            attrs: Vec::new(),
        });
        let out = f(self);
        let end = Instant::now();
        let Some(open) = self.open.pop() else {
            unreachable!("span stack is balanced by construction")
        };
        let dur_ns = end.duration_since(open.start).as_nanos() as f64;
        let total = self.layers.entry(open.name).or_default();
        total.self_ns += dur_ns - open.child_ns;
        total.spans += 1;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur_ns;
        }
        let at = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            req: self.req,
            start_ns: at(open.start),
            end_ns: at(end),
            attrs: open.attrs,
        });
        out
    }

    /// Attributes `ns` of the current span's interval, spent in `calls`
    /// sampled calls, to `layer`.
    pub fn attribute(&mut self, layer: &'static str, ns: f64, calls: u64) {
        if !self.enabled {
            return;
        }
        let total = self.layers.entry(layer).or_default();
        total.self_ns += ns;
        total.calls += calls;
        if let Some(open) = self.open.last_mut() {
            open.child_ns += ns;
        }
    }

    /// Attaches a count to the current span.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(open) = self.open.last_mut() {
            open.attrs.push((key, value));
        }
    }

    /// A fresh sampler with its own seed, calibrated for this host.
    pub fn sampler(&mut self) -> Sampler {
        self.sampler_seed = self.sampler_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        Sampler::new(self.sampler_seed, self.timer_overhead_ns)
    }

    /// The totals of `layer` (zero if it never ran).
    pub fn layer(&self, layer: &str) -> LayerTotal {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// Finished spans named `name`.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
                s.id,
                s.parent,
                s.req,
                json::string(s.name),
                s.start_ns,
                s.end_ns
            );
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(line, "{sep}{}:{v}", json::string(k));
            }
            line.push_str("}}\n");
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// Median cost of an empty `Instant::now()` / `elapsed()` pair, in
/// nanoseconds: what a sampled call's measurement adds to the call.
pub fn timer_overhead_ns() -> f64 {
    let mut v: Vec<f64> = (0..20_001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Counts every call and times a pseudo-random 1 in 64. The gap to the
/// next timed call is drawn uniformly from 1..=127, so the sample never
/// locks onto a loop body's period.
pub struct Sampler {
    /// Calls seen.
    pub calls: u64,
    sampled: u64,
    sampled_ns: f64,
    countdown: u32,
    rng: u64,
    overhead_ns: f64,
}

impl Sampler {
    fn new(seed: u64, overhead_ns: f64) -> Sampler {
        let mut s = Sampler {
            calls: 0,
            sampled: 0,
            sampled_ns: 0.0,
            countdown: 1,
            rng: seed | 1,
            overhead_ns,
        };
        s.rearm();
        s
    }

    fn rearm(&mut self) {
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.countdown = 1 + (self.rng % 127) as u32;
    }

    #[inline(always)]
    fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        self.countdown -= 1;
        if self.countdown != 0 {
            return f();
        }
        self.rearm();
        let t = Instant::now();
        let out = f();
        self.sampled_ns += t.elapsed().as_nanos() as f64 - self.overhead_ns;
        self.sampled += 1;
        out
    }

    /// Estimated time in all calls: the mean timed call times the count.
    pub fn estimate_ns(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        (self.sampled_ns / self.sampled as f64).max(0.0) * self.calls as f64
    }
}

/// A [`MemoryTiming`] that samples the calls into `inner`. The last-line
/// fast-path opt-in is forwarded, so the VM takes exactly the same path
/// as with the bare model.
pub struct TimedMemory<T> {
    /// The wrapped model.
    pub inner: T,
    /// Its call sampler.
    pub sampler: Sampler,
}

impl<T: MemoryTiming> MemoryTiming for TimedMemory<T> {
    fn access(&mut self, addr: u64, cycle: u64, kind: AccessKind) -> u64 {
        let inner = &mut self.inner;
        self.sampler.call(|| inner.access(addr, cycle, kind))
    }

    fn prefetch(&mut self, addr: u64, cycle: u64) {
        let inner = &mut self.inner;
        self.sampler.call(|| inner.prefetch(addr, cycle))
    }

    fn repeat_line_size(&self) -> Option<u64> {
        self.inner.repeat_line_size()
    }

    fn note_line_repeats(&mut self, addr: u64, n: u64) {
        let inner = &mut self.inner;
        self.sampler.call(|| inner.note_line_repeats(addr, n))
    }
}

/// A [`ProfilingRuntime`] that samples the calls into `inner`.
pub struct TimedProfiler<T> {
    /// The wrapped runtime.
    pub inner: T,
    /// Its call sampler.
    pub sampler: Sampler,
}

impl<T: ProfilingRuntime> ProfilingRuntime for TimedProfiler<T> {
    fn profile_edge(&mut self, func: FuncId, edge: EdgeId) -> u64 {
        let inner = &mut self.inner;
        self.sampler.call(|| inner.profile_edge(func, edge))
    }

    fn trip_count_check(
        &mut self,
        func: FuncId,
        incoming: &[EdgeId],
        outgoing: &[EdgeId],
        shift: u32,
    ) -> (bool, u64) {
        let inner = &mut self.inner;
        self.sampler
            .call(|| inner.trip_count_check(func, incoming, outgoing, shift))
    }

    fn stride_prof(&mut self, func: FuncId, site: InstrId, slot: u32, addr: u64) -> u64 {
        let inner = &mut self.inner;
        self.sampler
            .call(|| inner.stride_prof(func, site, slot, addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_attributed_estimates() {
        let mut rec = Recorder::new(true, 0.0);
        rec.span("outer", |rec| {
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            rec.attribute("sampled", 5e6, 7);
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let outer = rec.layer("outer");
        let inner = rec.layer("inner");
        assert!(inner.self_ns >= 20e6);
        assert!(outer.self_ns >= 5e6 && outer.self_ns < 20e6, "{outer:?}");
        assert_eq!(rec.layer("sampled").calls, 7);
        let spans: Vec<&Span> = rec.spans.iter().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, 0.0);
        let v = rec.span("x", |rec| {
            rec.attribute("y", 1.0, 1);
            41 + 1
        });
        assert_eq!(v, 42);
        assert!(rec.spans.is_empty());
        assert_eq!(rec.layer("x"), LayerTotal::default());
    }

    #[test]
    fn the_sampler_counts_every_call_and_times_about_one_in_64() {
        let mut s = Sampler::new(7, 0.0);
        for _ in 0..64_000 {
            s.call(|| std::hint::black_box(1));
        }
        assert_eq!(s.calls, 64_000);
        assert!((800..1200).contains(&s.sampled), "{}", s.sampled);
    }
}
