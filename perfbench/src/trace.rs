//! Tracing for the per-layer pass: coarse spans recorded from the
//! benchmark's side of each library call, and counting/timing adapters
//! around the two callback traits the simulator drives
//! ([`TrafficSource`] and [`AdaptiveRouter`]).
//!
//! Per-step callbacks are aggregated into counts and summed time; only
//! coarse calls (setup steps, engine runs, bound solves) become spans.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use wormhole_flitsim::message::MessageSpec;
use wormhole_flitsim::source::TrafficSource;
use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::graph::{EdgeId, Graph, NodeId};
use wormhole_topology::path::Path;

/// One recorded interval: a setup step, an engine run or a bound solve.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span log, written out once when the benchmark ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id (the parent of spans it causes).
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end_ns = now;
        now - span.start_ns
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Writes the spans as a JSON array of `{id, name, start_ns, end_ns,
    /// parent}` objects.
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")
    }
}

/// Runs `f` inside a span named `name` when tracing; returns its result
/// and the nanoseconds it took either way.
pub fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &str,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    match tracer {
        Some(t) => {
            let id = t.open(name, parent);
            let out = f();
            (out, t.close(id))
        }
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_nanos() as u64)
        }
    }
}

/// Calls made into a [`TrafficSource`] during one run, and their summed
/// host time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SourceCounts {
    pub next_release: u64,
    pub take_ready: u64,
    pub notifications: u64,
    pub ns: u64,
}

impl SourceCounts {
    pub fn calls(&self) -> u64 {
        self.next_release + self.take_ready + self.notifications
    }
}

/// Forwards every call to the wrapped source, counting and timing it.
pub struct CountingSource<'a> {
    inner: &'a mut dyn TrafficSource,
    pub counts: SourceCounts,
}

impl<'a> CountingSource<'a> {
    pub fn new(inner: &'a mut dyn TrafficSource) -> Self {
        Self {
            inner,
            counts: SourceCounts::default(),
        }
    }
}

impl TrafficSource for CountingSource<'_> {
    fn next_release(&mut self, now: u64) -> Option<u64> {
        let start = Instant::now();
        let out = self.inner.next_release(now);
        self.counts.ns += start.elapsed().as_nanos() as u64;
        self.counts.next_release += 1;
        out
    }

    fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>) {
        let start = Instant::now();
        self.inner.take_ready(now, out);
        self.counts.ns += start.elapsed().as_nanos() as u64;
        self.counts.take_ready += 1;
    }

    fn on_delivered(&mut self, id: u32, finished: u64) {
        let start = Instant::now();
        self.inner.on_delivered(id, finished);
        self.counts.ns += start.elapsed().as_nanos() as u64;
        self.counts.notifications += 1;
    }

    fn on_discarded(&mut self, id: u32, t: u64) {
        let start = Instant::now();
        self.inner.on_discarded(id, t);
        self.counts.ns += start.elapsed().as_nanos() as u64;
        self.counts.notifications += 1;
    }

    fn reactive(&self) -> bool {
        self.inner.reactive()
    }

    fn id_bound(&self) -> Option<u32> {
        self.inner.id_bound()
    }
}

/// Calls made into an [`AdaptiveRouter`] during one run, and their
/// summed host time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterCounts {
    pub candidates: u64,
    pub candidates_ns: u64,
    pub escape: u64,
    pub escape_ns: u64,
}

/// Forwards every call to the wrapped router, counting and timing route
/// selection. The trait is `Sync`, so the tallies are atomics; they
/// publish no other data, hence `Relaxed`.
pub struct CountingRouter<'a> {
    inner: &'a dyn AdaptiveRouter,
    candidates: AtomicU64,
    candidates_ns: AtomicU64,
    escape: AtomicU64,
    escape_ns: AtomicU64,
}

impl<'a> CountingRouter<'a> {
    pub fn new(inner: &'a dyn AdaptiveRouter) -> Self {
        Self {
            inner,
            candidates: AtomicU64::new(0),
            candidates_ns: AtomicU64::new(0),
            escape: AtomicU64::new(0),
            escape_ns: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> RouterCounts {
        RouterCounts {
            candidates: self.candidates.load(Ordering::Relaxed),
            candidates_ns: self.candidates_ns.load(Ordering::Relaxed),
            escape: self.escape.load(Ordering::Relaxed),
            escape_ns: self.escape_ns.load(Ordering::Relaxed),
        }
    }

    fn tally<T>(&self, calls: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl AdaptiveRouter for CountingRouter<'_> {
    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn candidates(&self, at: NodeId, dst: NodeId, misroutes: bool, out: &mut Vec<(EdgeId, bool)>) {
        self.tally(&self.candidates, &self.candidates_ns, || {
            self.inner.candidates(at, dst, misroutes, out)
        })
    }

    fn escape_route(&self, at: NodeId, dst: NodeId) -> Path {
        self.tally(&self.escape, &self.escape_ns, || {
            self.inner.escape_route(at, dst)
        })
    }

    fn escape_hop(&self, at: NodeId, dst: NodeId) -> EdgeId {
        self.tally(&self.escape, &self.escape_ns, || {
            self.inner.escape_hop(at, dst)
        })
    }

    fn is_escape(&self, e: EdgeId) -> bool {
        self.inner.is_escape(e)
    }
}
