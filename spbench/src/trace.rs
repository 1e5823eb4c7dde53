//! Benchmark-side tracing: spans around every call the benchmark makes
//! into a layer, kept in memory and written out when the run ends.
//!
//! A span holds its name, start, end, parent span and operation id.
//! Nesting is tracked per thread: a span opened while another is open on
//! the same thread is its child. [`TracedMeta`] and [`TracedTransport`]
//! wrap the store's `MetaService` and `Transport` traits, so the calls a
//! `Client` makes on the benchmark's behalf are spanned too.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use spcache_store::master::MetaService;
use spcache_store::metalog::FileIntegrity;
use spcache_store::rpc::{Reply, Request, StoreError};
use spcache_store::transport::Transport;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 = none).
    pub parent: u64,
    /// Operation the span belongs to (0 = set-up or maintenance).
    pub op: u64,
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    next_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            next_op: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a new operation on this thread: spans opened until the
    /// next call carry its id.
    pub fn begin_op(&self) -> u64 {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        OP.with(|c| c.set(op));
        op
    }

    /// Ends the current operation on this thread.
    pub fn end_op(&self) {
        OP.with(|c| c.set(0));
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let start = self.t0.elapsed();
        let out = f();
        let end = self.t0.elapsed();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let span = Span {
            id,
            parent,
            op: OP.with(Cell::get),
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        };
        self.spans.lock().expect("span log poisoned").push(span);
        out
    }

    /// Duration in ms of the most recent span named `name` of operation
    /// `op` (0 when none is among the last few hundred spans).
    pub fn recent_ms(&self, op: u64, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span log poisoned");
        spans
            .iter()
            .rev()
            .take(512)
            .find(|s| s.op == op && s.name == name)
            .map_or(0.0, |s| s.duration_ns() as f64 * 1e-6)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` in a span when a tracer is present, bare otherwise.
pub fn maybe_span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Per-layer self time: each span's duration minus the part of it its
/// child spans cover, summed by layer over every span. Returns `(layer
/// → self seconds, distinct measured operations)`, the latter counting
/// operation ids other than 0.
pub fn self_time_by_layer(spans: &[Span]) -> (BTreeMap<&'static str, f64>, usize) {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut ops = std::collections::BTreeSet::new();
    for s in spans {
        if s.op != 0 {
            ops.insert(s.op);
        }
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let own = s.duration_ns().saturating_sub(covered);
        *by_layer.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
    }
    (by_layer, ops.len())
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// A `MetaService` that spans every call into the wrapped service
/// (`master.*`).
#[derive(Debug)]
pub struct TracedMeta {
    inner: Arc<dyn MetaService>,
    tracer: Arc<Tracer>,
}

impl TracedMeta {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn MetaService>, tracer: Arc<Tracer>) -> Self {
        TracedMeta { inner, tracer }
    }
}

impl MetaService for TracedMeta {
    fn register(&self, id: u64, size: usize, servers: Vec<usize>) -> Result<(), StoreError> {
        self.tracer
            .span("master.register", || self.inner.register(id, size, servers))
    }
    fn unregister_file(&self, id: u64) -> Option<(usize, Vec<usize>)> {
        self.tracer
            .span("master.unregister", || self.inner.unregister_file(id))
    }
    fn locate(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError> {
        self.tracer.span("master.locate", || self.inner.locate(id))
    }
    fn peek(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError> {
        self.tracer.span("master.peek", || self.inner.peek(id))
    }
    fn apply_placement(&self, id: u64, servers: Vec<usize>) -> Result<(), StoreError> {
        self.tracer.span("master.apply_placement", || {
            self.inner.apply_placement(id, servers)
        })
    }
    fn mark_alive(&self, w: usize) {
        self.tracer
            .span("master.health", || self.inner.mark_alive(w))
    }
    fn mark_dead(&self, w: usize) {
        self.tracer
            .span("master.health", || self.inner.mark_dead(w))
    }
    fn suspect(&self, w: usize) -> u32 {
        self.tracer.span("master.health", || self.inner.suspect(w))
    }
    fn is_alive(&self, w: usize) -> bool {
        self.tracer.span("master.health", || self.inner.is_alive(w))
    }
    fn live_workers(&self, n: usize) -> Vec<usize> {
        self.tracer
            .span("master.health", || self.inner.live_workers(n))
    }
    fn degraded_files(&self) -> Vec<u64> {
        self.tracer
            .span("master.degraded_files", || self.inner.degraded_files())
    }
    fn worker_epochs(&self, n: usize) -> Vec<u64> {
        self.tracer
            .span("master.health", || self.inner.worker_epochs(n))
    }
    fn register_worker(&self, w: usize) -> u64 {
        self.tracer
            .span("master.health", || self.inner.register_worker(w))
    }
    fn begin_repair(&self, id: u64) -> bool {
        self.tracer
            .span("master.repair_slot", || self.inner.begin_repair(id))
    }
    fn end_repair(&self, id: u64) {
        self.tracer
            .span("master.repair_slot", || self.inner.end_repair(id))
    }
    fn master_epoch(&self) -> u64 {
        self.inner.master_epoch()
    }
    fn register_batch(&self, entries: &[(u64, usize, Vec<usize>)]) -> Result<(), StoreError> {
        self.tracer
            .span("master.register", || self.inner.register_batch(entries))
    }
    fn set_integrity(&self, id: u64, integrity: FileIntegrity) -> Result<(), StoreError> {
        self.tracer.span("master.set_integrity", || {
            self.inner.set_integrity(id, integrity)
        })
    }
    fn integrity(&self, id: u64) -> Option<FileIntegrity> {
        self.tracer
            .span("master.integrity", || self.inner.integrity(id))
    }
}

/// A `Transport` that spans every call into the wrapped transport,
/// under `net.*` for the TCP transport and `worker.*` for the
/// in-process channels. `submit` only queues a request, so its span is
/// the hand-off; `call` spans the full round trip.
#[derive(Debug)]
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
    names: [&'static str; 3],
}

impl TracedTransport {
    /// Wraps `inner`; `tcp` picks the `net` layer names.
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>, tcp: bool) -> Self {
        let names = if tcp {
            ["net.submit", "net.submit_batch", "net.call"]
        } else {
            ["worker.submit", "worker.submit_batch", "worker.call"]
        };
        TracedTransport {
            inner,
            tracer,
            names,
        }
    }
}

impl Transport for TracedTransport {
    fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }
    fn submit(&self, worker: usize, req: Request) -> Result<Receiver<Reply>, StoreError> {
        self.tracer
            .span(self.names[0], || self.inner.submit(worker, req))
    }
    fn submit_batch(
        &self,
        reqs: Vec<(usize, Request)>,
    ) -> Result<Vec<Receiver<Reply>>, StoreError> {
        self.tracer
            .span(self.names[1], || self.inner.submit_batch(reqs))
    }
    fn call(&self, worker: usize, req: Request, timeout: Duration) -> Result<Reply, StoreError> {
        self.tracer
            .span(self.names[2], || self.inner.call(worker, req, timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                op: 1,
                name: "client.read",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                op: 1,
                name: "master.locate",
                start_ns: 10,
                end_ns: 30,
            },
            Span {
                id: 3,
                parent: 1,
                op: 1,
                name: "net.submit_batch",
                start_ns: 20,
                end_ns: 50,
            },
        ];
        let (by, ops) = self_time_by_layer(&spans);
        assert_eq!(ops, 1);
        assert!((by["client"] - 60e-9).abs() < 1e-15);
        assert!((by["master"] - 20e-9).abs() < 1e-15);
        assert!((by["net"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let t = Tracer::new();
        t.begin_op();
        t.span("client.read", || t.span("master.locate", || ()));
        t.end_op();
        let s = t.spans();
        assert_eq!(s.len(), 2);
        let inner = s.iter().find(|s| s.name == "master.locate").unwrap();
        let outer = s.iter().find(|s| s.name == "client.read").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.op, outer.op);
    }
}
