//! Machinery the three workloads share: operation accounting, timed and
//! verified reads and writes, SP-cache's own rebalance, worker-loss
//! tails, and the traced run's sub-step replays.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use spcache_core::tuner::TunerConfig;
use spcache_ec::{join_shards_bytes, split_shards_bytes, ReedSolomon};
use spcache_net::frame::{
    decode_reply, encode_reply, encode_reply_parts, encode_request_parts, Frame,
};
use spcache_store::backing::UnderStore;
use spcache_store::master::{Master, MetaService};
use spcache_store::rpc::{PartKey, Reply, Request, StoreError, WorkerStats};
use spcache_store::transport::Transport;
use spcache_store::{
    repartitioner, Client, RetryPolicy, StoreCluster, StoreConfig, SupervisorConfig, SupervisorCore,
};

use spcache_workload::zipf_popularities;

use spcache_metrics::{LoadTracker, Samples};

use crate::corpus::{Corpus, NIC_RATE, N_WORKERS, ZIPF_EXPONENT};
use crate::trace::{maybe_span, TracedMeta, TracedTransport, Tracer};

/// One in this many measured operations of a traced run also replays
/// its sub-steps through the layers' public functions.
pub const REPLAY_EVERY: u64 = 4;

/// Seed of the cluster's own placement choices (Algorithm 2's random
/// placement, initial layouts). Fixed: it configures the system, not
/// the workload, so every `--seed` runs against the same layout.
pub const PLACEMENT_SEED: u64 = 0x05bc_a11e;

/// Counted lookups that train popularity before SP-cache plans.
pub const TRAINING_LOOKUPS: usize = 2000;

/// Workers the worker-loss tails take down, one per set-up round.
pub const TAIL_VICTIMS: [usize; 5] = [1, 4, 6, 3, 0];

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Short mode (self-test): a smaller corpus and fewer repetitions.
    pub short: bool,
    /// Flips one byte of the first measured read before it is checked
    /// (self-test of the checker).
    pub plant_wrong_byte: bool,
}

impl Options {
    /// Divisor applied to corpus sizes (short mode shrinks the corpus).
    pub fn corpus_scale(&self) -> usize {
        if self.short {
            64
        } else {
            1
        }
    }

    /// How many times set-up runs (the reported `setup_s` is the median).
    pub fn setups(&self) -> usize {
        if self.short {
            1
        } else {
            5
        }
    }
}

/// What kind of operation the tally counts.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A `Client` read (measured, degraded or read-back).
    Read,
    /// A `Client` write.
    Write,
    /// A `Client` delete.
    Delete,
    /// A rebalance, a heal (with its byte checks), or a failed set-up
    /// lookup.
    Other,
}

const KINDS: [(Kind, &str); 4] = [
    (Kind::Read, "reads"),
    (Kind::Write, "writes"),
    (Kind::Delete, "deletes"),
    (Kind::Other, "other"),
];

/// Attempted, failed and mismatched operation counts per [`Kind`],
/// shared by every thread of a run.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: [AtomicU64; 4],
    failed: [AtomicU64; 4],
    mismatched: AtomicU64,
    logged: AtomicU64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it failed.
    pub fn op(&self, kind: Kind, ok: bool) {
        self.attempted[kind as usize].fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed[kind as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one operation that returned wrong bytes.
    pub fn mismatch(&self, kind: Kind) {
        self.wrong_bytes();
        self.op(kind, false);
    }

    /// Records wrong bytes inside an operation counted elsewhere.
    pub fn wrong_bytes(&self) {
        self.mismatched.fetch_add(1, Ordering::Relaxed);
    }

    /// Reports an operation error on stderr (the first few only).
    pub fn log_error(&self, what: &str, id: u64, e: &dyn std::fmt::Display) {
        if self.logged.fetch_add(1, Ordering::Relaxed) < 8 {
            eprintln!("spbench: {what} of file {id} failed: {e}");
        }
    }

    /// `(attempted, failed, mismatched)` over every kind.
    pub fn counts(&self) -> (u64, u64, u64) {
        let sum = |v: &[AtomicU64; 4]| v.iter().map(|a| a.load(Ordering::Relaxed)).sum();
        (
            sum(&self.attempted),
            sum(&self.failed),
            self.mismatched.load(Ordering::Relaxed),
        )
    }

    /// Attempted and failed counts per kind, for the run's stderr
    /// summary: `reads 1234 (1 failed), writes …`.
    pub fn summary(&self) -> String {
        KINDS
            .iter()
            .map(|&(kind, name)| {
                let a = self.attempted[kind as usize].load(Ordering::Relaxed);
                let f = self.failed[kind as usize].load(Ordering::Relaxed);
                format!("{name} {a} ({f} failed)")
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Everything a workload needs to run: options, inputs and accounting.
#[derive(Debug)]
pub struct Env {
    /// The run's options.
    pub opts: Options,
    /// The span recorder of a traced run.
    pub tracer: Option<Arc<Tracer>>,
    /// The shared corpus.
    pub corpus: Corpus,
    /// Operation accounting.
    pub tally: Tally,
    /// Armed by `--plant-wrong-byte`; the first checked read disarms it.
    pub plant: AtomicBool,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer quantities gathered by the traced run's replays.
    pub layers: LayerAcc,
}

impl Env {
    /// The tracer, if this run is traced.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// Wraps a metadata service and a transport in tracing adapters
    /// when the run is traced.
    pub fn wire(
        &self,
        meta: Arc<dyn MetaService>,
        transport: Arc<dyn Transport>,
        tcp: bool,
    ) -> (Arc<dyn MetaService>, Arc<dyn Transport>) {
        match &self.tracer {
            Some(t) => (
                Arc::new(TracedMeta::new(meta, t.clone())),
                Arc::new(TracedTransport::new(transport, t.clone(), tcp)),
            ),
            None => (meta, transport),
        }
    }

    /// Whether operation number `n` of a thread replays its sub-steps.
    pub fn replays(&self, n: u64) -> bool {
        self.tracer.is_some() && n.is_multiple_of(REPLAY_EVERY)
    }

    /// Starts a measured operation (traced runs tag its spans);
    /// returns its id (0 when untraced).
    pub fn begin_op(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |t| t.begin_op())
    }

    /// Ends a measured operation.
    pub fn end_op(&self) {
        if let Some(t) = &self.tracer {
            t.end_op();
        }
    }
}

/// The end-to-end metrics of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct E2e {
    pub read_p50_ms: f64,
    pub read_p99_ms: f64,
    pub read_mb_s: f64,
    pub write_p50_ms: f64,
    pub write_p99_ms: f64,
    pub write_mb_s: f64,
    pub write_amp: f64,
    pub imbalance_eta: f64,
    pub rebalance_s: f64,
    pub degraded_read_p50_ms: f64,
    pub heal_s: f64,
    pub setup_s: f64,
}

impl E2e {
    /// `(name, value, unit)` for every end-to-end metric.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("read_p50_ms", self.read_p50_ms, "ms"),
            ("read_p99_ms", self.read_p99_ms, "ms"),
            ("read_mb_s", self.read_mb_s, "MB/s"),
            ("write_p50_ms", self.write_p50_ms, "ms"),
            ("write_p99_ms", self.write_p99_ms, "ms"),
            ("write_mb_s", self.write_mb_s, "MB/s"),
            ("write_amp", self.write_amp, "ratio"),
            ("imbalance_eta", self.imbalance_eta, "ratio"),
            ("rebalance_s", self.rebalance_s, "s"),
            ("degraded_read_p50_ms", self.degraded_read_p50_ms, "ms"),
            ("heal_s", self.heal_s, "s"),
            ("setup_s", self.setup_s, "s"),
        ]
    }
}

/// Per-layer quantities a traced run accumulates from its replays and
/// counters, as named sample sets shared by every thread.
#[derive(Debug, Default)]
pub struct LayerAcc {
    inner: std::sync::Mutex<BTreeMap<&'static str, Samples>>,
}

impl LayerAcc {
    // A replay that panicked leaves complete samples behind: recover
    // the guard rather than lose the report.
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, Samples>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one sample of quantity `key`.
    pub fn push(&self, key: &'static str, v: f64) {
        self.lock().entry(key).or_default().record(v);
    }

    /// Mean of quantity `key` (0 when never recorded).
    pub fn mean(&self, key: &'static str) -> f64 {
        self.lock().get(key).map_or(0.0, Samples::mean)
    }

    /// Sum of quantity `key` (0 when never recorded).
    pub fn sum(&self, key: &'static str) -> f64 {
        self.lock()
            .get(key)
            .map_or(0.0, |s| s.as_slice().iter().sum())
    }

    /// Ratio of the sums of two quantities (0 when the base is 0).
    pub fn ratio(&self, num: &'static str, den: &'static str) -> f64 {
        let d = self.sum(den);
        if d > 0.0 {
            self.sum(num) / d
        } else {
            0.0
        }
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When it returned.
    pub end: Instant,
    /// Latency, ms.
    pub ms: f64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Whether it was a write.
    pub write: bool,
}

/// The timed, successful operations of one or more threads. Failed
/// operations stay out: they count in the tally, not in latency or
/// throughput.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    /// Every timed operation, in completion order per thread.
    pub ops: Vec<Op>,
}

impl OpLog {
    /// Folds another thread's log into this one.
    pub fn merge(&mut self, other: &OpLog) {
        self.ops.extend_from_slice(&other.ops);
    }

    /// Number of reads (`write == false`) or writes.
    pub fn count(&self, write: bool) -> usize {
        self.ops.iter().filter(|o| o.write == write).count()
    }

    /// Payload bytes of reads or writes.
    pub fn bytes(&self, write: bool) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.write == write)
            .map(|o| o.bytes)
            .sum()
    }

    /// Latency of the most recent operation, ms.
    pub fn last_ms(&self) -> f64 {
        self.ops.last().map_or(0.0, |o| o.ms)
    }

    fn record(&mut self, ms: f64, bytes: u64, write: bool) {
        self.ops.push(Op {
            end: Instant::now(),
            ms,
            bytes,
            write,
        });
    }
}

/// One timed, verified read of corpus or workload file `id`. The byte
/// comparison runs after the clock stops. Returns the latency in ms,
/// or `None` when the read failed or returned wrong bytes (both are
/// counted in the tally and left out of `log`).
pub fn timed_read(
    env: &Env,
    client: &Client,
    id: u64,
    expected: &[u8],
    log: &mut OpLog,
) -> Option<f64> {
    let t = Instant::now();
    let res = maybe_span(env.tracer(), "client.read", || client.read(id));
    let secs = t.elapsed().as_secs_f64();
    match res {
        Ok(mut buf) => {
            if env.plant.swap(false, Ordering::Relaxed) && !buf.is_empty() {
                buf[0] ^= 0x5a;
            }
            if buf == expected {
                env.tally.op(Kind::Read, true);
                log.record(secs * 1e3, buf.len() as u64, false);
                Some(secs * 1e3)
            } else {
                env.tally.log_error("read", id, &"wrong bytes returned");
                env.tally.mismatch(Kind::Read);
                None
            }
        }
        Err(e) => {
            env.tally.log_error("read", id, &e);
            env.tally.op(Kind::Read, false);
            None
        }
    }
}

/// One timed write of `data` as file `id` on `servers`.
pub fn timed_write(
    env: &Env,
    client: &Client,
    id: u64,
    data: &Bytes,
    servers: &[usize],
    log: &mut OpLog,
) -> bool {
    let t = Instant::now();
    let res = maybe_span(env.tracer(), "client.write", || {
        client.write_bytes(id, data.clone(), servers)
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match res {
        Ok(()) => {
            env.tally.op(Kind::Write, true);
            log.record(ms, data.len() as u64, true);
            true
        }
        Err(e) => {
            env.tally.log_error("write", id, &e);
            env.tally.op(Kind::Write, false);
            false
        }
    }
}

/// Writes the whole corpus — unsplit (`k = 1`, file `i` on worker
/// `i mod N`), as a fresh SP-cache deployment does before it has seen
/// any traffic, or in a given `placement`; `parity` is the client
/// writing the hot files when they carry parity. Every file is
/// checkpointed into `under`.
#[allow(clippy::too_many_arguments)]
pub fn seed_corpus(
    env: &Env,
    client: &Client,
    parity: Option<&Client>,
    under: &UnderStore,
    placement: Option<&[Vec<usize>]>,
    tcp: bool,
    log: &mut OpLog,
) {
    for (id, data) in env.corpus.files.iter().enumerate() {
        let servers = match placement {
            Some(p) => p[id].clone(),
            None => vec![id % N_WORKERS],
        };
        let id = id as u64;
        under.persist(id, data.clone());
        let (writer, r) = match parity {
            Some(p) if (id as usize) < crate::corpus::HOT_PARITY_FILES => (p, 1),
            _ => (client, 0),
        };
        if timed_write(env, writer, id, data, &servers, log) && env.replays(id) {
            replay_write(env, data, servers.len(), r, tcp, log.last_ms());
        }
    }
}

/// `k` distinct servers; `below(n)` draws uniformly from `0..n`.
pub fn distinct_servers(k: usize, mut below: impl FnMut(usize) -> usize) -> Vec<usize> {
    let k = k.clamp(1, N_WORKERS);
    let mut servers: Vec<usize> = (0..N_WORKERS).collect();
    for i in 0..k {
        let j = i + below(N_WORKERS - i);
        servers.swap(i, j);
    }
    servers.truncate(k);
    servers
}

/// Trains the master's popularity counters with `lookups` counted
/// metadata lookups (`MetaService::locate`, the access every read
/// starts with), split across files in exact Zipf proportion so the
/// plan SP-cache derives from them is the same for every seed. The
/// lookups are set-up, not operations: only a failed one is tallied.
pub fn train_popularity(env: &Env, meta: &dyn MetaService, lookups: usize) {
    let pops = zipf_popularities(env.corpus.files.len(), ZIPF_EXPONENT);
    for (id, p) in pops.iter().enumerate() {
        for _ in 0..(p * lookups as f64).round() as usize {
            if let Err(e) = meta.locate(id as u64) {
                env.tally.log_error("lookup", id as u64, &e);
                env.tally.op(Kind::Other, false);
            }
        }
    }
}

/// What SP-cache's own rebalance did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rebalance {
    /// Algorithm 1 + 2 planning time.
    pub plan_s: f64,
    /// `repartitioner::run_parallel` time.
    pub repartition_s: f64,
    /// Share of files whose partition count changed.
    pub moved_fraction: f64,
    /// Largest partition count after the rebalance.
    pub max_k: usize,
}

/// Plans a rebalance from the master's access counts for per-worker
/// NIC rate `bandwidth` and aggregate request rate `lambda`
/// (Algorithms 1 and 2) and executes it with the parallel
/// repartitioners.
pub fn rebalance(
    env: &Env,
    master: &Arc<Master>,
    bandwidth: f64,
    lambda: f64,
    exec_meta: &dyn MetaService,
    transport: &dyn Transport,
) -> Rebalance {
    let t = Instant::now();
    let (ids, plan, _) = maybe_span(env.tracer(), "core.plan_rebalance", || {
        master.plan_rebalance(
            N_WORKERS,
            bandwidth,
            lambda,
            &TunerConfig::default(),
            PLACEMENT_SEED,
        )
    });
    let plan_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let res = maybe_span(env.tracer(), "core.run_parallel", || {
        repartitioner::run_parallel(&plan, &ids, exec_meta, transport)
    });
    let repartition_s = t.elapsed().as_secs_f64();
    env.tally
        .op(Kind::Other, res.as_ref().is_ok_and(Vec::is_empty));
    if let Err(e) = &res {
        env.tally.log_error("rebalance", 0, e);
    }
    let max_k = master
        .placements()
        .iter()
        .map(|(_, s)| s.len())
        .max()
        .unwrap_or(0);
    Rebalance {
        plan_s,
        repartition_s,
        moved_fraction: plan.moved_fraction(),
        max_k,
    }
}

/// SP-cache partitions the corpus on a reference cluster spawned with
/// `cfg`: the files are written unsplit and checkpointed, counted
/// lookups train popularity, and the rebalance plans for
/// [`NIC_RATE`] NICs and aggregate request rate `lambda` and moves the
/// bytes. Returns the placement it
/// left, by file id, and what the rebalance did.
pub fn learn_placement(
    env: &Env,
    cfg: StoreConfig,
    lambda: f64,
) -> (Vec<(u64, Vec<usize>)>, Rebalance) {
    let under = Arc::new(UnderStore::new());
    let cluster = StoreCluster::spawn_with_under_store(cfg, Some(under.clone()));
    let (meta, transport) = env.wire(cluster.master().clone(), cluster.transport().clone(), false);
    let client = Client::new(meta.clone(), transport.clone());
    seed_corpus(
        env,
        &client,
        None,
        &under,
        None,
        false,
        &mut OpLog::default(),
    );
    train_popularity(env, meta.as_ref(), TRAINING_LOOKUPS);
    let master = cluster.master().clone();
    let reb = rebalance(
        env,
        &master,
        NIC_RATE,
        lambda,
        meta.as_ref(),
        transport.as_ref(),
    );
    (master.placements(), reb)
}

/// Per-worker counters, fetched inside a `worker.stats` span (empty
/// when the fetch fails).
pub fn stats_of(
    env: &Env,
    f: impl FnOnce() -> Result<Vec<WorkerStats>, StoreError>,
) -> Vec<WorkerStats> {
    maybe_span(env.tracer(), "worker.stats", f).unwrap_or_default()
}

/// Median of `values` (0 when empty).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    Samples::from_vec(values.into_iter().collect()).median()
}

/// The load-imbalance factor η = (L_max − L_avg)/L_avg over per-worker
/// loads.
pub fn imbalance(loads: &[f64]) -> f64 {
    let mut t = LoadTracker::new(loads.len().max(1));
    for (w, &l) in loads.iter().enumerate() {
        t.add(w, l);
    }
    t.imbalance_factor()
}

/// Sum of `field` over workers in `after` minus `before`, clamping
/// workers whose counters vanished (killed) to zero.
pub fn delta(before: &[WorkerStats], after: &[WorkerStats], field: fn(&WorkerStats) -> u64) -> u64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| field(a).saturating_sub(field(b)))
        .sum()
}

/// Per-worker `field` deltas.
pub fn per_worker(
    before: &[WorkerStats],
    after: &[WorkerStats],
    field: fn(&WorkerStats) -> u64,
) -> Vec<f64> {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| field(a).saturating_sub(field(b)) as f64)
        .collect()
}

/// What one worker-loss tail measured.
#[derive(Debug, Clone, Default)]
pub struct Loss {
    /// The worker crash-restarted with a cold cache instead of dying:
    /// the supervisor re-adopts it and its sweep has nothing to heal, so
    /// the heal figures leave this loss out.
    pub crash: bool,
    /// Latencies of reads of files that had a partition on the lost
    /// worker, issued after the loss and before the heal sweep (ms).
    pub degraded: Samples,
    /// `SupervisorCore::probe` + `sweep` wall time (s).
    pub heal_s: f64,
    /// Probe part of it (s).
    pub probe_s: f64,
    /// Sweep part of it (s).
    pub sweep_s: f64,
    /// Files the sweep healed.
    pub healed_files: usize,
    /// Bytes of the files the sweep healed.
    pub healed_bytes: u64,
}

/// Files whose data placement includes `victim`.
pub fn files_on(master: &Master, victim: usize) -> Vec<u64> {
    master
        .placements()
        .into_iter()
        .filter(|(_, s)| s.contains(&victim))
        .map(|(id, _)| id)
        .collect()
}

/// Times one `SupervisorCore::probe` + `sweep`, then proves every file
/// the sweep healed reads back byte-exact. The heal and its checks are
/// one operation: how many files a sweep finds left to heal depends on
/// timing, and counting each check would make `attempted` differ
/// between runs of one seed.
pub fn heal(env: &Env, core: &SupervisorCore, checker: &Client, loss: &mut Loss) {
    let t = Instant::now();
    maybe_span(env.tracer(), "supervisor.probe", || core.probe());
    loss.probe_s = t.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let rec = maybe_span(env.tracer(), "supervisor.sweep", || core.sweep());
    loss.sweep_s = t2.elapsed().as_secs_f64();
    loss.heal_s = t.elapsed().as_secs_f64();
    let rec = rec.unwrap_or_default();
    loss.healed_files = rec.healed.len();
    loss.healed_bytes = rec
        .healed
        .iter()
        .map(|&id| env.corpus.size(id) as u64)
        .sum();
    let mut ok = rec.unrecoverable.is_empty();
    for &id in &rec.healed {
        ok &= read_matches(
            env,
            checker,
            id,
            &env.corpus.files[id as usize],
            "post-heal read",
        );
    }
    env.tally.op(Kind::Other, ok);
}

/// The worker-loss tail of `zipf_read` and `write_mix`: after the
/// measured phase, `kill` takes worker `victim` down; every other file
/// it held (by id) is read — the degraded reads, each healing its file
/// from the checkpoint — then the supervisor's probe + sweep heal the
/// rest.
#[allow(clippy::too_many_arguments)]
pub fn loss_tail(
    env: &Env,
    master: &Arc<Master>,
    transport: Arc<dyn Transport>,
    under: Arc<UnderStore>,
    reader: &Client,
    victim: usize,
    kill: impl FnOnce(),
) -> Loss {
    let core = SupervisorCore::new(
        master.clone(),
        transport,
        Some(under),
        SupervisorConfig::enabled()
            .with_interval(Duration::ZERO)
            .with_threshold(1),
        RetryPolicy::default(),
    );
    core.probe(); // adopt the fleet before the loss
    kill();
    let lost = files_on(master, victim);
    let mut loss = Loss::default();
    let mut log = OpLog::default();
    for &id in lost.iter().step_by(2) {
        env.begin_op();
        if let Some(ms) = timed_read(env, reader, id, &env.corpus.files[id as usize], &mut log) {
            loss.degraded.record(ms);
        }
        env.end_op();
    }
    heal(env, &core, reader, &mut loss);
    loss
}

/// An untimed read whose bytes must equal `expected` (write read-backs);
/// errors and wrong bytes count as failed.
pub fn check_read(env: &Env, client: &Client, id: u64, expected: &[u8], what: &str) {
    let ok = read_matches(env, client, id, expected, what);
    env.tally.op(Kind::Read, ok);
}

/// Reads `id` untimed and compares its bytes with `expected`. An error
/// is logged; wrong bytes are logged and recorded. Returns whether the
/// read returned `expected`.
fn read_matches(env: &Env, client: &Client, id: u64, expected: &[u8], what: &str) -> bool {
    match client.read_quiet(id) {
        Ok(buf) if buf == expected => true,
        Ok(_) => {
            env.tally.log_error(what, id, &"wrong bytes returned");
            env.tally.wrong_bytes();
            false
        }
        Err(e) => {
            env.tally.log_error(what, id, &e);
            false
        }
    }
}

/// The traced run's replay of one read's sub-steps: each partition's
/// `Get` as a single `Transport::call`, the join, verification when the
/// read verified, and the frame codec on TCP. Returns the slowest
/// partition get in seconds.
pub fn replay_read(
    env: &Env,
    transport: &dyn Transport,
    tcp: bool,
    master: &dyn MetaService,
    id: u64,
    verify: bool,
) -> Option<f64> {
    let tracer = env.tracer()?;
    let (size, servers) = master.peek(id).ok()?;
    let mut parts = Vec::with_capacity(servers.len());
    let mut slowest: f64 = 0.0;
    let get_name = if tcp { "net.get" } else { "worker.get" };
    for (j, &server) in servers.iter().enumerate() {
        let req = Request::Get {
            key: PartKey::new(id, j as u32),
        };
        let t = Instant::now();
        let reply = tracer.span(get_name, || {
            transport.call(server, req, Duration::from_secs(5))
        });
        let secs = t.elapsed().as_secs_f64();
        let Ok(data) = reply.and_then(Reply::bytes) else {
            return None;
        };
        env.layers
            .push(if tcp { "get_rtt_us" } else { "worker_get_us" }, secs * 1e6);
        slowest = slowest.max(secs);
        parts.push(data);
    }
    let t = Instant::now();
    let joined = tracer.span("client.join", || join_shards_bytes(&parts, size));
    env.layers.push("join_ms", t.elapsed().as_secs_f64() * 1e3);
    std::hint::black_box(&joined);
    if verify {
        let sums = spcache_integrity::sums(&parts);
        let t = Instant::now();
        let ok = tracer.span("integrity.verify", || {
            parts
                .iter()
                .zip(&sums)
                .all(|(p, &s)| spcache_integrity::verify(p, s))
        });
        env.layers.push("verify_s", t.elapsed().as_secs_f64());
        std::hint::black_box(ok);
    }
    if tcp {
        let bytes: usize = parts.iter().map(Bytes::len).sum();
        let t = Instant::now();
        let frames: Vec<_> = tracer.span("net.encode", || {
            parts
                .iter()
                .map(|p| encode_reply_parts(&Reply::Data(p.clone()), 1))
                .collect()
        });
        env.layers.push("net_encode_s", t.elapsed().as_secs_f64());
        env.layers.push("net_encode_bytes", bytes as f64);
        std::hint::black_box(frames);
        // The parser sees the frame after its 4-byte length prefix.
        let raw: Vec<Bytes> = parts
            .iter()
            .map(|p| Bytes::from(encode_reply(&Reply::Data(p.clone()), 1)[4..].to_vec()))
            .collect();
        let t = Instant::now();
        let decoded = tracer.span("net.decode", || {
            raw.into_iter()
                .map(|r| Frame::parse(r).and_then(|f| decode_reply(&f)))
                .filter(Result::is_ok)
                .count()
        });
        env.layers.push("net_decode_s", t.elapsed().as_secs_f64());
        env.layers.push("net_decode_bytes", bytes as f64);
        std::hint::black_box(decoded);
    }
    Some(slowest)
}

/// The traced run's replay of one write's sub-steps: split, checksums,
/// parity build and encode when the write carried parity, and the Put
/// frame encode on TCP.
pub fn replay_write(env: &Env, data: &Bytes, k: usize, parity: usize, tcp: bool, write_ms: f64) {
    let Some(tracer) = env.tracer() else {
        return;
    };
    env.layers.push("replayed_write_s", write_ms / 1e3);
    let shards = tracer.span("client.split", || split_shards_bytes(data, k));
    let t = Instant::now();
    let sums = tracer.span("integrity.sums", || spcache_integrity::sums(&shards));
    env.layers.push("sum_s", t.elapsed().as_secs_f64());
    env.layers.push("sum_bytes", data.len() as f64);
    if parity > 0 {
        let t = Instant::now();
        let rs = tracer.span("ec.build", || ReedSolomon::new_cauchy(k, k + parity));
        env.layers
            .push("ec_build_us", t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let encoded = tracer.span("ec.encode", || rs.encode_bytes(data));
        env.layers.push("ec_encode_s", t.elapsed().as_secs_f64());
        env.layers.push("ec_encode_bytes", data.len() as f64);
        std::hint::black_box(encoded);
    }
    if tcp {
        let t = Instant::now();
        let frames: Vec<_> = tracer.span("net.encode", || {
            shards
                .iter()
                .zip(&sums)
                .enumerate()
                .map(|(j, (s, &sum))| {
                    encode_request_parts(
                        &Request::Put {
                            key: PartKey::new(0, j as u32),
                            data: s.clone(),
                            sum,
                        },
                        1,
                    )
                })
                .collect()
        });
        env.layers.push("net_encode_s", t.elapsed().as_secs_f64());
        env.layers.push("net_encode_bytes", data.len() as f64);
        std::hint::black_box(frames);
    }
}

/// The traced run's replay of a degraded read's parity decode: the
/// file's `k + 1` Cauchy-RS shards with data shard `erased` missing,
/// rebuilt by `reconstruct_data`.
pub fn replay_decode(env: &Env, data: &[u8], k: usize, erased: usize) {
    let Some(tracer) = env.tracer() else {
        return;
    };
    let rs = ReedSolomon::new_cauchy(k, k + 1);
    let mut shards: Vec<Option<Vec<u8>>> = rs.encode_bytes(data).into_iter().map(Some).collect();
    shards[erased.min(k - 1)] = None;
    let t = Instant::now();
    let out = tracer.span("ec.decode", || rs.reconstruct_data(&mut shards));
    env.layers
        .push("ec_decode_ms", t.elapsed().as_secs_f64() * 1e3);
    std::hint::black_box(out.is_ok());
}

/// Where a measured read's replay fetches from.
#[derive(Clone, Copy)]
pub struct ReplayPath<'a> {
    /// The raw (untraced) transport.
    pub transport: &'a dyn Transport,
    /// Whether it is the TCP transport.
    pub tcp: bool,
    /// The metadata service to look placements up in.
    pub master: &'a dyn MetaService,
    /// Whether the read verified checksums.
    pub verify: bool,
}

/// One measured read: a timed, verified [`timed_read`] tagged as an
/// operation, and — for every [`REPLAY_EVERY`]-th read `n` of a traced
/// run — the replay of its sub-steps, from which the client's own time
/// (read − locate − slowest partition get) is derived.
pub fn measured_read(
    env: &Env,
    client: &Client,
    path: ReplayPath<'_>,
    id: u64,
    n: u64,
    log: &mut OpLog,
) -> Option<f64> {
    let op = env.begin_op();
    let ms = timed_read(env, client, id, &env.corpus.files[id as usize], log);
    if let (Some(read_ms), Some(tracer)) = (ms, env.tracer()) {
        if env.replays(n) {
            if let Some(slowest) =
                replay_read(env, path.transport, path.tcp, path.master, id, path.verify)
            {
                let locate_ms = tracer.recent_ms(op, "master.locate");
                env.layers.push(
                    "read_self_ms",
                    (read_ms - locate_ms - slowest * 1e3).max(0.0),
                );
                if path.verify {
                    env.layers.push("verified_read_s", read_ms / 1e3);
                }
            }
        }
    }
    env.end_op();
    ms
}

/// What one workload run measured: the end-to-end metrics plus the
/// per-layer figures derived from worker counters and timed layer calls
/// (keyed by their per-layer metric names).
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// End-to-end metrics.
    pub e2e: E2e,
    /// Per-layer figures from counters and layer calls.
    pub layer: BTreeMap<&'static str, f64>,
}

/// Median of a rebalance field over set-ups.
pub fn median_of(rebs: &[Rebalance], f: fn(&Rebalance) -> f64) -> f64 {
    median(rebs.iter().map(f))
}

/// Records the per-layer figures every workload derives the same way:
/// SP-cache's rebalance (`core.*`) and the heal (`supervisor.*`, over
/// the losses a sweep heals: killed workers, not crash-restarts).
/// Degraded reads pool every loss.
pub fn common_layers(out: &mut Measured, rebs: &[Rebalance], losses: &[Loss]) {
    out.layer
        .insert("core.plan_ms", median_of(rebs, |r| r.plan_s) * 1e3);
    out.layer
        .insert("core.repartition_s", median_of(rebs, |r| r.repartition_s));
    out.layer
        .insert("core.moved_fraction", median_of(rebs, |r| r.moved_fraction));
    out.layer
        .insert("core.max_k", median_of(rebs, |r| r.max_k as f64));
    let med = |f: fn(&Loss) -> f64| median(losses.iter().filter(|l| !l.crash).map(f));
    out.layer
        .insert("supervisor.probe_ms", med(|l| l.probe_s) * 1e3);
    out.layer.insert("supervisor.sweep_s", med(|l| l.sweep_s));
    out.layer
        .insert("supervisor.healed_files", med(|l| l.healed_files as f64));
    out.layer
        .insert("supervisor.healed_mb", med(|l| l.healed_bytes as f64 / 1e6));
    let mut degraded = Samples::new();
    for l in losses {
        degraded.extend_from(&l.degraded);
    }
    out.e2e.degraded_read_p50_ms = degraded.median();
    out.e2e.heal_s = med(|l| l.heal_s);
    out.e2e.rebalance_s = median_of(rebs, |r| r.plan_s + r.repartition_s);
}

/// Timed operations are cut, in completion order, into this many
/// chunks of equal count; medians and throughput are the median of the
/// per-chunk figures, so a transient stall in one part of a run moves
/// one chunk, not the result.
pub const CHUNKS: usize = 5;

/// `ops` sorted by completion, cut into [`CHUNKS`] equal-count chunks.
fn chunks(mut ops: Vec<Op>) -> Vec<Vec<Op>> {
    ops.sort_by_key(|o| o.end);
    let n = (ops.len() / CHUNKS).max(1);
    let mut out: Vec<Vec<Op>> = ops.chunks(n).map(<[Op]>::to_vec).collect();
    if out.len() > CHUNKS {
        let tail = out.pop().expect("more than CHUNKS chunks");
        out.last_mut().expect("non-empty").extend(tail);
    }
    out
}

/// Median over chunks of `f`.
fn chunked(ops: Vec<Op>, f: impl Fn(&[Op]) -> f64) -> f64 {
    median(chunks(ops).iter().map(|c| f(c)))
}

/// Latency percentile `p` of `ops`.
fn latency(ops: &[Op], p: f64) -> f64 {
    Samples::from_vec(ops.iter().map(|o| o.ms).collect()).percentile(p)
}

/// Payload MB of reads or writes over the per-thread time spent inside
/// operations (checking bytes happens outside that time).
fn goodput(ops: &[Op], write: bool, threads: usize) -> f64 {
    let busy_s = ops.iter().map(|o| o.ms).sum::<f64>() / 1e3 / threads.max(1) as f64;
    let bytes: u64 = ops
        .iter()
        .filter(|o| o.write == write)
        .map(|o| o.bytes)
        .sum();
    if busy_s > 0.0 {
        bytes as f64 / 1e6 / busy_s
    } else {
        0.0
    }
}

/// Fills the read or write end-to-end metrics (p50, p99, MB/s) from a
/// merged op log of `threads` closed-loop threads.
pub fn op_metrics(out: &mut Measured, log: &OpLog, threads: usize, write: bool) {
    let mine: Vec<Op> = log
        .ops
        .iter()
        .copied()
        .filter(|o| o.write == write)
        .collect();
    let p50 = chunked(mine.clone(), |c| latency(c, 50.0));
    let p99 = chunked(mine, |c| latency(c, 99.0));
    let mb_s = chunked(log.ops.clone(), |c| goodput(c, write, threads));
    if write {
        out.e2e.write_p50_ms = p50;
        out.e2e.write_p99_ms = p99;
        out.e2e.write_mb_s = mb_s;
    } else {
        out.e2e.read_p50_ms = p50;
        out.e2e.read_p99_ms = p99;
        out.e2e.read_mb_s = mb_s;
    }
}

/// Per-worker throttle busy share: bytes served over what the NIC could
/// serve in `wall` seconds. Returns `(max, mean)`.
pub fn fg_busy(served: &[f64], rate: f64, wall: f64) -> (f64, f64) {
    if !rate.is_finite() || wall <= 0.0 || served.is_empty() {
        return (0.0, 0.0);
    }
    let busy: Vec<f64> = served.iter().map(|b| b / (rate * wall)).collect();
    let max = busy.iter().copied().fold(0.0, f64::max);
    (max, busy.iter().sum::<f64>() / busy.len() as f64)
}
