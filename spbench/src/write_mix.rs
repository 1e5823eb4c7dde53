//! `write_mix` — writes beside reads over a dataset larger than the
//! cache: an in-process cluster (no NIC throttle) whose workers each
//! hold half of their share of the corpus, with every file checkpointed
//! in the under-store, read verification on, parity on the hot files'
//! writes and a journalled master. Two closed-loop clients: 25% of
//! operations write a new file with a corpus (Yahoo) size, each thread
//! keeping at most four extra files live; the rest are Zipf reads.
//! The measured work is split into five episodes on freshly set-up
//! clusters; worker-loss tails on further fresh clusters give the
//! degraded-read and heal figures.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use spcache_store::backing::UnderStore;
use spcache_store::master::{Master, MetaService};
use spcache_store::transport::Transport;
use spcache_store::{Client, MetaLog, RetryPolicy, StoreCluster, StoreConfig};

use spcache_metrics::Samples;

use crate::common::{
    check_read, common_layers, delta, distinct_servers, imbalance, learn_placement, loss_tail,
    measured_read, op_metrics, per_worker, replay_write, seed_corpus, stats_of, timed_write, Env,
    Kind, Loss, Measured, OpLog, Rebalance, ReplayPath, TAIL_VICTIMS,
};
use crate::corpus::{content, RequestStream, HOT_PARITY_FILES, N_WORKERS};

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Operations per block of the op schedule.
pub const OPS_PER_BLOCK: usize = 8;
/// Writes in each block of [`OPS_PER_BLOCK`] operations: a 25% share.
pub const WRITES_PER_BLOCK: usize = 2;
/// `--seconds` buys each client this many blocks of [`OPS_PER_BLOCK`]
/// operations per second (about the rate the mix runs at), split evenly
/// over the episodes. The measured phase is a fixed amount of work.
pub const BLOCKS_PER_SECOND: f64 = 2.0;
/// Popularity block of a client's corpus reads: at `--seconds 20` a
/// client reads exactly one block (40 op blocks of 6 reads), so every
/// run reads the same mix and the per-worker load does not depend on
/// where the run cut a block.
pub const READ_BLOCK: usize = 240;
/// Popularity block of the new files' ranks: at `--seconds 20` a client
/// writes exactly two, so every run writes the same size mix.
pub const WRITE_BLOCK: usize = 40;
/// Extra files each thread keeps live before deleting its oldest.
pub const LIVE_EXTRA: usize = 4;
/// Aggregate request rate Algorithm 1 plans for, requests/s: this
/// workload's measured rate of client requests — reads, writes,
/// read-backs and deletes (see `spbench/README.md`, "The request rate
/// SP-cache plans for").
pub const PLAN_LAMBDA: f64 = 50.0;

/// Which of a thread's operations write: exactly
/// [`WRITES_PER_BLOCK`] of every [`OPS_PER_BLOCK`], at seeded
/// positions.
struct OpSchedule {
    stream: RequestStream,
    block: Vec<bool>,
}

impl OpSchedule {
    fn new(seed: u64, thread: u64) -> Self {
        OpSchedule {
            stream: RequestStream::new(seed ^ 0x0b5c_4ed0, thread),
            block: Vec::new(),
        }
    }

    /// Whether operation `n` (counted from 0) writes.
    fn is_write(&mut self, n: u64) -> bool {
        if n.is_multiple_of(OPS_PER_BLOCK as u64) {
            self.block = (0..OPS_PER_BLOCK).map(|i| i < WRITES_PER_BLOCK).collect();
            self.stream.shuffle(&mut self.block);
        }
        self.block[n as usize % OPS_PER_BLOCK]
    }
}

/// The clients' read retries. A budgeted deployment over checkpoints
/// must retry: a read of a partition the budget free-dropped fails
/// once, heals the file from its checkpoint, then succeeds. When the
/// other client is already healing the same file, the heal slot is
/// taken and this read can only wait: `RetryPolicy::default()`'s four
/// attempts (35 ms of backoff) ran out before such a heal finished in
/// about one run in five (known defect 1 in `spbench/README.md`).
/// Eight attempts, with the default's doubling backoff from 5 ms, wait
/// up to 635 ms.
fn read_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        ..RetryPolicy::default()
    }
}

/// A client pair: plain writes/reads and parity-carrying writes.
struct Writers {
    plain: Client,
    parity: Client,
}

fn writers(env: &Env, cluster: &StoreCluster, under: &Arc<UnderStore>) -> Writers {
    let (meta, transport) = env.wire(cluster.master().clone(), cluster.transport().clone(), false);
    let plain = Client::new(meta, transport)
        .with_retry(read_retry())
        .with_verify(true)
        .with_under_store(under.clone());
    let parity = plain.clone().with_parity(1);
    Writers { plain, parity }
}

/// One timed set-up: SP-cache's placement learned on a reference
/// cluster, then a budgeted, journalled cluster with the corpus
/// checkpointed and written in that placement.
fn set_up(
    env: &Env,
    setup: &mut Samples,
    rebs: &mut Vec<Rebalance>,
    seeding: &mut OpLog,
) -> (StoreCluster, Arc<UnderStore>, Vec<Writers>) {
    let t = Instant::now();
    // SP-cache partitions the corpus on an unbudgeted reference cluster:
    // unsplit, the hottest files would not fit a worker's budget at all,
    // and the repartitioners cannot move a partition the budget dropped.
    let (placement, reb) = learn_placement(env, StoreConfig::unthrottled(N_WORKERS), PLAN_LAMBDA);
    rebs.push(reb);
    let placement: Vec<Vec<usize>> = placement.into_iter().map(|(_, s)| s).collect();
    let under = Arc::new(UnderStore::new());
    let budget = env.corpus.total_bytes() / N_WORKERS / 2;
    let cfg = StoreConfig::unthrottled(N_WORKERS)
        .with_memory_budget(Some(budget))
        .with_verify_reads(true)
        .with_retry(RetryPolicy::default());
    let cluster = StoreCluster::spawn_with_under_store(cfg, Some(under.clone()));
    cluster
        .master()
        .enable_journal(Arc::new(MetaLog::open(under.clone())));
    let w: Vec<Writers> = (0..CLIENTS)
        .map(|_| writers(env, &cluster, &under))
        .collect();
    let (a, p) = (&w[0].plain, &w[0].parity);
    seed_corpus(env, a, Some(p), &under, Some(&placement), false, seeding);
    setup.record(t.elapsed().as_secs_f64());
    (cluster, under, w)
}

/// Runs the workload.
pub fn run(env: &Env) -> Measured {
    let mut out = Measured::default();
    let mut setup = Samples::new();
    let mut seeding = OpLog::default();
    let mut rebs: Vec<Rebalance> = Vec::new();
    let mut losses: Vec<Loss> = Vec::new();
    let mut episodes = Episodes::default();
    let mut streams: Vec<Streams> = (0..CLIENTS as u64)
        .map(|i| Streams::new(env.opts.seed, i))
        .collect();
    let setups = env.opts.setups();
    for round in 0..setups {
        // Every round runs its own measured episode: the mix's cache
        // state evolves chaotically, so independent episodes give
        // steadier medians than one long phase.
        let (cluster, under, w) = set_up(env, &mut setup, &mut rebs, &mut seeding);
        let blocks = (env.seconds * BLOCKS_PER_SECOND / setups as f64).round() as usize;
        let ops = blocks.max(1) * OPS_PER_BLOCK;
        measure(env, &cluster, &under, &w, &mut streams, ops, &mut episodes);
        drop((cluster, w));

        // The worker-loss tail runs on a second, freshly set-up cluster,
        // so what it loses does not depend on where the episode's
        // heals happened to leave each file.
        let (mut cluster, under, w) = set_up(env, &mut setup, &mut rebs, &mut seeding);
        let victim = TAIL_VICTIMS[round % TAIL_VICTIMS.len()];
        let master = cluster.master().clone();
        let transport: Arc<dyn Transport> = cluster.transport().clone();
        losses.push(loss_tail(
            env,
            &master,
            transport,
            under,
            &w[0].plain,
            victim,
            || cluster.kill_worker(victim),
        ));
    }
    out.e2e.setup_s = setup.median();
    episodes.report(&mut out);
    common_layers(&mut out, &rebs, &losses);
    out
}

/// One client thread's seeded inputs, continued from episode to
/// episode so their popularity blocks complete.
struct Streams {
    reads: RequestStream,
    ops: OpSchedule,
    /// Ranks whose sizes new files take, in their own popularity blocks.
    sizes: RequestStream,
}

impl Streams {
    fn new(seed: u64, thread: u64) -> Self {
        Streams {
            reads: RequestStream::with_block(seed, 1 + thread, READ_BLOCK),
            ops: OpSchedule::new(seed, thread),
            sizes: RequestStream::with_block(seed ^ 0x5123, thread, WRITE_BLOCK),
        }
    }
}

/// What the measured episodes accumulated.
#[derive(Default)]
struct Episodes {
    log: OpLog,
    /// Wall time of the measured episodes, s.
    secs: f64,
    /// Client requests issued in that time.
    requests: u64,
    /// Bytes each worker served, summed over episodes.
    served: Vec<f64>,
    amp: Samples,
    heals: usize,
    journal_records: u64,
    journal_bytes: usize,
    puts: u64,
    evictions: u64,
    spilled: u64,
    reloaded: u64,
}

impl Episodes {
    fn report(&mut self, out: &mut Measured) {
        op_metrics(out, &self.log, CLIENTS, false);
        op_metrics(out, &self.log, CLIENTS, true);
        out.e2e.write_amp = self.amp.median();
        out.e2e.imbalance_eta = imbalance(&self.served);
        let writes = self.log.count(true).max(1) as f64;
        let reads = self.log.count(false).max(1) as f64;
        eprintln!(
            "spbench: write_mix measured {:.1} requests/s ({:.1} reads/s); plans assume {PLAN_LAMBDA}",
            self.requests as f64 / self.secs.max(1e-9),
            reads / self.secs.max(1e-9)
        );
        let layer = [
            ("client.heals_per_read", self.heals as f64 / reads),
            (
                "metalog.records_per_write",
                self.journal_records as f64 / writes,
            ),
            (
                "metalog.bytes_per_write",
                self.journal_bytes as f64 / writes,
            ),
            ("worker.puts_per_write", self.puts as f64 / writes),
            (
                "worker.evictions_per_op",
                self.evictions as f64 / (reads + writes),
            ),
            ("worker.spilled_mb", self.spilled as f64 / 1e6),
            ("worker.reloaded_mb", self.reloaded as f64 / 1e6),
        ];
        out.layer.extend(layer);
    }
}

/// Per-thread state of the measured phase.
struct Mixer<'a> {
    env: &'a Env,
    w: &'a Writers,
    under: &'a UnderStore,
    master: &'a Master,
    s: &'a mut Streams,
    next_id: u64,
    live: VecDeque<(u64, Bytes)>,
    log: OpLog,
    /// Reads, writes, read-backs and deletes issued.
    requests: u64,
}

impl Mixer<'_> {
    /// Writes one new file with the size and partition count of a
    /// Zipf-chosen corpus rank; hot ranks carry parity.
    fn write(&mut self, n: u64) {
        let env = self.env;
        self.requests += 1;
        let rank = self.s.sizes.next_file();
        let id = self.next_id;
        self.next_id += 1;
        let data = content(env.opts.seed ^ 0x77, id, env.corpus.size(rank));
        let k = self.master.peek(rank).map_or(1, |(_, s)| s.len());
        let servers = distinct_servers(k, |n| self.s.sizes.below(n));
        self.under.persist(id, data.clone());
        let hot = (rank as usize) < HOT_PARITY_FILES;
        let writer = if hot { &self.w.parity } else { &self.w.plain };
        env.begin_op();
        let ok = timed_write(env, writer, id, &data, &servers, &mut self.log);
        if ok && env.replays(n) {
            replay_write(env, &data, k, usize::from(hot), false, self.log.last_ms());
        }
        env.end_op();
        if ok {
            self.live.push_back((id, data));
        }
        if self.live.len() > LIVE_EXTRA {
            self.retire();
        }
    }

    /// Checks the oldest extra file reads back byte-exact, then deletes
    /// it and drops its checkpoint.
    fn retire(&mut self) {
        let Some((id, data)) = self.live.pop_front() else {
            return;
        };
        let env = self.env;
        self.requests += 2;
        check_read(env, &self.w.plain, id, &data, "write read-back");
        let deleted = self.w.plain.delete(id);
        if let Err(e) = &deleted {
            env.tally.log_error("delete", id, e);
        }
        env.tally.op(Kind::Delete, deleted.is_ok());
        self.under.persist(id, Bytes::new());
    }
}

/// One measured episode: both clients run `ops` operations each of the
/// 25/75 write/read mix.
fn measure(
    env: &Env,
    cluster: &StoreCluster,
    under: &UnderStore,
    w: &[Writers],
    streams: &mut [Streams],
    ops: usize,
    acc: &mut Episodes,
) {
    let master = cluster.master().clone();
    let transport: Arc<dyn Transport> = cluster.transport().clone();
    let meta: &dyn MetaService = master.as_ref();
    let path = ReplayPath {
        transport: transport.as_ref(),
        tcp: false,
        master: meta,
        verify: true,
    };
    let before = stats_of(env, || cluster.worker_stats());
    let repairs_before = master.repair_history().len();
    let lsn_before = master.journal_next_lsn();
    let start = Instant::now();
    let logs: Vec<(OpLog, u64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = w
            .iter()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(i, (w, streams))| {
                let master = master.as_ref();
                s.spawn(move || {
                    let mut m = Mixer {
                        env,
                        w,
                        under,
                        master,
                        s: streams,
                        next_id: 1_000_000 * (i as u64 + 1),
                        live: VecDeque::new(),
                        log: OpLog::default(),
                        requests: 0,
                    };
                    for n in 0..ops as u64 {
                        if m.s.ops.is_write(n) {
                            m.write(n);
                        } else {
                            let id = m.s.reads.next_file();
                            measured_read(env, &w.plain, path, id, n, &mut m.log);
                            m.requests += 1;
                        }
                    }
                    // Read-backs and deletes of the files still live
                    // are clean-up, outside the measured window.
                    let done = (m.log.clone(), m.requests, start.elapsed().as_secs_f64());
                    while !m.live.is_empty() {
                        m.retire();
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let after = stats_of(env, || cluster.worker_stats());
    let mut log = OpLog::default();
    let mut secs: f64 = 0.0;
    for (l, requests, s) in &logs {
        log.merge(l);
        acc.requests += requests;
        secs = secs.max(*s);
    }
    acc.secs += secs;
    // Stored bytes include parity and every heal a read triggered:
    // write amplification as the workers see it.
    acc.amp
        .record(delta(&before, &after, |s| s.bytes_stored) as f64 / log.bytes(true).max(1) as f64);
    let served = per_worker(&before, &after, |s| s.bytes_served);
    acc.served.resize(served.len(), 0.0);
    for (total, b) in acc.served.iter_mut().zip(served) {
        *total += b;
    }
    acc.heals += master.repair_history().len() - repairs_before;
    acc.journal_records += master.journal_next_lsn().saturating_sub(lsn_before);
    acc.journal_bytes += master.journal_tail(lsn_before).1.len();
    acc.puts += delta(&before, &after, |s| s.puts);
    acc.evictions += delta(&before, &after, |s| s.evictions);
    acc.spilled += delta(&before, &after, |s| s.spilled_bytes);
    acc.reloaded += delta(&before, &after, |s| s.reloaded_bytes);
    acc.log.merge(&log);
}
