//! `fail_heal` — worker loss, degraded reads and paced heals under
//! load. Set-up lets SP-cache partition the corpus on a reference
//! cluster (unsplit writes, counted popularity lookups, Algorithms 1 +
//! 2, parallel repartitioners) and keeps the resulting placement. Each
//! measured cycle then builds a fresh supervised cluster (NICs at
//! 250 MB/s, half of each NIC reserved for background traffic, every
//! file checkpointed, parity on the hot files), writes the corpus in
//! that placement, starts a one-client Zipf read storm, loses the
//! cycle's worker, lets the storm read through the loss (the degraded
//! reads), and times the supervisor's probe + sweep. Even cycles kill
//! the worker: its reads fail over to checkpoint heals and the sweep
//! heals the rest. Odd cycles crash-restart it with a cold cache (a
//! seeded `CrashRestart` fault at its first request after the corpus
//! write): its partitions are erasures, so reads of the hot files
//! decode from parity. Cycles run in rounds that lose every worker
//! once; `--seconds` fixes the number of rounds.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spcache_metrics::Samples;
use spcache_store::backing::UnderStore;
use spcache_store::fault::FaultPlan;
use spcache_store::master::{Master, MetaService};
use spcache_store::transport::Transport;
use spcache_store::{Client, RetryPolicy, StoreCluster, StoreConfig, SupervisorConfig};

use crate::common::{
    common_layers, delta, fg_busy, heal, imbalance, learn_placement, measured_read, op_metrics,
    per_worker, replay_decode, replay_write, stats_of, timed_write, Env, Loss, Measured, OpLog,
    Rebalance, ReplayPath,
};
use crate::corpus::{RequestStream, HOT_PARITY_FILES, NIC_RATE, N_WORKERS};

/// Share of each NIC reserved for background (heal) traffic.
pub const BACKGROUND_FRACTION: f64 = 0.5;
/// Aggregate read rate Algorithm 1 plans for, requests/s: this
/// workload's measured read rate (see `spbench/README.md`, "The
/// request rate SP-cache plans for").
pub const PLAN_LAMBDA: f64 = 90.0;
/// Storm reads before the worker is lost.
pub const PRE_READS: usize = 8;
/// Storm reads between the loss and the heal sweep (the detection
/// delay, during which reads of the lost worker's files are degraded).
pub const LOSS_READS: usize = 40;
/// Storm reads per cycle. The reads between the loss and the sweep are
/// one whole popularity block of [`LOSS_READS`], the others one block
/// of the rest: every cycle reads the same mix of files (in a seeded
/// order), so the per-worker load, the set of degraded reads and what
/// the sweep finds left to heal do not depend on the seed.
pub const CYCLE_READS: usize = 64;
/// Cycles per round: every worker is lost once.
pub const ROUND: usize = N_WORKERS;
/// `--seconds` buys one round per this many seconds: a fixed number of
/// rounds, the same work every run (a round takes about 13 s on two
/// cores, so a run is longer than `--seconds`).
pub const ROUND_SECONDS: f64 = 6.0;

fn config() -> StoreConfig {
    StoreConfig::throttled(N_WORKERS, NIC_RATE)
        .with_background_fraction(BACKGROUND_FRACTION)
        .with_retry(RetryPolicy::default())
}

/// Whether cycle `n` crash-restarts its worker instead of killing it:
/// every other cycle, alternating between rounds so each worker is
/// both killed and crash-restarted.
fn crashes(n: usize) -> bool {
    (n + n / ROUND) % 2 == 1
}

/// The cycle's clients: plain reads and writes, and parity-carrying
/// writes for the hot files. Unfenced: a crash-restarted worker is back
/// at epoch 0, so a fenced client's stamps would bounce `StaleEpoch`
/// until the supervisor re-adopts it, and its reads would heal from the
/// checkpoint instead of treating the lost partitions as erasures.
fn clients(
    meta: Arc<dyn MetaService>,
    transport: Arc<dyn Transport>,
    under: &Arc<UnderStore>,
) -> (Client, Client) {
    let plain = Client::new(meta, transport)
        .with_retry(RetryPolicy::default())
        .with_under_store(under.clone());
    let parity = plain.clone().with_parity(1);
    (plain, parity)
}

/// Writes the corpus in `placement`, checkpointing every file; the hot
/// files carry parity.
fn write_corpus(
    env: &Env,
    placement: &[(u64, Vec<usize>)],
    (plain, parity): &(Client, Client),
    under: &UnderStore,
    log: &mut OpLog,
) {
    for (id, servers) in placement {
        let data = &env.corpus.files[*id as usize];
        under.persist(*id, data.clone());
        let hot = (*id as usize) < HOT_PARITY_FILES;
        let writer = if hot { parity } else { plain };
        if timed_write(env, writer, *id, data, servers, log) && env.replays(*id) {
            replay_write(
                env,
                data,
                servers.len(),
                usize::from(hot),
                false,
                log.last_ms(),
            );
        }
    }
}

/// Data-path requests each worker serves while the corpus is written in
/// `placement`: a crash-restart scripted at that index fires at the
/// worker's first request after the write. Counted on a dry-run cluster.
fn corpus_requests(env: &Env, placement: &[(u64, Vec<usize>)]) -> Vec<u64> {
    let under = Arc::new(UnderStore::new());
    let cluster = StoreCluster::spawn_with_under_store(
        StoreConfig::unthrottled(N_WORKERS),
        Some(under.clone()),
    );
    let pair = clients(
        cluster.master().clone(),
        cluster.transport().clone(),
        &under,
    );
    write_corpus(env, placement, &pair, &under, &mut OpLog::default());
    stats_of(env, || cluster.worker_stats())
        .iter()
        .map(|s| s.puts + s.gets)
        .collect()
}

/// Runs the workload.
pub fn run(env: &Env) -> Measured {
    let mut out = Measured::default();
    let mut setup = Samples::new();
    let mut rebs: Vec<Rebalance> = Vec::new();
    let mut placement = Vec::new();
    let mut requests = Vec::new();
    for _ in 0..env.opts.setups() {
        let t = Instant::now();
        let (learned, reb) = learn_placement(env, config(), PLAN_LAMBDA);
        rebs.push(reb);
        placement = learned;
        requests = corpus_requests(env, &placement);
        setup.record(t.elapsed().as_secs_f64());
    }
    out.e2e.setup_s = setup.median();

    // Cycles run in rounds that lose every worker once, in the same
    // order each run (1, 4, 7, 2, 5, 0, 3, 6); `--seconds` fixes how
    // many rounds run.
    let mut cycles = Cycles::default();
    let rounds = ((env.seconds / ROUND_SECONDS).round() as usize).max(1);
    for n in 0..rounds * ROUND {
        cycle(env, &placement, &requests, n, &mut cycles);
    }
    op_metrics(&mut out, &cycles.reads, 1, false);
    op_metrics(&mut out, &cycles.writes, 1, true);
    out.e2e.write_amp = cycles.amp.median();
    // Per-worker mean load over the cycles it survived.
    let loads: Vec<f64> = cycles
        .served
        .iter()
        .zip(&cycles.alive)
        .map(|(&b, &n)| b / n.max(1) as f64)
        .collect();
    out.e2e.imbalance_eta = imbalance(&loads);
    out.layer
        .insert("throttle.fg_busy_max", cycles.busy_max.median());
    out.layer
        .insert("throttle.fg_busy_mean", cycles.busy_mean.median());
    out.layer
        .insert("throttle.bg_utilization", cycles.bg_util.median());
    let reads = cycles.reads.count(false).max(1) as f64;
    eprintln!(
        "spbench: fail_heal measured {:.1} reads/s; plans assume {PLAN_LAMBDA}",
        reads / cycles.storm_s.max(1e-9)
    );
    out.layer.insert(
        "ec.decoded_share",
        cycles.decoded as f64 / cycles.parity_reads.max(1) as f64,
    );
    out.layer
        .insert("client.heals_per_read", cycles.heals as f64 / reads);
    out.layer
        .insert("worker.puts_per_write", cycles.puts.median());
    out.layer
        .insert("worker.evictions_per_op", cycles.evictions as f64 / reads);
    out.layer
        .insert("worker.spilled_mb", cycles.spilled as f64 / 1e6);
    out.layer
        .insert("worker.reloaded_mb", cycles.reloaded as f64 / 1e6);
    common_layers(&mut out, &rebs, &cycles.losses);
    out
}

/// What the cycles accumulated.
#[derive(Default)]
struct Cycles {
    reads: OpLog,
    /// Wall time of the storms, s.
    storm_s: f64,
    /// Degraded reads of parity-carrying files in crash-restart cycles.
    parity_reads: usize,
    /// Those of them served by a parity decode, with no heal.
    decoded: usize,
    writes: OpLog,
    losses: Vec<Loss>,
    amp: Samples,
    /// Bytes each worker served while alive, summed over cycles.
    served: [f64; N_WORKERS],
    /// Cycles each worker survived.
    alive: [usize; N_WORKERS],
    /// The storm's request streams: the loss window's, and the rest's.
    storm: Option<(RequestStream, RequestStream)>,
    busy_max: Samples,
    busy_mean: Samples,
    bg_util: Samples,
    puts: Samples,
    heals: usize,
    evictions: u64,
    spilled: u64,
    reloaded: u64,
}

/// Spins until `count` reaches `target` or two seconds pass (a storm
/// stalled on a failure must not hang the cycle).
fn wait_for(count: &AtomicUsize, target: usize) {
    let t = Instant::now();
    while count.load(Ordering::Relaxed) < target && t.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// What the storm read through one loss.
#[derive(Default)]
struct Storm {
    log: OpLog,
    degraded: Samples,
    parity_reads: usize,
    decoded: usize,
}

/// One read of the storm; `lost` marks the first read of a file on the
/// lost worker since the loss. A degraded read of a parity-carrying file
/// after a crash-restart is a decode when it leaves the file's placement
/// as it was (a heal from the checkpoint re-places it).
fn storm_read(
    env: &Env,
    client: &Client,
    master: &Master,
    path: ReplayPath<'_>,
    (id, n): (u64, u64),
    (lost, crash, victim): (bool, bool, usize),
    out: &mut Storm,
) {
    let version = master.placement_version(id);
    let servers = master.peek(id).map(|(_, s)| s).unwrap_or_default();
    let ms = measured_read(env, client, path, id, n, &mut out.log);
    let (true, Some(ms)) = (lost, ms) else {
        return;
    };
    out.degraded.record(ms);
    let parity = master.integrity(id).is_some_and(|r| !r.parity.is_empty());
    if crash && parity {
        out.parity_reads += 1;
        if master.placement_version(id) == version {
            out.decoded += 1;
            let erased = servers.iter().position(|&s| s == victim).unwrap_or(0);
            replay_decode(env, &env.corpus.files[id as usize], servers.len(), erased);
        }
    }
}

/// One loss-and-heal cycle on a fresh cluster: cycle `n` loses worker
/// `(3n + 1) mod 8`, killed or crash-restarted (see [`crashes`]).
fn cycle(env: &Env, placement: &[(u64, Vec<usize>)], requests: &[u64], n: usize, acc: &mut Cycles) {
    let victim = (3 * n + 1) % N_WORKERS;
    let crash = crashes(n);
    let under = Arc::new(UnderStore::new());
    let mut cfg =
        config().with_supervisor(SupervisorConfig::enabled().with_interval(Duration::ZERO));
    if crash {
        cfg = cfg.with_faults(FaultPlan::none().crash_restart(victim, requests[victim]));
    }
    let mut cluster = StoreCluster::spawn_with_under_store(cfg, Some(under.clone()));
    let core = cluster
        .supervisor()
        .expect("the cycle's cluster is supervised")
        .core()
        .clone();
    core.tick(); // adopt the fleet at epoch 1
    let master = cluster.master().clone();
    let (meta, transport) = env.wire(master.clone(), cluster.transport().clone(), false);
    let pair = clients(meta, transport, &under);
    write_corpus(env, placement, &pair, &under, &mut acc.writes);
    let plain = &pair.0;
    let before = stats_of(env, || cluster.worker_stats());
    acc.puts
        .record(before.iter().map(|s| s.puts).sum::<u64>() as f64 / placement.len().max(1) as f64);
    let repairs_before = master.repair_history().len();
    let raw: Arc<dyn Transport> = cluster.transport().clone();
    let path = ReplayPath {
        transport: raw.as_ref(),
        tcp: false,
        master: master.as_ref() as &dyn MetaService,
        verify: false,
    };
    let done = AtomicUsize::new(0);
    // A crash-restart fires at the worker's first request, so every
    // storm read that reaches it is already past the loss.
    let lost_now = AtomicBool::new(crash);
    let mut loss = Loss {
        crash,
        ..Loss::default()
    };
    let mut storm = Storm::default();
    let storm_start = Instant::now();
    let mut bg = (Vec::new(), Vec::new());
    let (window, rest) = acc.storm.get_or_insert_with(|| {
        (
            RequestStream::with_block(env.opts.seed, 1000, LOSS_READS),
            RequestStream::with_block(env.opts.seed, 1001, CYCLE_READS - LOSS_READS),
        )
    });
    std::thread::scope(|s| {
        let storm_thread = s.spawn(|| {
            let mut out = Storm::default();
            let mut seen = HashSet::new();
            for n in 0..CYCLE_READS as u64 {
                let in_window = (PRE_READS..PRE_READS + LOSS_READS).contains(&(n as usize));
                let id = if in_window {
                    window.next_file()
                } else {
                    rest.next_file()
                };
                let lost = lost_now.load(Ordering::Relaxed)
                    && master.peek(id).is_ok_and(|(_, s)| s.contains(&victim))
                    && seen.insert(id);
                storm_read(
                    env,
                    plain,
                    &master,
                    path,
                    (id, n),
                    (lost, crash, victim),
                    &mut out,
                );
                done.fetch_add(1, Ordering::Relaxed);
            }
            out
        });
        wait_for(&done, PRE_READS);
        if !crash {
            cluster.kill_worker(victim);
            lost_now.store(true, Ordering::Relaxed);
        }
        wait_for(&done, PRE_READS + LOSS_READS);
        bg.0 = stats_of(env, || cluster.worker_stats());
        heal(env, &core, plain, &mut loss);
        bg.1 = stats_of(env, || cluster.worker_stats());
        storm = storm_thread.join().unwrap_or_default();
    });
    acc.storm_s += storm_start.elapsed().as_secs_f64();
    if crash && cluster.fault_log().is_empty() {
        eprintln!("spbench: cycle {n}: worker {victim}'s crash-restart never fired");
    }
    let wall = storm_start.elapsed().as_secs_f64();
    let after = stats_of(env, || cluster.worker_stats());
    let stored = before.iter().map(|s| s.bytes_stored).sum::<u64>()
        + delta(&before, &after, |s| s.bytes_stored);
    acc.amp
        .record(stored as f64 / env.corpus.total_bytes() as f64);
    // A crash-restarted worker keeps serving; a killed one does not.
    let live: Vec<usize> = (0..N_WORKERS).filter(|&w| crash || w != victim).collect();
    let served = per_worker(&before, &after, |s| s.bytes_served);
    let live_served: Vec<f64> = live.iter().map(|&w| served[w]).collect();
    for &w in &live {
        acc.served[w] += served[w];
        acc.alive[w] += 1;
    }
    let (max, mean) = fg_busy(&live_served, NIC_RATE, wall);
    acc.busy_max.record(max);
    acc.busy_mean.record(mean);
    let bg_bytes = delta(&bg.0, &bg.1, |s| s.bytes_background) as f64;
    let carve_out = BACKGROUND_FRACTION * NIC_RATE * loss.heal_s * live.len() as f64;
    if !crash && carve_out > 0.0 {
        acc.bg_util.record(bg_bytes / carve_out);
    }
    acc.heals += master.repair_history().len() - repairs_before;
    acc.evictions += delta(&before, &after, |s| s.evictions);
    acc.spilled += delta(&before, &after, |s| s.spilled_bytes);
    acc.reloaded += delta(&before, &after, |s| s.reloaded_bytes);
    acc.reads.merge(&storm.log);
    acc.parity_reads += storm.parity_reads;
    acc.decoded += storm.decoded;
    loss.degraded = storm.degraded;
    acc.losses.push(loss);
}
