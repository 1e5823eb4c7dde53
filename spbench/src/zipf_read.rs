//! `zipf_read` — the paper's own experiment: read-only Zipf traffic from
//! two closed-loop clients over loopback TCP, NICs emulated at
//! 100 MB/s per worker, after SP-cache has partitioned the corpus
//! itself (files written unsplit, popularity learned from counted
//! lookups, then Algorithms 1 + 2 and the parallel repartitioners).
//! Set-up runs five times; the last cluster serves the measured phase,
//! and every round ends with a worker-loss tail that gives the
//! degraded-read and heal figures.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spcache_net::TcpCluster;
use spcache_store::backing::UnderStore;
use spcache_store::master::MetaService;
use spcache_store::rpc::Request;
use spcache_store::transport::Transport;
use spcache_store::{Client, RetryPolicy, StoreConfig};

use spcache_metrics::Samples;

use crate::common::{
    common_layers, delta, fg_busy, imbalance, loss_tail, measured_read, op_metrics, per_worker,
    rebalance, seed_corpus, stats_of, train_popularity, Env, Loss, Measured, OpLog, Rebalance,
    ReplayPath, TAIL_VICTIMS, TRAINING_LOOKUPS,
};
use crate::corpus::{RequestStream, BLOCK, N_WORKERS};

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Emulated NIC rate, bytes/s per worker. Slow enough that the NIC,
/// not the CPU, sets read latency: on a 2-core host one competing
/// busy process raised p99 by 5–14% here, against 42% at 250 MB/s,
/// where copies and wake-ups make most of a read's time.
pub const NIC_RATE: f64 = 100e6;
/// `--seconds` buys each client one whole popularity block of reads per
/// this many seconds (about what a block takes). The measured phase is
/// a fixed amount of work in whole blocks, so the per-worker load it
/// measures does not depend on where a deadline cut the last block.
pub const BLOCK_SECONDS: f64 = 4.0;
/// Aggregate read rate Algorithm 1 plans for, requests/s: this
/// workload's measured read rate (see `spbench/README.md`, "The
/// request rate SP-cache plans for").
pub const PLAN_LAMBDA: f64 = 120.0;

fn clients(env: &Env, cluster: &TcpCluster) -> Vec<Client> {
    (0..CLIENTS)
        .map(|_| {
            let (meta, transport) = env.wire(
                Arc::new(cluster.master_client()),
                cluster.transport().clone(),
                true,
            );
            Client::new(meta, transport)
        })
        .collect()
}

/// Runs the workload.
pub fn run(env: &Env) -> Measured {
    let mut out = Measured::default();
    let mut setup = Samples::new();
    let mut amp = Samples::new();
    let mut puts = Samples::new();
    let mut seeding = OpLog::default();
    let mut rebs: Vec<Rebalance> = Vec::new();
    let mut losses: Vec<Loss> = Vec::new();
    let setups = env.opts.setups();
    for round in 0..setups {
        let t = Instant::now();
        let under = Arc::new(UnderStore::new());
        let cluster = TcpCluster::spawn_with_under_store(
            StoreConfig::throttled(N_WORKERS, NIC_RATE),
            Some(under.clone()),
        );
        let readers = clients(env, &cluster);
        seed_corpus(env, &readers[0], None, &under, None, true, &mut seeding);
        let seeded = stats_of(env, || cluster.worker_stats());
        puts.record(
            seeded.iter().map(|s| s.puts).sum::<u64>() as f64 / env.corpus.files.len() as f64,
        );
        train_popularity(env, readers[0].master().as_ref(), TRAINING_LOOKUPS);
        let master = cluster.master().clone();
        let (exec_meta, exec_transport) =
            env.wire(master.clone(), cluster.transport().clone(), true);
        rebs.push(rebalance(
            env,
            &master,
            NIC_RATE,
            PLAN_LAMBDA,
            exec_meta.as_ref(),
            exec_transport.as_ref(),
        ));
        setup.record(t.elapsed().as_secs_f64());
        let stored: u64 = stats_of(env, || cluster.worker_stats())
            .iter()
            .map(|s| s.bytes_stored)
            .sum();
        amp.record(stored as f64 / env.corpus.total_bytes() as f64);

        if round + 1 == setups {
            measure(env, &cluster, &readers, &mut out);
        }

        let victim = TAIL_VICTIMS[round % TAIL_VICTIMS.len()];
        let reader = Client::new(
            Arc::new(cluster.master_client()),
            cluster.transport().clone(),
        )
        .with_retry(RetryPolicy::default())
        .with_under_store(under.clone());
        let transport: Arc<dyn Transport> = cluster.transport().clone();
        let kill = || {
            let _ = cluster
                .transport()
                .call(victim, Request::Shutdown, Duration::from_secs(10));
            cluster.master().mark_dead(victim);
        };
        losses.push(loss_tail(
            env, &master, transport, under, &reader, victim, kill,
        ));
        drop(readers);
        drop(reader);
        cluster.shutdown();
    }
    op_metrics(&mut out, &seeding, 1, true);
    out.e2e.write_amp = amp.median();
    out.e2e.setup_s = setup.median();
    common_layers(&mut out, &rebs, &losses);
    out.layer.insert("worker.puts_per_write", puts.median());
    out
}

/// The measured phase: both clients read Zipf-chosen files, a fixed
/// number of whole popularity blocks each; every read is checked byte
/// for byte after its clock stops.
fn measure(env: &Env, cluster: &TcpCluster, readers: &[Client], out: &mut Measured) {
    let master: Arc<dyn MetaService> = cluster.master().clone();
    let transport: Arc<dyn Transport> = cluster.transport().clone();
    let path = ReplayPath {
        transport: transport.as_ref(),
        tcp: true,
        master: master.as_ref(),
        verify: false,
    };
    let before = stats_of(env, || cluster.worker_stats());
    let repairs_before = cluster.master().repair_history().len();
    let blocks = ((env.seconds / BLOCK_SECONDS).round() as usize).max(1);
    let start = Instant::now();
    let logs: Vec<OpLog> = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .iter()
            .enumerate()
            .map(|(i, client)| {
                s.spawn(move || {
                    let mut stream = RequestStream::new(env.opts.seed, 1 + i as u64);
                    let mut log = OpLog::default();
                    for n in 0..(blocks * BLOCK) as u64 {
                        let id = stream.next_file();
                        measured_read(env, client, path, id, n, &mut log);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let after = stats_of(env, || cluster.worker_stats());
    let mut log = OpLog::default();
    for l in &logs {
        log.merge(l);
    }
    op_metrics(out, &log, CLIENTS, false);
    let served = per_worker(&before, &after, |s| s.bytes_served);
    out.e2e.imbalance_eta = imbalance(&served);
    let (max, mean) = fg_busy(&served, NIC_RATE, wall);
    out.layer.insert("throttle.fg_busy_max", max);
    out.layer.insert("throttle.fg_busy_mean", mean);
    let reads = log.count(false).max(1) as f64;
    eprintln!(
        "spbench: zipf_read measured {:.1} reads/s; plans assume {PLAN_LAMBDA}",
        reads / wall
    );
    let heals = cluster.master().repair_history().len() - repairs_before;
    out.layer
        .insert("client.heals_per_read", heals as f64 / reads);
    out.layer.insert(
        "worker.evictions_per_op",
        delta(&before, &after, |s| s.evictions) as f64 / reads,
    );
    out.layer.insert(
        "worker.spilled_mb",
        delta(&before, &after, |s| s.spilled_bytes) as f64 / 1e6,
    );
    out.layer.insert(
        "worker.reloaded_mb",
        delta(&before, &after, |s| s.reloaded_bytes) as f64 / 1e6,
    );
}
