//! Reproducible performance harness for the real store's data path.
//!
//! Drives the in-process [`StoreCluster`] over a grid of
//! `file size × k × NIC rate` points and, at each point, measures every
//! data-path variant side by side:
//!
//! * `legacy_read` / `legacy_write` — a faithful re-implementation of the
//!   **pre-select, copying** seed data path (in-order `recv_timeout`
//!   join over the reply channels, intermediate shard vector, final
//!   concat copy; zero-padded per-shard `to_vec` copies on write). It is
//!   rebuilt here from the store's public RPC surface so the production
//!   client stays clean while every future PR can still measure itself
//!   against the original baseline.
//! * `read` — the production select-driven join materializing a
//!   contiguous buffer ([`spcache_store::Client::read`], one copy).
//! * `read_scattered` — the production zero-copy join
//!   ([`spcache_store::Client::read_scattered`], no copies).
//! * `write` / `write_bytes` — the one-copy and zero-copy write paths.
//! * `tcp_write` / `tcp_read` / `tcp_read_scattered` — the same
//!   production client driven over a real loopback-TCP cluster
//!   ([`spcache_net::TcpCluster`]): every byte crosses a socket and the
//!   wire codec, so these rows price the transport itself. The
//!   `tcp_read_slowdown` / `tcp_write_slowdown` ratios summarize that
//!   cost against the in-process rows.
//! * `recovery` — time-to-heal of the supervisor's proactive sweep
//!   (DESIGN.md §4.11): a worker holding a partition of each of
//!   [`RECOVERY_FILES`] files is killed, and the timed window covers one
//!   [`spcache_store::SupervisorCore::sweep`] re-materializing all of
//!   them from the under-store onto the survivors. Setup (writes,
//!   checkpoints, death detection) stays outside the window; one op =
//!   one sweep, and `mbytes_per_sec` is healed payload per second.
//! * `zipf_unbounded_read` / `zipf_budget_read` — a Zipf read storm over
//!   [`ZIPF_FILES`] checkpointed files, without and with a
//!   50%-of-dataset memory budget (DESIGN.md §4.13): the budgeted row
//!   prices LRU eviction, under-store free drops and transparent
//!   reloads; the `budget_read_ratio` summary is their quotient.
//! * `paced_recovery` — the recovery sweep re-run with its traffic paced
//!   to [`PACED_FRACTION`] of the NIC while a foreground Zipf storm
//!   runs; `paced_bg_utilization` reports how much of the carve-out the
//!   sweep actually used (≤ 1.1 by the pacing contract).
//! * `verified_read` — the contiguous read against a `verify_reads`
//!   fleet (DESIGN.md §4.15), A/B-interleaved against the plain `read`;
//!   their quotient is the `verify_overhead` summary, floored at 0.95
//!   by [`validate_report_json`] (verification is per byte movement,
//!   not per request, so steady-state reads must stay near-free).
//! * `parity_read` — a read that loses one data partition to a delete
//!   every op and rebuilds it from the file's Cauchy-RS parity: the
//!   full corruption-to-erasure recovery price (the parity fetch that
//!   joins the read's one k-of-n loop, decode, fire-and-forget read
//!   repair).
//!
//! Per point and variant it reports reads (or writes) per second, bytes
//! moved, and p50/p95/p99 latency, and emits a schema-stable
//! `BENCH_store.json` (see [`SCHEMA`]) so perf is tracked across PRs.
//! [`validate_report_json`] is the CI smoke check over that file.

use std::time::{Duration, Instant};

use bytes::Bytes;
use spcache_ec::{join_shards_bytes, split_into_shards};
use spcache_metrics::Samples;
use spcache_store::rpc::{PartKey, Request};
use spcache_store::transport::Transport;
use spcache_store::{StoreCluster, StoreConfig, StoreError};

/// Schema identifier stamped into the emitted JSON; bump on breaking
/// layout changes so downstream tooling can dispatch. v2 adds the
/// loopback-TCP variants (`tcp_write`, `tcp_read`, `tcp_read_scattered`)
/// and the `tcp_read_slowdown` / `tcp_write_slowdown` point summaries.
/// v3 adds the `recovery` variant (supervisor sweep time-to-heal).
/// v4 adds the `tcp_scattered_slowdown` point summary (wire cost of the
/// zero-copy read path, priced by the readiness-driven event loop).
/// v5 adds the memory-budget rows (DESIGN.md §4.13): the
/// `zipf_unbounded_read` / `zipf_budget_read` variants (a Zipf read
/// storm without and with a 50%-of-dataset budget forcing
/// eviction/reload), the `paced_recovery` variant (a sweep whose
/// background traffic is paced to [`PACED_FRACTION`] of the NIC while a
/// foreground storm runs), and the `budget_read_ratio` /
/// `paced_bg_utilization` point summaries.
/// v6 adds the integrity rows (DESIGN.md §4.15): the `verified_read`
/// variant (the contiguous read against a checksum-verifying fleet) and
/// the `parity_read` variant (every op rebuilds a deleted partition
/// from Cauchy-RS parity), plus the `verify_overhead` point summary —
/// the plain-over-verified read quotient, which
/// [`validate_report_json`] floors at 0.95.
pub const SCHEMA: &str = "spcache-bench-store/v6";

/// Files the `recovery` variant loses per sweep: every one holds a
/// partition on the killed worker, so one sweep re-materializes
/// `RECOVERY_FILES × file_bytes` of payload.
pub const RECOVERY_FILES: u64 = 3;

/// Dataset size of the `zipf_*_read` variants (files per point; each is
/// `file_bytes / 16`, floored at 64 KB, so a point's Zipf working set
/// stays comparable to one headline file).
pub const ZIPF_FILES: u64 = 12;

/// Reads folded into one timed `zipf_*_read` operation.
pub const ZIPF_READS_PER_OP: usize = 16;

/// Skew of the Zipf read storms — the paper's canonical ~1.1.
pub const ZIPF_EXPONENT: f64 = 1.1;

/// NIC share granted to background traffic in the `paced_recovery`
/// variant (paper §4.4's bandwidth carve-out).
pub const PACED_FRACTION: f64 = 0.5;

/// NIC rate substituted for unthrottled grid points in `paced_recovery`
/// — pacing is meaningless against an infinite NIC, so those points are
/// measured at 10 Gb/s.
pub const PACED_FALLBACK_NIC: f64 = 1.25e9;

/// One cell of the measurement grid.
#[derive(Debug, Clone, Copy)]
pub struct GridPoint {
    /// File size in bytes.
    pub file_bytes: usize,
    /// Partition count.
    pub k: usize,
    /// Worker (cache server) count.
    pub workers: usize,
    /// Emulated NIC bandwidth in bytes/s (`f64::INFINITY` = unthrottled).
    pub nic_bytes_per_sec: f64,
    /// Timed iterations per variant.
    pub iters: usize,
}

impl GridPoint {
    /// Human-readable point label, e.g. `64MB_k16_w8_unthrottled`.
    pub fn label(&self) -> String {
        let nic = if self.nic_bytes_per_sec.is_infinite() {
            "unthrottled".to_string()
        } else {
            format!("{:.0}MBps", self.nic_bytes_per_sec / 1e6)
        };
        format!(
            "{}MB_k{}_w{}_{}",
            self.file_bytes / (1 << 20),
            self.k,
            self.workers,
            nic
        )
    }
}

/// Latency/throughput measurements of one data-path variant at one point.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// Variant name (`legacy_read`, `read`, `read_scattered`, …).
    pub variant: String,
    /// Operations per second over the timed iterations.
    pub ops_per_sec: f64,
    /// Payload bytes moved per second.
    pub mbytes_per_sec: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Total payload bytes moved.
    pub bytes_moved: u64,
}

/// All variant measurements at one grid point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The grid cell measured.
    pub point: GridPoint,
    /// Per-variant results.
    pub variants: Vec<VariantResult>,
    /// Read throughput of the zero-copy select-driven path over the
    /// legacy path (`read_scattered / legacy_read`).
    pub read_speedup_scattered: f64,
    /// Read throughput of the contiguous select-driven path over the
    /// legacy path (`read / legacy_read`).
    pub read_speedup_contiguous: f64,
    /// Write throughput of the zero-copy path over the legacy path
    /// (`write_bytes / legacy_write`).
    pub write_speedup: f64,
    /// Wire cost of a read: in-process contiguous read throughput over
    /// loopback-TCP read throughput (`read / tcp_read`; > 1 means the
    /// socket path is slower).
    pub tcp_read_slowdown: f64,
    /// Wire cost of a write (`write / tcp_write`).
    pub tcp_write_slowdown: f64,
    /// Wire cost of the zero-copy read path
    /// (`read_scattered / tcp_read_scattered`): how much the socket +
    /// codec round trip costs when neither side copies payload bytes.
    pub tcp_scattered_slowdown: f64,
    /// Zipf read throughput under a 50%-of-dataset memory budget over
    /// the unbounded baseline (`zipf_budget_read / zipf_unbounded_read`);
    /// the ISSUE 7 acceptance floor is 0.8.
    pub budget_read_ratio: f64,
    /// Background bytes of the paced recovery sweep over the bandwidth
    /// the carve-out permits (`bg_bytes / (fraction × rate × elapsed ×
    /// live_workers)`); must stay ≤ 1.1 per the pacing contract.
    pub paced_bg_utilization: f64,
    /// Plain contiguous read time over checksum-verified read time
    /// (`read / verified_read`, A/B-interleaved so scheduler noise lands
    /// on both sides of the quotient). The §4.15 acceptance floor is
    /// 0.95 — verification is per byte movement, not per request, so a
    /// steady-state verified read must cost within 5% of a plain one —
    /// and [`validate_report_json`] enforces it.
    pub verify_overhead: f64,
}

/// A full harness run.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Grid-point results in grid order.
    pub points: Vec<PointResult>,
    /// Whether this was the `--quick` grid.
    pub quick: bool,
}

/// The default measurement grid. `quick` shrinks it to one small point
/// for CI smoke runs; the full grid includes the headline point
/// (64 MB files, k = 16, 8 workers, unthrottled) plus size/k/NIC sweeps.
pub fn default_grid(quick: bool) -> Vec<GridPoint> {
    if quick {
        return vec![GridPoint {
            file_bytes: 4 << 20,
            k: 4,
            workers: 4,
            nic_bytes_per_sec: f64::INFINITY,
            iters: 5,
        }];
    }
    let mut grid = Vec::new();
    // Headline: the acceptance point.
    grid.push(GridPoint {
        file_bytes: 64 << 20,
        k: 16,
        workers: 8,
        nic_bytes_per_sec: f64::INFINITY,
        iters: 12,
    });
    // Size sweep at k = 8.
    for &mb in &[16usize, 64] {
        grid.push(GridPoint {
            file_bytes: mb << 20,
            k: 8,
            workers: 8,
            nic_bytes_per_sec: f64::INFINITY,
            iters: 12,
        });
    }
    // k sweep at 16 MB.
    grid.push(GridPoint {
        file_bytes: 16 << 20,
        k: 4,
        workers: 8,
        nic_bytes_per_sec: f64::INFINITY,
        iters: 12,
    });
    // One throttled point: 10 Gb/s NICs, where transfer time dominates
    // and the copy savings shrink — the honest lower bound.
    grid.push(GridPoint {
        file_bytes: 16 << 20,
        k: 8,
        workers: 8,
        nic_bytes_per_sec: 1.25e9,
        iters: 8,
    });
    grid
}

/// Deterministic but non-trivial payload.
fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 31 + 7) % 256) as u8).collect()
}

/// Distinct-as-possible placement of `k` partitions over `workers`.
fn placement(k: usize, workers: usize) -> Vec<usize> {
    (0..k).map(|j| j % workers).collect()
}

// ---------------------------------------------------------------------
// The legacy (seed) data path, re-implemented over the raw RPC surface.
// ---------------------------------------------------------------------

/// The seed write path: zero-padded `split_into_shards` (one full copy),
/// `Bytes::from` per shard (a second copy), in-order reply collection.
fn legacy_write(
    transport: &dyn Transport,
    id: u64,
    data: &[u8],
    servers: &[usize],
) -> Result<(), StoreError> {
    let shards = split_into_shards(data, servers.len());
    let mut pending = Vec::with_capacity(servers.len());
    for (j, (shard, &server)) in shards.into_iter().zip(servers).enumerate() {
        let rx = transport.submit(
            server,
            Request::Put {
                key: PartKey::new(id, j as u32),
                data: Bytes::from(shard),
                sum: 0,
            },
        )?;
        pending.push((server, rx));
    }
    for (server, rx) in pending {
        rx.recv_timeout(Duration::from_secs(30))
            .map_err(|_| StoreError::WorkerDown(server))?
            .unit()?;
    }
    Ok(())
}

/// The seed read path: fire all gets, then await replies **in index
/// order** with a fresh per-partition deadline each, collect them into an
/// intermediate shard vector, and concat-copy at the end.
fn legacy_read(
    transport: &dyn Transport,
    id: u64,
    size: usize,
    servers: &[usize],
) -> Result<Vec<u8>, StoreError> {
    let k = servers.len();
    let mut pending = Vec::with_capacity(k);
    for (j, &server) in servers.iter().enumerate() {
        let rx = transport.submit(
            server,
            Request::Get {
                key: PartKey::new(id, j as u32),
            },
        )?;
        pending.push((server, rx));
    }
    let mut shards: Vec<Bytes> = Vec::with_capacity(k);
    for (server, rx) in pending {
        shards.push(
            rx.recv_timeout(Duration::from_secs(30))
                .map_err(|_| StoreError::WorkerDown(server))?
                .bytes()?,
        );
    }
    Ok(join_shards_bytes(&shards, size))
}

// ---------------------------------------------------------------------
// Measurement machinery.
// ---------------------------------------------------------------------

fn measure(
    variant: &str,
    point: &GridPoint,
    mut op: impl FnMut() -> usize,
) -> VariantResult {
    // One warm-up iteration (populates caches, faults in pages).
    let _ = op();
    let mut lat = Samples::with_capacity(point.iters);
    let mut bytes_moved = 0u64;
    let t0 = Instant::now();
    for _ in 0..point.iters {
        let it = Instant::now();
        bytes_moved += op() as u64;
        lat.record(it.elapsed().as_secs_f64() * 1e3);
    }
    let wall = t0.elapsed().as_secs_f64();
    VariantResult {
        variant: variant.to_string(),
        ops_per_sec: point.iters as f64 / wall,
        mbytes_per_sec: bytes_moved as f64 / wall / 1e6,
        p50_ms: lat.percentile(50.0),
        p95_ms: lat.percentile(95.0),
        p99_ms: lat.percentile(99.0),
        bytes_moved,
    }
}

/// Measures the supervisor's time-to-heal at one grid point: spawn a
/// supervised cluster, load [`RECOVERY_FILES`] files whose placements
/// all include worker 0, checkpoint them, kill worker 0 and let the
/// probe notice — then time exactly one recovery sweep. The first
/// (warm-up) iteration is discarded, mirroring [`measure`].
fn measure_recovery(point: &GridPoint, shared: &Bytes) -> VariantResult {
    use spcache_store::backing::{checkpoint, UnderStore};
    use spcache_store::SupervisorConfig;
    use std::sync::Arc;

    let servers = placement(point.k, point.workers);
    let mut lat = Samples::with_capacity(point.iters);
    let mut bytes_moved = 0u64;
    let mut wall = 0.0f64;
    for iter in 0..=point.iters {
        let base = if point.nic_bytes_per_sec.is_infinite() {
            StoreConfig::unthrottled(point.workers)
        } else {
            StoreConfig::throttled(point.workers, point.nic_bytes_per_sec)
        };
        let cfg = base.with_supervisor(
            SupervisorConfig::enabled()
                .with_interval(Duration::ZERO)
                .with_probe_timeout(Duration::from_millis(500)),
        );
        let under = Arc::new(UnderStore::new());
        let mut cluster = StoreCluster::spawn_with_under_store(cfg, Some(Arc::clone(&under)));
        let core = cluster.supervisor().expect("supervised cluster").core().clone();
        core.tick(); // adopt the fleet at epoch 1
        let client = cluster.client();
        for id in 0..RECOVERY_FILES {
            client.write_bytes(id, shared.clone(), &servers).expect("recovery seed write");
            checkpoint(&client, &under, id).expect("recovery checkpoint");
        }
        cluster.kill_worker(0);
        core.probe(); // death detection, outside the timed window
        let t = Instant::now();
        let rec = core.sweep().expect("dead worker must leave degraded files");
        let dt = t.elapsed();
        assert_eq!(
            rec.healed.len() as u64,
            RECOVERY_FILES,
            "sweep must heal every lost file: {rec:?}"
        );
        if iter == 0 {
            continue; // warm-up
        }
        lat.record(dt.as_secs_f64() * 1e3);
        bytes_moved += RECOVERY_FILES * point.file_bytes as u64;
        wall += dt.as_secs_f64();
    }
    VariantResult {
        variant: "recovery".to_string(),
        ops_per_sec: point.iters as f64 / wall,
        mbytes_per_sec: bytes_moved as f64 / wall / 1e6,
        p50_ms: lat.percentile(50.0),
        p95_ms: lat.percentile(95.0),
        p99_ms: lat.percentile(99.0),
        bytes_moved,
    }
}

/// Measures a Zipf read storm over [`ZIPF_FILES`] files, optionally
/// under a per-worker memory budget of `budget_fraction` × the worker's
/// unbounded resident share. With a budget, cold partitions are evicted
/// — written back to each worker's spill tier — and reads of evicted
/// partitions transparently reload them, so the row prices
/// eviction/refill end to end: the writeback, the slow-tier reload, and
/// the re-admission churn.
fn measure_zipf(point: &GridPoint, variant: &str, budget_fraction: Option<f64>) -> VariantResult {
    use rand::SeedableRng;
    use spcache_sim::Xoshiro256StarStar;
    use spcache_workload::zipf::ZipfSampler;

    let file_len = (point.file_bytes / 16).max(64 << 10);
    let servers_of = |id: u64| -> Vec<usize> {
        (0..point.k)
            .map(|j| (id as usize + j) % point.workers)
            .collect()
    };
    let total_bytes = ZIPF_FILES as usize * file_len;
    let budget =
        budget_fraction.map(|f| ((total_bytes / point.workers) as f64 * f).max(1.0) as usize);
    let base = if point.nic_bytes_per_sec.is_infinite() {
        StoreConfig::unthrottled(point.workers)
    } else {
        StoreConfig::throttled(point.workers, point.nic_bytes_per_sec)
    };
    let cluster = StoreCluster::spawn(base.with_memory_budget(budget));
    let client = cluster.client();
    let shared = Bytes::from(payload(file_len));
    for id in 0..ZIPF_FILES {
        client
            .write_bytes(id, shared.clone(), &servers_of(id))
            .expect("zipf seed write");
    }
    let sampler = ZipfSampler::new(ZIPF_FILES as usize, ZIPF_EXPONENT);
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x21bf);
    let name = variant.to_string();
    measure(variant, point, move || {
        let mut bytes = 0usize;
        for _ in 0..ZIPF_READS_PER_OP {
            let id = sampler.sample(&mut rng) as u64;
            bytes += client
                .read_quiet(id)
                .unwrap_or_else(|e| panic!("{name}: read of file {id} failed: {e:?}"))
                .len();
        }
        bytes
    })
}

/// Measures the recovery sweep with its traffic paced to
/// [`PACED_FRACTION`] of the NIC (unthrottled points run at
/// [`PACED_FALLBACK_NIC`]) while a foreground Zipf storm keeps the
/// survivors busy. Returns the variant row plus the measured background
/// utilization: healed background bytes over what the carve-out permits
/// across the sweep window — ≤ 1.1 means the pacer held its fraction.
fn measure_paced_recovery(point: &GridPoint, shared: &Bytes) -> (VariantResult, f64) {
    use rand::SeedableRng;
    use spcache_sim::Xoshiro256StarStar;
    use spcache_store::backing::{checkpoint, UnderStore};
    use spcache_store::SupervisorConfig;
    use spcache_workload::zipf::ZipfSampler;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let rate = if point.nic_bytes_per_sec.is_finite() {
        point.nic_bytes_per_sec
    } else {
        PACED_FALLBACK_NIC
    };
    let servers = placement(point.k, point.workers);
    let iters = point.iters.min(5);
    let load_len = (point.file_bytes / 16).max(64 << 10);
    let load_data = Bytes::from(payload(load_len));
    const LOAD_FILES: u64 = 8;
    let mut lat = Samples::with_capacity(iters);
    let mut bytes_moved = 0u64;
    let mut wall = 0.0f64;
    let mut util_sum = 0.0f64;
    for iter in 0..=iters {
        let cfg = StoreConfig::throttled(point.workers, rate)
            .with_background_fraction(PACED_FRACTION)
            .with_supervisor(
                SupervisorConfig::enabled()
                    .with_interval(Duration::ZERO)
                    .with_probe_timeout(Duration::from_millis(500)),
            );
        let under = Arc::new(UnderStore::new());
        let mut cluster = StoreCluster::spawn_with_under_store(cfg, Some(Arc::clone(&under)));
        let core = cluster.supervisor().expect("supervised cluster").core().clone();
        core.tick(); // adopt the fleet at epoch 1
        let client = cluster.client();
        for id in 0..RECOVERY_FILES {
            client.write_bytes(id, shared.clone(), &servers).expect("paced seed write");
            checkpoint(&client, &under, id).expect("paced checkpoint");
        }
        // The storm's files live strictly off worker 0, so the
        // foreground load never stalls on the corpse mid-sweep.
        for id in 100..100 + LOAD_FILES {
            let off_corpse: Vec<usize> = (0..point.k)
                .map(|j| 1 + (id as usize + j) % (point.workers - 1))
                .collect();
            client.write_bytes(id, load_data.clone(), &off_corpse).expect("load write");
        }
        let stop = Arc::new(AtomicBool::new(false));
        let storm = {
            let client = cluster.client();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let sampler = ZipfSampler::new(LOAD_FILES as usize, ZIPF_EXPONENT);
                let mut rng = Xoshiro256StarStar::seed_from_u64(0xfeed);
                while !stop.load(Ordering::Relaxed) {
                    let id = 100 + sampler.sample(&mut rng) as u64;
                    let _ = client.read_quiet(id);
                }
            })
        };
        cluster.kill_worker(0);
        core.probe(); // death detection, outside the timed window
        let bg_before: u64 = cluster
            .worker_stats()
            .expect("stats")
            .iter()
            .map(|s| s.bytes_background)
            .sum();
        let t = Instant::now();
        let rec = core.sweep().expect("dead worker must leave degraded files");
        let dt = t.elapsed();
        stop.store(true, Ordering::Relaxed);
        storm.join().expect("storm thread");
        assert_eq!(
            rec.healed.len() as u64,
            RECOVERY_FILES,
            "paced sweep must heal every lost file: {rec:?}"
        );
        if iter == 0 {
            continue; // warm-up
        }
        let bg_after: u64 = cluster
            .worker_stats()
            .expect("stats")
            .iter()
            .map(|s| s.bytes_background)
            .sum();
        let live = (point.workers - 1) as f64;
        util_sum +=
            (bg_after - bg_before) as f64 / (PACED_FRACTION * rate * dt.as_secs_f64() * live);
        lat.record(dt.as_secs_f64() * 1e3);
        bytes_moved += RECOVERY_FILES * point.file_bytes as u64;
        wall += dt.as_secs_f64();
    }
    (
        VariantResult {
            variant: "paced_recovery".to_string(),
            ops_per_sec: iters as f64 / wall,
            mbytes_per_sec: bytes_moved as f64 / wall / 1e6,
            p50_ms: lat.percentile(50.0),
            p95_ms: lat.percentile(95.0),
            p99_ms: lat.percentile(99.0),
            bytes_moved,
        },
        util_sum / iters as f64,
    )
}

/// The point's base config (NIC throttled or not), shared by the
/// integrity rows.
fn point_config(point: &GridPoint) -> StoreConfig {
    if point.nic_bytes_per_sec.is_infinite() {
        StoreConfig::unthrottled(point.workers)
    } else {
        StoreConfig::throttled(point.workers, point.nic_bytes_per_sec)
    }
}

/// Measures the contiguous read against a `verify_reads` fleet
/// (DESIGN.md §4.15) and its cost relative to the plain read. Workers
/// verify each partition on the first read after it lands (and after
/// every later byte movement); client-side re-verification is the
/// wire-fault knob priced by the chaos harness, not this row. The two
/// paths are A/B-interleaved iteration by iteration — `plain` reads the
/// main cluster's seed file between each verified read — so scheduler
/// noise lands on both sides of the returned
/// `verify_overhead = t_plain / t_verified` quotient, and the quotient
/// is the best of three whole loops so one unlucky window cannot flake
/// the 0.95 floor (mirrors the contiguous-read regression gate).
fn measure_verified(
    point: &GridPoint,
    shared: &Bytes,
    servers: &[usize],
    plain: &spcache_store::Client,
) -> (VariantResult, f64) {
    let cluster = StoreCluster::spawn(point_config(point).with_verify_reads(true));
    // The writer stamps real checksums onto the Puts (a non-verifying
    // writer would stamp the UNVERIFIED sentinel and the fleet would
    // have nothing to check); the reader then trusts the in-process
    // transport and leaves verification to the workers.
    cluster
        .client()
        .write_bytes(1, shared.clone(), servers)
        .expect("verified seed write");
    let client = cluster.client().with_verify(false);
    // Warm-up: pays the one post-landing verification pass per
    // partition, mirroring `measure`'s discarded first iteration.
    let _ = client.read_quiet(1).expect("verified warm-up");
    let _ = plain.read_quiet(1).expect("plain warm-up");
    const LOOPS: usize = 3;
    let mut lat = Samples::with_capacity(LOOPS * point.iters);
    let mut bytes_moved = 0u64;
    let mut t_total = 0.0f64;
    let mut best = f64::NEG_INFINITY;
    for _ in 0..LOOPS {
        let (mut t_verified, mut t_plain) = (0.0f64, 0.0f64);
        for _ in 0..point.iters {
            let t = Instant::now();
            bytes_moved += client.read_quiet(1).expect("verified read").len() as u64;
            let dt = t.elapsed().as_secs_f64();
            t_verified += dt;
            lat.record(dt * 1e3);
            let t = Instant::now();
            let _ = plain.read_quiet(1).expect("plain read");
            t_plain += t.elapsed().as_secs_f64();
        }
        t_total += t_verified;
        best = best.max(t_plain / t_verified);
    }
    (
        VariantResult {
            variant: "verified_read".to_string(),
            ops_per_sec: (LOOPS * point.iters) as f64 / t_total,
            mbytes_per_sec: bytes_moved as f64 / t_total / 1e6,
            p50_ms: lat.percentile(50.0),
            p95_ms: lat.percentile(95.0),
            p99_ms: lat.percentile(99.0),
            bytes_moved,
        },
        best,
    )
}

/// Measures the corruption-to-erasure recovery read (DESIGN.md §4.15):
/// every op deletes one data partition out from under the file, so the
/// read pays the full parity path — the typed erasure, the parity
/// fetch that joins the same late-binding loop (landed data shards are
/// kept), the Cauchy-RS decode, and the fire-and-forget read repair. The repair's re-landed partition is removed again by the
/// next op's delete (the channel transport orders both FIFO per
/// worker), so every timed iteration decodes.
fn measure_parity_read(point: &GridPoint, shared: &Bytes) -> VariantResult {
    let cluster =
        StoreCluster::spawn(point_config(point).with_verify_reads(true).with_parity(1));
    // Leave the last worker dataless: parity never shares a server with
    // a data partition, so the spread keeps exactly one spare for the
    // `r = 1` shard.
    let spread = point.workers - 1;
    let servers: Vec<usize> = (0..point.k).map(|j| j % spread).collect();
    let client = cluster.client();
    client
        .write_bytes(1, shared.clone(), &servers)
        .expect("parity seed write");
    let transport = cluster.transport().clone();
    let victim = servers[0];
    measure("parity_read", point, move || {
        transport
            .call(
                victim,
                Request::Delete {
                    key: PartKey::new(1, 0),
                },
                Duration::from_secs(5),
            )
            .expect("partition delete");
        client.read_quiet(1).expect("parity read").len()
    })
}

/// Measures every data-path variant at one grid point.
pub fn run_point(point: GridPoint) -> PointResult {
    let data = payload(point.file_bytes);
    let servers = placement(point.k, point.workers);
    let cfg = if point.nic_bytes_per_sec.is_infinite() {
        StoreConfig::unthrottled(point.workers)
    } else {
        StoreConfig::throttled(point.workers, point.nic_bytes_per_sec)
    };
    let cluster = StoreCluster::spawn(cfg);
    let client = cluster.client();
    let transport = cluster.transport().clone();
    let shared = Bytes::from(data.clone());

    let mut variants = Vec::new();

    // Write paths: write under a fresh id each iteration, deleting after
    // so the footprint stays bounded. Deletion time is inside the timed
    // window for all three variants equally.
    let mut next_id = 1_000_000u64;
    variants.push(measure("legacy_write", &point, || {
        next_id += 1;
        legacy_write(transport.as_ref(), next_id, &data, &servers).expect("legacy write");
        for (j, &s) in servers.iter().enumerate() {
            let _ = transport.call(
                s,
                Request::Delete {
                    key: PartKey::new(next_id, j as u32),
                },
                Duration::from_secs(5),
            );
        }
        data.len()
    }));
    variants.push(measure("write", &point, || {
        next_id += 1;
        client.write(next_id, &data, &servers).expect("write");
        client.delete(next_id).expect("delete");
        data.len()
    }));
    variants.push(measure("write_bytes", &point, || {
        next_id += 1;
        client
            .write_bytes(next_id, shared.clone(), &servers)
            .expect("write_bytes");
        client.delete(next_id).expect("delete");
        data.len()
    }));

    // Read paths, all against the same resident file.
    client.write_bytes(1, shared.clone(), &servers).expect("seed write");
    variants.push(measure("legacy_read", &point, || {
        legacy_read(transport.as_ref(), 1, data.len(), &servers)
            .expect("legacy read")
            .len()
    }));
    variants.push(measure("read", &point, || {
        client.read_quiet(1).expect("read").len()
    }));
    variants.push(measure("read_scattered", &point, || {
        let f = client.read_scattered(1).expect("read_scattered");
        f.size()
    }));

    // The same production client over real loopback sockets: a separate
    // TcpCluster with the identical worker configuration, so the delta
    // against `write`/`read` is purely the wire (codec + TCP + demux).
    let tcp_cfg = if point.nic_bytes_per_sec.is_infinite() {
        StoreConfig::unthrottled(point.workers)
    } else {
        StoreConfig::throttled(point.workers, point.nic_bytes_per_sec)
    };
    let tcp = spcache_net::TcpCluster::spawn(tcp_cfg);
    let tcp_client = tcp.client();
    variants.push(measure("tcp_write", &point, || {
        next_id += 1;
        tcp_client.write(next_id, &data, &servers).expect("tcp write");
        tcp_client.delete(next_id).expect("tcp delete");
        data.len()
    }));
    tcp_client.write_bytes(1, shared.clone(), &servers).expect("tcp seed write");
    variants.push(measure("tcp_read", &point, || {
        tcp_client.read_quiet(1).expect("tcp read").len()
    }));
    variants.push(measure("tcp_read_scattered", &point, || {
        let f = tcp_client.read_scattered(1).expect("tcp read_scattered");
        f.size()
    }));
    tcp.shutdown();

    // Time-to-heal of the supervisor's recovery sweep.
    variants.push(measure_recovery(&point, &shared));

    // Memory-budget rows (DESIGN.md §4.13): the same Zipf storm with and
    // without a 50%-of-dataset budget, and a recovery sweep paced to the
    // background NIC carve-out under foreground load.
    variants.push(measure_zipf(&point, "zipf_unbounded_read", None));
    variants.push(measure_zipf(&point, "zipf_budget_read", Some(0.5)));
    let (paced, paced_bg_utilization) = measure_paced_recovery(&point, &shared);
    variants.push(paced);

    // Integrity rows (DESIGN.md §4.15): the checksum-verified read
    // priced A/B against the plain read, and a read that rebuilds a
    // deleted partition from Cauchy-RS parity every op.
    let (verified, verify_overhead) = measure_verified(&point, &shared, &servers, &client);
    variants.push(verified);
    variants.push(measure_parity_read(&point, &shared));

    let thpt = |name: &str| {
        variants
            .iter()
            .find(|v| v.variant == name)
            .map(|v| v.mbytes_per_sec)
            .unwrap_or(f64::NAN)
    };
    PointResult {
        read_speedup_scattered: thpt("read_scattered") / thpt("legacy_read"),
        read_speedup_contiguous: thpt("read") / thpt("legacy_read"),
        write_speedup: thpt("write_bytes") / thpt("legacy_write"),
        tcp_read_slowdown: thpt("read") / thpt("tcp_read"),
        tcp_write_slowdown: thpt("write") / thpt("tcp_write"),
        tcp_scattered_slowdown: thpt("read_scattered") / thpt("tcp_read_scattered"),
        budget_read_ratio: thpt("zipf_budget_read") / thpt("zipf_unbounded_read"),
        paced_bg_utilization,
        verify_overhead,
        point,
        variants,
    }
}

/// Runs the whole grid, logging progress to stderr.
pub fn run_grid(grid: &[GridPoint], quick: bool) -> PerfReport {
    let mut points = Vec::with_capacity(grid.len());
    for &point in grid {
        eprintln!("[perf] measuring {} ...", point.label());
        let t0 = Instant::now();
        let result = run_point(point);
        eprintln!(
            "[perf]   {}: read ×{:.2} (contiguous ×{:.2}), write ×{:.2} vs legacy \
             [{:.1}s]",
            point.label(),
            result.read_speedup_scattered,
            result.read_speedup_contiguous,
            result.write_speedup,
            t0.elapsed().as_secs_f64(),
        );
        points.push(result);
    }
    PerfReport { points, quick }
}

// ---------------------------------------------------------------------
// Schema-stable JSON emission + validation (no serde needed: the format
// is hand-rolled and hand-checked so CI can smoke-test it offline).
// ---------------------------------------------------------------------

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else if x.is_infinite() && x > 0.0 {
        // NIC rate ∞ = unthrottled; encoded as null.
        "null".to_string()
    } else {
        "null".to_string()
    }
}

/// Renders the report as schema-stable JSON (key order fixed).
pub fn report_to_json(report: &PerfReport, machine: &str) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"machine\": \"{}\",\n", machine.replace('"', "'")));
    out.push_str(&format!("  \"quick\": {},\n", report.quick));
    out.push_str("  \"points\": [\n");
    for (i, p) in report.points.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"label\": \"{}\",\n", p.point.label()));
        out.push_str(&format!("      \"file_bytes\": {},\n", p.point.file_bytes));
        out.push_str(&format!("      \"k\": {},\n", p.point.k));
        out.push_str(&format!("      \"workers\": {},\n", p.point.workers));
        out.push_str(&format!(
            "      \"nic_bytes_per_sec\": {},\n",
            json_f64(p.point.nic_bytes_per_sec)
        ));
        out.push_str(&format!("      \"iters\": {},\n", p.point.iters));
        out.push_str(&format!(
            "      \"read_speedup_scattered\": {},\n",
            json_f64(p.read_speedup_scattered)
        ));
        out.push_str(&format!(
            "      \"read_speedup_contiguous\": {},\n",
            json_f64(p.read_speedup_contiguous)
        ));
        out.push_str(&format!(
            "      \"write_speedup\": {},\n",
            json_f64(p.write_speedup)
        ));
        out.push_str(&format!(
            "      \"tcp_read_slowdown\": {},\n",
            json_f64(p.tcp_read_slowdown)
        ));
        out.push_str(&format!(
            "      \"tcp_write_slowdown\": {},\n",
            json_f64(p.tcp_write_slowdown)
        ));
        out.push_str(&format!(
            "      \"tcp_scattered_slowdown\": {},\n",
            json_f64(p.tcp_scattered_slowdown)
        ));
        out.push_str(&format!(
            "      \"budget_read_ratio\": {},\n",
            json_f64(p.budget_read_ratio)
        ));
        out.push_str(&format!(
            "      \"paced_bg_utilization\": {},\n",
            json_f64(p.paced_bg_utilization)
        ));
        out.push_str(&format!(
            "      \"verify_overhead\": {},\n",
            json_f64(p.verify_overhead)
        ));
        out.push_str("      \"variants\": [\n");
        for (j, v) in p.variants.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"variant\": \"{}\", \"ops_per_sec\": {}, \
                 \"mbytes_per_sec\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \
                 \"p99_ms\": {}, \"bytes_moved\": {}}}{}\n",
                v.variant,
                json_f64(v.ops_per_sec),
                json_f64(v.mbytes_per_sec),
                json_f64(v.p50_ms),
                json_f64(v.p95_ms),
                json_f64(v.p99_ms),
                v.bytes_moved,
                if j + 1 < p.variants.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < report.points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates an emitted `BENCH_store.json`: the schema marker and every
/// required key must be present, and every number attached to a required
/// metric key must parse as a finite, strictly positive `f64`. This is
/// the CI bench-smoke check, so it accepts exactly what
/// [`report_to_json`] writes and nothing sloppier.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_report_json(json: &str) -> Result<(), String> {
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing or wrong schema marker (want {SCHEMA})"));
    }
    for key in [
        "\"machine\"",
        "\"points\"",
        "\"label\"",
        "\"file_bytes\"",
        "\"k\"",
        "\"workers\"",
        "\"iters\"",
        "\"read_speedup_scattered\"",
        "\"read_speedup_contiguous\"",
        "\"write_speedup\"",
        "\"tcp_read_slowdown\"",
        "\"tcp_write_slowdown\"",
        "\"tcp_scattered_slowdown\"",
        "\"budget_read_ratio\"",
        "\"paced_bg_utilization\"",
        "\"verify_overhead\"",
        "\"variants\"",
        "\"ops_per_sec\"",
        "\"mbytes_per_sec\"",
        "\"p50_ms\"",
        "\"p95_ms\"",
        "\"p99_ms\"",
        "\"bytes_moved\"",
    ] {
        if !json.contains(key) {
            return Err(format!("required key {key} absent"));
        }
    }
    // Every metric value must be a finite positive number.
    for metric in [
        "\"ops_per_sec\": ",
        "\"mbytes_per_sec\": ",
        "\"p50_ms\": ",
        "\"p95_ms\": ",
        "\"p99_ms\": ",
        "\"read_speedup_scattered\": ",
        "\"read_speedup_contiguous\": ",
        "\"write_speedup\": ",
        "\"tcp_read_slowdown\": ",
        "\"tcp_write_slowdown\": ",
        "\"tcp_scattered_slowdown\": ",
        "\"budget_read_ratio\": ",
        "\"paced_bg_utilization\": ",
        "\"verify_overhead\": ",
    ] {
        for (found, chunk) in json.match_indices(metric) {
            let rest = &json[found + metric.len()..];
            let end = rest
                .find([',', '}', '\n'])
                .unwrap_or(rest.len());
            let token = rest[..end].trim();
            let value: f64 = token
                .parse()
                .map_err(|_| format!("{chunk}: unparseable number {token:?}"))?;
            if !value.is_finite() || value <= 0.0 {
                return Err(format!("{chunk}: non-finite or non-positive value {value}"));
            }
        }
    }
    // The variant set must be complete in every point.
    for variant in [
        "legacy_write",
        "write",
        "write_bytes",
        "legacy_read",
        "read",
        "read_scattered",
        "tcp_write",
        "tcp_read",
        "tcp_read_scattered",
        "recovery",
        "zipf_unbounded_read",
        "zipf_budget_read",
        "paced_recovery",
        "verified_read",
        "parity_read",
    ] {
        if !json.contains(&format!("\"variant\": \"{variant}\"")) {
            return Err(format!("variant {variant} missing from report"));
        }
    }
    // The §4.15 acceptance floor: a checksummed read must stay within
    // 5% of the plain read path at every point.
    for (found, _) in json.match_indices("\"verify_overhead\": ") {
        let rest = &json[found + "\"verify_overhead\": ".len()..];
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        let token = rest[..end].trim();
        let value: f64 = token
            .parse()
            .map_err(|_| format!("verify_overhead: unparseable number {token:?}"))?;
        if value < 0.95 {
            return Err(format!(
                "verify_overhead {value:.3} below the 0.95 floor: checksummed reads \
                 cost more than 5% over plain reads"
            ));
        }
    }
    Ok(())
}

/// A one-line machine descriptor for the report header.
pub fn machine_descriptor() -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    format!("{} {} / {cpus} cpus", std::env::consts::OS, std::env::consts::ARCH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The harness times wall clock, so tests that spin up clusters must
    /// not share the machine with each other — the test runner's default
    /// parallelism would turn scheduler contention into phantom
    /// regressions on small CI boxes.
    static TIMING: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TIMING.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn quick_grid_runs_and_emits_valid_json() {
        let _serial = serial();
        let grid = default_grid(true);
        let report = run_grid(&grid, true);
        assert_eq!(report.points.len(), 1);
        let json = report_to_json(&report, &machine_descriptor());
        validate_report_json(&json).expect("emitted JSON must validate");
    }

    #[test]
    fn validation_rejects_broken_reports() {
        let _serial = serial();
        assert!(validate_report_json("{}").is_err());
        let grid = default_grid(true);
        let report = run_grid(&grid, true);
        let json = report_to_json(&report, "test");
        // Corrupt a metric into a NaN.
        let bad = json.replacen("\"p50_ms\": ", "\"p50_ms\": NaN, \"x\": ", 1);
        assert!(validate_report_json(&bad).is_err());
        let bad = json.replace(&format!("\"schema\": \"{SCHEMA}\""), "\"schema\": \"other\"");
        assert!(validate_report_json(&bad).is_err());
        // The §4.15 verify_overhead floor is enforced, not just parsed:
        // shift the measured value onto a scratch key and plant one
        // below the floor.
        let bad = json.replacen(
            "\"verify_overhead\": ",
            "\"verify_overhead\": 0.500000, \"shifted\": ",
            1,
        );
        let err = validate_report_json(&bad).expect_err("0.5 must violate the floor");
        assert!(err.contains("0.95 floor"), "unexpected error: {err}");
    }

    /// Tier-1 regression gate for the contiguous read path: `read` must
    /// stay within 10% of `legacy_read`. The scatter-on-arrival sink
    /// overlaps the single materializing copy with the network wait, so
    /// a healthy build clears 0.9 easily — but only once files are big
    /// enough that copy time dominates the select-join's fixed per-op
    /// overhead, hence a 16 MB gate point rather than the 4 MB quick
    /// point (where both builds sit near ×0.7 by design).
    ///
    /// Measured as an interleaved A/B rather than via [`run_point`]: the
    /// two variants alternate iteration by iteration inside one cluster,
    /// so scheduler noise from sibling tests lands on both sides of the
    /// ratio equally. Best-of-3 over whole loops keeps one unlucky
    /// window from flaking the gate.
    #[test]
    fn contiguous_read_does_not_regress_against_legacy() {
        let _serial = serial();
        let point = GridPoint {
            file_bytes: 16 << 20,
            k: 8,
            workers: 4,
            nic_bytes_per_sec: f64::INFINITY,
            iters: 8,
        };
        let data = payload(point.file_bytes);
        let servers = placement(point.k, point.workers);
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(point.workers));
        let client = cluster.client();
        let transport = cluster.transport().clone();
        client
            .write_bytes(1, Bytes::from(data.clone()), &servers)
            .expect("gate seed write");

        let speedup_once = || {
            // Warm both paths (page faults, lazily-grown buffers).
            legacy_read(transport.as_ref(), 1, data.len(), &servers).expect("warm legacy");
            client.read_quiet(1).expect("warm read");
            let (mut t_legacy, mut t_read) = (0.0f64, 0.0f64);
            for _ in 0..point.iters {
                let t = Instant::now();
                legacy_read(transport.as_ref(), 1, data.len(), &servers).expect("legacy read");
                t_legacy += t.elapsed().as_secs_f64();
                let t = Instant::now();
                client.read_quiet(1).expect("read");
                t_read += t.elapsed().as_secs_f64();
            }
            t_legacy / t_read
        };
        let best = (0..3).map(|_| speedup_once()).fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best >= 0.9,
            "contiguous read regressed: read/legacy_read = {best:.3} < 0.9 \
             (best of 3 at {})",
            point.label()
        );
    }

    #[test]
    fn legacy_paths_are_byte_exact() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let transport = cluster.transport().clone();
        let data = payload(100_001);
        let servers = placement(8, 4);
        legacy_write(transport.as_ref(), 9, &data, &servers).unwrap();
        cluster.master().register(9, data.len(), servers.clone()).unwrap();
        assert_eq!(
            legacy_read(transport.as_ref(), 9, data.len(), &servers).unwrap(),
            data
        );
        // And the production client reads the legacy layout fine.
        assert_eq!(cluster.client().read_quiet(9).unwrap(), data);
    }
}
