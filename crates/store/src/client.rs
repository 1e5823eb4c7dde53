//! The SP-Client: parallel fork-join reads and writes, with a robust,
//! zero-copy, select-driven data path (one late-binding k-of-n fetch
//! loop per read attempt under a single deadline: data, parity and
//! hedged under-store ranges; bounded retry).

use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Select, TryRecvError};
use parking_lot::Mutex;
use spcache_core::online::partition_range;
use spcache_ec::{split_shards_bytes, ReedSolomon};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::backing::UnderStore;
use crate::config::{DegradedPolicy, HedgePolicy, RetryPolicy};
use crate::master::MetaService;
use crate::metalog::FileIntegrity;
use crate::rpc::{PartKey, Reply, Request, StoreError};
use crate::transport::Transport;

/// A client handle onto a running store cluster.
///
/// Cloning is cheap; each clone can issue requests concurrently.
///
/// The client is **transport-agnostic**: it talks to workers through a
/// [`Transport`] (in-process channels or `spcache-net`'s TCP framing)
/// and to its master through a [`MetaService`] (the in-process
/// [`crate::master::Master`] or a wire master client) — the read/write
/// logic below is byte-identical over both.
///
/// Reads are **robust**, **out-of-order** and **late-binding**: one
/// attempt is a single k-of-n fetch loop over the file's `k` data
/// partitions, its `r` parity partitions and the under-store byte
/// ranges. All `k` data fetches are issued at once and their replies
/// consumed as they land via a ready-set [`Select`] — no partition waits
/// behind a slower, lower-indexed one. On the first erasure (`Corrupt`
/// or `NotFound`) the parity fetches join the same loop: landed shards
/// are kept, and the first `k` shards that verify bind the read (the
/// rest are rebuilt by the Cauchy decode). One [`RetryPolicy::deadline`]
/// covers the whole attempt, parity included (the fork-join of Fig. 9a
/// really is bounded by its slowest partition, not by `k` stacked
/// timeouts). A failed attempt is retried with exponential backoff after
/// re-locating the file (and, when an under-store is attached, after
/// recovering lost partitions onto live workers). With [`HedgePolicy`]
/// enabled, the hedge timer fires once per read for the *actual*
/// stragglers: every data partition still outstanding at the threshold
/// is served from its exact byte range in the under-store checkpoint
/// ([`UnderStore::load_range`]) — the late-binding trick of EC-Cache,
/// adapted to a redundancy-free cache where the checkpoint is the only
/// second copy.
///
/// Reads are also **zero-copy** up to the final assembly:
/// [`Client::write_bytes`] slices one backing buffer into partition
/// views, workers store and reply with views of that same allocation,
/// and [`Client::read_scattered`] hands those views back without ever
/// materializing a contiguous copy. [`Client::read`] performs exactly
/// one copy: each reply is scattered directly into its offset of a
/// single preallocated output buffer as it arrives.
#[derive(Debug, Clone)]
pub struct Client {
    master: Arc<dyn MetaService>,
    transport: Arc<dyn Transport>,
    retry: RetryPolicy,
    hedge: HedgePolicy,
    under: Option<Arc<UnderStore>>,
    hedged_fetches: Arc<AtomicU64>,
    hedged_bytes: Arc<AtomicU64>,
    /// Whether data requests are stamped with the target worker's
    /// fencing epoch (see [`Request::fenced`]); off by default — an
    /// unfenced client is wire-identical to the pre-supervisor store.
    fenced: bool,
    /// Admission policy for operations on files whose repair is in
    /// flight elsewhere.
    degraded: DegradedPolicy,
    /// Whether this client's data requests are stamped
    /// [`Request::Background`]: workers pace them through the
    /// background share of their NIC. On for maintenance actors
    /// (supervisor sweeps, repartitioners, heal pushes), off for
    /// foreground clients.
    background: bool,
    /// Whether fenced stamps also carry the master's **master epoch**
    /// (§4.14), so workers can detect traffic from a deposed master.
    /// On for masters' own actors (the supervisor); off for plain
    /// clients, whose stamps stay wire-identical to the pre-failover
    /// store.
    master_stamp: bool,
    /// Cached per-worker epoch table, shared across clones; refreshed
    /// from the master whenever a worker bounces a stale stamp.
    epochs: Arc<Mutex<Vec<u64>>>,
    /// Whether reads re-verify each landed partition against the
    /// master's checksum row (§4.15). Off by default: workers already
    /// verify when their `verify_reads` knob is on, and the wire adds
    /// its own framing CRCs — this knob adds the end-to-end check.
    verify: bool,
    /// How many Cauchy-RS parity partitions each write fans out (onto
    /// workers outside the file's data placement). 0 = redundancy-free
    /// (the seed behaviour); `r ≥ 1` lets a read rebuild a corrupt or
    /// lost partition from any `k` of the `k + r` partitions without an
    /// under-store round-trip.
    parity: usize,
}

impl Client {
    /// Builds a client over a metadata service and a worker transport,
    /// with a single-attempt [`RetryPolicy::none`] and hedging disabled
    /// (the seed behaviour).
    pub fn new(master: Arc<dyn MetaService>, transport: Arc<dyn Transport>) -> Self {
        assert!(transport.n_workers() > 0, "need at least one worker");
        Client {
            master,
            transport,
            retry: RetryPolicy::none(),
            hedge: HedgePolicy::disabled(),
            under: None,
            hedged_fetches: Arc::new(AtomicU64::new(0)),
            hedged_bytes: Arc::new(AtomicU64::new(0)),
            fenced: false,
            degraded: DegradedPolicy::Queue,
            background: false,
            master_stamp: false,
            epochs: Arc::new(Mutex::new(Vec::new())),
            verify: false,
            parity: 0,
        }
    }

    /// Sets the retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables (or disables) epoch fencing: every data request carries
    /// the target worker's registration epoch, so a crash-restarted
    /// zombie can never serve it (builder style). Requires a supervisor
    /// (or manual registration) granting epochs — against an
    /// all-epoch-0 fleet the stamps are elided and behaviour is
    /// unchanged.
    pub fn with_fencing(mut self, fenced: bool) -> Self {
        self.fenced = fenced;
        self
    }

    /// Sets the degraded-mode admission policy (builder style):
    /// [`DegradedPolicy::Queue`] keeps retrying while a repair is in
    /// flight elsewhere; [`DegradedPolicy::FastFail`] surfaces
    /// [`StoreError::Degraded`] immediately.
    pub fn with_degraded_policy(mut self, policy: DegradedPolicy) -> Self {
        self.degraded = policy;
        self
    }

    /// Sets the hedge policy (builder style). Hedging only fires when an
    /// under-store is attached too.
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = hedge;
        self
    }

    /// Attaches the under-store used for hedged reads and read-path
    /// recovery.
    pub fn with_under_store(mut self, under: Arc<UnderStore>) -> Self {
        self.under = Some(under);
        self
    }

    /// Marks this client's data requests as background traffic (builder
    /// style): workers pace them through the background share of their
    /// NIC (§4.4), so maintenance streams never starve foreground
    /// reads.
    pub fn with_background(mut self, background: bool) -> Self {
        self.background = background;
        self
    }

    /// Stamps every request with the metadata service's current master
    /// epoch (builder style). A worker that has heard from a newer
    /// master bounces the stamp with [`StoreError::StaleEpoch`] — how a
    /// deposed master's supervisor learns it was fenced (§4.14). Plain
    /// [`MetaService`] impls report epoch 0, which stamps nothing.
    pub fn with_master_stamp(mut self, master_stamp: bool) -> Self {
        self.master_stamp = master_stamp;
        self
    }

    /// Enables end-to-end read verification (builder style): every
    /// landed partition is checked against the master's checksum row,
    /// and a mismatch surfaces as a [`StoreError::Corrupt`] erasure
    /// instead of wrong bytes. Writes from a verifying client always
    /// record an integrity row.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the per-file parity width `r` (builder style): each write
    /// additionally encodes `r` Cauchy-RS parity partitions placed on
    /// workers *outside* the data placement, enabling the
    /// corruption-to-erasure recovery path of §4.15. Clamped per write
    /// to the number of spare workers.
    pub fn with_parity(mut self, parity: usize) -> Self {
        self.parity = parity;
        self
    }

    /// A clone of this client whose requests are background-stamped —
    /// handed to recovery and repartition paths running next to
    /// foreground traffic.
    pub fn as_background(&self) -> Client {
        self.clone().with_background(true)
    }

    /// Number of workers visible to this client.
    pub fn n_workers(&self) -> usize {
        self.transport.n_workers()
    }

    /// The metadata service (for metadata queries).
    pub fn master(&self) -> &Arc<dyn MetaService> {
        &self.master
    }

    /// The worker transport.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// How many partition fetches were served from the under-store by
    /// the hedging path (across all clones of this client).
    pub fn hedged_fetches(&self) -> u64 {
        self.hedged_fetches.load(Ordering::Relaxed)
    }

    /// How many bytes the hedging path actually pulled from the
    /// under-store (ranged reads — one straggling partition costs its
    /// partition's bytes, never the whole file).
    pub fn hedged_bytes(&self) -> u64 {
        self.hedged_bytes.load(Ordering::Relaxed)
    }

    /// Writes a file split into `k` partitions on the given `servers`
    /// (`servers.len() == k`). All partitions are pushed in parallel;
    /// returns when the slowest lands (§6.1 writes whole files with
    /// `k = 1`; the split-write mode of §7.8 passes larger `k`).
    ///
    /// Copies `data` once into a shared buffer; use
    /// [`Client::write_bytes`] to skip even that copy.
    ///
    /// # Errors
    ///
    /// Propagates worker failures; metadata registration errors if the id
    /// is taken.
    pub fn write(&self, id: u64, data: &[u8], servers: &[usize]) -> Result<(), StoreError> {
        self.write_bytes(id, Bytes::copy_from_slice(data), servers)
    }

    /// Zero-copy write: `data`'s backing allocation is sliced into
    /// per-partition views that the workers store directly — no byte is
    /// copied anywhere on the write path.
    ///
    /// # Errors
    ///
    /// Propagates worker failures; metadata registration errors if the id
    /// is taken.
    pub fn write_bytes(&self, id: u64, data: Bytes, servers: &[usize]) -> Result<(), StoreError> {
        let size = data.len();
        let sums = self.push_partitions(id, &data, servers)?;
        self.master.register(id, size, servers.to_vec())?;
        if self.verify || self.parity > 0 {
            // Record the integrity row only after the file exists: the
            // checksums describe exactly the partitions just pushed, and
            // the parity map tells readers where the recovery set lives.
            let parity = self.push_parity(id, &data, servers)?;
            self.master.set_integrity(id, FileIntegrity { sums, parity })?;
        }
        Ok(())
    }

    /// Writes a whole batch of files in one wave: every file's
    /// partition pushes are fired as a **single** transport batch
    /// (socket transports coalesce them into shared `writev` rounds),
    /// completions are collected under one shared deadline, and all
    /// metadata rows land through one [`MetaService::register_batch`]
    /// call — one metadata round-trip per wave instead of one per file.
    /// This is the seeding path for million-file corpora (§6.1 at
    /// fleet scale): callers stream chunks of a few thousand files
    /// through here instead of calling [`Client::write_bytes`] a
    /// million times.
    ///
    /// # Errors
    ///
    /// Propagates worker failures and metadata registration errors (a
    /// duplicate id rejects the whole chunk's metadata; already-pushed
    /// partitions are orphaned until GC, matching single-write
    /// semantics on registration failure).
    pub fn write_many(&self, files: &[(u64, Bytes, Vec<usize>)]) -> Result<(), StoreError> {
        if files.is_empty() {
            return Ok(());
        }
        let mut reqs = Vec::new();
        let mut rows = Vec::with_capacity(files.len());
        let mut integrity = Vec::with_capacity(files.len());
        for (id, data, servers) in files {
            let (puts, sums) = partition_puts(*id, data, servers);
            reqs.extend(puts);
            rows.push((*id, data.len(), servers.clone()));
            integrity.push((*id, sums));
        }
        self.put_all(reqs)?;
        self.master.register_batch(&rows)?;
        if self.verify || self.parity > 0 {
            // The bulk-seeding path records checksum rows but skips the
            // parity fan-out (seed corpora are re-derivable; parity is
            // for the hot set written through `write_bytes`).
            for (id, sums) in integrity {
                self.master.set_integrity(id, FileIntegrity::data_only(sums))?;
            }
        }
        Ok(())
    }

    /// Pushes `data` re-split into `servers.len()` partition views under
    /// this file's keys without touching metadata — the building block
    /// shared by [`Client::write_bytes`] and under-store recovery
    /// ([`crate::backing::recover_file`]). The views share `data`'s
    /// allocation (see [`split_shards_bytes`]). Returns the partitions'
    /// checksums (each Put is stamped with its shard's sum, so workers
    /// can verify later reads and spill reloads).
    pub(crate) fn push_partitions(
        &self,
        id: u64,
        data: &Bytes,
        servers: &[usize],
    ) -> Result<Vec<u64>, StoreError> {
        let (reqs, sums) = partition_puts(id, data, servers);
        self.put_all(reqs)?;
        Ok(sums)
    }

    /// The one Put fan-out: fires every request as ONE batch (socket
    /// transports coalesce the frames into shared `writev` rounds), then
    /// collects completions under one shared deadline — the write is
    /// bounded by its slowest partition, not by the sum of per-partition
    /// waits.
    fn put_all(&self, reqs: Vec<(usize, Request)>) -> Result<(), StoreError> {
        let servers: Vec<usize> = reqs.iter().map(|&(server, _)| server).collect();
        let rxs = self.submit_batch(reqs)?;
        let deadline = Instant::now() + self.retry.deadline;
        for (server, rx) in servers.into_iter().zip(rxs) {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(reply) => self.absorb_reply(server, reply)?.unit()?,
                Err(RecvTimeoutError::Disconnected) => return Err(self.worker_down(server)),
                Err(RecvTimeoutError::Timeout) => return Err(self.timeout(server)),
            }
        }
        Ok(())
    }

    /// Encodes and pushes this file's Cauchy-RS parity partitions onto
    /// workers *outside* its data placement, so no single worker holds
    /// both a data partition and the parity needed to rebuild it.
    /// Returns the `(server, checksum)` pair per parity index — the
    /// parity half of the master's integrity row. The configured width
    /// is clamped to the number of spare workers (a fleet with no spare
    /// gets no parity; the read path then heals via the under-store).
    fn push_parity(
        &self,
        id: u64,
        data: &Bytes,
        servers: &[usize],
    ) -> Result<Vec<(usize, u64)>, StoreError> {
        let k = servers.len();
        let spare: Vec<usize> = (0..self.transport.n_workers())
            .filter(|w| !servers.contains(w))
            .collect();
        let r = self.parity.min(spare.len());
        if r == 0 {
            return Ok(Vec::new());
        }
        let mut shards = ReedSolomon::new_cauchy(k, k + r).encode_bytes(data);
        let parity: Vec<Bytes> = shards.split_off(k).into_iter().map(Bytes::from).collect();
        // Rotate the spare list by file id so parity load spreads across
        // the fleet instead of piling onto the lowest-indexed workers.
        let rot = (id as usize) % spare.len();
        let places: Vec<usize> = (0..r).map(|p| spare[(rot + p) % spare.len()]).collect();
        let (reqs, sums) = puts(parity, &places, |p| PartKey::parity(id, p));
        self.put_all(reqs)?;
        Ok(places.into_iter().zip(sums).collect())
    }

    /// Best-effort partition drop on one worker (recovery GC); errors
    /// and dead workers are ignored. Deliberately unfenced (a stale
    /// epoch must not block GC), but background-stamped like the rest
    /// of a maintenance client's traffic.
    pub(crate) fn discard_partition(&self, server: usize, key: PartKey) {
        let mut req = Request::Delete { key };
        if self.background {
            req = req.background();
        }
        if let Ok(rx) = self.transport.submit(server, req) {
            let _ = rx.recv_timeout(self.retry.deadline);
        }
    }

    /// Reads a file: locates its partitions via the master (which counts
    /// the access), fetches them all in parallel, and scatters each reply
    /// into its offset of one preallocated buffer (the fork-join of
    /// Fig. 9a, out of order). Failed attempts are retried per the
    /// [`RetryPolicy`], recovering from the under-store when one is
    /// attached.
    ///
    /// # Errors
    ///
    /// Propagates unknown files, and — once retries are exhausted —
    /// missing partitions, timeouts, transport I/O failures and dead
    /// workers.
    pub fn read(&self, id: u64) -> Result<Vec<u8>, StoreError> {
        self.read_robust(id, true, true).map(ReadSink::into_vec)
    }

    /// Reads without bumping the popularity counter.
    pub fn read_quiet(&self, id: u64) -> Result<Vec<u8>, StoreError> {
        self.read_robust(id, false, true).map(ReadSink::into_vec)
    }

    /// Zero-copy read: returns the file as its in-index-order partition
    /// views, sharing the workers' cached allocations — no byte is copied
    /// on the way out. Consumers that stream (checksum, socket `writev`,
    /// re-partitioning) never need the contiguous copy [`Client::read`]
    /// materializes. Counts an access like [`Client::read`].
    ///
    /// The concatenation of the views, truncated to the file's size, is
    /// the file's content (legacy padded tails are trimmed by
    /// [`ScatteredFile::to_vec`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::read`].
    pub fn read_scattered(&self, id: u64) -> Result<ScatteredFile, StoreError> {
        self.read_robust(id, true, false).map(ReadSink::into_file)
    }

    /// One robust read: locate → one k-of-n fetch attempt → retry/heal
    /// loop; returns the filled sink. With `contiguous` set, each
    /// partition is copied into its offset of one preallocated output
    /// buffer **as its reply lands**, so the read's single copy overlaps
    /// the wait for slower partitions instead of running serially after
    /// the join.
    fn read_robust(
        &self,
        id: u64,
        count_access: bool,
        contiguous: bool,
    ) -> Result<ReadSink, StoreError> {
        let mut attempt = 0u32;
        let started = Instant::now();
        loop {
            attempt += 1;
            // Re-locate every attempt: recovery and repartition both
            // change the placement under us.
            let located = if count_access && attempt == 1 {
                self.master.locate(id)
            } else {
                self.master.peek(id)
            };
            let (size, servers) = located?;
            // The integrity row travels beside the placement: the
            // checksum half drives end-to-end verification, the parity
            // half names the recovery set (§4.15).
            let row = self.verify.then(|| self.master.integrity(id)).flatten();
            let mut sink = ReadSink::new(size, servers.len(), contiguous);
            let err = match self.fetch_into(id, size, &servers, row, &mut sink) {
                Ok(()) => return Ok(sink),
                Err(e) => e,
            };
            if !err.is_retryable() || attempt >= self.retry.max_attempts {
                return Err(err);
            }
            // Heal before retrying: recover the file from the
            // under-store onto live workers, so the next attempt reads
            // a fresh placement instead of the same hole. A denied
            // repair slot means someone else (the supervisor's sweep or
            // another client) is already healing this file — under
            // `FastFail` that sheds the operation immediately, under
            // `Queue` the retry loop simply waits the repair out.
            if let Some(under) = &self.under {
                if under.contains(id) {
                    let live = self.master.live_workers(self.transport.n_workers());
                    if !live.is_empty() {
                        let targets =
                            crate::backing::recovery_targets(&live, servers.len(), id);
                        // The heal's partition pushes are maintenance
                        // traffic riding next to this foreground read:
                        // stamp them background so the refill cannot
                        // starve other clients' reads.
                        let healed = crate::backing::recover_file(
                            &self.as_background(),
                            self.master.as_ref(),
                            under,
                            id,
                            &targets,
                        );
                        if matches!(healed, Err(StoreError::Degraded(_))) {
                            match self.degraded {
                                DegradedPolicy::FastFail => {
                                    return Err(StoreError::Degraded(id));
                                }
                                // A TTL'd queue keeps waiting the repair
                                // out only while this operation is
                                // young; past the TTL it sheds like
                                // FastFail so degraded reads have a
                                // bounded worst case.
                                DegradedPolicy::QueueTtl(ttl)
                                    if started.elapsed() >= ttl =>
                                {
                                    return Err(StoreError::Degraded(id));
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
            let backoff = self.retry.base_backoff * 2u32.saturating_pow(attempt - 1);
            if backoff > Duration::ZERO {
                std::thread::sleep(backoff);
            }
        }
    }

    /// One late-binding k-of-n attempt against a fixed placement — the
    /// read's single fork-join loop, driven by a [`Binding`]. All `k`
    /// data fetches fire as one transport batch and their replies are
    /// consumed **as they land** via a ready-set select, under a
    /// **single deadline** for the whole attempt (parity included). Each
    /// bound data shard is placed into `sink` immediately — for a
    /// contiguous sink that copy runs while slower partitions are still
    /// on the wire.
    ///
    /// The first erasure (`Corrupt`/`NotFound`, or a landed shard that
    /// fails `row`'s checksum) arms the file's parity fetches in the
    /// same loop; landed shards are kept, never fetched again. Once `k`
    /// shards bind, the missing data partitions are rebuilt by the
    /// Cauchy decode and re-pushed to their placement in the background
    /// (read repair). Any other first failure aborts the attempt into
    /// the caller's heal-and-retry path.
    ///
    /// When hedging is armed, one hedge timer covers the read: at the
    /// straggler threshold, every data partition still outstanding —
    /// i.e. the actual stragglers, whatever their index — is served
    /// from its byte range in the under-store checkpoint instead.
    fn fetch_into(
        &self,
        id: u64,
        size: usize,
        servers: &[usize],
        mut row: Option<FileIntegrity>,
        sink: &mut ReadSink,
    ) -> Result<(), StoreError> {
        let k = servers.len();
        let start = Instant::now();
        let deadline = start + self.retry.deadline;
        let mut bind = Binding::new(id, k, row.as_ref().map(|r| r.sums.clone()).unwrap_or_default());
        let mut endpoints = servers.to_vec();

        // Fork: issue every data fetch up front, in one batch.
        let reqs = servers
            .iter()
            .enumerate()
            .map(|(j, &server)| (server, Request::Get { key: bind.key(j) }))
            .collect();
        let mut replies = self.submit_batch(reqs)?;

        let hedging = self.hedge.enabled && self.under.is_some();
        let mut hedge_at =
            hedging.then(|| start + self.hedge.straggler_threshold.min(self.retry.deadline));

        // Join: a ready-set wait over every outstanding slot.
        loop {
            match bind.progress() {
                Progress::Bound => break,
                Progress::Failed(e) => return Err(e),
                Progress::Arm => {
                    // Workers verify even when this client doesn't
                    // (e.g. `verify_reads` on the fleet only): fetch the
                    // row skipped at locate time.
                    row = row.or_else(|| self.master.integrity(id));
                    let parity = bind.arm(row.as_ref());
                    let reqs = (k..).zip(parity).map(|(i, &(server, _))| {
                        (server, Request::GetParity { key: bind.key(i) })
                    });
                    endpoints.extend(parity.iter().map(|&(server, _)| server));
                    let rxs = self.submit_batch(reqs.collect());
                    replies.extend(rxs.map_err(|_| bind.first_failure())?);
                    continue;
                }
                Progress::Wait => {}
            }
            let wait_until = hedge_at.map_or(deadline, |h| h.min(deadline));
            let outstanding: Vec<usize> = bind.pending().collect();
            let mut sel = Select::new();
            for &i in &outstanding {
                sel.recv(&replies[i]);
            }
            match sel.ready_deadline(wait_until) {
                Ok(ready) => {
                    let i = outstanding[ready];
                    let reply = match replies[i].try_recv() {
                        Ok(reply) => self.absorb_reply(endpoints[i], reply).and_then(Reply::bytes),
                        Err(TryRecvError::Disconnected) => Err(self.worker_down(endpoints[i])),
                        // Spurious readiness; go wait again.
                        Err(TryRecvError::Empty) => continue,
                    };
                    if let Some(data) = bind.land(i, reply) {
                        sink.place(i, data);
                    }
                }
                Err(_) if hedge_at.is_some_and(|h| h < deadline) => {
                    // Hedge timer fired before the deadline: late-bind
                    // every data partition still outstanding to its exact
                    // byte range in the under-store checkpoint. If there
                    // is no checkpoint, disarm the hedge and wait out the
                    // rest of the deadline.
                    hedge_at = None;
                    let under = self.under.as_ref().expect("hedging requires under-store");
                    for j in outstanding.into_iter().filter(|&j| j < k) {
                        let range = partition_range(size as u64, k, j);
                        let Some(data) = under.load_range(id, range.start, range.len())
                        else {
                            break;
                        };
                        self.master.suspect(servers[j]);
                        self.hedged_fetches.fetch_add(1, Ordering::Relaxed);
                        self.hedged_bytes
                            .fetch_add(data.len() as u64, Ordering::Relaxed);
                        bind.hedge(j, data.clone());
                        sink.place(j, data);
                    }
                }
                Err(_) => {
                    // The deadline expired with slots missing: the
                    // slowest partition really is the read's fate
                    // (Eq. 9). Suspect its actual holder; report it
                    // unless an erasure already failed the attempt.
                    let timeout = self.timeout(endpoints[outstanding[0]]);
                    return Err(bind.first_err.unwrap_or(timeout));
                }
            }
        }

        // Read repair: re-land each rebuilt partition on its placement
        // (background-stamped, fire-and-forget). The worker counts the
        // overwrite of a corrupted-erased key as a decode
        // reconstruction.
        for (j, part) in bind.decode(size)? {
            sink.place(j, part.clone());
            let req = Request::Put {
                key: bind.key(j),
                data: part,
                sum: bind.sums[j],
            }
            .background();
            let _ = self.transport.submit(servers[j], req);
        }
        Ok(())
    }

    /// Submits a fan-out of requests — each stamped with its target's
    /// fencing epoch when fencing is on — folding a submission failure
    /// into the health table (a closed channel is definitive death; a
    /// socket error is suspicion-worthy but survivable). The whole
    /// batch goes to the transport in one call so a socket transport
    /// can coalesce the frames into shared `writev` rounds (one
    /// event-loop wakeup per shard instead of one per request).
    fn submit_batch(
        &self,
        reqs: Vec<(usize, Request)>,
    ) -> Result<Vec<Receiver<Reply>>, StoreError> {
        let reqs = if self.fenced || self.background || self.master_stamp {
            reqs.into_iter()
                .map(|(server, req)| (server, self.stamp(server, req)))
                .collect()
        } else {
            reqs
        };
        self.transport.submit_batch(reqs).inspect_err(|e| {
            self.note_error(e);
        })
    }

    /// Applies this client's request stamps in canonical nesting order:
    /// background class inside, epoch fence (worker epoch + optional
    /// master epoch) outside.
    fn stamp(&self, server: usize, req: Request) -> Request {
        let req = if self.background {
            req.background()
        } else {
            req
        };
        let epoch = if self.fenced { self.epoch_of(server) } else { 0 };
        let master = if self.master_stamp {
            self.master.master_epoch()
        } else {
            0
        };
        req.fenced_master(epoch, master)
    }

    /// The cached fencing epoch of `server`, fetching the table from
    /// the master while no worker has been granted one yet (0 = don't
    /// stamp). The cache refreshes on every stale-epoch bounce.
    fn epoch_of(&self, server: usize) -> u64 {
        let mut cache = self.epochs.lock();
        if cache.iter().all(|&e| e == 0) {
            *cache = self.master.worker_epochs(self.transport.n_workers());
        }
        cache.get(server).copied().unwrap_or(0)
    }

    /// Re-fetches the epoch table — a worker just bounced one of our
    /// stamps, so the fleet registered past our cache.
    fn refresh_epochs(&self) {
        *self.epochs.lock() = self.master.worker_epochs(self.transport.n_workers());
    }

    /// Folds an error's health signal into the master's table. Endpoint
    /// indices outside the worker fleet (e.g. the master sentinel used by
    /// wire transports) carry no worker-health signal and are ignored.
    fn note_error(&self, e: &StoreError) {
        match e {
            StoreError::WorkerDown(w) if *w < self.transport.n_workers() => {
                self.master.mark_dead(*w);
            }
            StoreError::Timeout(w) | StoreError::Io(w)
                if *w < self.transport.n_workers() =>
            {
                self.master.suspect(*w);
            }
            _ => {}
        }
    }

    /// Interprets one landed reply from `server` for the health table:
    /// an application-level error (e.g. `NotFound`) is still a live
    /// worker answering, but a transport error a wire transport folded
    /// into the reply stream (`Io`/`Timeout`) is not a sign of life.
    fn absorb_reply(&self, server: usize, reply: Reply) -> Result<Reply, StoreError> {
        match reply {
            Reply::Err(e @ (StoreError::Io(_) | StoreError::Timeout(_) | StoreError::WorkerDown(_))) => {
                self.note_error(&e);
                Err(e)
            }
            Reply::Err(e @ StoreError::StaleEpoch(_)) => {
                // The worker answered — it is alive — but our stamp (or
                // its registration) is out of date. Refresh the epoch
                // cache so the retry stamps current grants.
                self.master.mark_alive(server);
                self.refresh_epochs();
                Err(e)
            }
            Reply::Err(e) => {
                self.master.mark_alive(server);
                Err(e)
            }
            ok => {
                self.master.mark_alive(server);
                Ok(ok)
            }
        }
    }

    /// Records a closed channel (definitive death) and returns the error.
    fn worker_down(&self, server: usize) -> StoreError {
        self.master.mark_dead(server);
        StoreError::WorkerDown(server)
    }

    /// Records a timeout (suspicion, not proof of death) and returns the
    /// error.
    fn timeout(&self, server: usize) -> StoreError {
        self.master.suspect(server);
        StoreError::Timeout(server)
    }

    /// Deletes a file's partitions and metadata; returns how many data
    /// partitions were actually resident. Any parity partitions are
    /// dropped too (best-effort, not counted).
    pub fn delete(&self, id: u64) -> Result<usize, StoreError> {
        // Snapshot the integrity row *before* unregistering drops it:
        // the parity map is the only record of where parity lives.
        let integ = self.master.integrity(id);
        let (_, servers) = self
            .master
            .unregister_file(id)
            .ok_or(StoreError::UnknownFile(id))?;
        let parity = integ.map(|i| i.parity).unwrap_or_default();
        let data = servers.iter().enumerate().map(|(j, &s)| (s, PartKey::new(id, j as u32)));
        let parity = parity.iter().enumerate().map(|(p, &(s, _))| (s, PartKey::parity(id, p as u32)));
        let mut removed = 0;
        for (server, key) in data.chain(parity) {
            let Ok(rx) = self.transport.submit(server, Request::Delete { key }) else {
                continue;
            };
            let gone = matches!(rx.recv_timeout(self.retry.deadline), Ok(Reply::Flag(true)));
            removed += usize::from(gone && !key.is_parity());
        }
        Ok(removed)
    }
}

/// One Put per shard — shard `i` to `servers[i]` under `key(i)` — each
/// stamped with its checksum, so workers can verify later reads and
/// spill reloads. Returns the requests and the sums.
fn puts(
    shards: Vec<Bytes>,
    servers: &[usize],
    key: impl Fn(u32) -> PartKey,
) -> (Vec<(usize, Request)>, Vec<u64>) {
    let sums = spcache_integrity::sums(&shards);
    let reqs = shards
        .into_iter()
        .zip(servers)
        .enumerate()
        .map(|(i, (data, &server))| {
            let put = Request::Put {
                key: key(i as u32),
                data,
                sum: sums[i],
            };
            (server, put)
        })
        .collect();
    (reqs, sums)
}

/// A file's data-partition Puts: `data` re-split into `servers.len()`
/// views sharing its allocation (see [`split_shards_bytes`]).
fn partition_puts(id: u64, data: &Bytes, servers: &[usize]) -> (Vec<(usize, Request)>, Vec<u64>) {
    assert!(!servers.is_empty(), "need at least one target server");
    puts(split_shards_bytes(data, servers.len()), servers, |j| PartKey::new(id, j))
}

/// A file read without reassembly: its size and partition views in index
/// order, each sharing the worker's cached allocation.
#[derive(Debug, Clone)]
pub struct ScatteredFile {
    size: usize,
    parts: Vec<Bytes>,
}

impl ScatteredFile {
    /// Logical file size in bytes (the views may carry legacy padding
    /// beyond it).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The partition views in index order.
    pub fn parts(&self) -> &[Bytes] {
        &self.parts
    }

    /// Materializes the contiguous file content (one copy).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut sink = ReadSink::new(self.size, self.parts.len(), true);
        for (j, part) in self.parts.iter().enumerate() {
            sink.place(j, part.clone());
        }
        sink.into_vec()
    }
}

/// Where one fork-join attempt lands its partitions.
///
/// A scattered sink ([`Client::read_scattered`]) just collects the
/// index-ordered zero-copy views. A contiguous sink assembles the output
/// buffer **as replies arrive**: whenever the landed parts form a prefix
/// of the file, they are appended to the buffer immediately, so the
/// single copy of [`Client::read`] overlaps the wait for slower
/// partitions instead of running serially after the join (a
/// gather-after-join pass cost ~15% of contiguous read throughput at
/// 64MB/k16). Out-of-order arrivals are staged as zero-copy views until
/// their turn. Appending into reserved-but-uninitialized capacity
/// matters: a pre-zeroed `vec![0; size]` buffer pays a full extra memset
/// pass whenever the allocator recycles a dirty block.
struct ReadSink {
    /// Logical file size (a contiguous `buf`'s final length).
    size: usize,
    /// Parts landed but not yet appended to `buf` — every part, in a
    /// scattered sink.
    staged: Vec<Option<Bytes>>,
    /// The in-order assembled prefix of the file; `None` when scattered.
    buf: Option<Vec<u8>>,
    /// How many parts have been appended to `buf`.
    appended: usize,
}

impl ReadSink {
    fn new(size: usize, k: usize, contiguous: bool) -> Self {
        ReadSink {
            size,
            staged: vec![None; k],
            buf: contiguous.then(|| Vec::with_capacity(size)),
            appended: 0,
        }
    }

    /// Lands partition `j`, replacing whatever it held. A contiguous
    /// sink stages the part, then appends every ready prefix part to the
    /// buffer — this is the read's one copy, running while later
    /// partitions are still on the wire; a part already appended (a
    /// decoded shard replacing one that failed a late verification) is
    /// copied over its range in place. A short part (tolerated, never
    /// produced by current write paths) gets its tail zero-padded to its
    /// range length.
    fn place(&mut self, j: usize, data: Bytes) {
        let (k, size) = (self.staged.len(), self.size as u64);
        let Some(buf) = &mut self.buf else {
            self.staged[j] = Some(data);
            return;
        };
        if j < self.appended {
            let range = partition_range(size, k, j);
            let out = &mut buf[range.start as usize..range.end as usize];
            let take = out.len().min(data.len());
            out[..take].copy_from_slice(&data[..take]);
            out[take..].fill(0);
            return;
        }
        self.staged[j] = Some(data);
        while self.appended < k {
            let Some(part) = self.staged[self.appended].take() else { break };
            let range = partition_range(size, k, self.appended);
            let take = (range.len() as usize).min(part.len());
            buf.extend_from_slice(&part[..take]);
            buf.resize(range.end as usize, 0);
            self.appended += 1;
        }
    }

    /// The fully-landed sink as partition views.
    fn into_file(self) -> ScatteredFile {
        ScatteredFile {
            size: self.size,
            parts: self.staged.into_iter().map(|p| p.expect("all joined")).collect(),
        }
    }

    /// The fully-landed sink as the contiguous file content.
    fn into_vec(self) -> Vec<u8> {
        match self.buf {
            Some(buf) => {
                debug_assert_eq!(self.appended, self.staged.len(), "finish before full join");
                buf
            }
            None => self.into_file().to_vec(),
        }
    }
}

/// One slot of a read attempt: data partition `j < k`, or parity
/// partition `p` at slot `k + p`.
#[derive(Debug, Clone)]
enum Slot {
    /// Requested; the reply is still outstanding.
    Pending,
    /// Landed unchecked (the client had no sums and nothing has failed
    /// yet); verified if parity arms.
    Trusted(Bytes),
    /// Verified against its checksum, or served by the under-store
    /// checkpoint (ground truth, not re-checked).
    Verified(Bytes),
    /// An error reply, or bytes that failed verification.
    Lost,
}

/// What a read attempt needs next.
#[derive(Debug)]
enum Progress {
    /// Keep waiting on the pending slots.
    Wait,
    /// The first failure was an erasure: arm the parity slots.
    Arm,
    /// `k` slots are bound; decode whatever data slot is missing.
    Bound,
    /// `k` slots can no longer bind.
    Failed(StoreError),
}

/// The late-binding policy of one k-of-n read attempt (§4.15): which
/// slots to fetch, which landed shards to trust, and when the attempt is
/// bound or unreachable. It holds no channels and no clock — the
/// client's select loop feeds it replies and asks it what to do next.
///
/// The `k` data slots are fetched up front. The first erasure
/// (`Corrupt`/`NotFound`, or bytes that fail verification) arms the `r`
/// parity slots, if the integrity row has parity of this placement's
/// width; from then on every shard that counts toward `k` is verified,
/// including data that landed before. Any other first failure
/// (`WorkerDown`, `Timeout`, `Io`, `StaleEpoch`, …) fails the attempt
/// outright, and once the attempt cannot bind it fails with its first
/// failure.
#[derive(Debug)]
struct Binding {
    id: u64,
    k: usize,
    /// Checksum per slot (data, then parity once armed); empty while the
    /// client reads unverified.
    sums: Vec<u64>,
    slots: Vec<Slot>,
    armed: bool,
    first_err: Option<StoreError>,
}

impl Binding {
    fn new(id: u64, k: usize, sums: Vec<u64>) -> Self {
        Binding {
            id,
            k,
            // A row of the wrong width predates a re-split that has not
            // recorded fresh sums yet — don't verify against it.
            sums: if sums.len() == k { sums } else { Vec::new() },
            slots: vec![Slot::Pending; k],
            armed: false,
            first_err: None,
        }
    }

    /// The partition key slot `i` fetches.
    fn key(&self, i: usize) -> PartKey {
        match i.checked_sub(self.k) {
            None => PartKey::new(self.id, i as u32),
            Some(p) => PartKey::parity(self.id, p as u32),
        }
    }

    /// The slots whose reply is still outstanding.
    fn pending(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots.len()).filter(|&i| matches!(self.slots[i], Slot::Pending))
    }

    /// The error the attempt fails with.
    fn first_failure(&self) -> StoreError {
        self.first_err.clone().expect("a failure was recorded")
    }

    /// Folds slot `i`'s reply in; returns the bytes to place when a data
    /// slot binds.
    fn land(&mut self, i: usize, reply: Result<Bytes, StoreError>) -> Option<Bytes> {
        self.slots[i] = match reply {
            Ok(data) if self.sums.is_empty() => Slot::Trusted(data),
            Ok(data) => self.check(i, data),
            Err(e) => {
                self.first_err.get_or_insert(e);
                Slot::Lost
            }
        };
        match &self.slots[i] {
            Slot::Trusted(data) | Slot::Verified(data) if i < self.k => Some(data.clone()),
            _ => None,
        }
    }

    /// Binds data slot `j` to its checkpoint bytes (the hedge).
    fn hedge(&mut self, j: usize, data: Bytes) {
        self.slots[j] = Slot::Verified(data);
    }

    /// Verifies slot `i`'s bytes; a mismatch is an erasure.
    fn check(&mut self, i: usize, data: Bytes) -> Slot {
        if spcache_integrity::verify(&data, self.sums[i]) {
            Slot::Verified(data)
        } else {
            self.first_err.get_or_insert(StoreError::Corrupt(self.key(i)));
            Slot::Lost
        }
    }

    /// Arms the parity slots from the file's integrity row and verifies
    /// every data shard that landed unchecked. Returns the parity
    /// `(server, sum)` entries to fetch, in slot order — none when the
    /// row carries no parity of this placement's width.
    fn arm<'r>(&mut self, row: Option<&'r FileIntegrity>) -> &'r [(usize, u64)] {
        self.armed = true;
        let Some(row) = row.filter(|r| !r.parity.is_empty() && r.sums.len() == self.k) else {
            return &[];
        };
        self.sums = row.sums.iter().chain(row.parity.iter().map(|(_, s)| s)).copied().collect();
        for j in 0..self.k {
            if let Slot::Trusted(data) = &self.slots[j] {
                self.slots[j] = self.check(j, data.clone());
            }
        }
        self.slots.resize(self.k + row.parity.len(), Slot::Pending);
        &row.parity
    }

    fn progress(&self) -> Progress {
        match &self.first_err {
            Some(e) if !matches!(e, StoreError::Corrupt(_) | StoreError::NotFound(_)) => {
                return Progress::Failed(e.clone());
            }
            Some(_) if !self.armed => return Progress::Arm,
            _ => {}
        }
        let bound = self
            .slots
            .iter()
            .filter(|s| matches!(s, Slot::Trusted(_) | Slot::Verified(_)))
            .count();
        let lost = self.slots.iter().filter(|s| matches!(s, Slot::Lost)).count();
        if bound >= self.k {
            Progress::Bound
        } else if self.slots.len() - lost < self.k {
            Progress::Failed(self.first_failure())
        } else {
            Progress::Wait
        }
    }

    /// The data partitions a bound attempt holds no shard for, rebuilt
    /// by the Cauchy decode from the bound slots and each verified
    /// against its checksum before it is returned. Empty when every data
    /// slot bound directly.
    fn decode(&self, size: usize) -> Result<Vec<(usize, Bytes)>, StoreError> {
        let k = self.k;
        let missing: Vec<usize> = (0..k)
            .filter(|&j| !matches!(self.slots[j], Slot::Trusted(_) | Slot::Verified(_)))
            .collect();
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        // Data partitions arrive ragged; the codec works on the equal
        // `ceil(size / k)` slot layout they are views of (see
        // `split_shards_bytes` / `split_into_shards`) — zero-pad each to
        // its slot, decode, and slice the ragged views back out.
        let shard_len = size.div_ceil(k).max(1);
        let mut shards: Vec<Option<Vec<u8>>> = self
            .slots
            .iter()
            .map(|s| match s {
                Slot::Verified(b) => {
                    let mut v = b.to_vec();
                    v.resize(shard_len, 0);
                    Some(v)
                }
                _ => None,
            })
            .collect();
        let data = ReedSolomon::new_cauchy(k, shards.len())
            .reconstruct_data(&mut shards)
            .map_err(|_| self.first_failure())?;
        let data = Bytes::from(data);
        missing
            .into_iter()
            .map(|j| {
                let range = partition_range(size as u64, k, j);
                let part = data.slice(range.start as usize..range.end as usize);
                // The decode is only as good as the integrity row it
                // used; prove each rebuilt partition against its sum
                // before handing it out (or re-landing it) as truth.
                if spcache_integrity::verify(&part, self.sums[j]) {
                    Ok((j, part))
                } else {
                    Err(self.first_failure())
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::StoreCluster;
    use crate::config::StoreConfig;
    use crate::fault::{CorruptSite, FaultPlan};

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 256) as u8).collect()
    }

    #[test]
    fn write_read_roundtrip_single_partition() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let c = cluster.client();
        let data = payload(10_000);
        c.write(1, &data, &[2]).unwrap();
        assert_eq!(c.read(1).unwrap(), data);
    }

    #[test]
    fn write_read_roundtrip_partitioned() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(8));
        let c = cluster.client();
        for (id, len, servers) in [
            (1u64, 9_999usize, vec![0, 1, 2]),
            (2, 10_000, vec![3, 4]),
            (3, 1, vec![5]),
            (4, 0, vec![6, 7]),
        ] {
            let data = payload(len);
            c.write(id, &data, &servers).unwrap();
            assert_eq!(c.read(id).unwrap(), data, "file {id}");
        }
    }

    #[test]
    fn scattered_read_shares_the_written_allocation() {
        // write_bytes → worker store → reply: one allocation end to end.
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let c = cluster.client();
        let file = Bytes::from(payload(10_000));
        c.write_bytes(1, file.clone(), &[0, 1, 2]).unwrap();
        let scattered = c.read_scattered(1).unwrap();
        assert_eq!(scattered.to_vec(), payload(10_000));
        let base = file.as_ptr() as usize;
        for part in scattered.parts() {
            let p = part.as_ptr() as usize;
            assert!(
                p >= base && p + part.len() <= base + file.len(),
                "partition view escaped the file's allocation"
            );
        }
    }

    #[test]
    fn read_unknown_file_errors() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2));
        let c = cluster.client();
        assert_eq!(c.read(42).unwrap_err(), StoreError::UnknownFile(42));
    }

    #[test]
    fn duplicate_write_rejected() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2));
        let c = cluster.client();
        c.write(1, b"abc", &[0]).unwrap();
        assert_eq!(
            c.write(1, b"xyz", &[1]).unwrap_err(),
            StoreError::AlreadyExists(1)
        );
    }

    #[test]
    fn reads_count_accesses_quiet_reads_do_not() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2));
        let c = cluster.client();
        c.write(1, b"abc", &[0]).unwrap();
        let _ = c.read(1).unwrap();
        let _ = c.read(1).unwrap();
        let _ = c.read_quiet(1).unwrap();
        assert_eq!(cluster.master().accesses(1), 2);
    }

    #[test]
    fn delete_removes_partitions_and_metadata() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(3));
        let c = cluster.client();
        c.write(1, &payload(300), &[0, 1, 2]).unwrap();
        assert_eq!(c.delete(1).unwrap(), 3);
        assert_eq!(c.read(1).unwrap_err(), StoreError::UnknownFile(1));
    }

    #[test]
    fn parallel_reads_from_many_clients() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let c = cluster.client();
        let data = payload(40_000);
        c.write(1, &data, &[0, 1, 2, 3]).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let data = data.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        assert_eq!(c.read(1).unwrap(), data);
                    }
                });
            }
        });
        assert_eq!(cluster.master().accesses(1), 160);
    }

    #[test]
    fn parallel_partition_read_is_faster_than_serial_transfer() {
        // 4 MB at 20 MB/s would take 200 ms whole; split 4 ways across
        // 4 throttled workers it should take ~50 ms + overhead.
        let cluster = StoreCluster::spawn(StoreConfig::throttled(4, 20e6));
        let c = cluster.client();
        let data = payload(4_000_000);
        c.write(1, &data, &[0, 1, 2, 3]).unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(c.read(1).unwrap(), data);
        let split_time = t0.elapsed().as_secs_f64();
        assert!(
            split_time < 0.15,
            "parallel read took {split_time}s, expected ~0.05s"
        );
    }

    #[test]
    fn deadline_turns_hang_into_timeout() {
        // Worker 0 hangs for 500 ms on its second data-path op; a 50 ms
        // deadline surfaces Timeout instead of blocking.
        let cfg = StoreConfig::unthrottled(2)
            .with_faults(FaultPlan::none().hang(0, 1, Duration::from_millis(500)))
            .with_retry(RetryPolicy::none().with_deadline(Duration::from_millis(50)));
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        c.write(1, &payload(100), &[0]).unwrap();
        assert_eq!(c.read(1).unwrap_err(), StoreError::Timeout(0));
        // The worker recovers after the hang; a later read succeeds.
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(c.read(1).unwrap(), payload(100));
    }

    #[test]
    fn one_deadline_covers_the_whole_read_attempt() {
        // k = 8 partitions, the *last* one straggling 400 ms past a
        // 150 ms deadline. The select-driven join times out after ~one
        // deadline, naming the actual straggler — under the old in-order
        // join each healthy lower index could consume a fresh deadline
        // (up to 8 × 150 ms) before the straggler was even examined.
        let k = 8;
        let hang = Duration::from_millis(400);
        let deadline = Duration::from_millis(150);
        let cfg = StoreConfig::unthrottled(k)
            // Worker 7 serves (put, checkpoint-less) op 0 = its put, so
            // op 1 is its first read.
            .with_faults(FaultPlan::none().hang(7, 1, hang))
            .with_retry(RetryPolicy::none().with_deadline(deadline));
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        let servers: Vec<usize> = (0..k).collect();
        c.write(1, &payload(64 * k), &servers).unwrap();
        let t0 = Instant::now();
        assert_eq!(c.read(1).unwrap_err(), StoreError::Timeout(7));
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= deadline && elapsed < deadline * 2,
            "k={k} read with one straggler took {elapsed:?}; the deadline \
             is per read attempt, not per partition (~{deadline:?} expected)"
        );
    }

    #[test]
    fn lost_reply_surfaces_as_worker_down_and_marks_suspicion() {
        let cfg = StoreConfig::unthrottled(2)
            .with_faults(FaultPlan::none().lose_reply(0, 1))
            .with_retry(RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::ZERO,
                deadline: Duration::from_millis(200),
            });
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        c.write(1, &payload(64), &[0]).unwrap();
        // First read's reply is lost; the retry succeeds.
        assert_eq!(c.read(1).unwrap(), payload(64));
    }

    #[test]
    fn retry_reads_through_crash_with_under_store() {
        let cfg = StoreConfig::unthrottled(4)
            .with_faults(FaultPlan::none().crash(1, 2))
            .with_retry(RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::from_millis(1),
                deadline: Duration::from_millis(200),
            });
        let cluster = StoreCluster::spawn(cfg);
        let under = Arc::new(UnderStore::new());
        let c = cluster.client().with_under_store(under.clone());
        let data = payload(9_000);
        c.write(1, &data, &[0, 1]).unwrap(); // worker 1 op 0 (put)
        crate::backing::checkpoint(&c, &under, 1).unwrap(); // worker 1 op 1 (get)
        // Next get on worker 1 is op 2 → crash. The retry heals from the
        // under-store onto live workers and succeeds byte-exactly.
        assert_eq!(c.read(1).unwrap(), data);
        assert!(!cluster.master().is_alive(1));
        let (_, servers) = cluster.master().peek(1).unwrap();
        assert!(servers.iter().all(|&s| s != 1), "healed onto dead worker");
    }

    #[test]
    fn io_error_replies_feed_suspicion_and_retry() {
        // A transport that answers every get with Err(Io) until attempt
        // 3: the client must classify Io as retryable, suspect the
        // worker, and keep retrying through the heal path.
        #[derive(Debug)]
        struct Flaky {
            inner: Arc<dyn Transport>,
            failures: AtomicU64,
        }
        impl Transport for Flaky {
            fn n_workers(&self) -> usize {
                self.inner.n_workers()
            }
            fn submit(
                &self,
                worker: usize,
                req: Request,
            ) -> Result<Receiver<Reply>, StoreError> {
                if matches!(req, Request::Get { .. })
                    && self.failures.fetch_add(1, Ordering::Relaxed) < 2
                {
                    let (tx, rx) = crossbeam::channel::bounded(1);
                    let _ = tx.send(Reply::Err(StoreError::Io(worker)));
                    return Ok(rx);
                }
                self.inner.submit(worker, req)
            }
        }
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2));
        let flaky = Arc::new(Flaky {
            inner: cluster.transport().clone(),
            failures: AtomicU64::new(0),
        });
        let c = Client::new(cluster.master().clone(), flaky).with_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::ZERO,
            deadline: Duration::from_millis(200),
        });
        c.write(1, &payload(128), &[0]).unwrap();
        assert_eq!(c.read(1).unwrap(), payload(128));
        // Two Io errors → two suspicion marks, but not death (threshold 3).
        assert!(cluster.master().is_alive(0));
    }

    #[test]
    fn hedged_read_serves_straggler_from_under_store() {
        // Worker 0 hangs for 300 ms; the hedge threshold is 20 ms, so
        // the partition is served from the checkpoint instead.
        let cfg = StoreConfig::unthrottled(2)
            .with_faults(FaultPlan::none().hang(0, 2, Duration::from_millis(300)))
            .with_retry(RetryPolicy::none().with_deadline(Duration::from_secs(2)))
            .with_hedge(HedgePolicy::after(Duration::from_millis(20)));
        let cluster = StoreCluster::spawn(cfg);
        let under = Arc::new(UnderStore::new());
        let c = cluster.client().with_under_store(under.clone());
        let data = payload(5_000);
        c.write(1, &data, &[0, 1]).unwrap(); // op 0 on both
        crate::backing::checkpoint(&c, &under, 1).unwrap(); // op 1 on both
        let t0 = std::time::Instant::now();
        assert_eq!(c.read(1).unwrap(), data); // op 2: worker 0 hangs
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "hedge should beat the 300 ms hang"
        );
        assert_eq!(c.hedged_fetches(), 1);
        // Partition 0 of a 5000-byte file split 2 ways is 2500 bytes —
        // the hedge pulled exactly that range, not the whole file.
        assert_eq!(c.hedged_bytes(), 2_500);
    }

    /// Polls `f` until it holds or ~2 s pass (read repair is
    /// fire-and-forget; the counter lands asynchronously).
    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        for _ in 0..200 {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    #[test]
    fn parity_write_records_the_integrity_row_off_placement() {
        let cfg = StoreConfig::unthrottled(6).with_parity(2);
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        let data = payload(9_000);
        c.write(1, &data, &[0, 1, 2]).unwrap();
        let row = cluster.master().integrity(1).expect("row recorded");
        assert_eq!(row.sums.len(), 3);
        assert_eq!(row.parity.len(), 2);
        for &(server, _) in &row.parity {
            assert!(
                !(0..=2).contains(&server),
                "parity landed on a data server ({server})"
            );
        }
        assert_eq!(c.read(1).unwrap(), data);
        // Delete drops the parity partitions with the file.
        let stats_before = cluster.worker_stats().unwrap();
        assert!(stats_before.iter().any(|s| s.parity_bytes > 0));
        assert_eq!(c.delete(1).unwrap(), 3);
        assert_eq!(cluster.master().integrity(1), None);
    }

    #[test]
    fn corrupt_partition_rebuilds_from_parity_without_under_store() {
        // Worker 0's resident copy of partition 0 is flipped right
        // before the read's Get. The verifying worker erases it and
        // reports Corrupt; the client rebuilds from the 2 clean data
        // partitions + parity — there is NO under-store to fall back
        // to, so a byte-exact read proves the parity path alone healed
        // it.
        let cfg = StoreConfig::unthrottled(5)
            .with_verify_reads(true)
            .with_parity(2)
            .with_faults(FaultPlan::none().corrupt(
                0,
                1,
                PartKey::new(1, 0),
                CorruptSite::Resident,
                5,
            ));
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        let data = payload(9_000);
        c.write(1, &data, &[0, 1, 2]).unwrap(); // worker 0 op 0
        assert_eq!(c.read(1).unwrap(), data); // op 1: flip fires
        let stats = cluster.worker_stats().unwrap();
        assert_eq!(stats[0].corruptions_detected, 1);
        assert_eq!(cluster.fault_log().snapshot().len(), 1);
        // The background read repair re-lands partition 0 on worker 0,
        // which counts the overwrite of a corrupted-erased key.
        assert!(
            eventually(|| cluster.worker_stats().unwrap()[0].decode_reconstructions == 1),
            "read repair never landed"
        );
        assert_eq!(c.read(1).unwrap(), data);
    }

    #[test]
    fn lost_partition_rebuilds_from_parity_without_under_store() {
        // A *lost* partition — deleted out from under the file, no
        // corruption involved — is just as much an erasure as a corrupt
        // one: the read's `NotFound` routes through the same parity
        // rebuild, with no under-store to fall back to.
        let cfg = StoreConfig::unthrottled(5).with_verify_reads(true).with_parity(1);
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        let data = payload(9_000);
        c.write(1, &data, &[0, 1, 2]).unwrap();
        let gone = cluster
            .transport()
            .call(
                0,
                Request::Delete {
                    key: PartKey::new(1, 0),
                },
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(gone, Reply::Flag(true));
        assert_eq!(c.read(1).unwrap(), data);
        // The background read repair re-lands the rebuilt partition, so
        // worker 0 serves it directly again.
        assert!(
            eventually(|| {
                matches!(
                    cluster.transport().call(
                        0,
                        Request::Get {
                            key: PartKey::new(1, 0),
                        },
                        Duration::from_secs(5),
                    ),
                    Ok(Reply::Data(_))
                )
            }),
            "read repair never re-landed the lost partition"
        );
    }

    #[test]
    fn client_side_verify_catches_what_blind_workers_serve() {
        // Workers do NOT verify; the client does, against the master's
        // integrity row. The flipped resident copy is served as-is by
        // worker 0, once: the client's check turns it into an erasure,
        // the parity fetch joins the same attempt, and the file still
        // comes back byte-exact via the Cauchy decode.
        let cfg = StoreConfig::unthrottled(5)
            .with_parity(1)
            .with_faults(FaultPlan::none().corrupt(
                0,
                1,
                PartKey::new(1, 0),
                CorruptSite::Resident,
                999,
            ));
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client().with_verify(true).with_parity(1);
        let data = payload(10_000);
        c.write(1, &data, &[0, 1, 2]).unwrap();
        assert_eq!(c.read(1).unwrap(), data);
        // The workers never noticed anything.
        let stats = cluster.worker_stats().unwrap();
        assert_eq!(stats[0].corruptions_detected, 0);
    }

    #[test]
    fn corrupt_partition_without_parity_heals_from_under_store() {
        // r = 0: the same flip cannot be decoded around, so the read
        // falls back to the under-store heal — and still never returns
        // wrong bytes.
        let cfg = StoreConfig::unthrottled(4)
            .with_verify_reads(true)
            .with_faults(FaultPlan::none().corrupt(
                0,
                2,
                PartKey::new(1, 0),
                CorruptSite::Resident,
                0,
            ))
            .with_retry(RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::from_millis(1),
                deadline: Duration::from_millis(200),
            });
        let under = Arc::new(UnderStore::new());
        let cluster = StoreCluster::spawn_with_under_store(cfg, Some(under.clone()));
        let c = cluster.client();
        let data = payload(6_000);
        c.write(1, &data, &[0, 1]).unwrap(); // worker 0 op 0
        crate::backing::checkpoint(&c, &under, 1).unwrap(); // op 1
        assert_eq!(c.read(1).unwrap(), data); // op 2: flip fires → heal
        let stats = cluster.worker_stats().unwrap();
        assert_eq!(stats.iter().map(|s| s.corruptions_detected).sum::<u64>(), 1);
    }

    #[test]
    fn hedge_fires_for_the_actual_slowest_partition() {
        // k = 4; the straggler is partition 2 (not the first index). The
        // hedge must serve exactly that partition from the checkpoint:
        // one hedged fetch, of exactly partition 2's byte count.
        let k = 4;
        let straggler = 2usize;
        let cfg = StoreConfig::unthrottled(k)
            // Worker 2's ops: 0 = put, 1 = checkpoint get, 2 = the read.
            .with_faults(FaultPlan::none().hang(straggler, 2, Duration::from_millis(300)))
            .with_retry(RetryPolicy::none().with_deadline(Duration::from_secs(2)))
            .with_hedge(HedgePolicy::after(Duration::from_millis(25)));
        let cluster = StoreCluster::spawn(cfg);
        let under = Arc::new(UnderStore::new());
        let c = cluster.client().with_under_store(under.clone());
        let data = payload(10_000);
        let servers: Vec<usize> = (0..k).collect();
        c.write(1, &data, &servers).unwrap();
        crate::backing::checkpoint(&c, &under, 1).unwrap();
        let t0 = Instant::now();
        assert_eq!(c.read(1).unwrap(), data);
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "hedge should beat the 300 ms hang"
        );
        assert_eq!(c.hedged_fetches(), 1, "exactly the straggler was hedged");
        let range = partition_range(data.len() as u64, k, straggler);
        assert_eq!(c.hedged_bytes(), range.len());
    }

    /// Counts the `Get`/`GetParity` submissions a client makes.
    #[derive(Debug)]
    struct CountingFetches {
        inner: Arc<dyn Transport>,
        fetches: AtomicU64,
    }

    impl Transport for CountingFetches {
        fn n_workers(&self) -> usize {
            self.inner.n_workers()
        }
        fn submit(&self, worker: usize, req: Request) -> Result<Receiver<Reply>, StoreError> {
            if matches!(req, Request::Get { .. } | Request::GetParity { .. }) {
                self.fetches.fetch_add(1, Ordering::Relaxed);
            }
            self.inner.submit(worker, req)
        }
    }

    /// A k = 3, r = 1 file on a verifying 5-worker fleet, read through
    /// a fetch-counting transport by a single-attempt client.
    fn counted_parity_file() -> (StoreCluster, Arc<CountingFetches>, Client, Vec<u8>) {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(5).with_verify_reads(true));
        let counting = Arc::new(CountingFetches {
            inner: cluster.transport().clone(),
            fetches: AtomicU64::new(0),
        });
        let c = Client::new(cluster.master().clone(), counting.clone()).with_parity(1);
        let data = payload(9_000);
        c.write(1, &data, &[0, 1, 2]).unwrap();
        (cluster, counting, c, data)
    }

    fn drop_key(cluster: &StoreCluster, server: usize, key: PartKey) {
        let gone = cluster
            .transport()
            .call(server, Request::Delete { key }, Duration::from_secs(5))
            .unwrap();
        assert_eq!(gone, Reply::Flag(true), "{key:?} was not resident");
    }

    #[test]
    fn degraded_read_keeps_landed_shards_and_fetches_each_slot_once() {
        // Partition 0 is lost. The read binds the two data shards that
        // landed plus the parity shard: k + r = 4 fetches, none of them
        // repeated (re-fetching the data for a separate parity read
        // would cost 2k + r = 7).
        let (cluster, counting, c, data) = counted_parity_file();
        drop_key(&cluster, 0, PartKey::new(1, 0));
        assert_eq!(c.read(1).unwrap(), data);
        assert_eq!(counting.fetches.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn unreachable_read_fails_with_its_erasure_after_at_most_k_plus_r_fetches() {
        // Every shard is gone and there is no under-store: the attempt
        // can never bind k, so it fails with the first erasure without
        // fetching any slot twice.
        let (cluster, counting, c, _) = counted_parity_file();
        for j in 0..3 {
            drop_key(&cluster, j, PartKey::new(1, j as u32));
        }
        let row = cluster.master().integrity(1).expect("row recorded");
        assert_eq!(row.parity.len(), 1);
        drop_key(&cluster, row.parity[0].0, PartKey::parity(1, 0));
        let err = c.read(1).unwrap_err();
        assert!(matches!(err, StoreError::NotFound(_)), "{err:?}");
        assert!(counting.fetches.load(Ordering::Relaxed) <= 4);
    }

    mod binding {
        use super::*;
        use proptest::prelude::*;

        /// The outcome scripted for one slot: outcome codes 0..=3 serve
        /// the true shard, 4 serves it with a flipped byte, 5 answers
        /// `NotFound`, 6 `Corrupt`, 7 `WorkerDown`.
        fn reply(code: u8, key: PartKey, shard: &Bytes) -> Result<Bytes, StoreError> {
            match code {
                0..=3 => Ok(shard.clone()),
                4 => {
                    let mut bad = shard.to_vec();
                    match bad.first_mut() {
                        Some(b) => *b ^= 0xFF,
                        None => bad.push(0xFF),
                    }
                    Ok(Bytes::from(bad))
                }
                5 => Err(StoreError::NotFound(key)),
                6 => Err(StoreError::Corrupt(key)),
                _ => Err(StoreError::WorkerDown(0)),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Drives the binding through random per-slot outcomes and
            /// arrival orders, with the client verifying from the start
            /// or only once parity arms.
            #[test]
            fn binds_the_original_bytes_or_fails_with_the_first_failure(
                shape in (1usize..9, 0usize..4, 0usize..300),
                codes in collection::vec(0u8..8, 11),
                arrival in collection::vec(any::<u64>(), 11),
                verify: bool
            ) {
                let (k, r, size) = shape;
                let file = Bytes::from(payload(size));
                let mut shards = split_shards_bytes(&file, k);
                let encoded = ReedSolomon::new_cauchy(k, k + r).encode_bytes(&file);
                shards.extend(encoded.into_iter().skip(k).map(Bytes::from));
                let sums = spcache_integrity::sums(&shards);
                let row = FileIntegrity {
                    sums: sums[..k].to_vec(),
                    parity: (0..r).map(|p| (k + p, sums[k + p])).collect(),
                };
                // Slots arrive in the order of their random keys.
                let mut order: Vec<usize> = (0..k + r).collect();
                order.sort_by_key(|&i| arrival[i]);

                // The model: the first failure is the first data slot in
                // arrival order that errs, or serves bad bytes to a
                // verifying client. Parity is only read after it.
                let fails = |i: usize| codes[i] >= 5 || (verify && codes[i] == 4);
                let first = order.iter().copied().find(|&i| i < k && fails(i));
                let good = (0..k + r).filter(|&i| codes[i] <= 3).count();
                let expected = match first {
                    None if verify => Ok(file.to_vec()),
                    None => Ok(ScatteredFile {
                        size,
                        parts: (0..k).map(|j| reply(codes[j], PartKey::new(1, 0), &shards[j]).unwrap()).collect(),
                    }.to_vec()),
                    Some(i) => {
                        let err = reply(codes[i], PartKey::new(1, i as u32), &shards[i])
                            .err()
                            .unwrap_or(StoreError::Corrupt(PartKey::new(1, i as u32)));
                        if codes[i] != 7 && r > 0 && good >= k {
                            Ok(file.to_vec())
                        } else {
                            Err(err)
                        }
                    }
                };

                let mut bind = Binding::new(1, k, if verify { row.sums.clone() } else { Vec::new() });
                let mut requested: Vec<usize> = (0..k).collect();
                let mut delivered = vec![false; k + r];
                let mut sink = ReadSink::new(size, k, true);
                let got = loop {
                    match bind.progress() {
                        Progress::Bound => match bind.decode(size) {
                            Ok(parts) => {
                                for (j, part) in parts {
                                    prop_assert_eq!(&part, &shards[j], "decoded slot {} wrong", j);
                                    sink.place(j, part);
                                }
                                break Ok(sink.into_vec());
                            }
                            Err(e) => break Err(e),
                        },
                        Progress::Failed(e) => break Err(e),
                        Progress::Arm => {
                            prop_assert!(!bind.armed, "armed twice");
                            for (i, _) in (k..).zip(bind.arm(Some(&row))) {
                                prop_assert!(!requested.contains(&i), "slot {} requested twice", i);
                                requested.push(i);
                            }
                        }
                        Progress::Wait => {
                            let mut pending: Vec<usize> = bind.pending().collect();
                            let mut outstanding: Vec<usize> =
                                requested.iter().copied().filter(|&i| !delivered[i]).collect();
                            pending.sort_unstable();
                            outstanding.sort_unstable();
                            prop_assert_eq!(&pending, &outstanding);
                            let i = *order.iter().find(|&&i| pending.contains(&i)).unwrap();
                            delivered[i] = true;
                            let placed = bind.land(i, reply(codes[i], bind.key(i), &shards[i]));
                            if let Some(data) = placed {
                                // Unchecked bytes are only trusted while
                                // the client reads unverified and nothing
                                // has failed yet.
                                if verify || bind.armed {
                                    prop_assert_eq!(&data, &shards[i], "slot {} placed bad bytes", i);
                                }
                                sink.place(i, data);
                            }
                        }
                    }
                };
                prop_assert_eq!(got, expected, "k={} r={} codes={:?} order={:?}", k, r, &codes[..k + r], order);
            }
        }
    }
}
