//! The server event loop both `spcached` roles run on, and the worker
//! server built on it.
//!
//! **The shard loop** (`serve`) owns the sockets: shard 0 accepts
//! connections and deals them round-robin across the shards; each loop
//! decodes request frames off its non-blocking sockets with an
//! incremental [`FrameReader`] (zero-copy payloads) and batch-flushes
//! replies through per-connection [`WriteQueue`]s, so a burst of
//! pipelined replies shares one `writev` round. A server role supplies
//! only a *handler*: what to do with one request frame. It answers
//! inline (the reply joins the write queue in the iteration that read
//! the request) or later through a `ConnRef` completion, which may
//! carry a delay (a shard timer, not a sleeping thread). A frame the
//! handler cannot decode is answered with the role's error frame and
//! the connection closes once it flushes. The master
//! ([`crate::master_net::MasterServer`]) answers inline on one shard;
//! the worker server below forwards.
//!
//! **The worker server** keeps *deterministic op order*, which the
//! fault-injection scripts key on (DESIGN.md §4.12):
//!
//! * its **I/O shards** (one per core by default) hand every decoded
//!   request to a single service queue,
//! * one **service** thread pops that queue in arrival order, consults
//!   the worker's *wire* fault script, and forwards each request to the
//!   channel worker — so the worker observes exactly one global request
//!   order and the Nth data request over TCP is the same Nth data
//!   request an in-process run would count,
//! * one **reply pump** thread selects over every in-flight worker
//!   reply at once and hands each finished frame back to the owning
//!   shard as a completion, in op order — no per-request threads
//!   anywhere.
//!
//! Wire faults fire here, not in the worker (which runs only the data
//! half of the script):
//!
//! * `DropConnection` — the request is served, then the connection is
//!   closed without the reply frame,
//! * `TruncateFrame` — half the reply frame is written, then the
//!   connection is closed,
//! * `DelayFrame` — the reply frame is written after the pause.
//!
//! Graceful shutdown: a `Shutdown` request drains through the same
//! queue, so everything submitted before it is already forwarded (and
//! the worker itself serves FIFO before acknowledging). Its ack rides
//! the reply pump like any other reply, so it reaches its shard after
//! every earlier reply; the pump then sends `Stop` to every shard. A
//! stopping shard stops accepting and serving, but keeps polling until
//! its write queues are empty and no delayed reply is pending, bounded
//! by `DRAIN_DEADLINE`.

use crossbeam::channel::{unbounded, Receiver, Select, Sender, TryRecvError};
use mio::{Events, Interest, Poll, Token, Waker};
use spcache_store::backing::UnderStore;
use spcache_store::fault::{FaultAction, FaultLog, WorkerScript};
use spcache_store::rpc::{Envelope, Reply, Request, StoreError};
use spcache_store::worker::{spawn_worker_opts, WorkerOptions};
use spcache_store::StoreConfig;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::frame::{decode_request, encode_reply, encode_reply_parts, Frame};
use crate::poll::{FrameReader, PumpStatus, Timers, WireFrame, WriteQueue};

/// How long the reply pump waits on the channel worker before treating
/// a request as unanswerable. A hung worker looks exactly like this —
/// the pump then sends *nothing*, so the remote client times out just
/// as an in-process client would.
const FORWARD_DEADLINE: Duration = Duration::from_secs(5);

/// How long a shard keeps flushing unsent replies after `Stop` before
/// giving up on a peer that stopped reading.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Token of the shard's cross-thread waker.
const WAKER_TOK: Token = Token(0);
/// Token of the listener (shard 0 only).
const LISTENER_TOK: Token = Token(1);
/// First token handed to accepted connections.
const CONN_BASE: usize = 2;

/// What a shard does to a connection: a handler's inline answer or a
/// completion.
pub(crate) enum Action {
    /// Write the frame (header + zero-copy payload).
    Frame(WireFrame),
    /// Write the frame, then close once it flushes: a protocol
    /// violation's error reply, or a `TruncateFrame`'s torn half.
    Last(WireFrame),
    /// Close without writing anything (`DropConnection`).
    Close,
}

/// Commands into a shard I/O loop.
enum SrvCmd {
    /// Take ownership of an accepted connection.
    Adopt(TcpStream),
    /// Apply `action` to connection `token` after `delay`.
    Complete {
        token: usize,
        action: Action,
        delay: Duration,
    },
    /// Drain write queues and delayed completions, then exit.
    Stop,
}

/// Address of one shard loop: its command queue and waker.
#[derive(Clone)]
pub(crate) struct ShardRef {
    tx: Sender<SrvCmd>,
    waker: Arc<Waker>,
}

impl ShardRef {
    fn send(&self, cmd: SrvCmd) {
        if self.tx.send(cmd).is_ok() {
            let _ = self.waker.wake();
        }
    }
}

/// Routes a later answer back to the connection its request arrived on.
#[derive(Clone)]
pub(crate) struct ConnRef {
    shard: ShardRef,
    token: usize,
}

impl ConnRef {
    /// Applies `action` to the connection after `delay`.
    pub(crate) fn complete(&self, action: Action, delay: Duration) {
        self.shard.send(SrvCmd::Complete {
            token: self.token,
            action,
            delay,
        });
    }

    /// Queues a reply frame with no fault behaviour.
    fn reply(&self, reply: &Reply, req_id: u64) {
        self.complete(
            Action::Frame(encode_reply_parts(reply, req_id)),
            Duration::ZERO,
        );
    }

    /// Stops the shard this connection lives on — the whole server when
    /// it runs one shard, as the master does.
    pub(crate) fn stop_shard(&self) {
        self.shard.send(SrvCmd::Stop);
    }
}

/// Binds `bind` and runs `n` shard loops on it (threads named
/// `{name}-io-{i}`), each answering request frames with its own clone
/// of `handler`. The handler returns the action to apply at once (an
/// inline reply, a rejection), or `None` when the answer, if any, comes
/// later through the [`ConnRef`].
///
/// Returns the bound address, the shards' addresses and their threads.
///
/// # Errors
///
/// I/O errors binding the listener or creating the pollers.
pub(crate) fn serve<H>(
    name: &str,
    bind: &str,
    n: usize,
    handler: H,
) -> io::Result<(SocketAddr, Vec<ShardRef>, Vec<JoinHandle<()>>)>
where
    H: FnMut(Bytes, &ConnRef) -> Option<Action> + Clone + Send + 'static,
{
    crate::poll::tune_allocator_once();
    let listener = TcpListener::bind(bind)?;
    listener.set_nonblocking(true)?;
    // Accepted sockets inherit the listener's buffer sizes, so the
    // window is already wide during the handshake.
    crate::poll::tune_socket(&listener);
    let addr = listener.local_addr()?;

    // Build every shard's poller + command channel up front so shard 0
    // (the acceptor) can deal connections to all of them.
    let n = n.max(1);
    let mut polls = Vec::with_capacity(n);
    let mut refs: Vec<ShardRef> = Vec::with_capacity(n);
    for _ in 0..n {
        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(poll.registry(), WAKER_TOK)?);
        let (tx, rx) = unbounded::<SrvCmd>();
        refs.push(ShardRef { tx, waker });
        polls.push((poll, rx));
    }
    polls[0]
        .0
        .registry()
        .register(&listener, LISTENER_TOK, Interest::READABLE)?;

    let mut listener = Some(listener);
    let mut threads = Vec::with_capacity(n);
    for (i, (poll, rx)) in polls.into_iter().enumerate() {
        let shard = ShardLoop {
            poll,
            rx,
            listener: listener.take(), // shard 0 gets the listener
            me: refs[i].clone(),
            all: refs.clone(),
            handler: handler.clone(),
            conns: HashMap::new(),
            next_token: CONN_BASE,
            rr: 0,
            timers: Timers::new(),
            delayed: HashMap::new(),
            delay_seq: 0,
            inbound: Vec::new(),
            dirty: Vec::new(),
            drain_until: None,
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("{name}-io-{i}"))
                .spawn(move || shard.run())
                .expect("spawn io shard"),
        );
    }
    Ok((addr, refs, threads))
}

/// One client connection owned by a shard.
struct SrvConn {
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
    /// Close the socket once the write queue drains (fault injection
    /// or protocol violation); nothing more is read or queued.
    closing: bool,
}

/// One shard readiness loop and everything it owns.
struct ShardLoop<H> {
    poll: Poll,
    rx: Receiver<SrvCmd>,
    listener: Option<TcpListener>,
    me: ShardRef,
    all: Vec<ShardRef>,
    handler: H,
    conns: HashMap<usize, SrvConn>,
    next_token: usize,
    /// Round-robin dealing cursor (shard 0).
    rr: usize,
    /// Delayed completions: a timer per entry of `delayed`.
    timers: Timers<u64>,
    delayed: HashMap<u64, (usize, Action)>,
    delay_seq: u64,
    inbound: Vec<Bytes>,
    /// Connections to flush at the end of this iteration.
    dirty: Vec<usize>,
    /// Set by `Stop`: the loop exits once drained, or at this instant.
    drain_until: Option<Instant>,
}

impl<H> ShardLoop<H>
where
    H: FnMut(Bytes, &ConnRef) -> Option<Action>,
{
    /// Accepts (shard 0), reads request frames into the handler,
    /// applies completions (delayed ones off the timer heap), and
    /// batch-flushes write queues, until a `Stop` has drained.
    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        loop {
            let wake_at = self
                .timers
                .next_deadline()
                .into_iter()
                .chain(self.drain_until)
                .min();
            let timeout = wake_at.map(|d| d.saturating_duration_since(Instant::now()));
            if self.poll.poll(&mut events, timeout).is_err() {
                break;
            }
            self.commands();
            for ev in &events {
                match ev.token() {
                    WAKER_TOK => {}
                    LISTENER_TOK => self.accept_burst(),
                    Token(t) => {
                        if ev.is_readable() || ev.is_error() {
                            self.read_requests(t);
                        }
                        if ev.is_writable() && self.conns.contains_key(&t) {
                            self.mark_dirty(t);
                        }
                    }
                }
            }
            let now = Instant::now();
            while let Some(seq) = self.timers.pop_due(now) {
                if let Some((token, action)) = self.delayed.remove(&seq) {
                    self.apply(token, action);
                }
            }
            // One flush per touched connection.
            while let Some(token) = self.dirty.pop() {
                self.flush(token);
            }
            if let Some(until) = self.drain_until {
                let drained =
                    self.delayed.is_empty() && self.conns.values().all(|c| c.wq.is_empty());
                if drained || Instant::now() >= until {
                    break;
                }
            }
        }
        for (_, conn) in self.conns.drain() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Drains the command queue: adoptions, completions and `Stop`.
    fn commands(&mut self) {
        // The shard holds a sender to its own queue, so it never
        // disconnects: an error means empty.
        while let Ok(cmd) = self.rx.try_recv() {
            match cmd {
                SrvCmd::Adopt(stream) => self.adopt(stream),
                SrvCmd::Complete {
                    token,
                    action,
                    delay,
                } => {
                    if delay.is_zero() {
                        self.apply(token, action);
                    } else {
                        self.timers.insert(Instant::now() + delay, self.delay_seq);
                        self.delayed.insert(self.delay_seq, (token, action));
                        self.delay_seq += 1;
                    }
                }
                SrvCmd::Stop => {
                    if self.drain_until.is_none() {
                        self.drain_until = Some(Instant::now() + DRAIN_DEADLINE);
                        self.listener = None; // refuse new connections
                    }
                }
            }
        }
    }

    /// Accepts every connection the listener has ready and deals them
    /// round-robin across the shards.
    fn accept_burst(&mut self) {
        loop {
            let Some(Ok((stream, _))) = self.listener.as_ref().map(TcpListener::accept) else {
                // WouldBlock ends the burst; other accept errors are
                // transient and the level-triggered listener retries.
                return;
            };
            let shard = self.rr % self.all.len();
            self.rr += 1;
            if Arc::ptr_eq(&self.all[shard].waker, &self.me.waker) {
                self.adopt(stream);
            } else {
                self.all[shard].send(SrvCmd::Adopt(stream));
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        crate::poll::tune_socket(&stream);
        if self
            .poll
            .registry()
            .register(&stream, Token(token), Interest::READABLE)
            .is_ok()
        {
            let conn = SrvConn {
                stream,
                reader: FrameReader::new(),
                wq: WriteQueue::new(),
                closing: false,
            };
            self.conns.insert(token, conn);
        }
    }

    /// Pumps one readable connection and hands each request frame to the
    /// handler. A stopping shard still reads (so a level-triggered socket
    /// goes quiet) but serves nothing more. The connection dies when the
    /// peer closes or the socket fails.
    fn read_requests(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token).filter(|c| !c.closing) else {
            return;
        };
        let mut inbound = std::mem::take(&mut self.inbound);
        let open = matches!(
            conn.reader.pump(&mut conn.stream, &mut inbound),
            Ok(PumpStatus::Open)
        );
        let conn_ref = ConnRef {
            shard: self.me.clone(),
            token,
        };
        let mut cut = false;
        for buf in inbound.drain(..) {
            if self.drain_until.is_some() {
                continue;
            }
            match (self.handler)(buf, &conn_ref) {
                None => {}
                Some(frame @ Action::Frame(_)) => self.apply(token, frame),
                Some(last) => {
                    // The connection ends here; drop what follows.
                    self.apply(token, last);
                    cut = true;
                    break;
                }
            }
        }
        self.inbound = inbound;
        if !open && !cut {
            self.close(token);
        }
    }

    /// Applies an action to a connection (no-op if it already died).
    fn apply(&mut self, token: usize, action: Action) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match action {
            Action::Close => return self.close(token),
            // A closing stream ends at its last frame: a full frame
            // appended behind a torn half-frame would let the peer
            // misparse those bytes as the torn frame's body.
            _ if conn.closing => return,
            Action::Frame(wf) => conn.wq.push(wf),
            Action::Last(wf) => {
                conn.wq.push(wf);
                conn.closing = true;
            }
        }
        self.mark_dirty(token);
    }

    fn mark_dirty(&mut self, token: usize) {
        if !self.dirty.contains(&token) {
            self.dirty.push(token);
        }
    }

    /// Flushes one connection; closes it on error or once a closing
    /// queue drains.
    fn flush(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let flushed = conn
            .wq
            .flush_polled(&mut conn.stream, self.poll.registry(), Token(token));
        if !matches!(flushed, Ok(drained) if !drained || !conn.closing) {
            self.close(token);
        }
    }

    fn close(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poll.registry().deregister(&conn.stream);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

// ---------------------------------------------------------------------------
// Worker server
// ---------------------------------------------------------------------------

/// One unit of work for the service thread.
struct Job {
    req: Request,
    req_id: u64,
    conn: ConnRef,
}

/// An in-flight worker reply the pump is waiting on.
struct PendingReply {
    rx: Receiver<Reply>,
    conn: ConnRef,
    req_id: u64,
    worker_id: usize,
    delay: Duration,
    drop_conn: bool,
    truncate: bool,
    /// The `Shutdown` ack: once delivered, the pump stops the shards.
    shutdown: bool,
    deadline: Instant,
}

/// A running worker server. Dropping it abandons the threads; call
/// [`WorkerServer::join`] after a graceful shutdown for a clean exit.
#[derive(Debug)]
pub struct WorkerServer {
    id: usize,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerServer {
    /// Spawns worker `id` of a cluster described by `cfg`, listening on
    /// `bind` (use port 0 for an ephemeral port; the chosen address is
    /// [`WorkerServer::addr`]). The worker thread receives the *data*
    /// half of `cfg.faults`; the wire half fires in this server. Both
    /// log into `fault_log`.
    ///
    /// `io_shards` sets the I/O loop count (`None`: one per core; the
    /// `spcached --io-shards` flag lands here). `spill` is the budgeted
    /// worker's spill tier: evicted partitions land there (normally the
    /// deployment's shared under-store, so whole-file checkpoints there
    /// make evictions free drops). Without one, a budgeted worker backs
    /// itself with a private under-store — eviction stays a performance
    /// event either way.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener or creating the pollers.
    pub fn spawn(
        id: usize,
        bind: &str,
        cfg: &StoreConfig,
        fault_log: Arc<FaultLog>,
        io_shards: Option<usize>,
        spill: Option<Arc<UnderStore>>,
    ) -> io::Result<WorkerServer> {
        let io_shards = io_shards
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let (job_tx, job_rx) = unbounded::<Job>();
        let handler = move |buf: Bytes, conn: &ConnRef| {
            match Frame::parse(buf).and_then(|f| decode_request(&f).map(|req| (f.req_id, req))) {
                Ok((req_id, req)) => {
                    let job = Job {
                        req,
                        req_id,
                        conn: conn.clone(),
                    };
                    // A send fails only after a Shutdown was served: the
                    // request goes unanswered, and the connection closes
                    // when the shard's drain ends, after the replies it
                    // is still owed.
                    let _ = job_tx.send(job);
                    None
                }
                // Protocol violation: answer (best effort, the req_id
                // may be unknowable) and cut the connection once the
                // error flushes — framing can no longer be trusted.
                Err(e) => Some(Action::Last(encode_reply_parts(&Reply::Err(e), 0))),
            }
        };
        let (addr, shards, mut threads) =
            serve(&format!("spcached-{id}"), bind, io_shards, handler)?;

        let mut opts = WorkerOptions::new(
            id,
            cfg.bandwidth,
            cfg.stragglers.clone(),
            cfg.seed.wrapping_add(id as u64),
        )
        .with_scripts(
            cfg.faults.data_script_for(id),
            cfg.faults.heartbeat_script_for(id),
            Arc::clone(&fault_log),
        )
        .with_memory_budget(cfg.memory_budget)
        .with_background_fraction(cfg.background_fraction)
        .with_max_transfer_wait(Some(cfg.executor_deadline))
        .with_verify_reads(cfg.verify_reads)
        .with_corruption_log(cfg.log_corruptions);
        if let Some(u) = spill {
            opts = opts.with_spill(u);
        }
        let worker = spawn_worker_opts(opts);
        let wire_script = cfg.faults.wire_script_for(id);
        let (pump_tx, pump_rx) = unbounded::<PendingReply>();
        threads.push(
            std::thread::Builder::new()
                .name(format!("spcached-{id}-service"))
                .spawn(move || service_loop(id, &job_rx, worker, wire_script, &fault_log, pump_tx))
                .expect("spawn service thread"),
        );

        // The pump is detached: after shutdown it may hold entries of a
        // hung worker that only expire at FORWARD_DEADLINE, and join()
        // must not wait on those.
        std::thread::Builder::new()
            .name(format!("spcached-{id}-pump"))
            .spawn(move || pump_loop(&pump_rx, &shards))
            .expect("spawn reply pump");

        Ok(WorkerServer { id, addr, threads })
    }

    /// Worker index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server threads to finish (they exit after a
    /// `Shutdown` request has been served).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Service thread
// ---------------------------------------------------------------------------

/// The single-threaded request forwarder; owns the wire fault script
/// and the worker's sender half.
fn service_loop(
    id: usize,
    jobs: &Receiver<Job>,
    mut worker: spcache_store::worker::WorkerHandle,
    mut wire_script: WorkerScript,
    fault_log: &Arc<FaultLog>,
    pump_tx: Sender<PendingReply>,
) {
    let mut op: u64 = 0;
    while let Ok(Job { req, req_id, conn }) = jobs.recv() {
        let shutdown = matches!(req, Request::Shutdown);
        // Control requests bypass fault injection and op counting —
        // mirrored from the in-process worker loop.
        let mut delay = Duration::ZERO;
        let mut drop_conn = false;
        let mut truncate = false;
        if !req.is_control() {
            for action in wire_script.fire(op) {
                fault_log.record(id, op, action.clone());
                match action {
                    FaultAction::DropConnection => drop_conn = true,
                    FaultAction::TruncateFrame => truncate = true,
                    FaultAction::DelayFrame(pause) => delay += pause,
                    // Data actions never reach a wire script.
                    _ => unreachable!("data fault in wire script"),
                }
            }
            op += 1;
        }

        let _ = pump_tx.send(PendingReply {
            rx: forward(&worker, req),
            conn,
            req_id,
            worker_id: id,
            delay,
            drop_conn,
            truncate,
            shutdown,
            deadline: Instant::now() + FORWARD_DEADLINE,
        });
        if shutdown {
            // Everything queued before the Shutdown is already
            // forwarded; the worker drains FIFO and acks, and the pump
            // delivers that ack behind every earlier reply.
            worker.shutdown();
            return; // dropping pump_tx lets the pump exit once drained
        }
    }
}

// ---------------------------------------------------------------------------
// Reply pump
// ---------------------------------------------------------------------------

/// Waits on every in-flight worker reply at once and turns each into a
/// shard completion: the scripted wire behaviour (delay / drop /
/// truncate) rides along, and entries that outlive [`FORWARD_DEADLINE`]
/// are dropped silently — the remote client times out.
///
/// Completions are delivered in **op order**: the pending list keeps
/// submission order and every wake sweeps it front-to-back, delivering
/// all ready entries. The worker serves FIFO, so a ready reply implies
/// every earlier non-lost reply is ready too — the sweep therefore
/// flushes reply frames onto each connection in the same deterministic
/// order the requests were served, even when a pipelined burst makes
/// many replies ready within one wake. Only hung requests are skipped
/// over (they expire in place). The `Shutdown` ack is the last entry:
/// once it is delivered (or expires as `WorkerDown`), the pump sends
/// `Stop` to every shard, behind every completion it sent before.
fn pump_loop(inject: &Receiver<PendingReply>, shards: &[ShardRef]) {
    let mut pendings: Vec<PendingReply> = Vec::new();
    let mut inject_open = true;
    loop {
        if !inject_open && pendings.is_empty() {
            return;
        }

        // The select set is rebuilt each round (registration is cheap
        // in the channel shim; the fork-join client does the same).
        let mut sel = Select::new();
        if inject_open {
            sel.recv(inject);
        }
        for p in &pendings {
            sel.recv(&p.rx);
        }
        let next_deadline = pendings.iter().map(|p| p.deadline).min();
        let ready = match next_deadline {
            Some(d) => sel.ready_deadline(d).ok(),
            None => Some(sel.ready()),
        };

        if ready.is_some() {
            if inject_open {
                loop {
                    match inject.try_recv() {
                        Ok(p) => pendings.push(p),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            inject_open = false;
                            break;
                        }
                    }
                }
            }
            // Ordered sweep: deliver every ready reply, oldest first.
            let mut i = 0;
            while i < pendings.len() {
                let reply = match pendings[i].rx.try_recv() {
                    Ok(reply) => Some(reply),
                    Err(TryRecvError::Empty) => {
                        i += 1; // not ready yet
                        continue;
                    }
                    // The worker was gone at forward time, crashed
                    // mid-request (Crash fault) or dropped the reply.
                    Err(TryRecvError::Disconnected) => None,
                };
                deliver(&pendings.remove(i), reply.as_ref(), shards);
            }
        }

        // Hung requests vanish without a frame; a hung Shutdown still
        // acks (as WorkerDown) and stops the shards.
        let now = Instant::now();
        pendings.retain(|p| {
            if p.deadline > now {
                return true;
            }
            if p.shutdown {
                deliver(p, None, shards);
            }
            false
        });
    }
}

/// Turns a worker reply into the scripted completion for its
/// connection; `None` (no reply from the worker) is a definitive
/// `WorkerDown`. A delivered `Shutdown` ack stops every shard.
fn deliver(p: &PendingReply, reply: Option<&Reply>, shards: &[ShardRef]) {
    match reply {
        None => p
            .conn
            .reply(&Reply::Err(StoreError::WorkerDown(p.worker_id)), p.req_id),
        Some(_) if p.drop_conn => p.conn.complete(Action::Close, p.delay),
        Some(reply) if p.truncate => {
            let full = encode_reply(reply, p.req_id);
            let half = WireFrame::contiguous(full[..full.len() / 2].to_vec());
            p.conn.complete(Action::Last(half), p.delay);
        }
        Some(reply) => p
            .conn
            .complete(Action::Frame(encode_reply_parts(reply, p.req_id)), p.delay),
    }
    if p.shutdown {
        for s in shards {
            s.send(SrvCmd::Stop);
        }
    }
}

/// Sends one request into the channel worker. When the worker thread
/// has exited, the envelope — and with it the reply sender — is
/// dropped, so the returned receiver reads as disconnected.
fn forward(worker: &spcache_store::worker::WorkerHandle, req: Request) -> Receiver<Reply> {
    let (tx, rx) = crossbeam::channel::bounded(1);
    let _ = worker.sender().send(Envelope { req, reply: tx });
    rx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_request, read_frame, write_frame};

    /// A handler that echoes every request frame back after `delay`, and
    /// answers `Shutdown` inline while stopping its shard.
    fn echo_after(delay: Duration) -> impl FnMut(Bytes, &ConnRef) -> Option<Action> + Clone {
        move |buf: Bytes, conn: &ConnRef| {
            let shutdown = Frame::parse(buf.clone())
                .and_then(|f| decode_request(&f))
                .is_ok_and(|req| req == Request::Shutdown);
            let mut echo = (buf.len() as u32).to_le_bytes().to_vec();
            echo.extend_from_slice(&buf);
            let echo = Action::Frame(WireFrame::contiguous(echo));
            if shutdown {
                conn.stop_shard();
                return Some(echo);
            }
            conn.complete(echo, delay);
            None
        }
    }

    fn req_id(buf: Bytes) -> u64 {
        Frame::parse(buf).unwrap().req_id
    }

    #[test]
    fn stop_drains_delayed_completions_then_refuses_connections() {
        let (addr, _, threads) = serve(
            "drain-test",
            "127.0.0.1:0",
            1,
            echo_after(Duration::from_millis(100)),
        )
        .unwrap();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut s, &encode_request(&Request::Ping, 1)).unwrap();
        write_frame(&mut s, &encode_request(&Request::Shutdown, 2)).unwrap();

        // The inline ack first, then the delayed echo it overtook, then
        // the close.
        let t0 = Instant::now();
        assert_eq!(req_id(read_frame(&mut s).unwrap().unwrap()), 2);
        assert_eq!(req_id(read_frame(&mut s).unwrap().unwrap()), 1);
        assert!(t0.elapsed() >= Duration::from_millis(50));
        assert!(matches!(read_frame(&mut s), Ok(None) | Err(_)));
        for t in threads {
            t.join().unwrap();
        }
        assert!(
            TcpStream::connect(addr).is_err(),
            "a stopped server must refuse connections"
        );
    }

    #[test]
    fn connections_are_dealt_across_shards_and_each_is_served() {
        let (addr, shards, threads) =
            serve("deal-test", "127.0.0.1:0", 3, echo_after(Duration::ZERO)).unwrap();
        let mut conns: Vec<TcpStream> = (0..6).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, s) in conns.iter_mut().enumerate() {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write_frame(s, &encode_request(&Request::Ping, i as u64)).unwrap();
        }
        for (i, s) in conns.iter_mut().enumerate() {
            assert_eq!(req_id(read_frame(s).unwrap().unwrap()), i as u64);
        }
        for shard in &shards {
            shard.send(SrvCmd::Stop);
        }
        for t in threads {
            t.join().unwrap();
        }
    }
}
