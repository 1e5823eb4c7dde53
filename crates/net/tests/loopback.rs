//! End-to-end tests of the loopback-TCP cluster: byte-exact parity with
//! the in-process transport, repartition over the wire, wire-level fault
//! injection, and graceful drain-then-exit shutdown.

use spcache_net::frame::{decode_reply, encode_request, read_frame, write_frame, Frame};
use spcache_net::master_net::{decode_meta_reply, encode_meta_request, MetaReply, MetaRequest};
use spcache_net::TcpCluster;
use spcache_store::fault::FaultAction;
use spcache_store::rpc::{PartKey, Reply, Request, StoreError};
use spcache_store::transport::Transport;
use spcache_store::{FaultPlan, RetryPolicy, StoreCluster, StoreConfig};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const N_WORKERS: usize = 4;

/// Deterministic payload, distinct per file.
fn payload(id: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + id as usize * 17 + 3) % 256) as u8).collect()
}

fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(2),
        deadline: Duration::from_secs(2),
    }
}

/// The acceptance bar: the same workload against the in-process channel
/// transport and against real loopback sockets returns identical bytes.
#[test]
fn tcp_reads_match_in_process_reads_byte_for_byte() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let chan = StoreCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let tcp_client = tcp.client();
    let chan_client = chan.client();

    for id in 0..12u64 {
        // Ragged sizes straddle the partition boundary math.
        let data = payload(id, 3_000 + (id as usize * 997) % 9_000);
        let servers = vec![id as usize % N_WORKERS, (id as usize + 1) % N_WORKERS];
        tcp_client.write(id, &data, &servers).unwrap();
        chan_client.write(id, &data, &servers).unwrap();
    }
    for id in 0..12u64 {
        let over_tcp = tcp_client.read(id).unwrap();
        let in_process = chan_client.read(id).unwrap();
        assert_eq!(over_tcp, in_process, "file {id} differs across transports");
        assert_eq!(over_tcp, payload(id, 3_000 + (id as usize * 997) % 9_000));
    }
    tcp.shutdown();
}

/// A full repartition round-trip driven through the master's wire
/// protocol: one `Rebalance` RPC plans with Algorithm 1+2 and executes
/// over the master's own TCP transport; reads stay byte-exact.
#[test]
fn rebalance_rpc_moves_files_and_preserves_bytes() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let client = tcp.client();

    // Large files, all crowded onto worker 0 — exactly what selective
    // partition exists to fix.
    for id in 0..6u64 {
        client.write(id, &payload(id, 40_000), &[0]).unwrap();
    }
    // Skew the access counts so the tuner sees load.
    for _ in 0..5 {
        for id in 0..6u64 {
            client.read(id).unwrap();
        }
    }

    let mc = tcp.master_client();
    let (moved, skipped) = mc.rebalance(1e9, 100.0, 42).unwrap();
    assert!(skipped.is_empty(), "no worker failed, nothing may be skipped");
    assert!(moved > 0, "crowded placement must trigger movement");

    // Placement metadata changed under at least one moved file...
    let spread: usize = tcp
        .master()
        .placements()
        .iter()
        .map(|(_, servers)| servers.len())
        .max()
        .unwrap();
    assert!(spread > 1, "rebalance should partition at least one file");
    // ...and every byte survived the move.
    for id in 0..6u64 {
        assert_eq!(client.read(id).unwrap(), payload(id, 40_000), "file {id}");
    }
    tcp.shutdown();
}

/// Wire faults fire at the TCP layer and the retrying client absorbs
/// them: a dropped connection, a delayed frame and a truncated frame
/// each surface as retryable transport errors, never wrong bytes.
#[test]
fn wire_faults_are_absorbed_by_retries() {
    let delay = Duration::from_millis(120);
    let faults = FaultPlan::none()
        .drop_connection(1, 2)
        .truncate_frame(2, 2)
        .delay_frame(3, 2, delay);
    let cfg = StoreConfig::unthrottled(N_WORKERS)
        .with_faults(faults)
        .with_retry(retry());
    let tcp = TcpCluster::spawn(cfg);
    let client = tcp.client();

    for id in 0..4u64 {
        // One partition per worker: file id lives on worker id.
        client.write(id, &payload(id, 2_000), &[id as usize]).unwrap();
    }
    // Each worker has served 1 put (op 0); reads are ops 1, 2, ... The
    // faults all trigger at op 2, i.e. the second read below.
    let t0 = Instant::now();
    for round in 0..3 {
        for id in 0..4u64 {
            assert_eq!(
                client.read(id).unwrap(),
                payload(id, 2_000),
                "round {round} file {id}"
            );
        }
    }
    assert!(t0.elapsed() >= delay, "the delayed frame must actually stall");

    let log = tcp.fault_log().snapshot();
    let fired: Vec<(usize, FaultAction)> =
        log.iter().map(|r| (r.worker, r.action.clone())).collect();
    assert!(fired.contains(&(1, FaultAction::DropConnection)));
    assert!(fired.contains(&(2, FaultAction::TruncateFrame)));
    assert!(fired.contains(&(3, FaultAction::DelayFrame(delay))));
    tcp.shutdown();
}

/// Graceful shutdown over the wire: requests already accepted are
/// drained (their effects are durable and their replies delivered)
/// before the ack; requests after the ack fail cleanly.
#[test]
fn shutdown_drains_queued_requests() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(1));
    let transport = tcp.transport().clone();

    // Queue a burst of puts and a shutdown *behind* them, all without
    // awaiting — the server must serve every put before acking.
    let staged: Vec<_> = (0..32u32)
        .map(|i| {
            let key = PartKey::new(7, i).staged();
            let data = payload(u64::from(i), 1_500);
            let rx = transport
                .submit(0, Request::Put { key, data: data.clone().into(), sum: 0 })
                .unwrap();
            (key, data, rx)
        })
        .collect();
    let shutdown_rx = transport.submit(0, Request::Shutdown).unwrap();

    for (i, (_, _, rx)) in staged.iter().enumerate() {
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply, Reply::Done, "queued put {i} must land before the ack");
    }
    assert_eq!(
        shutdown_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        Reply::Done
    );

    // The worker is gone: a new request must fail with a transport
    // error, not hang.
    let err = transport
        .call(0, Request::Ping, Duration::from_secs(1))
        .map(|r| r.pong())
        .and_then(|r| r);
    match err {
        Err(StoreError::Io(0) | StoreError::WorkerDown(0) | StoreError::Timeout(0)) => {}
        other => panic!("post-shutdown request should fail, got {other:?}"),
    }
    tcp.shutdown();
}

/// The forced form of the drain race: the last put's reply waits on a
/// scripted 100 ms frame delay while the `Shutdown` behind it is acked
/// at once. The server must still deliver that delayed reply before it
/// closes the connection.
#[test]
fn shutdown_drains_delayed_replies() {
    let faults = FaultPlan::none().delay_frame(0, 7, Duration::from_millis(100));
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(1).with_faults(faults));
    let transport = tcp.transport().clone();

    let puts: Vec<_> = (0..8u32)
        .map(|i| {
            let key = PartKey::new(9, i).staged();
            let data = payload(u64::from(i), 1_500).into();
            transport.submit(0, Request::Put { key, data, sum: 0 }).unwrap()
        })
        .collect();
    let shutdown_rx = transport.submit(0, Request::Shutdown).unwrap();

    for (i, rx) in puts.iter().enumerate() {
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply, Reply::Done, "put {i} must be answered before the close");
    }
    assert_eq!(
        shutdown_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        Reply::Done
    );
    tcp.shutdown();
}

/// Writes one raw frame to `addr` and returns the reply frame, after
/// checking that the server then closes the connection.
fn reply_then_close(addr: SocketAddr, frame: &[u8]) -> Frame {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(&mut s, frame).unwrap();
    let reply = read_frame(&mut s).unwrap().expect("an error reply frame");
    let next = read_frame(&mut s);
    assert!(
        matches!(next, Ok(None) | Err(_)),
        "the connection must close after the error frame, got {next:?}"
    );
    Frame::parse(reply).unwrap()
}

/// A frame of the other role's protocol is a protocol violation: each
/// server answers it with a `Codec` error in its own reply space, closes
/// that connection, and keeps serving everyone else.
#[test]
fn wrong_port_frames_get_a_codec_error_then_close() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(2));
    let client = tcp.client();
    client.write(1, &payload(1, 4_000), &[0, 1]).unwrap();

    // A worker `Ping` at the master.
    let reply = reply_then_close(tcp.master_addr(), &encode_request(&Request::Ping, 5));
    let decoded = decode_meta_reply(&reply).unwrap();
    assert!(
        matches!(decoded, MetaReply::Err(StoreError::Codec(_))),
        "master answered {decoded:?}"
    );

    // A master `Status` at a worker.
    let status = encode_meta_request(&MetaRequest::Status, 6);
    let reply = reply_then_close(tcp.worker_addrs()[1], &status);
    let decoded = decode_reply(&reply).unwrap();
    assert!(
        matches!(decoded, Reply::Err(StoreError::Codec(_))),
        "worker answered {decoded:?}"
    );

    // Both servers still serve other connections.
    assert_eq!(client.read(1).unwrap(), payload(1, 4_000));
    assert_eq!(tcp.client().read(1).unwrap(), payload(1, 4_000));
    tcp.shutdown();
}

/// `Stats` over the wire reflect the served workload.
#[test]
fn stats_travel_the_wire() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(2));
    let client = tcp.client();
    client.write(1, &payload(1, 5_000), &[0, 1]).unwrap();
    client.read(1).unwrap();
    let stats = tcp.worker_stats().unwrap();
    let puts: u64 = stats.iter().map(|s| s.puts).sum();
    let gets: u64 = stats.iter().map(|s| s.gets).sum();
    assert_eq!(puts, 2);
    assert_eq!(gets, 2);
    assert_eq!(stats.iter().map(|s| s.resident_parts).sum::<usize>(), 2);
    tcp.shutdown();
}
