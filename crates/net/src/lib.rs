#![warn(missing_docs)]

//! `spcache-net`: a real TCP wire protocol and transport for the store.
//!
//! The store crate's data and control planes are pure data
//! ([`spcache_store::rpc::Request`] / [`Reply`] and the
//! [`spcache_store::master::MetaService`] trait) behind the
//! [`spcache_store::transport::Transport`] abstraction. This crate puts
//! them on sockets:
//!
//! * [`frame`] — the length-prefixed binary codec (hand-rolled on
//!   [`bytes::Bytes`], zero-copy on receive; DESIGN.md §4.10),
//! * [`poll`] — the event-loop building blocks (DESIGN.md §4.12): an
//!   incremental [`poll::FrameReader`] for non-blocking sockets, a
//!   batching [`poll::WriteQueue`] that gathers pipelined frames into
//!   single `writev` calls, and a [`poll::Timers`] deadline heap,
//! * [`tcp::TcpTransport`] — the client side: readiness-driven shard
//!   loops multiplexing every worker connection, with per-connection
//!   request-id multiplexing, frame batching and
//!   `RetryPolicy`-derived poller timers,
//! * [`server`] — the server event loop both `spcached` roles run:
//!   sharded readiness loops parameterised only by a per-role request
//!   handler, with graceful drain-then-exit shutdown; and
//!   [`server::WorkerServer`], the worker on it — a TCP front end over
//!   the store's channel worker, including wire-level fault injection
//!   (dropped connections, delayed and truncated frames),
//! * [`master_net`] — the master protocol: [`master_net::MasterServer`]
//!   serving metadata inline on that loop plus a one-RPC cluster
//!   `Rebalance`, and [`master_net::MasterClient`], a wire-backed
//!   `MetaService`,
//! * [`loopback::TcpCluster`] — everything wired together over
//!   127.0.0.1 for tests and benchmarks, interchangeable with the
//!   in-process `StoreCluster`,
//! * the `spcached` binary — `spcached worker|master` for real
//!   multi-process deployments (see the README quickstart).
//!
//! [`Reply`]: spcache_store::rpc::Reply

pub mod frame;
pub mod loopback;
pub mod master_net;
pub mod poll;
pub mod server;
pub mod tcp;

pub use loopback::TcpCluster;
pub use master_net::{MasterClient, MasterServer};
pub use server::WorkerServer;
pub use tcp::TcpTransport;
