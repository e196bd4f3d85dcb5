//! Threaded runtimes for the DAG mutual exclusion algorithm: a
//! *distributed lock* you can actually take, behind one unified client
//! API.
//!
//! Three backends implement the same [`LockService`] and hand out the
//! same [`LockClient`]/[`LockGuard`] pair:
//!
//! * [`Cluster`] — in-process, with no threads of its own: a send is a
//!   push onto the peer's inbox, and the thread that queues an input
//!   runs the node;
//! * [`tcp::TcpCluster`] — loopback sockets, with no node thread: the
//!   socket readers and the callers themselves run the node;
//! * [`LockSpaceCluster`] — the sharded multi-key lock service:
//!   shared-nothing shard threads (`workers` per node), each parked on
//!   its own inbox, over the simulator's coalescing transport.
//!
//! All three step the same node — `NodeCore::step`, a
//! [`dmx_lockspace::KeyAgent`] plus a reply handle and counters — and
//! differ only in what carries an input to it and a send away from it;
//! the single-lock backends are that node at one key.
//!
//! Acquisition is a builder — [`LockClient::lock`] then one of
//! [`wait`](LockRequest::wait), [`try_now`](LockRequest::try_now),
//! [`timeout`](LockRequest::timeout), [`deadline`](LockRequest::deadline)
//! — and multi-key acquisition ([`LockClient::lock_many`]) takes keys
//! in sorted order, so overlapping key sets never deadlock:
//!
//! ```
//! use dmx_core::LockId;
//! use dmx_runtime::Cluster;
//! use dmx_topology::{NodeId, Tree};
//! use std::time::Duration;
//!
//! // Token starts at leaf 1 — the star's worst case for node 2.
//! let (cluster, mut clients) = Cluster::start(&Tree::star(4), NodeId(1));
//! {
//!     let _guard = clients[2].lock(LockId(0)).wait()?; // token travels to node 2
//!     // ... critical section ...
//! } // guard drop releases; the token stays parked at node 2
//! assert!(clients[2].lock(LockId(0)).try_now().is_ok()); // parked: free reentry
//! assert!(clients[1]
//!     .lock(LockId(0))
//!     .timeout(Duration::from_secs(5))?
//!     .key() == LockId(0));
//! let stats = cluster.shutdown();
//! assert_eq!(stats.entries, 3);
//! assert_eq!(stats.messages_total, 3 + 3); // the paper's star bound, twice
//! # Ok::<(), dmx_runtime::LockError>(())
//! ```
//!
//! The same pure [`dmx_core::DagNode`] state machine that the
//! deterministic simulator drives also runs here, so every property the
//! simulator's checkers establish carries over to the threaded build —
//! and a scripted client session ([`run_script`]) reproduces the
//! simulator's outcomes step for step (see [`service`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cluster;
mod lockspace;
mod mailbox;
pub mod service;
pub mod snapshot;
mod stats;
pub mod tcp;

pub use client::{run_script, LockClient, LockGuard, LockRequest, MultiGuard, MultiRequest};
pub use cluster::Cluster;
pub use lockspace::{LockSpaceCluster, LockSpaceClusterConfig, LockSpaceNodeStats, LockSpaceStats};
pub use service::{LockError, LockService};
pub use snapshot::{KeyCut, LockSpaceSnapshot, NodeCut, SnapshotSummary, SnapshotViolation};
pub use stats::{ClusterStats, NodeStats};
