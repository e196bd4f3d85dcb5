//! The unified client-facing lock API: one [`LockService`] trait and
//! one [`LockError`].
//!
//! The claim machine behind it — waiting / abandoned / adopted, the
//! grant that bounces because its user gave up — is not in this crate:
//! it is [`dmx_lockspace::KeyAgent`], the sans-IO agent every backend's
//! node steps and the simulated session drives too, so timeouts,
//! abandonment and adoption cannot differ between substrates.
//!
//! Three runtimes serve the same distributed lock — the in-process
//! [`Cluster`](crate::Cluster), the sharded multi-key
//! [`LockSpaceCluster`](crate::LockSpaceCluster), and the socket-based
//! [`TcpCluster`](crate::tcp::TcpCluster). All three hand out the same
//! [`LockClient`](crate::LockClient)/[`LockGuard`](crate::LockGuard)
//! pair and implement this trait, so client code (and the scripted
//! session driver, [`run_script`](crate::run_script)) is written once.
//!
//! # The same program, simulated and threaded
//!
//! A session [`Script`](dmx_workload::Script) is the portable client
//! program: the identical step sequence runs under the deterministic
//! simulator (`dmx_lockspace::ScriptedClient`) and against any
//! [`LockService`] backend, producing the same
//! [`Outcome`](dmx_workload::Outcome) per acquire step:
//!
//! ```
//! use std::time::Duration;
//!
//! use dmx_core::LockId;
//! use dmx_lockspace::{Placement, ScriptedClient, SessionConfig};
//! use dmx_runtime::{run_script, LockService, LockSpaceCluster};
//! use dmx_simnet::{Engine, EngineConfig};
//! use dmx_topology::{NodeId, Tree};
//! use dmx_workload::{Outcome, Script};
//!
//! let tree = Tree::star(3);
//! let script = Script::new()
//!     .lock(NodeId(1), LockId(4))            // token travels to node 1
//!     .try_lock(NodeId(2), LockId(4))        // held remotely: would block
//!     .release(NodeId(2))
//!     .release(NodeId(1))
//!     .lock_many(NodeId(2), &[LockId(4), LockId(1)])
//!     .release(NodeId(2));
//!
//! // Simulated: deterministic ticks, per-key safety oracle watching.
//! let config = SessionConfig { keys: 8, ..SessionConfig::default() };
//! let (nodes, monitor) = ScriptedClient::cluster(&tree, config, &script);
//! let mut engine = Engine::new(nodes, EngineConfig::default());
//! engine.run_to_quiescence()?;
//! let simulated = monitor.finish().expect("per-key safety holds");
//!
//! // Threaded: real threads, real channels, the same client program.
//! let (cluster, mut clients) = LockSpaceCluster::start(&tree, 8, Placement::Modulo);
//! assert_eq!(cluster.keys(), 8);
//! // One script tick = 2ms of wall clock for timeout/deadline steps.
//! let threaded = run_script(&mut clients, &script, Duration::from_millis(2));
//! cluster.shutdown();
//!
//! assert_eq!(simulated, threaded);
//! assert_eq!(threaded[1], Some(Outcome::WouldBlock));
//! # Ok::<(), dmx_simnet::EngineError>(())
//! ```

use std::fmt;

use crate::snapshot::LockSpaceSnapshot;

/// Failure acquiring or releasing a distributed lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// The cluster was shut down, or the node is down because a thread
    /// panicked while stepping it, or (lock space) the thread of the
    /// shard that owns the key died: before the request was made, or
    /// while it was outstanding.
    ClusterDown,
    /// The timeout window elapsed before every requested key was
    /// granted; partial multi-key acquisitions were rolled back.
    Timeout,
    /// A [`try_now`](crate::LockRequest::try_now) found some requested
    /// key's token remote; nothing was acquired and no protocol
    /// message was sent.
    WouldBlock,
    /// The absolute deadline passed before every requested key was
    /// granted; partial multi-key acquisitions were rolled back.
    Deadline,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::ClusterDown => write!(f, "cluster is no longer running"),
            LockError::Timeout => write!(f, "timed out waiting for the lock"),
            LockError::WouldBlock => write!(f, "lock not locally available"),
            LockError::Deadline => write!(f, "deadline passed while waiting for the lock"),
        }
    }
}

impl std::error::Error for LockError {}

/// A running distributed-lock backend: some number of nodes serving
/// some number of keys, stoppable for its counters.
///
/// Implemented by [`Cluster`](crate::Cluster) and
/// [`TcpCluster`](crate::tcp::TcpCluster) (single lock, `keys() == 1`)
/// and [`LockSpaceCluster`](crate::LockSpaceCluster) (multi-key).
/// Every implementor's `start` hands out one
/// [`LockClient`](crate::LockClient) per node; see the
/// [module docs](self) for the cross-substrate session example.
pub trait LockService {
    /// What [`shutdown`](LockService::shutdown) aggregates.
    type Stats;

    /// Number of nodes serving the lock space.
    fn len(&self) -> usize;

    /// `true` for a service with no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct keys served (`1` for the single-lock
    /// backends; clients' valid keys are `LockId(0..keys)`).
    fn keys(&self) -> u32;

    /// Captures a consistent cut of the live service without pausing
    /// it, for backends that support online capture. The default is
    /// `None`; [`LockSpaceCluster`](crate::LockSpaceCluster) overrides
    /// it with a Chandy–Lamport marker snapshot (see
    /// [`crate::snapshot`]).
    fn snapshot(&self) -> Option<LockSpaceSnapshot> {
        None
    }

    /// Stops every node and returns the aggregated counters.
    fn shutdown(self) -> Self::Stats;
}

/// The node-side answer to an acquisition (sent on the client's ack
/// mailbox).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reply {
    /// The key's critical section is yours.
    Granted,
    /// Try-only: the key's token is not locally available.
    Unavailable,
}
