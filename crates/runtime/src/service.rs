//! The unified client-facing lock API: one [`LockService`] trait, one
//! [`LockError`], and the shared pending/abandon state machine every
//! backend runs (the single-lock backends inside the same
//! `NodeCore::step`, the lock space inside its shard loop).
//!
//! Three runtimes serve the same distributed lock — the channel-based
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

use crossbeam::channel::Sender;
use dmx_core::LockId;

use crate::snapshot::LockSpaceSnapshot;

/// Failure acquiring or releasing a distributed lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// The cluster was shut down (or a node thread died) while the
    /// request was outstanding.
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
/// channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reply {
    /// The key's critical section is yours.
    Granted,
    /// Try-only: the key's token is not locally available.
    Unavailable,
}

/// One key's pending local acquisition, node side.
#[derive(Debug)]
pub(crate) enum Pending {
    /// Waiting for the privilege; reply here on entry.
    Waiting(Sender<Reply>),
    /// The user gave up waiting. The in-flight REQUEST cannot be
    /// recalled (the paper has no cancel message), so the privilege is
    /// released the moment it arrives — unless a new acquisition
    /// adopts the request first.
    Abandoned,
}

/// What the node loop must do with a local acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcquireAction {
    /// Fresh acquisition: drive the key's state machine (`request`).
    Issue,
    /// An abandoned request for this key is still in flight; the new
    /// acquisition adopts it — no new protocol messages.
    Adopted,
}

/// What the node loop must do when a key's grant (Enter) lands.
#[derive(Debug)]
pub(crate) enum GrantAction {
    /// Hand the critical section to the waiting user.
    Deliver(Sender<Reply>),
    /// The waiter abandoned: bounce straight back out (`exit`).
    AutoRelease,
}

/// What the node loop must do with a local abandon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbandonAction {
    /// Still waiting: marked; the grant will auto-release on arrival.
    Marked,
    /// Race: the grant was already delivered but the user timed out
    /// anyway — the node is inside the critical section with nobody
    /// using it, so leave immediately (`exit`).
    ReleaseNow,
    /// Already resolved; nothing to do.
    Stale,
}

/// The shared pending/abandon state machine: per-key slots tracking the
/// local user's outstanding acquisitions. The single-lock backends'
/// `NodeCore::step` runs it with the one key `LockId(0)`; each
/// lock-space shard thread runs it across the keys it owns. Both
/// therefore expose *identical* timeout/abandon/adoption semantics —
/// the uniformity the unified client API rests on.
#[derive(Debug, Default)]
pub(crate) struct PendingSet {
    /// Outstanding slots. At most one [`Pending::Waiting`] at any time
    /// (clients are `&mut`-serialized), but abandoned requests for
    /// other keys may linger until their privilege arrives.
    slots: Vec<(LockId, Pending)>,
}

impl PendingSet {
    pub(crate) fn new() -> Self {
        PendingSet::default()
    }

    fn position(&self, key: LockId) -> Option<usize> {
        self.slots.iter().position(|(k, _)| *k == key)
    }

    /// `true` if `key` has any outstanding slot (waiting or abandoned).
    pub(crate) fn is_engaged(&self, key: LockId) -> bool {
        self.position(key).is_some()
    }

    /// Visits every outstanding slot as `(key, abandoned)` — the local
    /// user state a consistent cut captures.
    pub(crate) fn for_each_engaged(&self, mut f: impl FnMut(LockId, bool)) {
        for (key, pending) in &self.slots {
            f(*key, matches!(pending, Pending::Abandoned));
        }
    }

    /// Registers a local acquire for `key`, replying on `ack` when the
    /// privilege arrives.
    ///
    /// # Panics
    ///
    /// Panics if a waiter is already registered — the client API's
    /// `&mut` borrows make a second outstanding acquisition impossible,
    /// so this is a protocol bug, not a user error.
    pub(crate) fn acquire(&mut self, key: LockId, ack: Sender<Reply>) -> AcquireAction {
        assert!(
            !self
                .slots
                .iter()
                .any(|(_, p)| matches!(p, Pending::Waiting(_))),
            "second outstanding acquisition (client handles are serialized)"
        );
        match self.position(key) {
            Some(i) => {
                // Adopt the still-in-flight request of a timed-out
                // acquisition: no new messages needed.
                debug_assert!(matches!(self.slots[i].1, Pending::Abandoned));
                self.slots[i].1 = Pending::Waiting(ack);
                AcquireAction::Adopted
            }
            None => {
                self.slots.push((key, Pending::Waiting(ack)));
                AcquireAction::Issue
            }
        }
    }

    /// Resolves `key`'s grant, removing its slot.
    ///
    /// # Panics
    ///
    /// Panics if no acquisition is outstanding for `key` — the
    /// privilege only ever travels to a requester.
    pub(crate) fn grant(&mut self, key: LockId) -> GrantAction {
        let i = self
            .position(key)
            .unwrap_or_else(|| panic!("entered {key}'s critical section with no local waiter"));
        match self.slots.swap_remove(i).1 {
            Pending::Waiting(ack) => GrantAction::Deliver(ack),
            Pending::Abandoned => GrantAction::AutoRelease,
        }
    }

    /// Registers the local user's abandonment of `key` (its timeout
    /// elapsed). `holding` says whether the node is currently inside
    /// `key`'s critical section with no waiter — the
    /// delivered-but-unclaimed race.
    pub(crate) fn abandon(&mut self, key: LockId, holding: bool) -> AbandonAction {
        match self.position(key) {
            Some(i) => match self.slots[i].1 {
                Pending::Waiting(_) => {
                    self.slots[i].1 = Pending::Abandoned;
                    AbandonAction::Marked
                }
                Pending::Abandoned => AbandonAction::Stale,
            },
            None if holding => AbandonAction::ReleaseNow,
            None => AbandonAction::Stale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    #[test]
    fn fresh_acquire_issues_and_grant_delivers() {
        let mut set = PendingSet::new();
        let (tx, rx) = bounded(1);
        assert_eq!(set.acquire(LockId(3), tx), AcquireAction::Issue);
        assert!(set.is_engaged(LockId(3)));
        match set.grant(LockId(3)) {
            GrantAction::Deliver(ack) => ack.send(Reply::Granted).unwrap(),
            GrantAction::AutoRelease => panic!("nobody abandoned"),
        }
        assert_eq!(rx.recv(), Ok(Reply::Granted));
        assert!(!set.is_engaged(LockId(3)));
    }

    #[test]
    fn abandoned_grant_auto_releases() {
        let mut set = PendingSet::new();
        let (tx, _rx) = bounded(1);
        set.acquire(LockId(0), tx);
        assert_eq!(set.abandon(LockId(0), false), AbandonAction::Marked);
        assert!(matches!(set.grant(LockId(0)), GrantAction::AutoRelease));
        assert!(!set.is_engaged(LockId(0)));
    }

    #[test]
    fn new_acquire_adopts_abandoned_request() {
        let mut set = PendingSet::new();
        let (tx, _rx) = bounded(1);
        set.acquire(LockId(7), tx);
        set.abandon(LockId(7), false);
        let (tx2, rx2) = bounded(1);
        assert_eq!(set.acquire(LockId(7), tx2), AcquireAction::Adopted);
        match set.grant(LockId(7)) {
            GrantAction::Deliver(ack) => ack.send(Reply::Granted).unwrap(),
            GrantAction::AutoRelease => panic!("adoption lost the waiter"),
        }
        assert_eq!(rx2.recv(), Ok(Reply::Granted));
    }

    #[test]
    fn abandon_after_delivery_releases_now_and_again_is_stale() {
        let mut set = PendingSet::new();
        let (tx, _rx) = bounded(1);
        set.acquire(LockId(1), tx);
        let _ = set.grant(LockId(1)); // delivered; user times out anyway
        assert_eq!(set.abandon(LockId(1), true), AbandonAction::ReleaseNow);
        assert_eq!(set.abandon(LockId(1), false), AbandonAction::Stale);
    }

    #[test]
    fn abandoned_slots_for_other_keys_coexist_with_a_waiter() {
        let mut set = PendingSet::new();
        let (tx, _rx) = bounded(1);
        set.acquire(LockId(2), tx);
        set.abandon(LockId(2), false);
        let (tx2, _rx2) = bounded(1);
        // A different key's acquisition proceeds while key 2's
        // abandoned request is still in flight.
        assert_eq!(set.acquire(LockId(5), tx2), AcquireAction::Issue);
        assert!(set.is_engaged(LockId(2)) && set.is_engaged(LockId(5)));
        assert!(matches!(set.grant(LockId(2)), GrantAction::AutoRelease));
    }

    #[test]
    #[should_panic(expected = "second outstanding acquisition")]
    fn two_waiters_are_a_protocol_bug() {
        let mut set = PendingSet::new();
        let (tx, _rx) = bounded(1);
        let (tx2, _rx2) = bounded(1);
        set.acquire(LockId(0), tx);
        set.acquire(LockId(1), tx2);
    }
}
