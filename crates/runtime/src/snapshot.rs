//! Consistent cuts of a *live* lock space: Chandy–Lamport marker
//! snapshots over the cluster's channel transport.
//!
//! [`LockSpaceCluster::snapshot`](crate::LockSpaceCluster::snapshot)
//! captures a [`LockSpaceSnapshot`] from a running threaded cluster
//! without pausing it. The capture is the textbook marker algorithm
//! (Chandy & Lamport 1985), leaning on the one network property this
//! runtime already assumes — per-channel FIFO:
//!
//! 1. A shard thread records its own state (per-key DAG instances, the
//!    local user's held/pending keys, sends still staged in the
//!    coalescing transport) — atomically, between two inputs — and then
//!    sends a marker on every outgoing channel.
//! 2. From its cut point until the marker arrives on an incoming
//!    channel, everything received on that channel is recorded as the
//!    channel's in-flight state.
//! 3. A shard that sees a marker before any local trigger takes its cut
//!    right then (that channel records nothing).
//!
//! Because every shard is asked to snapshot at once (multi-initiator),
//! each one's cut is triggered by whichever arrives first — the local
//! request or a peer's marker.
//!
//! Channels only connect shard `s` of one node to shard `s` of another
//! (a *shard plane*: the keys with `k % workers == s`), so the marker
//! round runs once per plane and the result is **one consistent cut
//! per shard plane**, not one global instant; a node's `workers` slices
//! are merged into its [`NodeCut`]. That costs the oracle nothing: a
//! key never leaves its plane, and everything [`verify`] checks is per
//! key — the privilege count, the [`KeyedSafetyChecker`], and a held
//! key against the *same plane's* table. What is no longer captured at
//! one instant (when `workers > 1`) is one client's `held`/`pending`
//! set *across* planes, which nothing verifies.
//!
//! [`verify`]: LockSpaceSnapshot::verify
//!
//! [`LockSpaceSnapshot::verify`] then replays the paper's invariant
//! against the cut: every key has **exactly one** privilege — parked in
//! some node's table, staged for the wire, recorded in flight, or
//! implicitly at an untouched hub — and the per-key
//! [`KeyedSafetyChecker`] admits the executing set.

use dmx_core::{DagMessage, KeyedDagMessage, LockId};
use dmx_lockspace::Placement;
use dmx_simnet::checker::{KeyedSafetyChecker, KeyedViolation};
use dmx_simnet::Time;
use dmx_topology::NodeId;

/// One materialized per-key DAG instance, as its node's cut saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyCut {
    /// The key this instance serves.
    pub key: LockId,
    /// `true` when the instance held the key's token (privilege).
    pub has_token: bool,
    /// `true` when the local user was inside the critical section.
    pub executing: bool,
    /// `true` when this node had a REQUEST outstanding for the key.
    pub requesting: bool,
}

/// One node's slice of a consistent cut: its shard threads' slices,
/// merged.
#[derive(Debug, Clone)]
pub struct NodeCut {
    /// The node this slice belongs to.
    pub node: NodeId,
    /// Materialized per-key instances at the cut point, sorted by key.
    /// Keys absent everywhere hold their token implicitly at their hub.
    pub keys: Vec<KeyCut>,
    /// Keys the local user held (granted, not yet released).
    pub held: Vec<LockId>,
    /// Keys with an outstanding local acquisition: `(key, abandoned)`.
    pub pending: Vec<(LockId, bool)>,
    /// Sends staged in the coalescing transport at the cut — emitted by
    /// the protocol but not yet on the wire, so part of the in-flight
    /// state this node owns.
    pub staged: Vec<(NodeId, KeyedDagMessage)>,
    /// Channel recordings, indexed by sending peer: messages that
    /// crossed the cut on each incoming channel (received after this
    /// node's cut point, sent before the peer's marker).
    pub in_flight: Vec<Vec<KeyedDagMessage>>,
}

impl NodeCut {
    /// Keyed messages recorded in flight on this node's incoming
    /// channels.
    pub fn recorded_messages(&self) -> usize {
        self.in_flight.iter().map(Vec::len).sum()
    }
}

/// Why a cut failed [`LockSpaceSnapshot::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotViolation {
    /// A key's cut-wide privilege count differed from exactly one.
    TokenCount {
        /// The offending key.
        key: LockId,
        /// Privileges found across tables, staged sends, channel
        /// recordings, and the implicit hub token.
        found: usize,
    },
    /// Two nodes were inside the same key's critical section.
    Safety(KeyedViolation),
    /// A node reported a key as held by its user while the key's local
    /// instance was not executing with the token.
    HeldNotExecuting {
        /// The inconsistent node.
        node: NodeId,
        /// The key it claimed to hold.
        key: LockId,
    },
}

/// Aggregate facts [`LockSpaceSnapshot::verify`] establishes about a
/// cut that passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotSummary {
    /// Materialized per-key instances, summed over nodes.
    pub materialized: usize,
    /// Keys whose token was parked in some node's table.
    pub tokens_in_tables: usize,
    /// Keys still implicitly held by an untouched hub.
    pub implicit_tokens: usize,
    /// Instances inside their critical section (at most one per key).
    pub executing: usize,
    /// Instances with an outstanding REQUEST.
    pub requesting: usize,
    /// Keyed messages staged in coalescing transports at the cut.
    pub staged_messages: usize,
    /// Keyed messages recorded in flight on channels.
    pub recorded_messages: usize,
    /// PRIVILEGE messages among the staged and in-flight traffic.
    pub privileges_in_flight: usize,
}

/// A consistent cut of a running lock space — per shard plane, see the
/// [module docs](self): one [`NodeCut`] per node (sorted by node id)
/// plus the placement needed to account for never-materialized keys.
#[derive(Debug, Clone)]
pub struct LockSpaceSnapshot {
    keys: u32,
    placement: Placement,
    cuts: Vec<NodeCut>,
}

impl LockSpaceSnapshot {
    pub(crate) fn new(keys: u32, placement: Placement, cuts: Vec<NodeCut>) -> Self {
        LockSpaceSnapshot {
            keys,
            placement,
            cuts,
        }
    }

    /// Number of keys the captured space serves.
    pub fn keys(&self) -> u32 {
        self.keys
    }

    /// Number of nodes in the cut.
    pub fn nodes(&self) -> usize {
        self.cuts.len()
    }

    /// The per-node slices, sorted by node id.
    pub fn cuts(&self) -> &[NodeCut] {
        &self.cuts
    }

    /// Keyed messages the cut caught in flight: staged in a transport
    /// or recorded on a channel.
    pub fn in_flight_messages(&self) -> usize {
        self.cuts
            .iter()
            .map(|c| c.staged.len() + c.recorded_messages())
            .sum()
    }

    /// Checks the paper's safety invariant against the cut.
    ///
    /// Exactly one privilege must exist per key — parked in a table,
    /// staged for the wire, recorded in flight on a channel, or
    /// implicit at a hub no traffic ever touched — and the executing
    /// set must satisfy the per-key [`KeyedSafetyChecker`] (plus each
    /// node's held keys matching an executing, token-holding local
    /// instance).
    ///
    /// # Errors
    ///
    /// The first [`SnapshotViolation`] found, if the cut is
    /// inconsistent.
    pub fn verify(&self) -> Result<SnapshotSummary, SnapshotViolation> {
        let keys = self.keys as usize;
        let n = self.cuts.len();
        let mut tokens = vec![0usize; keys];
        let mut hub_materialized = vec![false; keys];
        let mut safety = KeyedSafetyChecker::with_keys(keys);
        let mut summary = SnapshotSummary::default();

        for cut in &self.cuts {
            for kc in &cut.keys {
                summary.materialized += 1;
                if kc.has_token {
                    tokens[kc.key.index()] += 1;
                    summary.tokens_in_tables += 1;
                }
                if kc.executing {
                    summary.executing += 1;
                    safety
                        .on_enter(kc.key.index(), cut.node, Time::ZERO)
                        .map_err(SnapshotViolation::Safety)?;
                }
                if kc.requesting {
                    summary.requesting += 1;
                }
                if cut.node == self.placement.hub(kc.key, n) {
                    hub_materialized[kc.key.index()] = true;
                }
            }
            for &held in &cut.held {
                let ok = cut
                    .keys
                    .iter()
                    .any(|kc| kc.key == held && kc.executing && kc.has_token);
                if !ok {
                    return Err(SnapshotViolation::HeldNotExecuting {
                        node: cut.node,
                        key: held,
                    });
                }
            }
            let mut in_flight = |msg: &KeyedDagMessage| {
                if matches!(msg.msg, DagMessage::Privilege) {
                    tokens[msg.lock.index()] += 1;
                    summary.privileges_in_flight += 1;
                }
            };
            for (_, msg) in &cut.staged {
                summary.staged_messages += 1;
                in_flight(msg);
            }
            for channel in &cut.in_flight {
                for msg in channel {
                    summary.recorded_messages += 1;
                    in_flight(msg);
                }
            }
        }

        for key in 0..keys {
            // A key nobody ever touched holds its token implicitly at
            // its hub: materializing the hub instance is what turns the
            // implicit token into a table entry.
            let implicit = !hub_materialized[key];
            summary.implicit_tokens += usize::from(implicit);
            let found = tokens[key] + usize::from(implicit);
            if found != 1 {
                return Err(SnapshotViolation::TokenCount {
                    key: LockId(key as u32),
                    found,
                });
            }
        }
        Ok(summary)
    }
}
