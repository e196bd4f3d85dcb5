//! The multi-lock service over real threads: a [`LockSpaceCluster`]
//! serves the same keyed-lock API the simulated `dmx-lockspace`
//! subsystem exposes — with per-shard parallelism, the same coalescing
//! transport the simulator runs, and the same unified [`LockClient`]
//! every other backend hands out (try/timeout/deadline and
//! deadlock-free [`lock_many`](LockClient::lock_many) included).
//!
//! Each node is [`LockSpaceClusterConfig::workers`] independent,
//! shared-nothing **shard threads**. Shard `s` owns everything for the
//! keys with `k % workers == s`: a `NodeCore` — the same node the
//! single-lock backends step, here over a slice of the key space: the
//! [`dmx_lockspace::KeyAgent`] with its lazily-materialized lock table
//! (the same sharded table, the same lazy-orientation soundness
//! argument) and the local user's claims, so timeouts, abandonment
//! (release-on-grant; the paper has no cancel message) and request
//! adoption are one implementation on every backend — and its own
//! [`Transport`] (`dmx-lockspace`'s coalescing layer, the identical
//! grouping code the simulated `LockSpace` flushes through). Its thread
//! pops one input at a time from the shard's inbox, runs
//! `NodeCore::step`, stages the sends, and flushes one envelope per
//! destination when the [`FlushPolicy`]'s cap is hit or the inbox goes
//! idle; with nothing staged and nothing queued, it parks on the inbox.
//!
//! The key → shard map is the same on every node, so shard `s` of node
//! `i` only ever talks to shard `s` of node `j` (one *shard plane* per
//! `s`), and a client pushes each operation straight onto the inbox of
//! the shard that owns its key: a protocol hop is one push onto the
//! peer shard's inbox, plus a wake-up if that shard is parked.
//!
//! The wire therefore carries [`Envelope::One`]/[`Envelope::Batch`]
//! exactly like the simulator's network: a shard forwarding many keys'
//! traffic to the same peer pays one push, not one per key.
//! Locking key `k` from node `i` still runs exactly the per-key
//! algorithm the simulator measures: `REQUEST`s hop toward `k`'s sink,
//! the `PRIVILEGE` parks where demand is.
//!
//! # Examples
//!
//! ```
//! use dmx_core::LockId;
//! use dmx_lockspace::Placement;
//! use dmx_runtime::LockSpaceCluster;
//! use dmx_topology::{NodeId, Tree};
//!
//! let (cluster, mut clients) =
//!     LockSpaceCluster::start(&Tree::star(4), 64, Placement::Modulo);
//! {
//!     let _guard = clients[2].lock(LockId(17)).wait()?; // key 17's critical section
//! } // drop releases; key 17's token stays parked at node 2
//! {
//!     // Deadlock-free multi-key acquisition: sorted LockId order.
//!     let guard = clients[2].lock_many(&[LockId(9), LockId(3)]).wait()?;
//!     assert_eq!(guard.keys(), &[LockId(3), LockId(9)]);
//! }
//! let stats = cluster.shutdown();
//! assert_eq!(stats.entries, 3);
//! # Ok::<(), dmx_runtime::LockError>(())
//! ```

use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use dmx_core::{DagNode, LockId};
use dmx_lockspace::{BatchPool, Envelope, FlushPolicy, KeyAgent, Placement, Transport};
use dmx_topology::{NodeId, Tree};

use crate::client::LockClient;
use crate::cluster::{Input as NodeInput, NodeCore};
use crate::mailbox::Mailbox;
use crate::service::LockService;
use crate::snapshot::{KeyCut, LockSpaceSnapshot, NodeCut};

/// Threaded lock-space parameters.
///
/// # Examples
///
/// ```
/// use dmx_lockspace::FlushPolicy;
/// use dmx_runtime::LockSpaceClusterConfig;
///
/// let config = LockSpaceClusterConfig {
///     keys: 64,
///     workers: 4,
///     flush: FlushPolicy::Window(4),
///     ..LockSpaceClusterConfig::default()
/// };
/// assert_eq!(config.workers, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LockSpaceClusterConfig {
    /// Number of independent locks (the key space is `0..keys`).
    pub keys: u32,
    /// Initial token placement per key.
    pub placement: Placement,
    /// Shard threads per node — all of a node's threads; there is no
    /// other. Key `k` is served by shard `k % workers` on every node,
    /// which owns that slice of the node's lock table, pending set and
    /// transport and shares nothing with the node's other shards.
    pub workers: usize,
    /// How each shard's transport coalesces outgoing traffic. The
    /// threaded runtime has no ticks, so the policy maps to *bursts* —
    /// one per keyed input a shard handles: [`FlushPolicy::EveryTick`]
    /// flushes after every burst, [`FlushPolicy::Window`]`(k)` merges
    /// up to `k` bursts, and [`FlushPolicy::Adaptive`] flushes on its
    /// staged-per-destination target — and every policy flushes the
    /// moment the shard's inbox goes idle, so coalescing never stalls a
    /// waiting lock.
    pub flush: FlushPolicy,
}

impl Default for LockSpaceClusterConfig {
    fn default() -> Self {
        LockSpaceClusterConfig {
            keys: 1,
            placement: Placement::Modulo,
            workers: 1,
            flush: FlushPolicy::EveryTick,
        }
    }
}

/// Inputs a shard thread processes.
#[derive(Debug)]
enum Input {
    /// A local user's operation on a key this shard owns.
    Client(NodeInput),
    /// An envelope of keyed protocol messages from the same shard of a
    /// peer node.
    Net {
        /// Wire sender.
        from: NodeId,
        /// Payload: one or many keyed messages.
        envelope: Envelope,
    },
    /// Capture a consistent cut: reply with this shard's slice once its
    /// plane's Chandy–Lamport round completes (all peers' markers
    /// received).
    Snapshot {
        /// Where the shard's slice goes.
        reply: Sender<NodeCut>,
    },
    /// A Chandy–Lamport marker from peer `from`: the cut boundary on
    /// the `from → me` channel of this shard's plane.
    Marker {
        /// The peer whose cut point this marker carries.
        from: NodeId,
    },
}

/// One shard's in-progress Chandy–Lamport cut. The shard is a single
/// thread, so its cut point is atomic between two inputs: table, user
/// state and transport staging are captured (and the markers sent) in
/// one step, and from then on traffic from each peer is recorded as
/// that channel's in-flight state until its marker arrives.
struct CutState {
    /// Where the slice goes; `None` until the local snapshot request
    /// arrives (a peer's marker may trigger the cut first).
    reply: Option<Sender<NodeCut>>,
    /// Per-peer: marker received, channel recording closed (the shard's
    /// own slot starts closed — there is no such channel). The cut is
    /// complete when every slot is.
    marker_seen: Vec<bool>,
    /// The state captured at the cut point, plus the per-sender channel
    /// recordings filling in behind it.
    slice: NodeCut,
}

/// Counters one lock-space node accumulates over its lifetime (summed
/// over its shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockSpaceNodeStats {
    /// Keyed `REQUEST` messages sent by this node.
    pub requests_sent: u64,
    /// Keyed `PRIVILEGE` messages sent by this node.
    pub privileges_sent: u64,
    /// Envelopes transmitted by this node (post-coalescing inbox
    /// pushes; at most `requests_sent + privileges_sent`).
    pub envelopes_sent: u64,
    /// Critical-section entries performed by this node's local user.
    pub entries: u64,
    /// Acquisitions whose user gave up waiting: the privilege arrived
    /// (or was already held) with nobody waiting and was released
    /// immediately.
    pub abandoned: u64,
    /// Lock instances this node materialized (keys it saw traffic for).
    pub keys_materialized: usize,
}

impl LockSpaceNodeStats {
    /// Folds one shard's counters into its node's.
    fn absorb(&mut self, shard: LockSpaceNodeStats) {
        self.requests_sent += shard.requests_sent;
        self.privileges_sent += shard.privileges_sent;
        self.envelopes_sent += shard.envelopes_sent;
        self.entries += shard.entries;
        self.abandoned += shard.abandoned;
        self.keys_materialized += shard.keys_materialized;
    }
}

/// Whole-cluster counters returned by [`LockSpaceCluster::shutdown`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockSpaceStats {
    /// Per-node counters, indexed by node.
    pub per_node: Vec<LockSpaceNodeStats>,
    /// Total keyed protocol messages exchanged (pre-coalescing).
    pub messages_total: u64,
    /// Total envelopes transmitted (post-coalescing inbox pushes).
    pub envelopes_total: u64,
    /// Total critical-section entries, across all keys.
    pub entries: u64,
}

impl LockSpaceStats {
    fn from_nodes(per_node: Vec<LockSpaceNodeStats>) -> Self {
        let messages_total = per_node
            .iter()
            .map(|s| s.requests_sent + s.privileges_sent)
            .sum();
        let envelopes_total = per_node.iter().map(|s| s.envelopes_sent).sum();
        let entries = per_node.iter().map(|s| s.entries).sum();
        LockSpaceStats {
            per_node,
            messages_total,
            envelopes_total,
            entries,
        }
    }

    /// Counters for one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: NodeId) -> &LockSpaceNodeStats {
        &self.per_node[node.index()]
    }
}

/// A running multi-lock cluster: `workers` shard threads per tree node,
/// each hosting its shard's per-key DAG instances. Obtain per-node
/// [`LockClient`]s from [`LockSpaceCluster::start`] (or
/// [`start_with`](LockSpaceCluster::start_with) for shard/flush
/// control) and call [`shutdown`](LockSpaceCluster::shutdown) when
/// done.
#[derive(Debug)]
pub struct LockSpaceCluster {
    keys: u32,
    placement: Placement,
    /// Shard inboxes, `[node][shard]`.
    inboxes: Vec<Vec<Arc<Mailbox<Input>>>>,
    /// Shard threads, `[node][shard]`.
    joins: Vec<Vec<JoinHandle<LockSpaceNodeStats>>>,
}

impl LockSpaceCluster {
    /// Spawns one shard thread per node of `tree`, serving `keys` locks
    /// placed per `placement` (every-burst flushing), and returns the
    /// cluster plus one [`LockClient`] per node (index = node id).
    ///
    /// # Panics
    ///
    /// Panics if `keys == 0` or `placement` is invalid (see
    /// [`Placement::validate`]).
    pub fn start(
        tree: &Tree,
        keys: u32,
        placement: Placement,
    ) -> (LockSpaceCluster, Vec<LockClient>) {
        LockSpaceCluster::start_with(
            tree,
            LockSpaceClusterConfig {
                keys,
                placement,
                ..LockSpaceClusterConfig::default()
            },
        )
    }

    /// [`LockSpaceCluster::start`] with explicit shard parallelism and
    /// flush policy.
    ///
    /// # Panics
    ///
    /// Panics if `config.keys == 0`, `config.workers == 0`,
    /// `config.flush` is invalid (see [`FlushPolicy::validate`]), or
    /// `config.placement` is (see [`Placement::validate`]).
    pub fn start_with(
        tree: &Tree,
        config: LockSpaceClusterConfig,
    ) -> (LockSpaceCluster, Vec<LockClient>) {
        assert!(config.keys > 0, "lock space needs at least one key");
        assert!(config.workers > 0, "lock space needs at least one worker");
        config.flush.validate();
        let n = tree.len();
        config.placement.validate(n);
        // Each shard lazily caches the orientations of the hubs it
        // actually touches (computing one up front per node would cost
        // O(n²) before the first lock is served); only the tree itself
        // is shared.
        let tree = Arc::new(tree.clone());

        let inboxes: Vec<Vec<Arc<Mailbox<Input>>>> = (0..n)
            .map(|_| {
                (0..config.workers)
                    .map(|_| Arc::new(Mailbox::new()))
                    .collect()
            })
            .collect();
        let mut joins = Vec::with_capacity(n);
        for (i, node_inboxes) in inboxes.iter().enumerate() {
            let mut node_joins = Vec::with_capacity(config.workers);
            for (s, inbox) in node_inboxes.iter().enumerate() {
                let me = NodeId::from_index(i);
                let agent = KeyAgent::new(me, Arc::clone(&tree), config.placement.clone(), 16);
                let shard = Shard {
                    core: NodeCore::new(agent),
                    // The shard plane: shard s of every node.
                    peers: inboxes.iter().map(|node| Arc::clone(&node[s])).collect(),
                    transport: Transport::new(n, config.flush),
                    pool: BatchPool::new(),
                    bursts: 0,
                    cut: None,
                    envelopes_sent: 0,
                };
                let inbox = CloseOnExit(Arc::clone(inbox));
                node_joins.push(std::thread::spawn(move || shard.run(&inbox.0)));
            }
            joins.push(node_joins);
        }

        let clients = inboxes
            .iter()
            .enumerate()
            .map(|(i, shards)| {
                // Each operation goes straight to the shard owning its key.
                let shards = shards.clone();
                LockClient::new(NodeId::from_index(i), config.keys, move |input| {
                    shards[input.key().index() % shards.len()].push(Input::Client(input))
                })
            })
            .collect();
        (
            LockSpaceCluster {
                keys: config.keys,
                placement: config.placement,
                inboxes,
                joins,
            },
            clients,
        )
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.inboxes.len()
    }

    /// `true` for a cluster with no nodes — consistent with
    /// [`LockSpaceCluster::len`].
    pub fn is_empty(&self) -> bool {
        self.inboxes.is_empty()
    }

    /// Number of keys served.
    pub fn keys(&self) -> u32 {
        self.keys
    }

    /// Captures a consistent cut of the running space without pausing
    /// it: the Chandy–Lamport marker algorithm over the cluster's FIFO
    /// channels (see [`crate::snapshot`] for the protocol and
    /// [`LockSpaceSnapshot::verify`] for the oracle it must pass).
    ///
    /// Every shard is asked at once, so whichever reaches a shard first
    /// — this request or a peer's marker — triggers its cut. Shard
    /// planes share no channel, so the result is **one consistent cut
    /// per shard plane**, merged into one [`NodeCut`] per node; every
    /// invariant `verify` checks is per key and a key lives in one
    /// plane, so the oracle keeps its full strength (the module docs
    /// say what is no longer one instant). Lock traffic keeps flowing
    /// the whole time.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is shut down while the cut is in
    /// progress (take snapshots before [`shutdown`], not concurrently
    /// with it).
    ///
    /// [`shutdown`]: LockSpaceCluster::shutdown
    pub fn snapshot(&self) -> LockSpaceSnapshot {
        // A cold path with many senders: std's channel suits it.
        let (reply, slices) = mpsc::channel();
        for inbox in self.inboxes.iter().flatten() {
            let sent = inbox.push(Input::Snapshot {
                reply: reply.clone(),
            });
            assert!(sent.is_ok(), "snapshot of a stopped cluster");
        }
        drop(reply);
        let mut slices: Vec<NodeCut> = (self.inboxes.iter().flatten())
            .map(|_| slices.recv().expect("cut interrupted by shutdown"))
            .collect();
        slices.sort_by_key(|slice| slice.node.index());
        // Fold each node's run of shard slices into its first one.
        let mut cuts: Vec<NodeCut> = Vec::with_capacity(self.inboxes.len());
        for mut slice in slices {
            match cuts.last_mut().filter(|cut| cut.node == slice.node) {
                None => cuts.push(slice),
                Some(cut) => {
                    cut.keys.append(&mut slice.keys);
                    cut.held.append(&mut slice.held);
                    cut.pending.append(&mut slice.pending);
                    cut.staged.append(&mut slice.staged);
                    for (channel, more) in cut.in_flight.iter_mut().zip(&mut slice.in_flight) {
                        channel.append(more);
                    }
                }
            }
        }
        for cut in &mut cuts {
            cut.keys.sort_by_key(|k| k.key);
        }
        LockSpaceSnapshot::new(self.keys, self.placement.clone(), cuts)
    }

    /// Stops every node and returns the aggregated counters.
    ///
    /// Closes every shard's inbox, so queued inputs drop and waiting
    /// acquisitions fail with [`ClusterDown`](crate::LockError::ClusterDown),
    /// then joins the shard threads. A shard whose thread died (a step
    /// panicked) took its counters with it: it contributes zero.
    pub fn shutdown(self) -> LockSpaceStats {
        for inbox in self.inboxes.iter().flatten() {
            inbox.close();
        }
        let per_node = self
            .joins
            .into_iter()
            .map(|shards| {
                let mut node = LockSpaceNodeStats::default();
                for shard in shards {
                    node.absorb(shard.join().unwrap_or_default());
                }
                node
            })
            .collect();
        LockSpaceStats::from_nodes(per_node)
    }
}

impl LockService for LockSpaceCluster {
    type Stats = LockSpaceStats;

    fn len(&self) -> usize {
        LockSpaceCluster::len(self)
    }

    fn keys(&self) -> u32 {
        LockSpaceCluster::keys(self)
    }

    fn snapshot(&self) -> Option<LockSpaceSnapshot> {
        Some(LockSpaceCluster::snapshot(self))
    }

    fn shutdown(self) -> LockSpaceStats {
        LockSpaceCluster::shutdown(self)
    }
}

/// Closes a shard's inbox when its thread ends, by panic too.
struct CloseOnExit(Arc<Mailbox<Input>>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One shard thread's whole state: everything its node keeps for the
/// keys hashed to this shard. Nothing here is shared with the node's
/// other shards.
struct Shard {
    /// The node every threaded backend steps, over this shard's slice
    /// of the key space: lock table, claims, held keys, counters.
    core: NodeCore,
    /// This shard's plane: the same shard's inbox on every node.
    peers: Vec<Arc<Mailbox<Input>>>,
    transport: Transport,
    pool: BatchPool,
    /// Keyed inputs handled since the last flush (the tickless analogue
    /// of the simulator's coalescing window).
    bursts: u64,
    /// The in-progress Chandy–Lamport cut, if any.
    cut: Option<CutState>,
    envelopes_sent: u64,
}

impl Shard {
    /// The shard loop: handle one input at a time, flushing the
    /// transport the moment the inbox goes idle, until the inbox is
    /// closed.
    fn run(mut self, inbox: &Mailbox<Input>) -> LockSpaceNodeStats {
        loop {
            let input = if self.transport.staged() > 0 {
                match inbox.try_pop() {
                    Some(input) => input,
                    None => {
                        self.flush();
                        continue;
                    }
                }
            } else {
                match inbox.pop(None) {
                    Ok(input) => input,
                    Err(_) => break,
                }
            };
            match input {
                Input::Client(input) => self.step(input),
                Input::Net { from, envelope } => {
                    // Post-cut, pre-marker traffic on this channel is
                    // exactly the in-flight state the cut must record.
                    let cut = self.cut.as_mut();
                    if let Some(cut) = cut.filter(|cut| !cut.marker_seen[from.index()]) {
                        let channel = &mut cut.slice.in_flight[from.index()];
                        match &envelope {
                            Envelope::One(msg) => channel.push(*msg),
                            Envelope::Batch(batch) => channel.extend_from_slice(batch),
                        }
                    }
                    match envelope {
                        Envelope::One(msg) => self.step(NodeInput::Net { from, msg }),
                        Envelope::Batch(mut batch) => {
                            for msg in batch.drain(..) {
                                self.step(NodeInput::Net { from, msg });
                            }
                            // The drained payload joins this shard's own
                            // pool: cross-node buffer recycling.
                            self.pool.put(batch);
                        }
                    }
                }
                Input::Snapshot { reply } => {
                    self.cut_mut().reply = Some(reply);
                    self.finish_cut();
                }
                Input::Marker { from } => {
                    // If this marker beat the local snapshot request,
                    // its arrival is the cut point and its channel
                    // records nothing.
                    self.cut_mut().marker_seen[from.index()] = true;
                    self.finish_cut();
                }
            }
        }
        let keys_materialized = self.core.agent().table().len();
        let node = self.core.into_stats();
        LockSpaceNodeStats {
            requests_sent: node.requests_sent,
            privileges_sent: node.privileges_sent,
            envelopes_sent: self.envelopes_sent,
            entries: node.entries,
            abandoned: node.abandoned,
            keys_materialized,
        }
    }

    /// Runs one keyed input through the node, staging what it sends,
    /// and counts it toward the flush policy's cap. Every input counts
    /// — including send-less ones — so a busy stretch of absorbing
    /// handlers cannot freeze the counter and hold an already-staged
    /// envelope past the policy's bound.
    fn step(&mut self, input: NodeInput) {
        let transport = &mut self.transport;
        self.core.step(input, |to, msg| transport.stage(to, msg));
        self.bursts += 1;
        if self.transport.staged() > 0 && self.transport.burst_cap_reached(self.bursts) {
            self.flush();
        }
    }

    /// Transmits everything staged, one envelope per destination.
    fn flush(&mut self) {
        let from = self.core.agent().id();
        self.transport.flush(&mut self.pool, |to, envelope| {
            self.envelopes_sent += 1;
            // A push can only fail during shutdown, when the counters
            // no longer matter, or when the peer shard is dead.
            let _ = self.peers[to.index()].push(Input::Net { from, envelope });
        });
        self.bursts = 0;
    }

    /// The in-progress cut, opened here and now if there is none: the
    /// table slice, user state and transport staging are captured
    /// between two inputs, so they describe one frontier, and the
    /// markers leave before anything staged does.
    fn cut_mut(&mut self) -> &mut CutState {
        self.cut.get_or_insert_with(|| {
            let agent = self.core.agent();
            let (me, n) = (agent.id(), self.peers.len());
            let key_cut = |(key, instance): (LockId, &DagNode)| KeyCut {
                key,
                has_token: instance.has_token(),
                executing: instance.is_executing(),
                requesting: instance.is_requesting(),
            };
            let mut slice = NodeCut {
                node: me,
                keys: agent.table().iter().map(key_cut).collect(),
                held: agent.held().to_vec(),
                pending: agent.claims().to_vec(),
                staged: Vec::new(),
                in_flight: vec![Vec::new(); n],
            };
            self.transport
                .for_each_staged(|to, msg| slice.staged.push((to, *msg)));
            for (p, peer) in self.peers.iter().enumerate() {
                if p != me.index() {
                    let _ = peer.push(Input::Marker { from: me });
                }
            }
            CutState {
                reply: None,
                marker_seen: (0..n).map(|p| p == me.index()).collect(),
                slice,
            }
        })
    }

    /// Ships the shard's slice once the cut is complete: every peer's
    /// marker in, and the local reply channel attached.
    fn finish_cut(&mut self) {
        match self.cut.take() {
            Some(CutState {
                reply: Some(reply),
                marker_seen,
                slice,
            }) if marker_seen.iter().all(|&seen| seen) => {
                let _ = reply.send(slice);
            }
            open => self.cut = open,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::LockError;
    use dmx_core::{DagMessage, KeyedDagMessage};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn distinct_keys_are_held_concurrently_across_nodes() {
        let (cluster, clients) =
            LockSpaceCluster::start(&Tree::star(3), 8, Placement::Hub(NodeId(0)));
        let barrier = Arc::new(Barrier::new(2));
        let mut workers = Vec::new();
        for (i, mut client) in clients.into_iter().enumerate().skip(1) {
            let barrier = Arc::clone(&barrier);
            workers.push(std::thread::spawn(move || {
                let guard = client.lock(LockId(i as u32)).wait().unwrap();
                assert_eq!(guard.key(), LockId(i as u32));
                // Both nodes are inside *different* keys' critical
                // sections right now — rendezvous proves the overlap.
                barrier.wait();
                drop(guard);
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn same_key_is_mutually_exclusive_under_contention() {
        let n = 4;
        let (cluster, clients) = LockSpaceCluster::start(&Tree::star(n), 4, Placement::Modulo);
        let in_cs = Arc::new(AtomicBool::new(false));
        let counter = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::new();
        for mut client in clients {
            let in_cs = Arc::clone(&in_cs);
            let counter = Arc::clone(&counter);
            workers.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    let guard = client.lock(LockId(2)).wait().unwrap();
                    assert!(
                        !in_cs.swap(true, Ordering::SeqCst),
                        "two nodes inside key 2's critical section"
                    );
                    counter.fetch_add(1, Ordering::Relaxed);
                    in_cs.store(false, Ordering::SeqCst);
                    drop(guard);
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 25 * n as u64);
        assert_eq!(stats.entries, 25 * n as u64);
    }

    #[test]
    fn sharded_workers_preserve_mutual_exclusion_under_contention() {
        // The same contention battery, but with real per-shard worker
        // parallelism and a coalescing window on every node.
        let n = 4;
        let config = LockSpaceClusterConfig {
            keys: 8,
            placement: Placement::Modulo,
            workers: 4,
            flush: FlushPolicy::Window(4),
        };
        let (cluster, clients) = LockSpaceCluster::start_with(&Tree::star(n), config);
        let in_cs = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for mut client in clients {
            let in_cs = Arc::clone(&in_cs);
            workers.push(std::thread::spawn(move || {
                for round in 0..25u32 {
                    // Same hot key for everyone, plus a private key to
                    // keep the shards busy across workers.
                    let guard = client.lock(LockId(5)).wait().unwrap();
                    assert!(
                        !in_cs.swap(true, Ordering::SeqCst),
                        "two nodes inside key 5's critical section"
                    );
                    in_cs.store(false, Ordering::SeqCst);
                    drop(guard);
                    let private = LockId(round % 8);
                    drop(client.lock(private).wait().unwrap());
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 2 * 25 * n as u64);
        // The transport really coalesced: never more envelopes than
        // keyed messages, and the counters are self-consistent.
        assert!(stats.envelopes_total <= stats.messages_total);
        assert!(stats.envelopes_total > 0);
    }

    #[test]
    fn token_parks_per_key_making_reentry_free() {
        let (cluster, mut clients) =
            LockSpaceCluster::start(&Tree::line(3), 16, Placement::Hub(NodeId(0)));
        for _ in 0..10 {
            drop(clients[2].lock(LockId(7)).wait().unwrap());
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 10);
        // First acquisition walks the line (2 REQUESTs + 1 PRIVILEGE);
        // the other nine are free — key 7's token parked at node 2.
        assert_eq!(stats.messages_total, 3);
        // Lone messages ride One envelopes: 3 envelopes too.
        assert_eq!(stats.envelopes_total, 3);
        // Only key 7 ever materialized anywhere.
        assert!(stats.per_node.iter().all(|s| s.keys_materialized <= 1));
    }

    #[test]
    fn one_node_serves_many_keys_sequentially() {
        let (cluster, mut clients) = LockSpaceCluster::start(&Tree::star(4), 32, Placement::Modulo);
        for k in 0..32u32 {
            let guard = clients[1].lock(LockId(k)).wait().unwrap();
            assert_eq!(guard.node(), NodeId(1));
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 32);
        assert_eq!(stats.node(NodeId(1)).entries, 32);
        // Node 1 materialized every key it touched.
        assert_eq!(stats.node(NodeId(1)).keys_materialized, 32);
    }

    #[test]
    fn lock_after_shutdown_errors() {
        let (cluster, mut clients) = LockSpaceCluster::start(&Tree::line(2), 2, Placement::Modulo);
        cluster.shutdown();
        assert_eq!(
            clients[1].lock(LockId(0)).wait().unwrap_err(),
            LockError::ClusterDown
        );
    }

    #[test]
    fn waiter_blocked_across_shutdown_gets_cluster_down() {
        let (cluster, clients) =
            LockSpaceCluster::start(&Tree::star(3), 1, Placement::Hub(NodeId(1)));
        let stats = crate::cluster::tests::assert_shutdown_fails_a_blocked_waiter(cluster, clients);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn a_dead_shard_fails_its_waiters_and_shutdown_still_returns() {
        let config = LockSpaceClusterConfig {
            keys: 4,
            placement: Placement::Hub(NodeId(1)),
            workers: 2,
            ..LockSpaceClusterConfig::default()
        };
        let (cluster, clients) = LockSpaceCluster::start_with(&Tree::star(3), config);
        let mut clients = clients.into_iter().skip(1);
        let (mut c1, mut c2) = (clients.next().unwrap(), clients.next().unwrap());
        // Node 1 holds key 2, so node 2's acquisition of it waits on
        // node 2's shard 0: the shard about to die.
        let guard = c1.lock(LockId(2)).wait().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            tx.send(c2.lock(LockId(2)).wait().map(drop)).unwrap();
            c2
        });
        std::thread::sleep(Duration::from_millis(50));
        // Node 2 is not requesting key 0: a PRIVILEGE there is a protocol
        // bug, and the shard thread that steps it panics.
        let stray = KeyedDagMessage {
            lock: LockId(0),
            msg: DagMessage::Privilege,
        };
        let envelope = Envelope::One(stray);
        let stray = Input::Net {
            from: NodeId(1),
            envelope,
        };
        cluster.inboxes[2][0].push(stray).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(Err(LockError::ClusterDown)),
            "a dead shard must fail its blocked waiter"
        );
        let mut c2 = waiter.join().unwrap();
        // The dead shard's keys are down; the other shard still serves.
        for key in [0, 2] {
            assert_eq!(
                c2.lock(LockId(key))
                    .timeout(Duration::from_secs(5))
                    .unwrap_err(),
                LockError::ClusterDown
            );
        }
        drop(c2.lock(LockId(1)).wait().unwrap());
        drop(guard);
        let stats = cluster.shutdown();
        // The dead shard's counters died with it: node 2 reports only
        // shard 1's entry.
        assert_eq!(stats.node(NodeId(2)).entries, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn explicit_unlock_equals_drop() {
        let (cluster, mut clients) =
            LockSpaceCluster::start(&Tree::line(2), 4, Placement::Hub(NodeId(1)));
        let guard = clients[0].lock(LockId(3)).wait().unwrap();
        guard.unlock();
        let again = clients[0].lock(LockId(3)).wait().unwrap();
        drop(again);
        drop(clients);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn keyed_timeout_times_out_while_contended_then_autoreleases() {
        // The API-gap fix the redesign started from: lock-space clients
        // now have the same timeout/abandon machinery the single-lock
        // cluster always had.
        let (cluster, clients) =
            LockSpaceCluster::start(&Tree::star(3), 4, Placement::Hub(NodeId(1)));
        let mut it = clients.into_iter();
        let _c0 = it.next().unwrap();
        let mut c1 = it.next().unwrap();
        let mut c2 = it.next().unwrap();

        let guard = c1.lock(LockId(2)).wait().unwrap();
        assert_eq!(
            c2.lock(LockId(2))
                .timeout(Duration::from_millis(30))
                .unwrap_err(),
            LockError::Timeout,
            "must time out while key 2 is held"
        );
        // A *different* key is still instantly available to the same
        // client — the abandoned request only poisons its own key.
        drop(c2.lock(LockId(3)).timeout(Duration::from_secs(5)).unwrap());
        drop(guard); // key 2's token travels to node 2, which auto-releases

        // Node 1 can reacquire key 2: the abandoned grant did not wedge
        // its token.
        let again = c1.lock(LockId(2)).timeout(Duration::from_secs(5));
        assert!(again.is_ok());
        drop(again);
        drop(c1);
        drop(c2);
        let stats = cluster.shutdown();
        assert_eq!(stats.node(NodeId(2)).abandoned, 1);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn keyed_acquire_adopts_abandoned_request() {
        let (cluster, clients) =
            LockSpaceCluster::start(&Tree::line(2), 8, Placement::Hub(NodeId(0)));
        let mut it = clients.into_iter();
        let mut c0 = it.next().unwrap();
        let mut c1 = it.next().unwrap();

        let guard = c0.lock(LockId(5)).wait().unwrap();
        assert_eq!(
            c1.lock(LockId(5))
                .timeout(Duration::from_millis(20))
                .unwrap_err(),
            LockError::Timeout
        );

        let waiter = std::thread::spawn(move || {
            let g = c1.lock(LockId(5)).wait().unwrap();
            drop(g);
            c1
        });
        std::thread::sleep(Duration::from_millis(60));
        drop(guard);
        let c1 = waiter.join().unwrap();

        drop(c0);
        drop(c1);
        let stats = cluster.shutdown();
        // One keyed REQUEST covered both acquisition attempts.
        assert_eq!(stats.node(NodeId(1)).requests_sent, 1);
        assert_eq!(stats.node(NodeId(1)).abandoned, 0);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn try_now_is_free_and_key_local() {
        let (cluster, mut clients) =
            LockSpaceCluster::start(&Tree::line(3), 8, Placement::Hub(NodeId(2)));
        // All hubs at node 2: node 0's try fails without any traffic.
        assert_eq!(
            clients[0].lock(LockId(1)).try_now().unwrap_err(),
            LockError::WouldBlock
        );
        {
            let guard = clients[2].lock(LockId(1)).try_now().unwrap();
            assert_eq!(guard.key(), LockId(1));
        }
        drop(clients);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.messages_total, 0, "try never sends messages");
    }

    #[test]
    fn lock_many_acquires_in_sorted_order_and_releases_all() {
        let (cluster, mut clients) = LockSpaceCluster::start(&Tree::star(4), 16, Placement::Modulo);
        {
            let guard = clients[1]
                .lock_many(&[LockId(9), LockId(2), LockId(9), LockId(4)])
                .wait()
                .unwrap();
            assert_eq!(guard.keys(), &[LockId(2), LockId(4), LockId(9)]);
        }
        // Everything released: each key is instantly reacquirable.
        for k in [2u32, 4, 9] {
            drop(
                clients[1]
                    .lock(LockId(k))
                    .timeout(Duration::from_secs(5))
                    .unwrap(),
            );
        }
        drop(clients);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 6);
    }

    #[test]
    fn lock_many_timeout_rolls_back_already_acquired_keys() {
        let (cluster, clients) =
            LockSpaceCluster::start(&Tree::star(3), 8, Placement::Hub(NodeId(1)));
        let mut it = clients.into_iter();
        let mut c0 = it.next().unwrap();
        let mut c1 = it.next().unwrap();
        let mut c2 = it.next().unwrap();

        // Node 1 holds key 6; node 2's multi-acquisition of {3, 6} gets
        // key 3, stalls on key 6, times out, and must give key 3 back.
        let guard = c1.lock(LockId(6)).wait().unwrap();
        assert_eq!(
            c2.lock_many(&[LockId(3), LockId(6)])
                .timeout(Duration::from_millis(40))
                .unwrap_err(),
            LockError::Timeout
        );
        // Key 3 is free again: node 0 can take it immediately.
        drop(
            c0.lock_many(&[LockId(3)])
                .timeout(Duration::from_secs(5))
                .unwrap(),
        );
        drop(guard);
        // Reacquiring key 6 from node 1 serializes behind node 2's
        // auto-release bounce: by the time this grant arrives, the
        // abandoned privilege has demonstrably come and gone.
        drop(c1.lock(LockId(6)).timeout(Duration::from_secs(5)).unwrap());
        drop(c0);
        drop(c1);
        drop(c2);
        let stats = cluster.shutdown();
        // Key 6's abandoned privilege eventually reached node 2 and
        // bounced (abandoned), leaving the space clean.
        let abandoned: u64 = stats.per_node.iter().map(|s| s.abandoned).sum();
        assert_eq!(abandoned, 1);
    }

    #[test]
    fn lock_many_try_now_rolls_back_on_first_remote_key() {
        let (cluster, mut clients) = LockSpaceCluster::start(&Tree::line(2), 8, Placement::Modulo);
        // Keys 0, 2, 4 are hubbed at node 0; key 1 at node 1. A try for
        // {0, 1, 2} takes 0, refuses at 1, and must give 0 back.
        assert_eq!(
            clients[0]
                .lock_many(&[LockId(0), LockId(1), LockId(2)])
                .try_now()
                .unwrap_err(),
            LockError::WouldBlock
        );
        // Key 0 was rolled back: node 1 can lock it (proves no orphan).
        drop(
            clients[1]
                .lock(LockId(0))
                .timeout(Duration::from_secs(5))
                .unwrap(),
        );
        drop(clients);
        cluster.shutdown();
    }

    #[test]
    fn snapshot_of_quiescent_space_passes_the_oracle() {
        let (cluster, mut clients) =
            LockSpaceCluster::start(&Tree::line(3), 16, Placement::Hub(NodeId(0)));
        // Pull key 7's token to node 2, then hold key 3 there while the
        // cut is taken.
        drop(clients[2].lock(LockId(7)).wait().unwrap());
        let guard = clients[2].lock(LockId(3)).wait().unwrap();

        let snapshot = cluster.snapshot();
        let summary = snapshot.verify().expect("quiescent cut is consistent");
        assert_eq!(snapshot.nodes(), 3);
        assert_eq!(snapshot.keys(), 16);
        // Nothing is moving: no staged or recorded traffic anywhere.
        assert_eq!(snapshot.in_flight_messages(), 0);
        assert_eq!(summary.executing, 1);
        // Keys 7 and 3 materialized away from their hub; 14 never left.
        assert_eq!(summary.implicit_tokens, 14);
        let node2 = &snapshot.cuts()[2];
        assert_eq!(node2.held, vec![LockId(3)]);
        assert!(node2
            .keys
            .iter()
            .any(|kc| kc.key == LockId(7) && kc.has_token && !kc.executing));

        drop(guard);
        drop(clients);
        cluster.shutdown();
    }

    #[test]
    fn snapshot_mid_storm_is_consistent_without_pausing_traffic() {
        let n = 4;
        let config = LockSpaceClusterConfig {
            keys: 8,
            placement: Placement::Modulo,
            workers: 2,
            flush: FlushPolicy::Window(4),
        };
        let (cluster, clients) = LockSpaceCluster::start_with(&Tree::star(n), config);
        let mut workers = Vec::new();
        for (i, mut client) in clients.into_iter().enumerate() {
            workers.push(std::thread::spawn(move || {
                for round in 0..200u32 {
                    let key = LockId((round.wrapping_mul(7).wrapping_add(i as u32)) % 8);
                    drop(client.lock(key).wait().unwrap());
                }
            }));
        }
        // Cuts race the storm: every one must still be consistent, and
        // the storm keeps running through every capture.
        for _ in 0..10 {
            let snapshot = cluster.snapshot();
            let summary = snapshot.verify().expect("mid-storm cut is consistent");
            assert_eq!(
                summary.tokens_in_tables + summary.implicit_tokens + summary.privileges_in_flight,
                8,
                "exactly one privilege per key"
            );
        }
        for w in workers {
            w.join().unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 200 * n as u64);
    }

    #[test]
    fn snapshot_merges_every_shard_plane_into_one_cut_per_node() {
        let config = LockSpaceClusterConfig {
            keys: 9,
            placement: Placement::Hub(NodeId(0)),
            workers: 3,
            ..LockSpaceClusterConfig::default()
        };
        let (cluster, mut clients) = LockSpaceCluster::start_with(&Tree::line(2), config);
        // Keys 3, 5, 7 live on shards 0, 2, 1: node 1 holds one key on
        // each of its three threads while the cut is taken.
        let guard = clients[1]
            .lock_many(&[LockId(7), LockId(3), LockId(5)])
            .wait()
            .unwrap();

        let snapshot = cluster.snapshot();
        let summary = snapshot.verify().expect("merged cut is consistent");
        assert_eq!(snapshot.nodes(), 2);
        assert_eq!(summary.executing, 3);
        assert_eq!(summary.tokens_in_tables, 3);
        assert_eq!(summary.implicit_tokens, 6);
        let node1 = &snapshot.cuts()[1];
        let mut held = node1.held.clone();
        held.sort_unstable();
        assert_eq!(held, [LockId(3), LockId(5), LockId(7)]);
        // The three slices' instances merge into one key-sorted list.
        let keys: Vec<LockId> = node1.keys.iter().map(|kc| kc.key).collect();
        assert_eq!(keys, [LockId(3), LockId(5), LockId(7)]);
        assert!(node1.keys.iter().all(|kc| kc.has_token && kc.executing));
        assert_eq!(node1.in_flight.len(), 2);

        drop(guard);
        drop(clients);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.node(NodeId(1)).keys_materialized, 3);
    }

    #[test]
    fn parked_reentry_keeps_release_then_acquire_order_on_one_shard() {
        let config = LockSpaceClusterConfig {
            keys: 4,
            workers: 2,
            ..LockSpaceClusterConfig::default()
        };
        let (cluster, mut clients) = LockSpaceCluster::start_with(&Tree::star(3), config);
        // Key 1 is homed at node 1: every acquire finds the token
        // parked, provided each release reaches the shard before the
        // acquire that follows it (same inbox, so FIFO).
        for _ in 0..1_000 {
            drop(clients[1].lock(LockId(1)).wait().unwrap());
        }
        drop(clients);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 1_000);
        assert_eq!(stats.messages_total, 0);
    }

    #[test]
    fn try_on_a_key_with_an_abandoned_request_in_flight_is_refused() {
        let (cluster, clients) =
            LockSpaceCluster::start(&Tree::line(2), 4, Placement::Hub(NodeId(0)));
        let mut it = clients.into_iter();
        let mut c0 = it.next().unwrap();
        let mut c1 = it.next().unwrap();

        let guard = c0.lock(LockId(2)).wait().unwrap();
        assert_eq!(
            c1.lock(LockId(2))
                .timeout(Duration::from_millis(20))
                .unwrap_err(),
            LockError::Timeout
        );
        // Node 1's REQUEST is still out there: a try must bounce, and
        // must not disturb the abandoned slot.
        assert_eq!(
            c1.lock(LockId(2)).try_now().unwrap_err(),
            LockError::WouldBlock
        );
        drop(guard);
        // Serializes behind node 1's auto-release bounce.
        drop(c0.lock(LockId(2)).timeout(Duration::from_secs(5)).unwrap());
        drop(c0);
        drop(c1);
        let stats = cluster.shutdown();
        assert_eq!(stats.node(NodeId(1)).requests_sent, 1);
        assert_eq!(stats.node(NodeId(1)).abandoned, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn single_lock_backends_have_no_online_snapshot() {
        let (cluster, _clients) = crate::Cluster::start(&Tree::line(2), NodeId(0));
        assert!(LockService::snapshot(&cluster).is_none());
        cluster.shutdown();
    }

    #[test]
    #[should_panic(expected = "Window needs >= 1 tick")]
    fn zero_tick_window_is_rejected_at_cluster_start() {
        let config = LockSpaceClusterConfig {
            keys: 4,
            flush: FlushPolicy::Window(0),
            ..LockSpaceClusterConfig::default()
        };
        let _ = LockSpaceCluster::start_with(&Tree::line(2), config);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected_at_cluster_start() {
        let config = LockSpaceClusterConfig {
            keys: 4,
            workers: 0,
            ..LockSpaceClusterConfig::default()
        };
        let _ = LockSpaceCluster::start_with(&Tree::line(2), config);
    }

    #[test]
    #[should_panic(expected = "profile hub n9 out of range for 3 nodes")]
    fn out_of_range_profile_hub_is_rejected_at_cluster_start() {
        let profile = Placement::Profile(Arc::new(vec![NodeId(9)]));
        let _ = LockSpaceCluster::start(&Tree::star(3), 4, profile);
    }

    #[test]
    #[should_panic(expected = "at least one hub")]
    fn empty_profile_is_rejected_at_cluster_start() {
        let config = LockSpaceClusterConfig {
            keys: 4,
            placement: Placement::Profile(Arc::new(Vec::new())),
            ..LockSpaceClusterConfig::default()
        };
        let _ = LockSpaceCluster::start_with(&Tree::star(3), config);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn zero_keys_is_rejected_at_cluster_start() {
        let config = LockSpaceClusterConfig {
            keys: 0,
            ..LockSpaceClusterConfig::default()
        };
        let _ = LockSpaceCluster::start_with(&Tree::line(2), config);
    }
}
