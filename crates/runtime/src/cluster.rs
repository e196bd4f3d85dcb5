//! The in-process single-lock backend, [`Cluster`], and the node every
//! threaded backend steps, `NodeCore`.
//!
//! # Threading
//!
//! A `Cluster` has no threads of its own. A node is a mutex around its
//! `NodeCore` plus a FIFO inbox, and a protocol send is a push onto the
//! peer's inbox. The thread that queues an input drains the node:
//! `Mesh::deliver` pushes the input, then steps that node on the calling
//! thread until its inbox is empty, and after it every node those steps
//! sent to. A [`LockClient`] operation is one such delivery, so a
//! hand-off runs on the releasing thread all the way to the grant it
//! sends the next waiter — a protocol hop is a queue push, not a
//! wake-up.
//!
//! * *Per-link FIFO*: a send is queued while the sender's core lock is
//!   held, so `a`'s sends reach `b`'s inbox in the order `a` made them,
//!   and `b` steps its inbox in queue order.
//! * *Nothing is stranded*: a drain takes the core with `try_lock` and
//!   skips the node when another thread holds it. That holder re-checks
//!   the inbox after it unlocks, so an input queued meanwhile is stepped
//!   by the holder, or by whoever takes the core next.
//! * *No deadlock*: a thread holds at most one core lock, and a drain
//!   takes it only via `try_lock` (shutdown's blocking `lock` holds
//!   nothing else). An inbox or ack lock is taken last: closing an inbox
//!   closes only the acks it held.
//! * *Bounded drain*: a drain steps what is queued and never waits — the
//!   messages in flight (one `REQUEST` per requesting node and one
//!   `PRIVILEGE`) plus the inputs that arrive during it.
//! * *Down*: [`Cluster::shutdown`] takes each core under its lock and
//!   closes its inbox. A core whose mutex is poisoned (a step panicked,
//!   leaving it half-stepped) has its inbox closed the same way by the
//!   next drain that finds it. A closed inbox refuses inputs with
//!   [`LockError::ClusterDown`], and the acks it held drop, so their
//!   waiters see the same error.

use std::cell::Cell;
use std::sync::{Arc, Mutex, PoisonError, TryLockError};

use dmx_core::{DagMessage, KeyedDagMessage, LockId};
use dmx_lockspace::{Abandon, AgentEvent, KeyAgent, Placement};
use dmx_topology::{NodeId, Tree};

use crate::client::LockClient;
use crate::mailbox::{Ack, Mailbox};
use crate::service::{LockError, LockService, Reply};
use crate::stats::{ClusterStats, NodeStats};

/// Inputs one node's [`NodeCore::step`] processes.
#[derive(Debug)]
pub(crate) enum Input {
    /// Local user wants `key`'s critical section; reply on the ack
    /// when the privilege is local.
    Acquire(LockId, Ack),
    /// Local user wants `key` only if its token is here right now;
    /// reply [`Reply::Granted`] or [`Reply::Unavailable`] without ever
    /// sending a protocol message.
    TryAcquire(LockId, Ack),
    /// Local user left `key`'s critical section.
    Release(LockId),
    /// The user gave up waiting on `key` (a
    /// [`crate::LockRequest::timeout`]). The in-flight REQUEST cannot
    /// be recalled (the paper has no cancel message), so the node
    /// releases the privilege the moment it arrives — unless a new
    /// acquisition adopts the request first.
    Abandon(LockId),
    /// A keyed protocol message from a peer.
    Net {
        /// Wire sender.
        from: NodeId,
        /// Payload.
        msg: KeyedDagMessage,
    },
}

impl Input {
    /// The key this input is about.
    pub(crate) fn key(&self) -> LockId {
        match *self {
            Input::Acquire(key, _)
            | Input::TryAcquire(key, _)
            | Input::Release(key)
            | Input::Abandon(key) => key,
            Input::Net { msg, .. } => msg.lock,
        }
    }
}

/// One node of any threaded backend, sans IO: the [`KeyAgent`] (per-key
/// [`DagNode`](dmx_core::DagNode)s and the local user's claims), the
/// reply handle of the one claim that can be waiting, and the counters.
/// Whoever holds an [`Input`] runs [`NodeCore::step`] — the thread that
/// queued it here (see the module docs), the reader and caller threads
/// in [`crate::tcp`], the shard thread in [`crate::LockSpaceCluster`].
#[derive(Debug)]
pub(crate) struct NodeCore {
    agent: KeyAgent,
    /// Where the live claim's grant goes. (Left stale by an abandon;
    /// the next acquire replaces it before anything can be granted.)
    waiter: Option<Ack>,
    /// Reused across steps, like the agent's own action buffer, so
    /// steady-state message handling allocates nothing.
    events: Vec<AgentEvent>,
    stats: NodeStats,
}

impl NodeCore {
    pub(crate) fn new(agent: KeyAgent) -> Self {
        NodeCore {
            agent,
            waiter: None,
            events: Vec::new(),
            stats: NodeStats::default(),
        }
    }

    /// The protocol state, for consistent cuts and shutdown counters.
    pub(crate) fn agent(&self) -> &KeyAgent {
        &self.agent
    }

    /// Ends the node: its counters remain, its waiter is dropped (a
    /// blocked acquisition sees [`LockError::ClusterDown`]).
    pub(crate) fn into_stats(self) -> NodeStats {
        self.stats
    }

    /// Drives the agent with one input, handing every send to
    /// `transmit(to, message)` (peer inboxes here, sockets in
    /// [`crate::tcp`], the coalescing transport in the lock space) and
    /// every grant to the waiting user.
    pub(crate) fn step(&mut self, input: Input, mut transmit: impl FnMut(NodeId, KeyedDagMessage)) {
        match input {
            Input::Acquire(key, ack) => {
                // Adopting the still-in-flight request of a timed-out
                // acquisition produces no event: only the waiter changes.
                self.agent.acquire(key, &mut self.events);
                self.waiter = Some(ack);
            }
            Input::TryAcquire(key, ack) => {
                let reply = if self.agent.try_acquire(key) {
                    self.stats.entries += 1;
                    Reply::Granted
                } else {
                    Reply::Unavailable
                };
                ack.send(reply);
            }
            Input::Release(key) => self.agent.release(key, &mut self.events),
            // Still waiting (the grant will bounce on arrival) or already
            // resolved: nothing to count. Race: the grant was delivered
            // but the user timed out anyway — count the entry nobody
            // used as abandoned instead.
            Input::Abandon(key) => {
                if self.agent.abandon(key, &mut self.events) == Abandon::Released {
                    self.stats.entries -= 1;
                    self.stats.abandoned += 1;
                }
            }
            Input::Net { from, msg } => self.agent.deliver(from, msg, &mut self.events),
        }
        for event in self.events.drain(..) {
            match event {
                AgentEvent::Send { to, msg } => {
                    match msg.msg {
                        DagMessage::Request { .. } => self.stats.requests_sent += 1,
                        DagMessage::Privilege => self.stats.privileges_sent += 1,
                        DagMessage::Initialize => {}
                    }
                    transmit(to, msg);
                }
                AgentEvent::Granted(_) => {
                    self.stats.entries += 1;
                    let ack = self.waiter.take().expect("a live claim has a waiter");
                    ack.send(Reply::Granted);
                }
                AgentEvent::Bounced(_) => self.stats.abandoned += 1,
            }
        }
    }
}

/// One node of a [`Cluster`]: its protocol state and its inbox, closed
/// by shutdown or by the first drain to find the core poisoned.
#[derive(Debug)]
struct Node {
    /// `None` once the cluster is shut down.
    core: Mutex<Option<NodeCore>>,
    inbox: Mailbox<Input>,
}

impl Node {
    /// Takes the node down for good and returns its counters.
    fn shut_down(&self) -> NodeStats {
        // A poisoned core still has counters worth reporting.
        let mut core = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        self.inbox.close();
        // Dropping the core drops its waiter, too.
        core.take()
            .map_or_else(NodeStats::default, NodeCore::into_stats)
    }
}

thread_local! {
    /// The nodes this thread's drain has still to visit, kept between
    /// deliveries so that draining allocates nothing in steady state.
    static WORK: Cell<Vec<NodeId>> = const { Cell::new(Vec::new()) };
}

/// The nodes of one [`Cluster`], shared with its clients (see the module
/// docs for how an input reaches a node).
#[derive(Debug)]
struct Mesh {
    nodes: Box<[Node]>,
}

impl Mesh {
    /// Queues `input` at node `to`, then drains it and every node it
    /// sends to, on the calling thread.
    ///
    /// # Errors
    ///
    /// [`LockError::ClusterDown`] if `to` is down.
    fn deliver(&self, to: NodeId, input: Input) -> Result<(), LockError> {
        self.nodes[to.index()].inbox.push(input)?;
        let mut work = WORK.take();
        work.push(to);
        while let Some(id) = work.pop() {
            self.drain(id, &mut work);
        }
        WORK.set(work);
        Ok(())
    }

    /// Steps node `id` until its inbox is empty, adding each node it
    /// sends to to `work`; leaves it to whoever holds its core.
    fn drain(&self, id: NodeId, work: &mut Vec<NodeId>) {
        let node = &self.nodes[id.index()];
        loop {
            let mut core = match node.core.try_lock() {
                Ok(core) => core,
                // The holder re-checks the inbox after it unlocks.
                Err(TryLockError::WouldBlock) => return,
                Err(TryLockError::Poisoned(_)) => return node.inbox.close(),
            };
            let Some(stepper) = core.as_mut() else {
                return; // shut down
            };
            while let Some(input) = node.inbox.try_pop() {
                stepper.step(input, |to, msg| {
                    // A down peer drops the message: the cluster is
                    // stopping, or that node is already lost.
                    let queued = self.nodes[to.index()]
                        .inbox
                        .push(Input::Net { from: id, msg });
                    if queued.is_ok() && work.last() != Some(&to) {
                        work.push(to);
                    }
                });
            }
            drop(core);
            if node.inbox.is_empty() {
                return;
            }
        }
    }
}

/// A running in-process cluster executing the DAG algorithm, with no
/// threads of its own: each client operation runs the nodes it reaches
/// on the caller's thread (see the module docs). Obtain per-node
/// [`LockClient`]s from [`Cluster::start`] and call
/// [`Cluster::shutdown`] when done.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug)]
pub struct Cluster {
    mesh: Arc<Mesh>,
}

impl Cluster {
    /// Sets up every node of `tree`, with the token initially at
    /// `holder`, and returns the cluster plus one [`LockClient`] per
    /// node (index = node id). The single lock is `LockId(0)`. No
    /// thread is spawned.
    ///
    /// # Panics
    ///
    /// Panics if `holder` is out of range.
    pub fn start(tree: &Tree, holder: NodeId) -> (Cluster, Vec<LockClient>) {
        let placement = Placement::Hub(holder);
        placement.validate(tree.len());
        let tree = Arc::new(tree.clone());
        let node = |me| {
            let agent = KeyAgent::new(me, Arc::clone(&tree), placement.clone(), 1);
            Node {
                core: Mutex::new(Some(NodeCore::new(agent))),
                inbox: Mailbox::new(),
            }
        };
        let mesh = Arc::new(Mesh {
            nodes: tree.nodes().map(node).collect(),
        });
        let client = |me| {
            let mesh = Arc::clone(&mesh);
            LockClient::new(me, 1, move |input| mesh.deliver(me, input))
        };
        let clients = tree.nodes().map(client).collect();
        (Cluster { mesh }, clients)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.mesh.nodes.len()
    }

    /// `true` for a cluster with no nodes — consistent with
    /// [`Cluster::len`].
    pub fn is_empty(&self) -> bool {
        self.mesh.nodes.is_empty()
    }

    /// Takes every node down and returns the aggregated counters. There
    /// are no threads to join: each core is taken under its lock, after
    /// any drain stepping it.
    ///
    /// Outstanding [`LockGuard`](crate::LockGuard)s should be dropped
    /// first; a lock request issued after shutdown, or still waiting
    /// when it happens, fails with [`LockError::ClusterDown`].
    pub fn shutdown(self) -> ClusterStats {
        ClusterStats::from_nodes(self.mesh.nodes.iter().map(Node::shut_down).collect())
    }
}

impl LockService for Cluster {
    type Stats = ClusterStats;

    fn len(&self) -> usize {
        Cluster::len(self)
    }

    fn keys(&self) -> u32 {
        1
    }

    fn shutdown(self) -> ClusterStats {
        Cluster::shutdown(self)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn lock_round_trip_on_star() {
        let (cluster, mut clients) = Cluster::start(&Tree::star(4), NodeId(0));
        {
            let guard = clients[2].lock(LockId(0)).wait().unwrap();
            assert_eq!(guard.node(), NodeId(2));
            assert_eq!(guard.key(), LockId(0));
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 1);
        // leaf -> center REQUEST, center -> holder? center IS holder here:
        // REQUEST 2->0 then PRIVILEGE 0->2 = 2 messages.
        assert_eq!(stats.messages_total, 2);
    }

    #[test]
    fn token_parks_making_reentry_free() {
        let (cluster, mut clients) = Cluster::start(&Tree::line(3), NodeId(0));
        drop(clients[2].lock(LockId(0)).wait().unwrap());
        {
            // Token is now parked at node 2; further locks cost nothing.
            for _ in 0..10 {
                drop(clients[2].lock(LockId(0)).wait().unwrap());
            }
        };
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 11);
        // First acquisition: 2 REQUEST hops + 1 PRIVILEGE; then silence.
        assert_eq!(stats.messages_total, 3);
        assert_eq!(stats.node(NodeId(2)).entries, 11);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let n = 5;
        let (cluster, clients) = Cluster::start(&Tree::star(n), NodeId(0));
        let in_cs = Arc::new(AtomicBool::new(false));
        let counter = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::new();
        for mut client in clients {
            let in_cs = Arc::clone(&in_cs);
            let counter = Arc::clone(&counter);
            workers.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    let guard = client.lock(LockId(0)).wait().unwrap();
                    assert!(
                        !in_cs.swap(true, Ordering::SeqCst),
                        "two nodes inside the critical section"
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
        assert_eq!(counter.load(Ordering::Relaxed), 20 * n as u64);
        assert_eq!(stats.entries, 20 * n as u64);
    }

    #[test]
    fn lock_after_shutdown_errors() {
        let (cluster, mut clients) = Cluster::start(&Tree::line(2), NodeId(0));
        cluster.shutdown();
        assert_eq!(
            clients[1].lock(LockId(0)).wait().unwrap_err(),
            LockError::ClusterDown
        );
    }

    /// On a star with node 1 holding key 0, node 2 blocks in `wait` and
    /// node 0 in a 5 s `timeout`, the service stops, and both must come
    /// back with `ClusterDown` long before the timeout. Returns the
    /// stats, whose `entries` the caller asserts. Shared with the TCP
    /// and lock-space backends' tests.
    pub(crate) fn assert_shutdown_fails_a_blocked_waiter<S: LockService>(
        service: S,
        clients: Vec<LockClient>,
    ) -> S::Stats {
        let mut clients = clients.into_iter();
        let (mut c0, mut c1, mut c2) = (
            clients.next().unwrap(),
            clients.next().unwrap(),
            clients.next().unwrap(),
        );
        let guard = c1.lock(LockId(0)).wait().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiters = [
            std::thread::spawn({
                let tx = tx.clone();
                move || tx.send(c2.lock(LockId(0)).wait().map(drop)).unwrap()
            }),
            std::thread::spawn(move || {
                let timed = c0.lock(LockId(0)).timeout(Duration::from_secs(5));
                tx.send(timed.map(drop)).unwrap();
            }),
        ];
        // Let both acquisitions register behind the held lock. (Should
        // shutdown win the race instead, the answer is the same error.)
        std::thread::sleep(Duration::from_millis(50));
        let stats = service.shutdown();
        for _ in &waiters {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(4)),
                Ok(Err(LockError::ClusterDown)),
                "shutdown must not strand a blocked waiter"
            );
        }
        for waiter in waiters {
            waiter.join().unwrap();
        }
        drop(guard); // releasing into a stopped cluster is a no-op
        stats
    }

    #[test]
    fn waiter_blocked_across_shutdown_gets_cluster_down() {
        let (cluster, clients) = Cluster::start(&Tree::star(3), NodeId(1));
        assert_eq!(
            assert_shutdown_fails_a_blocked_waiter(cluster, clients).entries,
            1
        );
    }

    /// One thread per node takes the lock 2 000 times while node 3 gives
    /// up after 50 µs, so abandon / adopt / release-now race the grants.
    /// The threads start together, and the patient ones hold the lock
    /// for 100 µs every fourth round: an in-process hand-off takes a few
    /// µs, and a timed wait sleeps out the kernel's timer slack (about
    /// 50 µs), so without the holds node 3 would rarely time out. Nobody
    /// may enter twice, and afterwards every node can still take the
    /// lock. Shared with the TCP backend's tests.
    pub(crate) fn assert_storm_never_double_enters_or_wedges<S>(
        service: S,
        mut clients: Vec<LockClient>,
    ) where
        S: LockService<Stats = ClusterStats>,
    {
        const ROUNDS: usize = 2_000;
        let inside = AtomicBool::new(false);
        let (guards, timeouts) = (AtomicU64::new(0), AtomicU64::new(0));
        let start = std::sync::Barrier::new(clients.len());
        std::thread::scope(|scope| {
            for client in &mut clients {
                let (inside, guards, timeouts, start) = (&inside, &guards, &timeouts, &start);
                scope.spawn(move || {
                    let impatient = client.node() == NodeId(3);
                    start.wait();
                    for round in 0..ROUNDS {
                        let request = client.lock(LockId(0));
                        let guard = if impatient {
                            request.timeout(Duration::from_micros(50))
                        } else {
                            request.wait()
                        };
                        match guard {
                            Ok(guard) => {
                                assert!(!inside.swap(true, Ordering::SeqCst), "double entry");
                                guards.fetch_add(1, Ordering::Relaxed);
                                if !impatient && round % 4 == 0 {
                                    std::thread::sleep(Duration::from_micros(100));
                                }
                                inside.store(false, Ordering::SeqCst);
                                drop(guard);
                            }
                            Err(LockError::Timeout) => {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                                // Half the time, let the grant arrive
                                // unclaimed instead of adopting it.
                                if round % 2 == 0 {
                                    std::thread::sleep(Duration::from_micros(300));
                                }
                            }
                            Err(e) => panic!("storm acquisition failed: {e}"),
                        }
                    }
                });
            }
        });
        // No wedged token: every node can still take the lock.
        for client in &mut clients {
            drop(client.lock(LockId(0)).wait().unwrap());
            guards.fetch_add(1, Ordering::Relaxed);
        }
        let stats = service.shutdown();
        let timeouts = timeouts.into_inner();
        assert!(timeouts > 0, "the impatient node never timed out");
        assert_eq!(stats.entries, guards.into_inner());
        let abandoned: u64 = stats.per_node.iter().map(|n| n.abandoned).sum();
        assert!(abandoned <= timeouts, "{abandoned} abandoned > {timeouts}");
    }

    #[test]
    fn storm_with_timeouts_never_double_enters_or_wedges_the_token() {
        let (cluster, clients) = Cluster::start(&Tree::kary(7, 2), NodeId(0));
        assert_storm_never_double_enters_or_wedges(cluster, clients);
    }

    /// Eight threads make 5 000 acquires each on `tree`, cycling through
    /// the clients they own. Every acquire is bounded, so an input left
    /// in an inbox with no drain to step it fails the test rather than
    /// hanging it.
    fn assert_no_input_is_stranded(tree: &Tree) {
        const THREADS: usize = 8;
        const ACQUIRES: usize = 5_000;
        let (cluster, clients) = Cluster::start(tree, NodeId(0));
        let mut owned: Vec<Vec<LockClient>> = (0..THREADS).map(|_| Vec::new()).collect();
        for (i, client) in clients.into_iter().enumerate() {
            owned[i % THREADS].push(client);
        }
        let inside = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for clients in &mut owned {
                let inside = &inside;
                scope.spawn(move || {
                    let mine = clients.len();
                    for round in 0..ACQUIRES {
                        let client = &mut clients[round % mine];
                        let node = client.node();
                        let guard = client
                            .lock(LockId(0))
                            .timeout(Duration::from_secs(5))
                            .unwrap_or_else(|e| panic!("acquire {round} at {node}: {e}"));
                        assert!(!inside.swap(true, Ordering::SeqCst), "double entry");
                        inside.store(false, Ordering::SeqCst);
                        drop(guard);
                    }
                });
            }
        });
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, (THREADS * ACQUIRES) as u64);
        assert_eq!(stats.per_node.iter().map(|n| n.abandoned).sum::<u64>(), 0);
    }

    #[test]
    fn no_input_is_stranded_on_a_line() {
        assert_no_input_is_stranded(&Tree::line(8));
    }

    #[test]
    fn no_input_is_stranded_on_a_binary_tree() {
        assert_no_input_is_stranded(&Tree::kary(15, 2));
    }

    #[test]
    fn stray_privilege_panics_the_step_and_downs_the_node() {
        let (cluster, mut clients) = Cluster::start(&Tree::star(3), NodeId(1));
        // Node 2 is not requesting: a PRIVILEGE there is a protocol bug,
        // and the step that meets it panics on the delivering thread.
        let stray = net(1, LockId(0), DagMessage::Privilege);
        let delivered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.mesh.deliver(NodeId(2), stray)
        }));
        assert!(delivered.is_err(), "the stray PRIVILEGE must panic");
        // The half-stepped core is never stepped again.
        for _ in 0..2 {
            assert_eq!(
                clients[2].lock(LockId(0)).wait().unwrap_err(),
                LockError::ClusterDown
            );
        }
        // The rest of the cluster still serves: the token is at node 1.
        drop(clients[1].lock(LockId(0)).try_now().unwrap());
        drop(clients);
        assert_eq!(cluster.shutdown().entries, 1);
    }

    /// Sans-IO cores on `Tree::line(n)`, every key's token at node 0.
    fn line_of_cores(n: usize) -> Vec<NodeCore> {
        let tree = Arc::new(Tree::line(n));
        tree.nodes()
            .map(|me| KeyAgent::new(me, Arc::clone(&tree), Placement::Hub(NodeId(0)), 1))
            .map(NodeCore::new)
            .collect()
    }

    /// Runs one input through `core` and returns what it transmitted.
    fn step(core: &mut NodeCore, input: Input) -> Vec<(NodeId, KeyedDagMessage)> {
        let mut sent = Vec::new();
        core.step(input, |to, msg| sent.push((to, msg)));
        sent
    }

    fn net(from: u32, lock: LockId, msg: DagMessage) -> Input {
        Input::Net {
            from: NodeId(from),
            msg: KeyedDagMessage { lock, msg },
        }
    }

    #[test]
    fn node_core_steps_a_hand_off_without_any_io() {
        let mut cores = line_of_cores(3);
        let key = LockId(3);
        let request = |from: u32| DagMessage::Request {
            from: NodeId(from),
            origin: NodeId(2),
        };
        let keyed = |msg| KeyedDagMessage { lock: key, msg };

        // Node 2 asks: the REQUEST walks the line to the holder, the
        // PRIVILEGE comes straight back to the origin.
        let (ack, granted) = crate::mailbox::ack();
        assert_eq!(
            step(&mut cores[2], Input::Acquire(key, ack)),
            [(NodeId(1), keyed(request(2)))]
        );
        assert_eq!(
            step(&mut cores[1], net(2, key, request(2))),
            [(NodeId(0), keyed(request(1)))]
        );
        assert_eq!(
            step(&mut cores[0], net(1, key, request(1))),
            [(NodeId(2), keyed(DagMessage::Privilege))]
        );
        assert_eq!(granted.try_pop(), None, "not granted before the token");
        assert_eq!(step(&mut cores[2], net(0, key, DagMessage::Privilege)), []);
        assert_eq!(granted.try_pop(), Some(Reply::Granted));
        // Exit with nobody queued: the token parks, nothing is sent.
        assert_eq!(step(&mut cores[2], Input::Release(key)), []);

        // A try succeeds exactly where the token is parked.
        for (node, reply) in [(2, Reply::Granted), (0, Reply::Unavailable)] {
            let (ack, answer) = crate::mailbox::ack();
            assert_eq!(step(&mut cores[node], Input::TryAcquire(key, ack)), []);
            assert_eq!(answer.try_pop(), Some(reply));
        }
        let stats: Vec<NodeStats> = cores.into_iter().map(NodeCore::into_stats).collect();
        assert_eq!((stats[2].requests_sent, stats[2].entries), (1, 2));
        assert_eq!((stats[1].requests_sent, stats[1].entries), (1, 0));
        assert_eq!((stats[0].privileges_sent, stats[0].entries), (1, 0));
    }

    #[test]
    fn a_grant_that_raced_its_own_timeout_is_not_an_entry() {
        let mut core = line_of_cores(2).pop().expect("node 1");
        let key = LockId(2);
        let (ack, granted) = crate::mailbox::ack();
        assert_eq!(step(&mut core, Input::Acquire(key, ack)).len(), 1);
        assert_eq!(step(&mut core, net(0, key, DagMessage::Privilege)), []);
        // The grant is delivered, but the user's timeout fired first:
        // its abandon finds the node inside the critical section.
        assert_eq!(granted.try_pop(), Some(Reply::Granted));
        assert_eq!(step(&mut core, Input::Abandon(key)), [], "it parks");
        assert_eq!(step(&mut core, Input::Abandon(key)), [], "now stale");
        assert_eq!((core.stats.entries, core.stats.abandoned), (0, 1));

        // The key's token is idle here: a try takes it without a message.
        let (ack, answer) = crate::mailbox::ack();
        assert_eq!(step(&mut core, Input::TryAcquire(key, ack)), []);
        assert_eq!(answer.try_pop(), Some(Reply::Granted));
        assert_eq!(core.into_stats().entries, 1);
    }

    #[test]
    fn explicit_unlock_equals_drop() {
        let (cluster, mut clients) = Cluster::start(&Tree::line(2), NodeId(1));
        let guard = clients[0].lock(LockId(0)).wait().unwrap();
        guard.unlock();
        let _again = clients[0].lock(LockId(0)).wait().unwrap();
        drop(_again);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn single_node_cluster_is_a_plain_mutex() {
        let (cluster, mut clients) = Cluster::start(&Tree::line(1), NodeId(0));
        for _ in 0..100 {
            drop(clients[0].lock(LockId(0)).wait().unwrap());
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 100);
        assert_eq!(stats.messages_total, 0);
    }

    #[test]
    fn lock_timeout_times_out_while_contended_then_autoreleases() {
        let (cluster, mut clients) = Cluster::start(&Tree::star(3), NodeId(1));
        let (left, right) = clients.split_at_mut(2);
        let c1 = &mut left[1];
        let c2 = &mut right[0];

        let guard = c1.lock(LockId(0)).wait().unwrap();
        // Token is busy at node 1: node 2 gives up after 30ms.
        assert_eq!(
            c2.lock(LockId(0))
                .timeout(Duration::from_millis(30))
                .unwrap_err(),
            LockError::Timeout,
            "must time out while the lock is held"
        );
        drop(guard); // token now travels to node 2, which auto-releases

        // Node 1 can reacquire: the abandoned grant did not wedge the token.
        let again = c1.lock(LockId(0)).timeout(Duration::from_secs(5));
        assert!(again.is_ok());
        drop(again);
        drop(clients);
        let stats = cluster.shutdown();
        assert_eq!(stats.node(NodeId(2)).abandoned, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn new_lock_adopts_abandoned_request() {
        let (cluster, clients) = Cluster::start(&Tree::line(2), NodeId(0));
        let mut it = clients.into_iter();
        let mut c0 = it.next().unwrap();
        let mut c1 = it.next().unwrap();

        let guard = c0.lock(LockId(0)).wait().unwrap();
        // Node 1's REQUEST goes out, then the user gives up.
        assert_eq!(
            c1.lock(LockId(0))
                .timeout(Duration::from_millis(20))
                .unwrap_err(),
            LockError::Timeout
        );

        // Re-acquire from another thread while node 0 still holds: the
        // new acquisition adopts the in-flight request.
        let waiter = std::thread::spawn(move || {
            let g = c1.lock(LockId(0)).wait().unwrap();
            drop(g);
            c1
        });
        // Give the Acquire time to land before the privilege is released.
        std::thread::sleep(Duration::from_millis(60));
        drop(guard);
        let c1 = waiter.join().unwrap();

        drop(c0);
        drop(c1);
        let stats = cluster.shutdown();
        // One REQUEST covered both of node 1's acquisition attempts, and
        // the grant went to the adopting attempt (no abandoned bounce).
        assert_eq!(stats.node(NodeId(1)).requests_sent, 1);
        assert_eq!(stats.node(NodeId(1)).abandoned, 0);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn uncontended_lock_timeout_succeeds() {
        let (cluster, mut clients) = Cluster::start(&Tree::star(4), NodeId(0));
        let guard = clients[3].lock(LockId(0)).timeout(Duration::from_secs(5));
        assert!(guard.is_ok());
        drop(guard);
        drop(clients);
        assert_eq!(cluster.shutdown().entries, 1);
    }

    #[test]
    fn try_now_succeeds_only_where_the_token_is() {
        let (cluster, mut clients) = Cluster::start(&Tree::line(3), NodeId(2));
        // The token is at node 2; node 0 cannot take it without waiting,
        // and the refusal costs zero protocol messages.
        assert_eq!(
            clients[0].lock(LockId(0)).try_now().unwrap_err(),
            LockError::WouldBlock
        );
        {
            let guard = clients[2].lock(LockId(0)).try_now().unwrap();
            assert_eq!(guard.node(), NodeId(2));
        }
        drop(clients);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.messages_total, 0, "try never sends messages");
    }

    #[test]
    fn try_now_fails_while_another_node_holds() {
        let (cluster, mut clients) = Cluster::start(&Tree::star(3), NodeId(1));
        let (left, right) = clients.split_at_mut(2);
        let guard = left[1].lock(LockId(0)).wait().unwrap();
        assert_eq!(
            right[0].lock(LockId(0)).try_now().unwrap_err(),
            LockError::WouldBlock
        );
        drop(guard);
        drop(clients);
        assert_eq!(cluster.shutdown().entries, 1);
    }

    #[test]
    fn elapsed_deadline_fails_without_acquiring() {
        let (cluster, mut clients) = Cluster::start(&Tree::line(2), NodeId(0));
        assert_eq!(
            clients[1]
                .lock(LockId(0))
                .deadline(std::time::Instant::now())
                .unwrap_err(),
            LockError::Deadline
        );
        // A generous deadline behaves like wait.
        let guard = clients[1]
            .lock(LockId(0))
            .deadline(std::time::Instant::now() + Duration::from_secs(10));
        assert!(guard.is_ok());
        drop(guard);
        drop(clients);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 1);
        // The elapsed-deadline attempt sent nothing: only the second
        // acquisition's REQUEST + PRIVILEGE crossed the wire.
        assert_eq!(stats.messages_total, 2);
    }

    #[test]
    fn out_of_range_key_is_rejected_by_the_client() {
        let (cluster, mut clients) = Cluster::start(&Tree::line(2), NodeId(0));
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = clients[0].lock(LockId(1));
        }));
        assert!(poisoned.is_err(), "single-lock clusters only serve key 0");
        drop(clients);
        cluster.shutdown();
    }

    #[test]
    fn deep_line_still_serves_everyone() {
        let n = 8;
        let (cluster, clients) = Cluster::start(&Tree::line(n), NodeId(0));
        let mut workers = Vec::new();
        for mut client in clients {
            workers.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    drop(client.lock(LockId(0)).wait().unwrap());
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 5 * n as u64);
    }
}
