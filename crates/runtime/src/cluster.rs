use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use dmx_core::{Action, DagMessage, DagNode, LockId};
use dmx_topology::{NodeId, Tree};

use crate::client::{Endpoint, LockClient};
use crate::service::{
    AbandonAction, AcquireAction, GrantAction, LockError, LockService, PendingSet, Reply,
};
use crate::stats::{ClusterStats, NodeStats};

/// Inputs one node's [`NodeCore::step`] processes.
pub(crate) enum Input {
    /// Local user wants the critical section; reply on the channel when
    /// the privilege is local.
    Acquire(Sender<Reply>),
    /// Local user wants the critical section only if the token is here
    /// right now; reply [`Reply::Granted`] or [`Reply::Unavailable`]
    /// without ever sending a protocol message.
    TryAcquire(Sender<Reply>),
    /// Local user left the critical section.
    Release,
    /// The user gave up waiting (a [`crate::LockRequest::timeout`]). The
    /// in-flight REQUEST cannot be recalled (the paper has no cancel
    /// message), so the node releases the privilege the moment it
    /// arrives — unless a new acquisition adopts the request first.
    AbandonAcquire,
    /// A protocol message from a peer.
    Net {
        /// Wire sender.
        from: NodeId,
        /// Payload.
        msg: DagMessage,
    },
}

/// The single lock every slot of the pending machine refers to.
const KEY: LockId = LockId(0);

/// One node of a single-lock backend, sans IO: the pure [`DagNode`], the
/// local user's [`PendingSet`] pending/abandon machine and the counters.
/// Whoever holds an [`Input`] runs [`NodeCore::step`] — the node thread
/// here, the reader and caller threads in [`crate::tcp`].
#[derive(Debug)]
pub(crate) struct NodeCore {
    node: DagNode,
    pending: PendingSet,
    /// Reused across steps: the buffered `DagNode` handlers push into
    /// it, so steady-state message handling allocates nothing.
    actions: Vec<Action>,
    stats: NodeStats,
}

impl NodeCore {
    pub(crate) fn new(node: DagNode) -> Self {
        NodeCore {
            node,
            pending: PendingSet::new(),
            actions: Vec::new(),
            stats: NodeStats::default(),
        }
    }

    /// Ends the node: its counters remain, its waiters are dropped (a
    /// blocked acquisition sees [`LockError::ClusterDown`]).
    pub(crate) fn into_stats(self) -> NodeStats {
        self.stats
    }

    /// Drives the state machine with one input, handing every send to
    /// `transmit(to, from, message)` (channels here, sockets in
    /// [`crate::tcp`]) and every `Enter` to the pending machine.
    pub(crate) fn step(
        &mut self,
        input: Input,
        transmit: &mut impl FnMut(NodeId, NodeId, DagMessage),
    ) {
        self.actions.clear();
        match input {
            Input::Acquire(ack) => match self.pending.acquire(KEY, ack) {
                // Adopt the still-in-flight request of a timed-out
                // acquisition: no new messages needed.
                AcquireAction::Adopted => return,
                AcquireAction::Issue => {
                    assert!(!self.node.is_executing(), "Acquire while executing");
                    self.node.request_into(&mut self.actions);
                }
            },
            Input::TryAcquire(ack) => {
                // Grant iff the token is parked here, idle, with no
                // other acquisition engaged. (An abandoned request in
                // flight implies the token is elsewhere, but check the
                // slot anyway — it is the machine's source of truth.)
                let (node, pending) = (&mut self.node, &self.pending);
                if node.has_token() && !node.is_executing() && !pending.is_engaged(KEY) {
                    node.request_into(&mut self.actions);
                    let entered = self.send_all(transmit);
                    debug_assert!(entered, "a holding idle node enters locally");
                    self.stats.entries += 1;
                    let _ = ack.send(Reply::Granted);
                } else {
                    let _ = ack.send(Reply::Unavailable);
                }
                return;
            }
            Input::Release => self.node.exit_into(&mut self.actions),
            Input::AbandonAcquire => match self.pending.abandon(KEY, self.node.is_executing()) {
                // Normal case: still waiting; the grant will
                // auto-release on arrival.
                AbandonAction::Marked | AbandonAction::Stale => return,
                // Race: the grant was already delivered but the user
                // timed out anyway — leave immediately, and count the
                // entry nobody used as abandoned instead.
                AbandonAction::ReleaseNow => {
                    self.stats.entries -= 1;
                    self.stats.abandoned += 1;
                    self.node.exit_into(&mut self.actions);
                }
            },
            Input::Net { from, msg } => match msg {
                DagMessage::Request { from: link, origin } => {
                    debug_assert_eq!(link, from);
                    self.node
                        .receive_request_into(from, origin, &mut self.actions);
                }
                DagMessage::Privilege => self.node.receive_privilege_into(&mut self.actions),
                DagMessage::Initialize => {} // pre-oriented start-up
            },
        }
        if !self.send_all(transmit) {
            return;
        }
        // Entered: hand the critical section to the waiting user, or —
        // if the user abandoned — bounce straight out again.
        match self.pending.grant(KEY) {
            GrantAction::Deliver(ack) => {
                self.stats.entries += 1;
                let _ = ack.send(Reply::Granted);
            }
            GrantAction::AutoRelease => {
                self.stats.abandoned += 1;
                self.actions.clear();
                self.node.exit_into(&mut self.actions);
                let entered = self.send_all(transmit);
                debug_assert!(!entered, "exit never re-enters");
            }
        }
    }

    /// Transmits the buffered sends; `true` if the buffer held an `Enter`.
    fn send_all(&mut self, transmit: &mut impl FnMut(NodeId, NodeId, DagMessage)) -> bool {
        let mut entered = false;
        for action in &self.actions {
            match *action {
                Action::Send { to, message } => {
                    match message {
                        DagMessage::Request { .. } => self.stats.requests_sent += 1,
                        DagMessage::Privilege => self.stats.privileges_sent += 1,
                        DagMessage::Initialize => {}
                    }
                    transmit(to, self.node.id(), message);
                }
                Action::Enter => entered = true,
            }
        }
        entered
    }
}

/// The single-lock backends' [`Endpoint`]: every client operation is one
/// [`Input`] handed to `submit` — the node thread's channel here, the
/// node itself in [`crate::tcp`].
struct InputEndpoint<F>(F);

impl<F: Fn(Input) -> Result<(), LockError> + Send> Endpoint for InputEndpoint<F> {
    fn acquire(&self, _key: LockId, ack: Sender<Reply>) -> Result<(), LockError> {
        (self.0)(Input::Acquire(ack))
    }

    fn try_acquire(&self, _key: LockId, ack: Sender<Reply>) -> Result<(), LockError> {
        (self.0)(Input::TryAcquire(ack))
    }

    fn abandon(&self, _key: LockId) -> Result<(), LockError> {
        (self.0)(Input::AbandonAcquire)
    }

    fn release(&self, _key: LockId) {
        // If the cluster is already gone there is nobody to notify.
        let _ = (self.0)(Input::Release);
    }
}

/// One single-lock client whose operations go to `submit`.
pub(crate) fn make_client(
    node: NodeId,
    submit: impl Fn(Input) -> Result<(), LockError> + Send + 'static,
) -> LockClient {
    LockClient::new(node, 1, Box::new(InputEndpoint(submit)))
}

/// A running cluster: one thread per tree node executing the DAG
/// algorithm. Obtain per-node [`LockClient`]s from [`Cluster::start`]
/// and call [`Cluster::shutdown`] when done.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug)]
pub struct Cluster {
    /// Each node thread's input channel; `None` tells it to stop.
    txs: Vec<Sender<Option<Input>>>,
    joins: Vec<JoinHandle<NodeStats>>,
}

impl Cluster {
    /// Spawns one thread per node of `tree`, with the token initially at
    /// `holder`, and returns the cluster plus one [`LockClient`] per
    /// node (index = node id). The single lock is `LockId(0)`.
    ///
    /// # Panics
    ///
    /// Panics if `holder` is out of range.
    pub fn start(tree: &Tree, holder: NodeId) -> (Cluster, Vec<LockClient>) {
        let n = tree.len();
        assert!(holder.index() < n, "holder out of range");
        let orientation = tree.orient_toward(holder);

        let (txs, rxs): (Vec<Sender<Option<Input>>>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let (mut joins, mut clients) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (i, rx) in rxs.into_iter().enumerate() {
            let me = NodeId::from_index(i);
            let mut core = NodeCore::new(DagNode::from_orientation(&orientation, me));
            let (peers, tx) = (txs.clone(), txs[i].clone());
            joins.push(std::thread::spawn(move || {
                // A send can only fail during shutdown, when the
                // counters no longer matter.
                let mut transmit = |to: NodeId, from, msg| {
                    let _ = peers[to.index()].send(Some(Input::Net { from, msg }));
                };
                while let Ok(Some(input)) = rx.recv() {
                    core.step(input, &mut transmit);
                }
                core.into_stats()
            }));
            clients.push(make_client(me, move |input| {
                tx.send(Some(input)).map_err(|_| LockError::ClusterDown)
            }));
        }
        (Cluster { txs, joins }, clients)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// `true` for a cluster with no nodes — consistent with
    /// [`Cluster::len`].
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Stops every node thread and returns the aggregated counters.
    ///
    /// Outstanding [`LockGuard`](crate::LockGuard)s should be dropped
    /// first; a lock request issued after shutdown, or still waiting
    /// when it happens, fails with [`LockError::ClusterDown`].
    pub fn shutdown(self) -> ClusterStats {
        for tx in &self.txs {
            let _ = tx.send(None);
        }
        let join = |j: JoinHandle<NodeStats>| j.join().expect("node thread panicked");
        ClusterStats::from_nodes(self.joins.into_iter().map(join).collect())
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

    /// On a star with node 1 holding the lock, node 2 blocks in `wait`,
    /// the service stops, and node 2 must come back with `ClusterDown`.
    /// Shared with the TCP backend's tests.
    pub(crate) fn assert_shutdown_fails_a_blocked_waiter<S>(service: S, clients: Vec<LockClient>)
    where
        S: LockService<Stats = ClusterStats>,
    {
        let mut clients = clients.into_iter().skip(1);
        let (mut c1, mut c2) = (clients.next().unwrap(), clients.next().unwrap());
        let guard = c1.lock(LockId(0)).wait().unwrap();
        let (tx, rx) = crossbeam::channel::bounded(1);
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(c2.lock(LockId(0)).wait().map(drop));
        });
        // Let node 2's acquisition register behind the held lock. (Should
        // shutdown win the race instead, the answer is the same error.)
        std::thread::sleep(Duration::from_millis(50));
        let stats = service.shutdown();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(Err(LockError::ClusterDown)),
            "shutdown must not strand a blocked waiter"
        );
        waiter.join().unwrap();
        drop(guard); // releasing into a stopped cluster is a no-op
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn waiter_blocked_across_shutdown_gets_cluster_down() {
        let (cluster, clients) = Cluster::start(&Tree::star(3), NodeId(1));
        assert_shutdown_fails_a_blocked_waiter(cluster, clients);
    }

    #[test]
    fn node_core_steps_a_hand_off_without_any_io() {
        let orientation = Tree::line(3).orient_toward(NodeId(0));
        let mut cores: Vec<NodeCore> = (0..3)
            .map(|i| NodeCore::new(DagNode::from_orientation(&orientation, NodeId(i))))
            .collect();
        // Runs one input through `node` and returns what it transmitted.
        let mut step = |node: usize, input: Input| {
            let mut sent = Vec::new();
            cores[node].step(input, &mut |to, from, msg| sent.push((to, from, msg)));
            sent
        };
        let request = |from: u32| DagMessage::Request {
            from: NodeId(from),
            origin: NodeId(2),
        };
        let net = |from: u32, msg: DagMessage| Input::Net {
            from: NodeId(from),
            msg,
        };

        // Node 2 asks: the REQUEST walks the line to the holder, the
        // PRIVILEGE comes straight back to the origin.
        let (ack, granted) = crossbeam::channel::bounded(1);
        assert_eq!(
            step(2, Input::Acquire(ack)),
            [(NodeId(1), NodeId(2), request(2))]
        );
        assert_eq!(
            step(1, net(2, request(2))),
            [(NodeId(0), NodeId(1), request(1))]
        );
        assert_eq!(
            step(0, net(1, request(1))),
            [(NodeId(2), NodeId(0), DagMessage::Privilege)]
        );
        assert!(granted.try_recv().is_err(), "not granted before the token");
        assert_eq!(step(2, net(0, DagMessage::Privilege)), []);
        assert_eq!(granted.try_recv(), Ok(Reply::Granted));
        // Exit with nobody queued: the token parks, nothing is sent.
        assert_eq!(step(2, Input::Release), []);

        // A try succeeds exactly where the token is parked.
        for (node, reply) in [(2, Reply::Granted), (0, Reply::Unavailable)] {
            let (ack, answer) = crossbeam::channel::bounded(1);
            assert_eq!(step(node, Input::TryAcquire(ack)), []);
            assert_eq!(answer.try_recv(), Ok(reply));
        }
        let stats: Vec<NodeStats> = cores.into_iter().map(NodeCore::into_stats).collect();
        assert_eq!((stats[2].requests_sent, stats[2].entries), (1, 2));
        assert_eq!((stats[1].requests_sent, stats[1].entries), (1, 0));
        assert_eq!((stats[0].privileges_sent, stats[0].entries), (1, 0));
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
