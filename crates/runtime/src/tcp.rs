//! TCP transport: the same distributed lock over real sockets.
//!
//! Each node binds a loopback listener; protocol messages travel as
//! fixed 9-byte frames over lazily established, cached connections. TCP
//! gives exactly the guarantees the paper's network model demands —
//! reliable delivery and per-connection FIFO — so the unchanged
//! [`DagNode`](dmx_core::DagNode) state machine runs correctly on top.
//! This is the deployment-shaped embodiment; for cheap in-process
//! locking use [`Cluster`](crate::Cluster), which runs its nodes the
//! same way over in-memory inboxes.
//!
//! # Threading
//!
//! A node has no thread of its own: it is a mutex around its `NodeCore`
//! and its outgoing connections, and whichever thread holds an input
//! runs `NodeCore::step` under that mutex, writing the resulting frames
//! itself. A [`LockClient`] operation runs on the caller's thread (a
//! re-acquire of a parked token never leaves it), a frame on the reader
//! thread of the connection it arrived on — a protocol hop is one
//! `write` and one wake-up.
//!
//! * *Per-link FIFO*: every frame from `a` to `b` is written under
//!   `a`'s mutex to the one cached `a → b` connection, which one reader
//!   owns at `b`.
//! * *No deadlock*: a thread holds at most one node mutex, across `step`
//!   and its `write`s only, and a `write` needs nothing from the
//!   receiver — nor can it fill a socket buffer, with at most `n`
//!   REQUESTs and one PRIVILEGE (9 bytes each) in flight.
//! * *Poison*: a panic inside `step` (a protocol bug, such as a
//!   `PRIVILEGE` at a node that never asked) poisons the node's mutex
//!   and leaves its core half-stepped, so the node is down from then
//!   on: client operations fail with [`LockError::ClusterDown`], its
//!   readers hang up, and its accept loop stops.
//! * *[`TcpCluster::shutdown`]* marks every node down under its mutex,
//!   so later client operations and acquisitions still waiting fail
//!   with [`LockError::ClusterDown`], and returns once the accept loops
//!   and every reader thread are joined — a panicked one included.
//!
//! # Wire format
//!
//! ```text
//! byte 0      tag: 0 = REQUEST, 1 = PRIVILEGE
//! bytes 1..5  sender node id   (u32, little endian)
//! bytes 5..9  request origin Y (u32, little endian; 0 for PRIVILEGE)
//! ```
//!
//! The REQUEST frame carries exactly the paper's two integers; the
//! PRIVILEGE frame carries none (the id/origin fields are transport
//! addressing, present in every frame). An unknown tag or an id outside
//! the cluster closes the connection before the frame reaches the node.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use dmx_core::{DagMessage, KeyedDagMessage, LockId};
use dmx_lockspace::{KeyAgent, Placement};
use dmx_topology::{NodeId, Tree};

use crate::client::LockClient;
use crate::cluster::{Input, NodeCore};
use crate::service::{LockError, LockService};
use crate::stats::ClusterStats;

const TAG_REQUEST: u8 = 0;
const TAG_PRIVILEGE: u8 = 1;
const FRAME_LEN: usize = 9;

fn encode(from: NodeId, msg: &DagMessage) -> [u8; FRAME_LEN] {
    let (tag, origin) = match msg {
        DagMessage::Request { from: link, origin } => {
            debug_assert_eq!(*link, from);
            (TAG_REQUEST, origin.0)
        }
        DagMessage::Privilege => (TAG_PRIVILEGE, 0),
        DagMessage::Initialize => unreachable!("TCP clusters start pre-oriented"),
    };
    let mut frame = [tag; FRAME_LEN];
    frame[1..5].copy_from_slice(&from.0.to_le_bytes());
    frame[5..9].copy_from_slice(&origin.to_le_bytes());
    frame
}

/// Decodes a frame read off the wire of an `n`-node cluster; a tag or
/// node id no such cluster sends is `InvalidData`.
fn decode(frame: &[u8; FRAME_LEN], n: usize) -> io::Result<(NodeId, DagMessage)> {
    let id = |at| NodeId(u32::from_le_bytes(std::array::from_fn(|i| frame[at + i])));
    let (from, origin) = (id(1), id(5));
    let invalid = |what| Err(io::Error::new(io::ErrorKind::InvalidData, what));
    match frame[0] {
        _ if from.index() >= n || origin.index() >= n => {
            invalid(format!("{from} / {origin} outside the {n}-node cluster"))
        }
        TAG_REQUEST => Ok((from, DagMessage::Request { from, origin })),
        TAG_PRIVILEGE => Ok((from, DagMessage::Privilege)),
        tag => invalid(format!("bad frame tag {tag}")),
    }
}

/// One node: its protocol state and its side of the sockets, behind the
/// mutex every thread with an input for it takes (see the module docs).
#[derive(Debug)]
struct TcpNode {
    /// `None` once the cluster is shut down.
    core: Option<NodeCore>,
    /// Cached connection to each peer, established on first send.
    outgoing: Vec<Option<TcpStream>>,
    addrs: Arc<[SocketAddr]>,
}

impl TcpNode {
    /// Runs `input` through the node on the calling thread, writing the
    /// frames it produces.
    fn step(&mut self, input: Input) -> Result<(), LockError> {
        let core = self.core.as_mut().ok_or(LockError::ClusterDown)?;
        let (me, outgoing, addrs) = (core.agent().id(), &mut self.outgoing, &self.addrs);
        core.step(input, |to, keyed| {
            let (slot, frame) = (&mut outgoing[to.index()], encode(me, &keyed.msg));
            // Lazily connect, retrying once on a stale cached stream.
            for _ in 0..2 {
                if slot.is_none() {
                    let Ok(stream) = TcpStream::connect(addrs[to.index()]) else {
                        return; // peer gone: shutdown in progress
                    };
                    let _ = stream.set_nodelay(true);
                    *slot = Some(stream);
                }
                if slot.as_mut().is_some_and(|s| s.write_all(&frame).is_ok()) {
                    return;
                }
                *slot = None;
            }
        });
        Ok(())
    }
}

/// Locks `node`. A poisoned mutex means a thread panicked inside `step`
/// and left the core half-stepped: the node is down.
fn lock(node: &Mutex<TcpNode>) -> Result<MutexGuard<'_, TcpNode>, LockError> {
    node.lock().map_err(|_| LockError::ClusterDown)
}

/// An accepted connection: a handle that unblocks its reader, and the reader.
type Reader = (TcpStream, JoinHandle<()>);

/// A running cluster whose nodes exchange the paper's messages over
/// loopback TCP. API mirrors [`Cluster`](crate::Cluster): the same
/// [`LockClient`] with the same try/timeout/deadline machinery, since
/// both runtimes drive the same `NodeCore::step` (and therefore one
/// claim machine, [`dmx_lockspace::KeyAgent`]).
///
/// # Examples
///
/// ```
/// use dmx_core::LockId;
/// use dmx_runtime::tcp::TcpCluster;
/// use dmx_topology::{NodeId, Tree};
///
/// let (cluster, mut clients) = TcpCluster::start(&Tree::star(3), NodeId(0))?;
/// {
///     let _guard = clients[2].lock(LockId(0)).wait().expect("cluster running");
/// }
/// let stats = cluster.shutdown();
/// assert_eq!(stats.entries, 1);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct TcpCluster {
    nodes: Vec<Arc<Mutex<TcpNode>>>,
    accept_joins: Vec<JoinHandle<Vec<Reader>>>,
    addrs: Arc<[SocketAddr]>,
}

impl TcpCluster {
    /// Binds one loopback listener per node, spawns the accept loops,
    /// and returns the cluster plus one [`LockClient`] per node. The
    /// single lock is `LockId(0)`.
    ///
    /// # Errors
    ///
    /// Any socket error while binding the listeners.
    ///
    /// # Panics
    ///
    /// Panics if `holder` is out of range.
    pub fn start(tree: &Tree, holder: NodeId) -> io::Result<(TcpCluster, Vec<LockClient>)> {
        let n = tree.len();
        let placement = Placement::Hub(holder);
        placement.validate(n);
        let tree = Arc::new(tree.clone());

        // Bind all listeners first so every address is known before any
        // node starts sending.
        let listeners = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<Arc<[_]>>>()?;

        let (mut nodes, mut accept_joins, mut clients) = (Vec::new(), Vec::new(), Vec::new());
        for (i, listener) in listeners.into_iter().enumerate() {
            let me = NodeId::from_index(i);
            let agent = KeyAgent::new(me, Arc::clone(&tree), placement.clone(), 1);
            let node = Arc::new(Mutex::new(TcpNode {
                core: Some(NodeCore::new(agent)),
                outgoing: (0..n).map(|_| None).collect(),
                addrs: Arc::clone(&addrs),
            }));
            // Every inbound connection gets a reader thread that runs
            // its frames through the node.
            let (inbox, local) = (Arc::clone(&node), Arc::clone(&node));
            accept_joins.push(std::thread::spawn(move || accept_loop(listener, inbox)));
            clients.push(LockClient::new(me, 1, move |input| {
                lock(&local)?.step(input)
            }));
            nodes.push(node);
        }
        let cluster = TcpCluster {
            nodes,
            accept_joins,
            addrs,
        };
        Ok((cluster, clients))
    }

    /// The loopback address node `node` listens on.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.addrs[node.index()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for a cluster with no nodes — consistent with
    /// [`TcpCluster::len`].
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Stops nodes, listeners and reader threads, returning aggregated
    /// counters. A lock request issued afterwards, or still waiting,
    /// fails with [`LockError::ClusterDown`].
    pub fn shutdown(self) -> ClusterStats {
        let down = |node: &Arc<Mutex<TcpNode>>| {
            // A poisoned node still has counters worth reporting.
            let mut node = node.lock().unwrap_or_else(PoisonError::into_inner);
            // Clients keep the node alive, not its sockets.
            node.outgoing.clear();
            // Its waiters drop with the core: they see ClusterDown.
            let core = node.core.take();
            core.map_or_else(Default::default, NodeCore::into_stats)
        };
        let per_node = self.nodes.iter().map(down).collect();
        // Unblock the accept loops with one dummy connection each, and
        // the readers by closing their connections.
        for addr in self.addrs.iter() {
            let _ = TcpStream::connect(addr);
        }
        // A thread that panicked has already reported it, and downed its
        // node: joining it is all that is left to do.
        for accept in self.accept_joins {
            for (stream, reader) in accept.join().unwrap_or_default() {
                let _ = stream.shutdown(Shutdown::Both);
                let _ = reader.join();
            }
        }
        ClusterStats::from_nodes(per_node)
    }
}

impl LockService for TcpCluster {
    type Stats = ClusterStats;

    fn len(&self) -> usize {
        TcpCluster::len(self)
    }

    fn keys(&self) -> u32 {
        1
    }

    fn shutdown(self) -> ClusterStats {
        TcpCluster::shutdown(self)
    }
}

/// Spawns a reader per inbound connection until the node is down.
fn accept_loop(listener: TcpListener, node: Arc<Mutex<TcpNode>>) -> Vec<Reader> {
    let mut readers: Vec<Reader> = Vec::new();
    for stream in listener.incoming() {
        let Ok(stream) = stream else { break };
        if lock(&node).map_or(true, |node| node.core.is_none()) {
            break;
        }
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        readers.retain(|(_, reader)| !reader.is_finished());
        let inbox = Arc::clone(&node);
        readers.push((
            handle,
            std::thread::spawn(move || reader_loop(stream, &inbox)),
        ));
    }
    readers
}

/// An inbound connection, closed when its reader ends, even by a panic:
/// the accept loop holds a second handle, so a reader that died without
/// closing would leave its peer writing into a socket nobody reads.
struct HangUp(TcpStream);

impl Drop for HangUp {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// Runs every frame of one inbound connection through `node`, until the
/// peer closes it, a frame fails [`decode`], or the node is down.
fn reader_loop(stream: TcpStream, node: &Mutex<TcpNode>) {
    let mut stream = HangUp(stream);
    let Ok(n) = lock(node).map(|node| node.addrs.len()) else {
        return;
    };
    let mut frame = [0u8; FRAME_LEN];
    while stream.0.read_exact(&mut frame).is_ok() {
        let Ok((from, msg)) = decode(&frame, n) else {
            break;
        };
        // The frame carries no key: this backend serves the one lock.
        let msg = KeyedDagMessage {
            lock: LockId(0),
            msg,
        };
        if lock(node)
            .and_then(|mut node| node.step(Input::Net { from, msg }))
            .is_err()
        {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn frame_round_trip() {
        let req = DagMessage::Request {
            from: NodeId(3),
            origin: NodeId(250),
        };
        let frame = encode(NodeId(3), &req);
        assert_eq!(decode(&frame, 251).unwrap(), (NodeId(3), req));
        // Ids are checked against the cluster size: origin, then sender.
        assert_eq!(
            decode(&frame, 250).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert!(decode(&frame, 3).is_err());
        let frame = encode(NodeId(7), &DagMessage::Privilege);
        assert_eq!(
            decode(&frame, 8).unwrap(),
            (NodeId(7), DagMessage::Privilege)
        );
        assert!(decode(&frame, 7).is_err());
        let mut bad = [0u8; FRAME_LEN];
        bad[0] = 9;
        assert_eq!(
            decode(&bad, 1).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        bad[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        bad[0] = TAG_REQUEST;
        assert!(decode(&bad, 1).is_err());
    }

    #[test]
    fn lock_round_trip_over_tcp() {
        let (cluster, mut clients) = TcpCluster::start(&Tree::star(4), NodeId(1)).unwrap();
        {
            let guard = clients[2].lock(LockId(0)).wait().unwrap();
            assert_eq!(guard.node(), NodeId(2));
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 1);
        // Same 3 messages as the channel runtime and the simulator:
        // REQUEST 2->0, REQUEST 0->1, PRIVILEGE 1->2.
        assert_eq!(stats.messages_total, 3);
    }

    #[test]
    fn token_parks_over_tcp() {
        let (cluster, mut clients) = TcpCluster::start(&Tree::line(3), NodeId(0)).unwrap();
        for _ in 0..5 {
            drop(clients[2].lock(LockId(0)).wait().unwrap());
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 5);
        assert_eq!(stats.messages_total, 3, "only the first acquisition pays");
    }

    #[test]
    fn mutual_exclusion_under_tcp_contention() {
        let n = 4;
        let (cluster, clients) = TcpCluster::start(&Tree::star(n), NodeId(0)).unwrap();
        let inside = std::sync::Arc::new(AtomicBool::new(false));
        let tally = std::sync::Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                let inside = std::sync::Arc::clone(&inside);
                let tally = std::sync::Arc::clone(&tally);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let guard = c.lock(LockId(0)).wait().unwrap();
                        assert!(!inside.swap(true, Ordering::SeqCst));
                        tally.fetch_add(1, Ordering::Relaxed);
                        inside.store(false, Ordering::SeqCst);
                        drop(guard);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(tally.load(Ordering::Relaxed), 40);
        assert_eq!(stats.entries, 40);
    }

    #[test]
    fn tcp_and_channel_runtimes_agree_on_serialized_counts() {
        let tree = Tree::kary(6, 2);
        let sequence = [NodeId(5), NodeId(1), NodeId(4), NodeId(0), NodeId(5)];

        let (tcp, mut th) = TcpCluster::start(&tree, NodeId(2)).unwrap();
        for &node in &sequence {
            drop(th[node.index()].lock(LockId(0)).wait().unwrap());
        }
        let tcp_stats = tcp.shutdown();

        let (chan, mut ch) = crate::Cluster::start(&tree, NodeId(2));
        for &node in &sequence {
            drop(ch[node.index()].lock(LockId(0)).wait().unwrap());
        }
        let chan_stats = chan.shutdown();

        assert_eq!(tcp_stats.messages_total, chan_stats.messages_total);
        assert_eq!(tcp_stats.entries, chan_stats.entries);
    }

    #[test]
    fn lock_after_shutdown_errors_over_tcp() {
        let (cluster, mut clients) = TcpCluster::start(&Tree::line(2), NodeId(0)).unwrap();
        cluster.shutdown();
        for client in &mut clients {
            assert_eq!(
                client.lock(LockId(0)).wait().unwrap_err(),
                LockError::ClusterDown
            );
            assert_eq!(
                client.lock(LockId(0)).try_now().unwrap_err(),
                LockError::ClusterDown
            );
        }
    }

    #[test]
    fn waiter_blocked_across_shutdown_gets_cluster_down() {
        let (cluster, clients) = TcpCluster::start(&Tree::star(3), NodeId(1)).unwrap();
        let stats = crate::cluster::tests::assert_shutdown_fails_a_blocked_waiter(cluster, clients);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn hostile_frame_is_dropped_and_the_cluster_keeps_serving() {
        let (cluster, mut clients) = TcpCluster::start(&Tree::star(4), NodeId(1)).unwrap();
        let mut bad_tag = [0u8; FRAME_LEN];
        bad_tag[0] = 9;
        let mut bad_origin = encode(NodeId(0), &DagMessage::Privilege);
        bad_origin[0] = TAG_REQUEST;
        bad_origin[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        for frame in [bad_tag, bad_origin] {
            let mut raw = TcpStream::connect(cluster.addr(NodeId(2))).unwrap();
            raw.write_all(&frame).unwrap();
            // The reader hangs up on the connection: end of stream.
            assert!(matches!(raw.read(&mut [0u8; 1]), Ok(0) | Err(_)));
        }
        drop(clients[2].lock(LockId(0)).wait().unwrap());
        // A stranger that connects and says nothing must not hold up
        // shutdown either.
        let _idle = TcpStream::connect(cluster.addr(NodeId(0))).unwrap();
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.messages_total, 3, "the hostile frames sent nothing");
    }

    #[test]
    fn storm_with_timeouts_never_double_enters_or_wedges_the_token() {
        let (cluster, clients) = TcpCluster::start(&Tree::kary(7, 2), NodeId(0)).unwrap();
        crate::cluster::tests::assert_storm_never_double_enters_or_wedges(cluster, clients);
    }

    #[test]
    fn stray_privilege_panics_the_reader_and_downs_the_node() {
        let (cluster, mut clients) = TcpCluster::start(&Tree::star(3), NodeId(1)).unwrap();
        // A well-formed PRIVILEGE "from" the holder to node 2, which is
        // not requesting: the reader's step panics on the protocol bug.
        let mut raw = TcpStream::connect(cluster.addr(NodeId(2))).unwrap();
        raw.write_all(&encode(NodeId(1), &DagMessage::Privilege))
            .unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // End of stream, not a read timeout.
        assert_eq!(
            raw.read(&mut [0u8; 1]).map_err(|e| e.kind()),
            Ok(0),
            "the panicking reader must hang up"
        );
        for _ in 0..2 {
            assert_eq!(
                clients[2].lock(LockId(0)).wait().unwrap_err(),
                LockError::ClusterDown
            );
        }
        assert!(cluster.nodes[2].is_poisoned(), "the step panicked");
        // The rest of the cluster still serves: the token is at node 1.
        drop(clients[1].lock(LockId(0)).try_now().unwrap());
        drop(clients);
        assert_eq!(cluster.shutdown().entries, 1);
    }

    #[test]
    fn addresses_are_distinct_loopback_ports() {
        let (cluster, clients) = TcpCluster::start(&Tree::line(3), NodeId(0)).unwrap();
        let mut ports: Vec<u16> = (0..3).map(|i| cluster.addr(NodeId(i)).port()).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 3);
        drop(clients);
        cluster.shutdown();
    }
}
