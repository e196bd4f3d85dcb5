//! One node's per-key protocol logic, sans IO: a [`KeyAgent`] owns the
//! node's lazily materialized [`DagNode`] instances and the local
//! user's *claims* on them, and turns every input — a local
//! acquire / try / release / abandon, or a keyed message from a peer —
//! into [`AgentEvent`]s pushed onto a caller-lent buffer. It has no
//! clock, channel, socket, oracle or reply handle: the threaded
//! backends (`dmx-runtime`'s `NodeCore`) and the simulated session
//! ([`ScriptedClient`](crate::ScriptedClient)) are thin drivers that
//! own only transport and time, so they agree on timeout, abandon and
//! adoption semantics by construction.
//!
//! # Claims
//!
//! The paper gives a node at most one outstanding request and no cancel
//! message, so a claim the user gives up on ([`KeyAgent::abandon`])
//! cannot be recalled: it stays behind as an *abandoned* claim whose
//! privilege bounces straight back out on arrival
//! ([`AgentEvent::Bounced`]) — unless a new [`KeyAgent::acquire`] of
//! the same key adopts the in-flight request first
//! ([`Claim::Adopted`], no new message). At most one claim is *live*
//! (waiting); abandoned claims on other keys may linger beside it.
//!
//! # Examples
//!
//! A two-node hand-off, driven by hand:
//!
//! ```
//! use std::sync::Arc;
//!
//! use dmx_core::LockId;
//! use dmx_lockspace::{AgentEvent, Claim, KeyAgent, Placement};
//! use dmx_topology::{NodeId, Tree};
//!
//! let tree = Arc::new(Tree::line(2));
//! let hub = Placement::Hub(NodeId(0));
//! let mut a = KeyAgent::new(NodeId(0), Arc::clone(&tree), hub.clone(), 1);
//! let mut b = KeyAgent::new(NodeId(1), tree, hub, 1);
//! let (key, mut events) = (LockId(7), Vec::new());
//!
//! assert_eq!(b.acquire(key, &mut events), Claim::Issued);
//! let [AgentEvent::Send { to: NodeId(0), msg: request }] = events[..] else { panic!() };
//! events.clear();
//! a.deliver(NodeId(1), request, &mut events); // idle holder: hands over
//! let [AgentEvent::Send { to: NodeId(1), msg: privilege }] = events[..] else { panic!() };
//! events.clear();
//! b.deliver(NodeId(0), privilege, &mut events);
//! assert_eq!(events, [AgentEvent::Granted(key)]);
//! assert_eq!(b.held(), [key]);
//! ```

use std::sync::Arc;

use dmx_core::{Action, DagMessage, DagNode, KeyedDagMessage, LockId};
use dmx_topology::{NodeId, Tree};

use crate::space::{OrientationCache, Placement};
use crate::table::LockTable;

/// What a [`KeyAgent`] asks its driver to do, in handler order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentEvent {
    /// Transmit `msg` to node `to` over the reliable FIFO network.
    Send {
        /// Destination node.
        to: NodeId,
        /// The keyed protocol message.
        msg: KeyedDagMessage,
    },
    /// The live claim on this key was granted: the local user is inside
    /// its critical section until [`KeyAgent::release`].
    Granted(LockId),
    /// The privilege for an abandoned claim arrived and went straight
    /// back out (the `Send` passing it on, if anyone follows, comes
    /// next): the node was inside the critical section for no time.
    Bounced(LockId),
}

/// How [`KeyAgent::acquire`] registered the claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Fresh claim: the key's state machine was driven (`request`).
    Issued,
    /// An abandoned claim on this key was still in flight; the new one
    /// adopted it — no protocol message.
    Adopted,
}

/// What [`KeyAgent::abandon`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abandon {
    /// The claim was still waiting: marked; its grant will bounce.
    Marked,
    /// Race: the claim had already been granted, so the user was inside
    /// a critical section nobody uses — left it on the spot.
    Released,
    /// Nothing to give up (already abandoned, or never claimed).
    Stale,
}

/// The node's per-key instances and what materializing one needs; split
/// from [`KeyAgent`] so a handler can borrow an instance and the
/// agent's action buffer at once.
#[derive(Debug, Clone)]
struct Instances {
    me: NodeId,
    placement: Placement,
    tree: Arc<Tree>,
    /// Orientations of the hubs this node has seen traffic for, filled
    /// on first use — untouched hubs cost nothing, like untouched keys.
    orientations: OrientationCache,
    table: LockTable,
}

impl Instances {
    /// `key`'s instance, materialized on first touch from the seed
    /// every lock-space runtime shares.
    fn get(&mut self, key: LockId) -> &mut DagNode {
        self.table.get_or_insert_with(key, || {
            self.placement
                .initial_instance(key, self.me, &self.tree, &mut self.orientations)
        })
    }
}

/// One node's sans-IO protocol agent over a whole key space; see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct KeyAgent {
    instances: Instances,
    /// The local user's outstanding claims, `(key, abandoned)`.
    claims: Vec<(LockId, bool)>,
    /// Keys the local user is inside (granted, not yet released), in
    /// grant order; a `lock_many` holds several at once.
    held: Vec<LockId>,
    /// Reused across calls: the buffered [`DagNode`] handlers push into
    /// it, so steady-state handling allocates nothing.
    actions: Vec<Action>,
}

impl KeyAgent {
    /// The agent of node `me` of `tree`, every key's token starting per
    /// `placement` (validate it first: [`Placement::validate`]), over a
    /// [`LockTable`] of `shards` shards.
    pub fn new(me: NodeId, tree: Arc<Tree>, placement: Placement, shards: usize) -> Self {
        KeyAgent {
            instances: Instances {
                me,
                placement,
                orientations: OrientationCache::new(tree.len()),
                tree,
                table: LockTable::new(shards),
            },
            claims: Vec::new(),
            held: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// This agent's node.
    pub fn id(&self) -> NodeId {
        self.instances.me
    }

    /// The instances materialized so far.
    pub fn table(&self) -> &LockTable {
        &self.instances.table
    }

    /// The outstanding claims as `(key, abandoned)`.
    pub fn claims(&self) -> &[(LockId, bool)] {
        &self.claims
    }

    /// Keys the local user is inside, in grant order.
    pub fn held(&self) -> &[LockId] {
        &self.held
    }

    /// Claims `key` for the local user; [`AgentEvent::Granted`] follows
    /// — in this call if the token is parked here, else when the
    /// privilege is delivered.
    ///
    /// # Panics
    ///
    /// Panics if another claim is still live — the client API's `&mut`
    /// borrows make a second outstanding acquisition impossible, so
    /// this is a driver bug, not a user error.
    pub fn acquire(&mut self, key: LockId, events: &mut Vec<AgentEvent>) -> Claim {
        assert!(
            self.claims.iter().all(|&(_, abandoned)| abandoned),
            "second outstanding acquisition (client handles are serialized)"
        );
        if let Some(claim) = self.claims.iter_mut().find(|(k, _)| *k == key) {
            claim.1 = false;
            return Claim::Adopted;
        }
        self.claims.push((key, false));
        self.instances.get(key).request_into(&mut self.actions);
        self.settle(key, events);
        Claim::Issued
    }

    /// Enters `key`'s critical section iff its token is parked here,
    /// idle, with no claim outstanding — never producing a message.
    pub fn try_acquire(&mut self, key: LockId) -> bool {
        // A claim in flight means the token is not here (a requesting
        // node never holds it): refuse before touching the table.
        if self.claims.iter().any(|&(k, _)| k == key) {
            return false;
        }
        let instance = self.instances.get(key);
        if !instance.holding() {
            return false;
        }
        instance.request_into(&mut self.actions);
        debug_assert_eq!(self.actions, [Action::Enter], "an idle holder enters");
        self.actions.clear();
        self.held.push(key);
        true
    }

    /// Leaves `key`'s critical section, passing the privilege on if a
    /// request is queued behind it.
    ///
    /// # Panics
    ///
    /// Panics if the node is not inside it.
    pub fn release(&mut self, key: LockId, events: &mut Vec<AgentEvent>) {
        self.held.retain(|&k| k != key);
        self.instances.get(key).exit_into(&mut self.actions);
        self.settle(key, events);
    }

    /// The local user gave up on `key`.
    pub fn abandon(&mut self, key: LockId, events: &mut Vec<AgentEvent>) -> Abandon {
        match self.claims.iter_mut().find(|(k, _)| *k == key) {
            Some((_, abandoned)) if !*abandoned => {
                *abandoned = true;
                Abandon::Marked
            }
            None if self.held.contains(&key) => {
                self.release(key, events);
                Abandon::Released
            }
            _ => Abandon::Stale,
        }
    }

    /// Runs the handler for one keyed protocol message from `from`.
    pub fn deliver(&mut self, from: NodeId, msg: KeyedDagMessage, events: &mut Vec<AgentEvent>) {
        let instance = self.instances.get(msg.lock);
        match msg.msg {
            DagMessage::Request { from: link, origin } => {
                debug_assert_eq!(link, from, "REQUEST's X field is the wire sender");
                instance.receive_request_into(from, origin, &mut self.actions);
            }
            DagMessage::Privilege => instance.receive_privilege_into(&mut self.actions),
            DagMessage::Initialize => {} // pre-oriented start-up
        }
        self.settle(msg.lock, events);
    }

    /// Finishes one handler call for `key`: its sends become events and
    /// an `Enter` is resolved against the key's claim — granted to the
    /// live claim, bounced for an abandoned one.
    fn settle(&mut self, key: LockId, events: &mut Vec<AgentEvent>) {
        let mut entered = false;
        for action in self.actions.drain(..) {
            match action {
                Action::Send { to, message } => events.push(AgentEvent::Send {
                    to,
                    msg: KeyedDagMessage {
                        lock: key,
                        msg: message,
                    },
                }),
                Action::Enter => entered = true,
            }
        }
        if !entered {
            return;
        }
        let claim = self.claims.iter().position(|&(k, _)| k == key);
        let claim = claim.unwrap_or_else(|| panic!("entered {key} with no local claim"));
        if self.claims.swap_remove(claim).1 {
            events.push(AgentEvent::Bounced(key));
            // Exit never re-enters, so this recursion is one deep.
            self.release(key, events);
        } else {
            self.held.push(key);
            events.push(AgentEvent::Granted(key));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PRIVILEGE: DagMessage = DagMessage::Privilege;

    /// Node 1 of a three-node line whose tokens all start at node 0: an
    /// agent that holds nothing and requests through node 0.
    fn agent() -> KeyAgent {
        let tree = Arc::new(Tree::line(3));
        KeyAgent::new(NodeId(1), tree, Placement::Hub(NodeId(0)), 4)
    }

    fn keyed(lock: LockId, msg: DagMessage) -> KeyedDagMessage {
        KeyedDagMessage { lock, msg }
    }

    fn request(from: u32, origin: u32) -> DagMessage {
        DagMessage::Request {
            from: NodeId(from),
            origin: NodeId(origin),
        }
    }

    fn send(to: u32, lock: LockId, msg: DagMessage) -> AgentEvent {
        AgentEvent::Send {
            to: NodeId(to),
            msg: keyed(lock, msg),
        }
    }

    /// Runs `f` against a fresh event buffer and returns what it pushed.
    fn events(f: impl FnOnce(&mut Vec<AgentEvent>)) -> Vec<AgentEvent> {
        let mut events = Vec::new();
        f(&mut events);
        events
    }

    #[test]
    fn fresh_claim_is_issued_and_its_grant_is_granted() {
        let (mut a, key) = (agent(), LockId(3));
        let mut claim = None;
        let sent = events(|ev| claim = Some(a.acquire(key, ev)));
        assert_eq!(claim, Some(Claim::Issued));
        assert_eq!(sent, [send(0, key, request(1, 1))]);
        assert_eq!(a.claims(), [(key, false)]);
        let got = events(|ev| a.deliver(NodeId(0), keyed(key, PRIVILEGE), ev));
        assert_eq!(got, [AgentEvent::Granted(key)]);
        assert_eq!((a.claims(), a.held()), (&[][..], &[key][..]));
        assert_eq!(events(|ev| a.release(key, ev)), [], "nobody queued: parks");
        assert!(a.held().is_empty() && a.table().get(key).unwrap().holding());
    }

    #[test]
    fn abandoned_claim_is_bounced_and_the_token_moves_on() {
        let (mut a, key) = (agent(), LockId(0));
        events(|ev| _ = a.acquire(key, ev));
        assert_eq!(events(|ev| _ = a.abandon(key, ev)), []);
        assert_eq!(a.claims(), [(key, true)]);
        // Node 2 queues behind the abandoned request, then the token
        // arrives: in and straight out again, on to node 2.
        assert_eq!(
            events(|ev| a.deliver(NodeId(2), keyed(key, request(2, 2)), ev)),
            []
        );
        let got = events(|ev| a.deliver(NodeId(0), keyed(key, PRIVILEGE), ev));
        assert_eq!(got, [AgentEvent::Bounced(key), send(2, key, PRIVILEGE)]);
        assert!(a.claims().is_empty() && a.held().is_empty());
        assert!(!a.table().get(key).unwrap().has_token());
    }

    #[test]
    fn reacquire_adopts_the_abandoned_claim_without_a_send() {
        let (mut a, key) = (agent(), LockId(7));
        events(|ev| _ = a.acquire(key, ev));
        assert_eq!(a.abandon(key, &mut Vec::new()), Abandon::Marked);
        assert!(!a.try_acquire(key), "a claim in flight refuses a try");
        let mut claim = None;
        assert_eq!(events(|ev| claim = Some(a.acquire(key, ev))), []);
        assert_eq!(claim, Some(Claim::Adopted));
        let got = events(|ev| a.deliver(NodeId(0), keyed(key, PRIVILEGE), ev));
        assert_eq!(got, [AgentEvent::Granted(key)], "adoption kept the waiter");
    }

    #[test]
    fn abandon_after_the_grant_releases_and_again_is_stale() {
        let (mut a, key) = (agent(), LockId(1));
        events(|ev| _ = a.acquire(key, ev));
        events(|ev| a.deliver(NodeId(0), keyed(key, PRIVILEGE), ev));
        // Delivered; the user timed out anyway.
        assert_eq!(a.abandon(key, &mut Vec::new()), Abandon::Released);
        assert!(a.held().is_empty() && a.table().get(key).unwrap().holding());
        assert_eq!(a.abandon(key, &mut Vec::new()), Abandon::Stale);
        assert_eq!(a.abandon(LockId(2), &mut Vec::new()), Abandon::Stale);
        assert!(a.try_acquire(key), "the token is parked and idle");
    }

    #[test]
    fn abandoned_claims_for_other_keys_coexist_with_a_waiter() {
        let mut a = agent();
        events(|ev| _ = a.acquire(LockId(2), ev));
        a.abandon(LockId(2), &mut Vec::new());
        // A different key's claim proceeds while key 2's abandoned
        // request is still in flight.
        let sent = events(|ev| _ = a.acquire(LockId(5), ev));
        assert_eq!(sent, [send(0, LockId(5), request(1, 1))]);
        assert_eq!(a.claims(), [(LockId(2), true), (LockId(5), false)]);
        let got = events(|ev| a.deliver(NodeId(0), keyed(LockId(2), PRIVILEGE), ev));
        assert_eq!(got, [AgentEvent::Bounced(LockId(2))]);
        assert_eq!(a.claims(), [(LockId(5), false)]);
    }

    #[test]
    #[should_panic(expected = "second outstanding acquisition")]
    fn two_live_claims_are_a_driver_bug() {
        let mut a = agent();
        a.acquire(LockId(0), &mut Vec::new());
        a.acquire(LockId(1), &mut Vec::new());
    }
}
