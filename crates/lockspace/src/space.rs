//! The lock space proper: one [`Protocol`] instance per node hosting K
//! independent DAG-algorithm locks behind a single simulated network.
//!
//! ## How the multiplexing works
//!
//! Each node owns a sharded [`LockTable`] of per-key [`DagNode`]s,
//! lazily materialized, plus one per-node request stream from a
//! [`KeyedWorkload`]. The engine's single-lock request/enter/exit
//! machinery (and its single-occupant safety checker) cannot describe a
//! system where many keys are legitimately held at once, so the lock
//! space drives itself entirely through messages and the engine's timer
//! facility (`Ctx::wake_at`):
//!
//! * request arrivals are wake-ups scheduled from the node's stream;
//! * a granted key is held for the configured duration and released by
//!   another wake-up;
//! * per-key safety and liveness are checked by the *shared*
//!   [`KeyedSafetyChecker`]/[`KeyedLivenessChecker`] (one instance for
//!   the whole space, reachable from every node), and per-key counters
//!   roll up in a shared [`KeyedMetrics`].
//!
//! ## Batching
//!
//! Sends are staged rather than transmitted immediately, through the
//! node's [`Transport`] (see the [`transport`](crate::transport) module
//! — the same coalescing code the threaded `LockSpaceCluster` runs).
//! With batching on, a node keeps staging across *all* of its
//! dispatches until its [`FlushPolicy`]'s window closes, then flushes
//! once (a wake-up, which the engine orders after every same-tick
//! delivery): each destination then receives one pooled
//! [`Envelope::Batch`] (or a bare [`Envelope::One`]) per window, no
//! matter how many keys' messages piled up — this is how a busy node's
//! fan-out, e.g. a hub forwarding many keys' requests, collapses onto
//! the per-destination links.
//!
//! [`FlushPolicy::EveryTick`] flushes at the same tick the messages
//! were produced, adding no latency; [`FlushPolicy::Window`]`(k)`
//! holds traffic Nagle-style for up to `k` ticks, trading latency for
//! fewer, fatter envelopes. With batching off every message is
//! transmitted in its own envelope the moment its dispatch ends, which
//! makes per-key traffic match an equivalent single-lock run message
//! for message.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use dmx_core::{Action, DagMessage, DagNode, KeyedDagMessage, LockId};
use dmx_simnet::checker::{KeyedLivenessChecker, KeyedSafetyChecker, KeyedViolation};
use dmx_simnet::metrics::{Histogram, KeyStats, KeyedMetrics, KeyedRollup};
use dmx_simnet::{Ctx, MessageMeta, Protocol, Time};
use dmx_topology::{NodeId, Orientation, Tree};
use dmx_workload::{KeyStream, KeyedWorkload};

use crate::envelope::Envelope;
use crate::table::LockTable;
use crate::transport::{BatchPool, FlushPolicy, Transport};

/// Where each key's token starts (its *hub*): the sink of the key's
/// initial orientation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Key `k`'s hub is node `k mod n` — spreads the key space evenly
    /// over the nodes, the sharded-service default.
    Modulo,
    /// Every key's hub is one designated node — a centralized lock
    /// server built out of K DAG instances.
    Hub(NodeId),
    /// Per-key hub map: key `k`'s hub is `profile[k mod profile.len()]`
    /// — skew-aware placement, seeding each key's orientation DAG at
    /// the node a popularity profile names as its hottest (e.g. a
    /// workload's [`hub_profile`](dmx_workload::KeyedAffinity::hub_profile)).
    Profile(Arc<Vec<NodeId>>),
}

impl Placement {
    /// Checks the placement against an `n`-node tree, once, where a
    /// lock space is built — every constructor that takes a placement
    /// calls this, so [`Placement::hub`] cannot index out of range (or
    /// divide by an empty profile) later, on some node's first touch.
    ///
    /// # Panics
    ///
    /// Panics if a [`Placement::Hub`] or a [`Placement::Profile`] entry
    /// is not a node of the tree, or the profile is empty.
    pub fn validate(&self, n: usize) {
        match self {
            Placement::Modulo => {}
            Placement::Hub(h) => assert!(h.index() < n, "hub {h} out of range for {n} nodes"),
            Placement::Profile(profile) => {
                assert!(
                    !profile.is_empty(),
                    "placement profile must name at least one hub"
                );
                for h in profile.iter() {
                    assert!(h.index() < n, "profile hub {h} out of range for {n} nodes");
                }
            }
        }
    }

    /// The hub node for `key` in an `n`-node space.
    ///
    /// # Panics
    ///
    /// Panics if the placement is an empty [`Placement::Profile`]
    /// (rejected by [`Placement::validate`]).
    pub fn hub(&self, key: LockId, n: usize) -> NodeId {
        match self {
            Placement::Modulo => NodeId(key.0 % n as u32),
            Placement::Hub(h) => *h,
            Placement::Profile(p) => p[key.index() % p.len()],
        }
    }

    /// The materialization seed both lock-space runtimes (simulated and
    /// threaded) share: a fresh [`DagNode`] for `(me, key)` carrying
    /// `me`'s *initial* `NEXT` pointer toward the key's hub. Lazy
    /// materialization with this seed is sound no matter when it happens
    /// — see the [`table`](crate::table) module docs.
    pub fn initial_instance(
        &self,
        key: LockId,
        me: NodeId,
        tree: &Tree,
        cache: &mut OrientationCache,
    ) -> DagNode {
        let hub = self.hub(key, tree.len());
        DagNode::new(me, cache.next_hop(tree, hub, me))
    }
}

/// Lazily-filled cache of per-hub [`Orientation`]s: hub orientations are
/// computed on first touch (an O(n) walk each), so untouched hubs cost
/// nothing — the per-hub analogue of the lock table's lazy instances.
#[derive(Debug, Clone)]
pub struct OrientationCache {
    slots: Vec<Option<Orientation>>,
}

impl OrientationCache {
    /// An empty cache for an `n`-node tree.
    pub fn new(n: usize) -> Self {
        OrientationCache {
            slots: vec![None; n],
        }
    }

    /// `me`'s initial `NEXT` pointer toward `hub` (`None` when `me` *is*
    /// the hub), computing and caching `hub`'s orientation on first use.
    ///
    /// # Panics
    ///
    /// Panics if `hub` is out of range for `tree` or the cache.
    pub fn next_hop(&mut self, tree: &Tree, hub: NodeId, me: NodeId) -> Option<NodeId> {
        if self.slots[hub.index()].is_none() {
            self.slots[hub.index()] = Some(tree.orient_toward(hub));
        }
        self.slots[hub.index()]
            .as_ref()
            .expect("just cached")
            .next_hop(me)
    }
}

/// Holder-lease knobs: how long a node may keep serving a key's local
/// demand after a hold expires before the token must go back to the DAG.
///
/// While a node holds a key's privilege and its *own next request* for
/// the same key arrives within the lease window, the release is
/// deferred: the per-key instance stays `executing`, the privilege
/// cannot leave, and the re-grant is purely local — zero messages, zero
/// DAG hops. The lease cedes to the DAG when local demand moves on,
/// when the window closes, or when a queued remote REQUEST (the
/// instance's FOLLOW pointer) would be kept waiting past the fairness
/// budget — so remote waiters cannot starve (the keyed liveness oracle
/// checks the result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// Lease window in ticks: after a hold expires, a same-key local
    /// re-request arriving within this many ticks is granted locally.
    /// `0` disables leasing (the default) — the release path is then
    /// identical to the pre-lease behavior, trace for trace.
    pub window: u64,
    /// Fairness budget in ticks: a lease is refused when it would keep
    /// a queued remote REQUEST waiting longer than this between the
    /// moment it queued behind the holder and the end of the leased
    /// hold.
    pub fairness_budget: u64,
}

impl LeaseConfig {
    /// Leasing disabled (the default).
    pub const OFF: LeaseConfig = LeaseConfig {
        window: 0,
        fairness_budget: 0,
    };

    /// A lease of `window` ticks with a fairness budget of `budget`
    /// ticks.
    pub fn new(window: u64, budget: u64) -> Self {
        LeaseConfig {
            window,
            fairness_budget: budget,
        }
    }

    /// `true` when leasing is on.
    pub fn enabled(&self) -> bool {
        self.window > 0
    }
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig::OFF
    }
}

/// Lock-space parameters.
///
/// # Examples
///
/// ```
/// use dmx_lockspace::LockSpaceConfig;
///
/// let config = LockSpaceConfig { keys: 64, ..LockSpaceConfig::default() };
/// assert!(config.batching);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LockSpaceConfig {
    /// Number of independent locks (the key space is `0..keys`).
    pub keys: u32,
    /// Initial token placement per key.
    pub placement: Placement,
    /// How long a node holds a granted key before releasing it.
    pub hold: Time,
    /// Group same-destination sends into [`Envelope::Batch`]
    /// deliveries. Off, every keyed message is its own delivery —
    /// per-key message counts then match an equivalent single-lock run
    /// exactly, and `flush` is ignored.
    pub batching: bool,
    /// How long the transport coalesces before flushing (see
    /// [`FlushPolicy`]); only meaningful with `batching` on. Validated
    /// once at [`LockSpace::cluster`].
    pub flush: FlushPolicy,
    /// Shard count of each node's [`LockTable`].
    pub shards: usize,
    /// Trace per-request DAG path lengths (REQUEST hops from requester
    /// to the privilege holder) into a histogram reachable via
    /// [`LockSpaceMonitor::path_histogram`]. Off by default: the hot
    /// path then pays only an is-empty check on an always-empty vector.
    pub trace_paths: bool,
    /// Holder-lease knobs (see [`LeaseConfig`]); off by default.
    pub lease: LeaseConfig,
}

impl Default for LockSpaceConfig {
    fn default() -> Self {
        LockSpaceConfig {
            keys: 1,
            placement: Placement::Modulo,
            hold: Time(1),
            batching: true,
            flush: FlushPolicy::EveryTick,
            shards: 16,
            trace_paths: false,
            lease: LeaseConfig::OFF,
        }
    }
}

/// State shared by every node of one lock space (single-threaded, under
/// the engine): the per-key oracles, per-key metric rollups, the batch
/// buffer pool, and the per-hub orientation cache.
struct Shared {
    tree: Tree,
    safety: KeyedSafetyChecker,
    liveness: KeyedLivenessChecker,
    keyed: KeyedMetrics,
    /// Recycled batch payloads; see [`Envelope::Batch`].
    pool: BatchPool,
    /// Per-hub orientations, computed on first use.
    orientations: OrientationCache,
    /// First correctness violation observed, if any. Protocol callbacks
    /// cannot abort the engine, so violations are recorded here and
    /// surfaced through [`LockSpaceMonitor`].
    violation: Option<KeyedViolation>,
    /// Per-origin REQUEST hop counters, sized to the node count when
    /// `trace_paths` is on (empty — and costing one length check per
    /// delivery — when off). One slot per node suffices because the
    /// lock-space model allows one outstanding request per node.
    path_hops: Vec<u32>,
    /// Distribution of per-request DAG path lengths (0 for grants
    /// satisfied locally by a parked token).
    path_hist: Histogram,
    /// Grants served under a holder lease (zero messages, zero DAG
    /// hops), across the whole space.
    lease_grants: u64,
}

impl Shared {
    fn note(&mut self, err: Option<KeyedViolation>) {
        if self.violation.is_none() {
            self.violation = err;
        }
    }
}

/// What this node's local user is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between requests.
    Idle,
    /// A request for `key` is outstanding.
    Waiting {
        /// The requested key.
        key: LockId,
    },
    /// Inside `key`'s critical section until `until`.
    Holding {
        /// The held key.
        key: LockId,
        /// Scheduled release time.
        until: Time,
    },
    /// Between a hold and a leased local re-grant of the same key: the
    /// per-key instance is still `executing` (the DAG never saw an
    /// exit), and the re-grant fires at `at`.
    Leased {
        /// The leased key.
        key: LockId,
        /// When the local re-request arrives (the re-grant time).
        at: Time,
    },
}

/// One node of a lock space: the [`Protocol`] impl the engine drives.
///
/// Build a whole space with [`LockSpace::cluster`]; see the
/// [crate-level example](crate).
pub struct LockSpaceNode {
    me: NodeId,
    config: LockSpaceConfig,
    shared: Rc<RefCell<Shared>>,
    table: LockTable,
    stream: Box<dyn KeyStream>,
    /// The stream's next `(time, key)` request, once scheduled.
    next_arrival: Option<(Time, LockId)>,
    phase: Phase,
    /// Buffer the per-key [`DagNode`] handlers push [`Action`]s into.
    scratch: Vec<Action>,
    /// The coalescing transport: staged sends, destination grouping,
    /// and the flush-window bookkeeping (shared implementation with the
    /// threaded `LockSpaceCluster`).
    transport: Transport,
    /// When a remote REQUEST first queued behind this node's current
    /// occupancy (the instance's FOLLOW pointer became set), for the
    /// lease fairness budget. One slot suffices: FOLLOW only forms at
    /// the node currently requesting or executing a key, and this node
    /// does one key at a time. Cleared on the real DAG exit.
    lease_follow_since: Option<Time>,
}

impl LockSpaceNode {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The key this node currently holds, if any.
    pub fn holding_key(&self) -> Option<LockId> {
        match self.phase {
            Phase::Holding { key, .. } => Some(key),
            _ => None,
        }
    }

    /// The node's materialized per-key instances.
    pub fn table(&self) -> &LockTable {
        &self.table
    }

    /// Keys whose token (PRIVILEGE) is currently parked at this node.
    pub fn token_keys(&self) -> impl Iterator<Item = LockId> + '_ {
        self.table
            .iter()
            .filter(|(_, node)| node.has_token())
            .map(|(key, _)| key)
    }

    /// The key's instance at this node, materialized on first touch with
    /// its initial orientation via [`Placement::initial_instance`] (sound
    /// even when the token has long moved — see the
    /// [`table`](crate::table) module docs).
    fn instance(&mut self, key: LockId) -> &mut DagNode {
        let me = self.me;
        let placement = self.config.placement.clone();
        let shared = &self.shared;
        self.table.get_or_insert_with(key, move || {
            let mut sh = shared.borrow_mut();
            let Shared {
                tree, orientations, ..
            } = &mut *sh;
            placement.initial_instance(key, me, tree, orientations)
        })
    }

    /// Issues the local user's request for `key` right now.
    fn issue(&mut self, key: LockId, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        debug_assert_eq!(self.phase, Phase::Idle, "issue() while not idle");
        {
            let mut sh = self.shared.borrow_mut();
            let r = sh.liveness.on_request(self.me, key.index(), now).err();
            sh.note(r);
            sh.keyed.on_request(key.index());
            if let Some(hops) = sh.path_hops.get_mut(self.me.index()) {
                *hops = 0;
            }
        }
        self.phase = Phase::Waiting { key };
        let mut scratch = std::mem::take(&mut self.scratch);
        self.instance(key).request_into(&mut scratch);
        self.scratch = scratch;
        self.apply_actions(key, ctx);
    }

    /// The local request for `key` was granted.
    fn granted(&mut self, key: LockId, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        debug_assert_eq!(
            self.phase,
            Phase::Waiting { key },
            "grant without a matching wait"
        );
        {
            let mut sh = self.shared.borrow_mut();
            let wait = match sh.liveness.on_grant(self.me, key.index(), now) {
                Ok(requested_at) => now.saturating_since(requested_at).ticks(),
                Err(v) => {
                    sh.note(Some(v));
                    0
                }
            };
            let r = sh.safety.on_enter(key.index(), self.me, now).err();
            sh.note(r);
            sh.keyed.on_grant(key.index(), wait);
            if let Some(&hops) = sh.path_hops.get(self.me.index()) {
                sh.path_hist.record(u64::from(hops));
            }
        }
        let until = now + self.config.hold;
        self.phase = Phase::Holding { key, until };
        ctx.wake_at(until);
    }

    /// The hold on `key` expired: leave the critical section, hand the
    /// token on if someone follows, and line up the next request.
    ///
    /// With a lease window configured, the stream is peeked *before*
    /// the DAG exit: when this node's own next request is for the same
    /// key, lands within the window, and no remote waiter is past the
    /// fairness budget, the exit is deferred — the instance stays
    /// `executing`, the privilege cannot leave, and the re-grant at the
    /// arrival time is purely local. With the window at 0 (leases off)
    /// the peek is skipped entirely and this path is the pre-lease
    /// behavior, trace for trace.
    fn release(&mut self, key: LockId, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        {
            let mut sh = self.shared.borrow_mut();
            let r = sh.safety.on_exit(key.index(), self.me, now).err();
            sh.note(r);
        }
        if self.config.lease.enabled() {
            // Pulling early is sound: `next_arrival` is never occupied
            // while Holding (arrivals are consumed by `issue` and only
            // re-pulled here or at init).
            debug_assert!(self.next_arrival.is_none(), "arrival pending during a hold");
            self.next_arrival = self.stream.next_request(now);
            if let Some((at, next_key)) = self.next_arrival {
                debug_assert!(at >= now, "streams must not request in the past");
                if next_key == key
                    && at.saturating_since(now).ticks() <= self.config.lease.window
                    && self.lease_is_fair(at)
                {
                    self.next_arrival = None;
                    self.phase = Phase::Leased { key, at };
                    if at <= now {
                        self.regrant(ctx);
                    } else {
                        ctx.wake_at(at);
                    }
                    return;
                }
            }
        }
        self.table
            .get_mut(key)
            .expect("held key is materialized")
            .exit_into(&mut self.scratch);
        self.lease_follow_since = None;
        self.phase = Phase::Idle;
        self.apply_actions(key, ctx);
        let arrival = match self.next_arrival.take() {
            pulled @ Some(_) => pulled, // the declined lease peek
            None => self.stream.next_request(now),
        };
        if let Some((at, next_key)) = arrival {
            debug_assert!(at >= now, "streams must not request in the past");
            if at == now {
                // Issue in this dispatch: the fresh REQUEST shares the
                // staging pass — and possibly an envelope — with the
                // hand-off traffic above. This is where batching starts.
                self.issue(next_key, ctx);
            } else {
                self.next_arrival = Some((at, next_key));
                ctx.wake_at(at);
            }
        }
    }

    /// A lease extending this node's occupancy of the key until
    /// `at + hold` is fair iff no queued remote waiter would have been
    /// deferred longer than the fairness budget by then.
    fn lease_is_fair(&self, at: Time) -> bool {
        match self.lease_follow_since {
            None => true,
            Some(since) => {
                (at + self.config.hold).saturating_since(since).ticks()
                    <= self.config.lease.fairness_budget
            }
        }
    }

    /// A leased re-grant fires: the local user re-enters `key`'s
    /// critical section with the DAG never having seen an exit. The
    /// request and grant still flow through the per-key oracles and
    /// counters — a leased grant is a real grant with a zero-hop path.
    fn regrant(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let Phase::Leased { key, at } = self.phase else {
            unreachable!("regrant outside a lease");
        };
        let now = ctx.now();
        debug_assert!(at <= now, "regrant before the leased arrival");
        {
            let mut sh = self.shared.borrow_mut();
            let r = sh.liveness.on_request(self.me, key.index(), now).err();
            sh.note(r);
            sh.keyed.on_request(key.index());
            let wait = match sh.liveness.on_grant(self.me, key.index(), now) {
                Ok(requested_at) => now.saturating_since(requested_at).ticks(),
                Err(v) => {
                    sh.note(Some(v));
                    0
                }
            };
            let r = sh.safety.on_enter(key.index(), self.me, now).err();
            sh.note(r);
            sh.keyed.on_grant(key.index(), wait);
            if !sh.path_hops.is_empty() {
                sh.path_hist.record(0);
            }
            sh.lease_grants += 1;
        }
        let until = now + self.config.hold;
        self.phase = Phase::Holding { key, until };
        ctx.wake_at(until);
    }

    /// One keyed message arrived (already unwrapped from its envelope).
    fn deliver(&mut self, from: NodeId, keyed: KeyedDagMessage, ctx: &mut Ctx<'_, Envelope>) {
        let key = keyed.lock;
        {
            let mut sh = self.shared.borrow_mut();
            sh.keyed.on_message(key.index(), keyed.msg.kind());
            // Path tracing: every delivery of a REQUEST still carrying
            // `origin` is one hop of that request's DAG path.
            if let DagMessage::Request { origin, .. } = keyed.msg {
                if let Some(hops) = sh.path_hops.get_mut(origin.index()) {
                    *hops += 1;
                }
            }
        }
        match keyed.msg {
            DagMessage::Request { from: link, origin } => {
                debug_assert_eq!(link, from, "REQUEST's X field must match the wire sender");
                let mut scratch = std::mem::take(&mut self.scratch);
                self.instance(key)
                    .receive_request_into(from, origin, &mut scratch);
                self.scratch = scratch;
            }
            DagMessage::Privilege => {
                self.table
                    .get_mut(key)
                    .expect("PRIVILEGE only travels to a node that requested")
                    .receive_privilege_into(&mut self.scratch);
            }
            DagMessage::Initialize => {
                unreachable!("lock spaces are pre-oriented; no INITIALIZE flood")
            }
        }
        self.apply_actions(key, ctx);
        // Lease fairness: note when a remote REQUEST first queues behind
        // this node's occupancy of the key (the instance's FOLLOW
        // pointer forms) — the budget clock starts here.
        if self.config.lease.enabled() && self.lease_follow_since.is_none() {
            let ours = match self.phase {
                Phase::Waiting { key: k }
                | Phase::Holding { key: k, .. }
                | Phase::Leased { key: k, .. } => k == key,
                Phase::Idle => false,
            };
            if ours
                && self
                    .table
                    .get(key)
                    .is_some_and(|inst| inst.follow().is_some())
            {
                self.lease_follow_since = Some(ctx.now());
            }
        }
    }

    /// Drains the per-key handler's actions: sends are staged (tagged
    /// with `key`), an entry becomes a grant.
    fn apply_actions(&mut self, key: LockId, ctx: &mut Ctx<'_, Envelope>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for action in scratch.drain(..) {
            match action {
                Action::Send { to, message } => self.transport.stage(
                    to,
                    KeyedDagMessage {
                        lock: key,
                        msg: message,
                    },
                ),
                Action::Enter => self.granted(key, ctx),
            }
        }
        debug_assert!(self.scratch.is_empty(), "nested apply_actions");
        self.scratch = scratch;
    }

    /// Ends a dispatch: with batching off, transmit everything staged
    /// right away (one envelope per message); with batching on, make
    /// sure a flush wake is booked per the transport's [`FlushPolicy`].
    fn end_dispatch(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if !self.config.batching {
            self.transport
                .drain_unbatched(|to, keyed| ctx.send(to, Envelope::One(keyed)));
            return;
        }
        if let Some(at) = self.transport.after_dispatch(ctx.now()) {
            ctx.wake_at(at);
        }
    }

    /// Transmits everything staged through the transport: one pooled
    /// [`Envelope::Batch`] (or bare [`Envelope::One`]) per destination.
    fn flush_now(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let mut sh = self.shared.borrow_mut();
        self.transport
            .flush(&mut sh.pool, |dst, envelope| ctx.send(dst, envelope));
    }
}

impl Protocol for LockSpaceNode {
    type Message = Envelope;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if let Some((at, key)) = self.stream.next_request(Time::ZERO) {
            self.next_arrival = Some((at, key));
            ctx.wake_at(at);
        }
    }

    fn on_request_cs(&mut self, _ctx: &mut Ctx<'_, Envelope>) {
        unreachable!(
            "lock spaces drive demand through their keyed streams; \
             use the workload, not Engine::request_at"
        );
    }

    fn on_message(&mut self, from: NodeId, msg: Envelope, ctx: &mut Ctx<'_, Envelope>) {
        match msg {
            Envelope::One(keyed) => self.deliver(from, keyed, ctx),
            Envelope::Batch(mut batch) => {
                for keyed in batch.drain(..) {
                    self.deliver(from, keyed, ctx);
                }
                // The drained payload returns to the pool for reuse.
                self.shared.borrow_mut().pool.put(batch);
            }
        }
        self.end_dispatch(ctx);
    }

    fn on_exit_cs(&mut self, _ctx: &mut Ctx<'_, Envelope>) {
        unreachable!("lock spaces never call enter_cs, so the engine never schedules an exit");
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        if let Phase::Holding { key, until } = self.phase {
            if until <= now {
                self.release(key, ctx);
            }
        }
        if let Phase::Leased { at, .. } = self.phase {
            if at <= now {
                self.regrant(ctx);
            }
        }
        if self.phase == Phase::Idle {
            if let Some((at, key)) = self.next_arrival {
                if at <= now {
                    self.next_arrival = None;
                    self.issue(key, ctx);
                }
            }
        }
        if self.transport.flush_due(now) {
            // This wake is the flush point of the open coalescing
            // window; everything staged since it opened leaves now
            // (including anything the release/issue above just staged).
            self.flush_now(ctx);
        } else {
            self.end_dispatch(ctx);
        }
    }

    fn storage_words(&self) -> usize {
        // Three words per materialized instance (Chapter 6.4 per key),
        // plus the node's own phase/arrival bookkeeping.
        3 * self.table.len() + 4
    }
}

/// Builder for a whole lock space.
pub struct LockSpace;

impl LockSpace {
    /// One [`LockSpaceNode`] per node of `tree`, sharing one set of
    /// per-key oracles and rollups reachable through the returned
    /// [`LockSpaceMonitor`]. Each node's request stream comes from
    /// `workload`.
    ///
    /// # Panics
    ///
    /// Panics if `config.keys == 0`, `config.shards == 0`,
    /// `config.flush` is invalid (see [`FlushPolicy::validate`]), or the
    /// placement is (see [`Placement::validate`]).
    pub fn cluster(
        tree: &Tree,
        config: LockSpaceConfig,
        workload: &dyn KeyedWorkload,
    ) -> (Vec<LockSpaceNode>, LockSpaceMonitor) {
        assert!(config.keys > 0, "lock space needs at least one key");
        config.flush.validate();
        let n = tree.len();
        config.placement.validate(n);
        let shared = Rc::new(RefCell::new(Shared {
            tree: tree.clone(),
            safety: KeyedSafetyChecker::with_keys(config.keys as usize),
            liveness: KeyedLivenessChecker::with_nodes(n),
            keyed: KeyedMetrics::with_keys(config.keys as usize).with_per_key_histograms(),
            pool: BatchPool::new(),
            orientations: OrientationCache::new(n),
            violation: None,
            path_hops: if config.trace_paths {
                vec![0; n]
            } else {
                Vec::new()
            },
            path_hist: Histogram::default(),
            lease_grants: 0,
        }));
        let nodes = tree
            .nodes()
            .map(|id| LockSpaceNode {
                me: id,
                config: config.clone(),
                shared: Rc::clone(&shared),
                table: LockTable::new(config.shards),
                stream: workload.stream(id),
                next_arrival: None,
                phase: Phase::Idle,
                scratch: Vec::new(),
                transport: Transport::new(n, config.flush),
                lease_follow_since: None,
            })
            .collect();
        (nodes, LockSpaceMonitor { shared })
    }
}

/// Observer handle over a running (or finished) lock space: per-key
/// occupancy, metric rollups, and the verdicts of the per-key safety and
/// liveness oracles.
pub struct LockSpaceMonitor {
    shared: Rc<RefCell<Shared>>,
}

impl LockSpaceMonitor {
    /// The first correctness violation observed, if any. `None` is the
    /// per-key safety verdict every healthy run must end with.
    pub fn violation(&self) -> Option<KeyedViolation> {
        self.shared.borrow().violation
    }

    /// The node currently inside `key`'s critical section, if any.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn occupant(&self, key: LockId) -> Option<NodeId> {
        self.shared.borrow().safety.occupant(key.index())
    }

    /// Keys currently held, across the whole space.
    pub fn concurrent_holders(&self) -> usize {
        self.shared.borrow().safety.concurrent()
    }

    /// Most keys ever held at the same instant — the concurrency a
    /// single-lock system can never exhibit.
    pub fn peak_concurrent_holders(&self) -> usize {
        self.shared.borrow().safety.peak_concurrent()
    }

    /// Requests currently waiting, across all nodes and keys.
    pub fn pending_requests(&self) -> usize {
        self.shared.borrow().liveness.pending_count()
    }

    /// Per-key counters for `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn key_stats(&self, key: LockId) -> KeyStats {
        *self.shared.borrow().keyed.stats(key.index())
    }

    /// Whole-space rollup of the per-key counters.
    pub fn rollup(&self) -> KeyedRollup {
        self.shared.borrow().keyed.rollup()
    }

    /// The global request→grant wait distribution.
    pub fn wait_histogram(&self) -> Histogram {
        *self.shared.borrow().keyed.wait_histogram()
    }

    /// The wait distribution for one key (per-key histograms are always
    /// on in the simulated lock space).
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn key_wait_histogram(&self, key: LockId) -> Histogram {
        *self
            .shared
            .borrow()
            .keyed
            .key_wait_histogram(key.index())
            .expect("lock spaces record per-key histograms")
    }

    /// The per-request DAG path-length distribution (REQUEST hops from
    /// requester to privilege holder; 0 for locally-parked grants).
    /// Empty unless [`LockSpaceConfig::trace_paths`] was set.
    pub fn path_histogram(&self) -> Histogram {
        self.shared.borrow().path_hist
    }

    /// Grants served under a holder lease — local re-grants that moved
    /// zero messages and zero DAG hops. Always 0 with leases off.
    pub fn lease_grants(&self) -> u64 {
        self.shared.borrow().lease_grants
    }

    /// The `grants`-hottest keys, hottest first (ties by key id).
    pub fn hottest_keys(&self, count: usize) -> Vec<(LockId, KeyStats)> {
        let sh = self.shared.borrow();
        let mut all: Vec<(LockId, KeyStats)> = sh
            .keyed
            .iter_touched()
            .map(|(k, s)| (LockId::from_index(k), *s))
            .collect();
        all.sort_by_key(|&(k, s)| (std::cmp::Reverse(s.grants), k.0));
        all.truncate(count);
        all
    }

    /// Full-run verdict once the engine has quiesced.
    ///
    /// # Errors
    ///
    /// The first recorded [`KeyedViolation`], or a keyed starvation if
    /// any request is still pending.
    pub fn check_quiescent(&self) -> Result<(), KeyedViolation> {
        let sh = self.shared.borrow();
        if let Some(v) = sh.violation {
            return Err(v);
        }
        sh.liveness.at_quiescence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_simnet::{Engine, EngineConfig, LatencyModel};
    use dmx_workload::{KeyDist, KeyedSchedule, KeyedThinkTime};

    fn quiet() -> EngineConfig {
        EngineConfig {
            record_trace: false,
            ..EngineConfig::default()
        }
    }

    /// Runs `workload` over `tree` and returns (engine, monitor).
    fn run(
        tree: &Tree,
        config: LockSpaceConfig,
        workload: &dyn KeyedWorkload,
    ) -> (Engine<LockSpaceNode>, LockSpaceMonitor) {
        let (nodes, monitor) = LockSpace::cluster(tree, config, workload);
        let mut engine = Engine::new(nodes, quiet());
        engine.run_to_quiescence().expect("run completes");
        monitor.check_quiescent().expect("no keyed violation");
        (engine, monitor)
    }

    #[test]
    fn single_key_single_request_matches_the_paper_bound() {
        // One key hubbed at a star leaf, requested from another leaf:
        // REQUEST, REQUEST, PRIVILEGE — the paper's bound of 3.
        let tree = Tree::star(8);
        let mut sched = KeyedSchedule::new(8);
        sched.push(NodeId(5), Time(0), LockId(0));
        let config = LockSpaceConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(3)),
            ..LockSpaceConfig::default()
        };
        let (engine, monitor) = run(&tree, config, &sched);
        let stats = monitor.key_stats(LockId(0));
        assert_eq!(stats.grants, 1);
        assert_eq!(stats.request_messages, 2);
        assert_eq!(stats.privilege_messages, 1);
        assert_eq!(engine.metrics().messages_total, 3);
        assert_eq!(monitor.rollup().keys_touched, 1);
    }

    #[test]
    fn distinct_keys_are_held_concurrently() {
        // Every node grabs its own hub key at t = 0 and holds for 10
        // ticks: all n holds overlap.
        let n = 6;
        let tree = Tree::kary(n, 2);
        let mut sched = KeyedSchedule::new(n);
        for i in 0..n {
            sched.push(NodeId::from_index(i), Time(0), LockId(i as u32));
        }
        let config = LockSpaceConfig {
            keys: n as u32,
            placement: Placement::Modulo,
            hold: Time(10),
            ..LockSpaceConfig::default()
        };
        let (engine, monitor) = run(&tree, config, &sched);
        assert_eq!(monitor.peak_concurrent_holders(), n);
        assert_eq!(monitor.rollup().grants, n as u64);
        // Hub keys grant locally: zero network traffic.
        assert_eq!(engine.metrics().messages_total, 0);
    }

    #[test]
    fn same_key_is_never_held_concurrently_under_contention() {
        let n = 9;
        let tree = Tree::kary(n, 2);
        let workload = KeyedThinkTime::new(
            4,
            KeyDist::Zipf { exponent: 1.5 },
            LatencyModel::Fixed(Time(0)),
            25,
            7,
        );
        let config = LockSpaceConfig {
            keys: 4,
            hold: Time(2),
            ..LockSpaceConfig::default()
        };
        let (_, monitor) = run(&tree, config, &workload);
        assert_eq!(monitor.rollup().grants, 25 * n as u64);
        assert!(monitor.violation().is_none());
    }

    #[test]
    fn untouched_keys_cost_nothing() {
        let tree = Tree::line(4);
        let mut sched = KeyedSchedule::new(4);
        sched.push(NodeId(3), Time(0), LockId(17));
        let config = LockSpaceConfig {
            keys: 4096,
            placement: Placement::Hub(NodeId(0)),
            ..LockSpaceConfig::default()
        };
        let (engine, monitor) = run(&tree, config, &sched);
        // Only key 17 materialized, and only along the request path.
        for node in engine.nodes() {
            assert!(
                node.table().len() <= 1,
                "node {} over-materialized",
                node.id()
            );
        }
        assert_eq!(monitor.rollup().keys_touched, 1);
        assert_eq!(monitor.key_stats(LockId(17)).grants, 1);
        assert_eq!(monitor.key_stats(LockId(16)).grants, 0);
    }

    #[test]
    fn batching_reduces_envelopes_without_changing_keyed_traffic() {
        let n = 7;
        let tree = Tree::star(n);
        let make = |batching| {
            let workload = KeyedThinkTime::new(
                8,
                KeyDist::Uniform,
                LatencyModel::Fixed(Time(0)), // saturated: think time zero
                40,
                11,
            );
            let config = LockSpaceConfig {
                keys: 8,
                placement: Placement::Hub(NodeId(0)),
                hold: Time(0),
                batching,
                ..LockSpaceConfig::default()
            };
            run(&tree, config, &workload)
        };
        let (engine_on, monitor_on) = make(true);
        let (engine_off, monitor_off) = make(false);
        // The demand served is identical either way (same workload)...
        assert_eq!(monitor_on.rollup().grants, monitor_off.rollup().grants);
        assert_eq!(monitor_on.rollup().requests, monitor_off.rollup().requests);
        // ...but with batching on there are fewer simulated deliveries
        // than keyed messages (multiplexing is real), fewer than the
        // unbatched run pays, and some envelopes are multi-key batches.
        // (Keyed message *totals* may differ by a hair between the two
        // runs: batching changes same-tick interleaving, which the
        // path-reversal algorithm's message count is sensitive to.)
        let on = engine_on.metrics();
        let off = engine_off.metrics();
        assert!(on.messages_total < off.messages_total);
        assert!(on.messages_total < monitor_on.rollup().messages);
        assert!(on.kind_count("BATCH") > 0, "no batch ever formed");
        assert_eq!(monitor_off.rollup().messages, off.messages_total);
    }

    #[test]
    fn window_flush_coalesces_across_ticks() {
        // A hub granting keys requested on *different* ticks: EveryTick
        // flushes each tick separately, a 16-tick window merges ticks —
        // fewer envelopes for the same keyed traffic and the same
        // demand served.
        let n = 7;
        let make = |flush| {
            let tree = Tree::star(n);
            let workload = KeyedThinkTime::new(
                8,
                KeyDist::Uniform,
                LatencyModel::Uniform {
                    lo: Time(1),
                    hi: Time(6),
                },
                40,
                11,
            );
            let config = LockSpaceConfig {
                keys: 8,
                placement: Placement::Hub(NodeId(0)),
                hold: Time(0),
                flush,
                ..LockSpaceConfig::default()
            };
            run(&tree, config, &workload)
        };
        let (engine_tick, monitor_tick) = make(FlushPolicy::EveryTick);
        let (engine_win, monitor_win) = make(FlushPolicy::Window(16));
        assert_eq!(monitor_tick.rollup().grants, monitor_win.rollup().grants);
        assert!(
            engine_win.metrics().messages_total < engine_tick.metrics().messages_total,
            "window {} !< every-tick {}",
            engine_win.metrics().messages_total,
            engine_tick.metrics().messages_total
        );
        // The latency side of the tradeoff: holding traffic for a
        // window can only lengthen waits.
        assert!(monitor_win.rollup().mean_wait_ticks >= monitor_tick.rollup().mean_wait_ticks);
    }

    #[test]
    fn adaptive_flush_stays_between_tick_and_max_window() {
        let n = 7;
        let make = |flush| {
            let tree = Tree::star(n);
            let workload = KeyedThinkTime::new(
                8,
                KeyDist::Uniform,
                LatencyModel::Uniform {
                    lo: Time(1),
                    hi: Time(6),
                },
                40,
                11,
            );
            let config = LockSpaceConfig {
                keys: 8,
                placement: Placement::Hub(NodeId(0)),
                hold: Time(0),
                flush,
                ..LockSpaceConfig::default()
            };
            run(&tree, config, &workload)
        };
        let (engine_tick, monitor_tick) = make(FlushPolicy::EveryTick);
        let (engine_adaptive, monitor_adaptive) = make(FlushPolicy::Adaptive {
            target_per_dst: 3.0,
            max_window: 16,
        });
        assert_eq!(
            monitor_tick.rollup().grants,
            monitor_adaptive.rollup().grants
        );
        assert!(engine_adaptive.metrics().messages_total <= engine_tick.metrics().messages_total);
    }

    #[test]
    #[should_panic(expected = "Window needs >= 1 tick")]
    fn zero_tick_window_is_rejected_at_cluster_construction() {
        let tree = Tree::star(3);
        let sched = KeyedSchedule::new(3);
        let config = LockSpaceConfig {
            flush: FlushPolicy::Window(0),
            ..LockSpaceConfig::default()
        };
        let _ = LockSpace::cluster(&tree, config, &sched);
    }

    #[test]
    #[should_panic(expected = "target_per_dst must be finite")]
    fn nan_adaptive_target_is_rejected_at_cluster_construction() {
        let tree = Tree::star(3);
        let sched = KeyedSchedule::new(3);
        let config = LockSpaceConfig {
            flush: FlushPolicy::Adaptive {
                target_per_dst: f64::INFINITY,
                max_window: 4,
            },
            ..LockSpaceConfig::default()
        };
        let _ = LockSpace::cluster(&tree, config, &sched);
    }

    #[test]
    fn tokens_park_where_demand_is() {
        // A single hot node hammers one key: after the first grant the
        // token parks there and re-entries are free.
        let tree = Tree::line(3);
        let mut sched = KeyedSchedule::new(3);
        for round in 0..10u64 {
            sched.push(NodeId(2), Time(round * 50), LockId(0));
        }
        let config = LockSpaceConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(0)),
            ..LockSpaceConfig::default()
        };
        let (engine, monitor) = run(&tree, config, &sched);
        assert_eq!(monitor.key_stats(LockId(0)).grants, 10);
        // 2 REQUEST hops + 1 PRIVILEGE... PRIVILEGE goes direct: the
        // first acquisition costs 3, the other nine are local.
        assert_eq!(engine.metrics().messages_total, 3);
        assert!(engine.node(NodeId(2)).token_keys().any(|k| k == LockId(0)));
    }

    #[test]
    fn path_tracing_counts_request_hops() {
        // Hub at one end of a 4-node line, requester at the other: the
        // first REQUEST travels 3 hops; after the token parks at the
        // requester, the re-request is a 0-hop local grant.
        let make = |trace_paths| {
            let tree = Tree::line(4);
            let mut sched = KeyedSchedule::new(4);
            sched.push(NodeId(3), Time(0), LockId(0));
            sched.push(NodeId(3), Time(100), LockId(0));
            let config = LockSpaceConfig {
                keys: 1,
                placement: Placement::Hub(NodeId(0)),
                trace_paths,
                ..LockSpaceConfig::default()
            };
            run(&tree, config, &sched).1
        };
        let monitor = make(true);
        let h = monitor.path_histogram();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 3);
        assert_eq!(
            h.iter_buckets().collect::<Vec<_>>(),
            vec![(0, 0, 1), (2, 3, 1)]
        );
        // With tracing off (the default) the histogram stays empty —
        // and the wait histograms record either way.
        let off = make(false);
        assert!(off.path_histogram().is_empty());
        assert_eq!(off.wait_histogram().count(), 2);
        assert_eq!(off.key_wait_histogram(LockId(0)).count(), 2);
    }

    #[test]
    fn leased_regrants_move_no_messages() {
        // A single hot node hammers one key with short think times: with
        // a lease window covering the think time, every re-entry after
        // the first acquisition is a leased local grant — the wire sees
        // only the initial acquisition, and every re-grant is counted.
        let tree = Tree::line(3);
        let mut sched = KeyedSchedule::new(3);
        for round in 0..10u64 {
            sched.push(NodeId(2), Time(round * 3), LockId(0));
        }
        let config = LockSpaceConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(0)),
            hold: Time(1),
            lease: LeaseConfig::new(8, 64),
            ..LockSpaceConfig::default()
        };
        let (engine, monitor) = run(&tree, config, &sched);
        assert_eq!(monitor.key_stats(LockId(0)).grants, 10);
        assert_eq!(monitor.lease_grants(), 9, "all re-entries leased");
        // 2 REQUEST hops + 1 direct PRIVILEGE for the first acquisition;
        // nothing after.
        assert_eq!(engine.metrics().messages_total, 3);
    }

    #[test]
    fn lease_cedes_to_a_remote_waiter_past_the_fairness_budget() {
        // Node 2 hammers key 0 back to back; node 0 asks once at t=5.
        // With a generous window but a tight fairness budget, the lease
        // must break soon after node 0's REQUEST queues, and node 0's
        // wait stays bounded by budget + transfer.
        let tree = Tree::line(3);
        let mut sched = KeyedSchedule::new(3);
        for round in 0..30u64 {
            sched.push(NodeId(2), Time(round * 2), LockId(0));
        }
        sched.push(NodeId(0), Time(5), LockId(0));
        let budget = 6u64;
        let config = LockSpaceConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(2)),
            hold: Time(1),
            lease: LeaseConfig::new(16, budget),
            ..LockSpaceConfig::default()
        };
        let (_, monitor) = run(&tree, config, &sched);
        assert_eq!(monitor.key_stats(LockId(0)).grants, 31);
        assert!(monitor.lease_grants() > 0, "leases never engaged");
        assert!(
            monitor.lease_grants() < 30,
            "lease never ceded to the remote waiter"
        );
        // The remote waiter's wait is bounded: budget plus the 2-hop
        // REQUEST it already paid and the direct PRIVILEGE transfer.
        let h = monitor.key_wait_histogram(LockId(0));
        assert!(
            h.max() <= budget + 4,
            "remote wait {} exceeds fairness budget {budget} + transfer",
            h.max()
        );
    }

    #[test]
    fn lease_off_is_the_default_and_counts_nothing() {
        let tree = Tree::line(3);
        let mut sched = KeyedSchedule::new(3);
        for round in 0..5u64 {
            sched.push(NodeId(2), Time(round * 3), LockId(0));
        }
        let config = LockSpaceConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(0)),
            ..LockSpaceConfig::default()
        };
        assert!(!config.lease.enabled());
        let (_, monitor) = run(&tree, config, &sched);
        assert_eq!(monitor.lease_grants(), 0);
    }

    #[test]
    fn profile_placement_parks_each_key_at_its_named_hub() {
        // Keys 0/1/2 hubbed at nodes 2/0/1: each node requests "its" key
        // at t=0 and grants locally — zero traffic, like Modulo's
        // aligned case but under an arbitrary map.
        let tree = Tree::line(3);
        let profile = Arc::new(vec![NodeId(2), NodeId(0), NodeId(1)]);
        let mut sched = KeyedSchedule::new(3);
        sched.push(NodeId(2), Time(0), LockId(0));
        sched.push(NodeId(0), Time(0), LockId(1));
        sched.push(NodeId(1), Time(0), LockId(2));
        let config = LockSpaceConfig {
            keys: 3,
            placement: Placement::Profile(profile),
            ..LockSpaceConfig::default()
        };
        let (engine, monitor) = run(&tree, config, &sched);
        assert_eq!(monitor.rollup().grants, 3);
        assert_eq!(engine.metrics().messages_total, 0, "all grants local");
    }

    #[test]
    #[should_panic(expected = "profile hub")]
    fn out_of_range_profile_hub_is_rejected_at_cluster_construction() {
        let tree = Tree::star(3);
        let sched = KeyedSchedule::new(3);
        let config = LockSpaceConfig {
            placement: Placement::Profile(Arc::new(vec![NodeId(7)])),
            ..LockSpaceConfig::default()
        };
        let _ = LockSpace::cluster(&tree, config, &sched);
    }

    #[test]
    #[should_panic(expected = "at least one hub")]
    fn empty_profile_is_rejected_at_cluster_construction() {
        let tree = Tree::star(3);
        let sched = KeyedSchedule::new(3);
        let config = LockSpaceConfig {
            placement: Placement::Profile(Arc::new(Vec::new())),
            ..LockSpaceConfig::default()
        };
        let _ = LockSpace::cluster(&tree, config, &sched);
    }

    #[test]
    fn storage_scales_with_materialized_keys_only() {
        let tree = Tree::line(2);
        let mut sched = KeyedSchedule::new(2);
        for k in 0..5u32 {
            sched.push(NodeId(1), Time(u64::from(k) * 100), LockId(2 * k));
        }
        let config = LockSpaceConfig {
            keys: 1000,
            placement: Placement::Hub(NodeId(0)),
            ..LockSpaceConfig::default()
        };
        let (engine, _) = run(&tree, config, &sched);
        // 5 materialized instances on each of the two nodes.
        assert_eq!(engine.node(NodeId(1)).storage_words(), 3 * 5 + 4);
    }
}
