//! The lock space's coalescing transport: staging, destination
//! grouping, pooled envelopes, and Nagle-style flush windows.
//!
//! PR 2 embedded batching inside the simulated `LockSpaceNode`: sends
//! were staged per dispatch and flushed once at the end of the tick.
//! That coalesces within one tick and one node only. This module
//! extracts the whole mechanism into a first-class transport layer that
//! **both** lock-space runtimes share:
//!
//! * the simulated [`LockSpace`](crate::LockSpace), which drives flush
//!   deadlines through the engine's `Ctx::wake_at` timer facility, and
//! * the threaded `LockSpaceCluster` in `dmx-runtime`, whose shard
//!   threads each stage into their own [`Transport`] and flush through
//!   the very same grouping code.
//!
//! The transport's [`FlushPolicy`] makes the latency-vs-envelope-count
//! tradeoff a measured knob instead of a hardwired behavior:
//!
//! * [`FlushPolicy::EveryTick`] — flush at the end of the tick the
//!   traffic was produced in (PR 2's behavior; zero added latency).
//! * [`FlushPolicy::Window`]`(k)` — Nagle-style: the first staged
//!   message opens a `k`-tick coalescing window; everything staged
//!   before the window closes rides the same per-destination envelopes.
//!   Trades up to `k - 1` ticks of latency for fewer, fatter envelopes.
//! * [`FlushPolicy::Adaptive`] — a `Window` that closes early the
//!   moment batches are already fat (staged messages per destination
//!   reached a target), so a loaded node flushes promptly and an idle
//!   one waits out the window. The target is *learned*: the configured
//!   `target_per_dst` only seeds an EWMA over the per-destination batch
//!   occupancy observed at each flush, so the policy tracks the traffic
//!   the node actually carries instead of trusting a shipped constant.
//!
//! ## Grouping
//!
//! Staged sends are grouped by destination with a stable counting sort
//! — O(messages + destinations) per flush over buffers that persist
//! across flushes, so the steady-state hot path performs **zero heap
//! allocations** (pinned by the umbrella crate's `alloc_free` test).
//! Group assignment happens at [`Transport::stage`] time, which also
//! gives the adaptive policy its staged-per-destination ratio for free.
//! Multi-message groups leave as pooled [`Envelope::Batch`] payloads
//! drawn from a [`BatchPool`]; lone messages go as [`Envelope::One`].

use dmx_core::{DagMessage, KeyedDagMessage, LockId};
use dmx_simnet::Time;
use dmx_topology::NodeId;

use crate::envelope::Envelope;

/// When staged traffic leaves the node — the coalescing-window knob.
///
/// Validated once at construction ([`FlushPolicy::validate`], called by
/// [`Transport::new`] and `LockSpace::cluster`), following the
/// `drop_rate` / `LatencyModel::validate` precedent: a bad policy
/// panics before the run starts, never mid-flight.
///
/// # Examples
///
/// ```
/// use dmx_lockspace::FlushPolicy;
///
/// FlushPolicy::Window(4).validate(); // fine
/// assert_eq!(FlushPolicy::default(), FlushPolicy::EveryTick);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FlushPolicy {
    /// Flush at the end of the tick that produced the traffic: one
    /// envelope per destination per busy tick, no added latency.
    #[default]
    EveryTick,
    /// Nagle-style coalescing: the first staged message opens a window
    /// of this many ticks; the flush fires when it closes. `Window(1)`
    /// behaves like [`FlushPolicy::EveryTick`]; `Window(0)` is rejected
    /// by [`FlushPolicy::validate`].
    Window(u64),
    /// A bounded window that closes early once batches are fat.
    Adaptive {
        /// Close the window as soon as staged messages per destination
        /// reach the *learned* target ratio (must be finite and
        /// `>= 1.0`). This value only seeds the learner: each flush
        /// folds the observed per-destination occupancy into an EWMA
        /// (see [`Transport::learned_target`]), which is what the
        /// early-close comparison actually uses.
        target_per_dst: f64,
        /// Longest a staged message waits before a forced flush (must
        /// be `>= 1` tick).
        max_window: u64,
    },
}

impl FlushPolicy {
    /// Validates the policy's parameters.
    ///
    /// # Panics
    ///
    /// Panics on a 0-tick `Window`, a non-finite or sub-1.0 adaptive
    /// target, or a 0-tick adaptive `max_window`.
    pub fn validate(self) {
        match self {
            FlushPolicy::EveryTick => {}
            FlushPolicy::Window(ticks) => {
                assert!(
                    ticks >= 1,
                    "FlushPolicy::Window needs >= 1 tick, got {ticks} \
                     (use EveryTick for same-tick flushing)"
                );
            }
            FlushPolicy::Adaptive {
                target_per_dst,
                max_window,
            } => {
                assert!(
                    target_per_dst.is_finite() && target_per_dst >= 1.0,
                    "FlushPolicy::Adaptive target_per_dst must be finite and >= 1.0, \
                     got {target_per_dst}"
                );
                assert!(
                    max_window >= 1,
                    "FlushPolicy::Adaptive max_window needs >= 1 tick, got {max_window}"
                );
            }
        }
    }
}

/// Recycled [`Envelope::Batch`] payload buffers: a batch `Vec` is taken
/// at flush time and returned (drained) by whoever unwraps the
/// envelope, so steady-state batching allocates nothing.
///
/// The free list is capped at [`BatchPool::CAP`]: in the simulated lock
/// space every `put` matches an earlier `take` from the *same shared*
/// pool, so the cap is never reached — but the threaded cluster's pools
/// are per-node and receive other nodes' buffers, and a node that
/// receives more batches than it sends (a leaf under a chatty hub)
/// would otherwise accumulate buffers without bound.
#[derive(Debug, Default)]
pub struct BatchPool {
    free: Vec<Vec<KeyedDagMessage>>,
}

impl BatchPool {
    /// Most buffers the pool parks; beyond it, returned buffers are
    /// simply dropped. Far above any steady-state take/put imbalance a
    /// single simulated run exhibits, small enough to bound a
    /// net-receiver node's memory in the threaded runtime.
    pub const CAP: usize = 1024;

    /// An empty pool.
    pub fn new() -> Self {
        BatchPool::default()
    }

    /// An empty payload buffer (recycled if one is free).
    pub fn take(&mut self) -> Vec<KeyedDagMessage> {
        let batch = self.free.pop().unwrap_or_default();
        debug_assert!(batch.is_empty(), "pooled batches return drained");
        batch
    }

    /// Returns a drained payload buffer for reuse (dropped instead if
    /// the pool is already at [`BatchPool::CAP`]).
    pub fn put(&mut self, mut batch: Vec<KeyedDagMessage>) {
        if self.free.len() >= Self::CAP {
            return;
        }
        batch.clear();
        self.free.push(batch);
    }

    /// Buffers currently parked in the pool.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// `true` when no buffer is parked.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

/// One destination's slice of the next flush.
#[derive(Debug, Clone, Copy)]
struct Group {
    dst: NodeId,
    count: usize,
    cursor: usize,
}

/// Per-node coalescing transport: stages keyed sends, groups them by
/// destination, and flushes one envelope per destination per window.
///
/// The tick-driven methods ([`Transport::after_dispatch`],
/// [`Transport::flush_due`]) serve the simulated lock space; the
/// burst-driven trigger ([`Transport::burst_cap_reached`]) serves the
/// threaded cluster, which has no ticks and flushes on channel idle or
/// when the policy's cap is hit. [`Transport::stage`] and
/// [`Transport::flush`] — the actual coalescing — are shared.
///
/// # Examples
///
/// ```
/// use dmx_core::{DagMessage, KeyedDagMessage, LockId};
/// use dmx_lockspace::{BatchPool, FlushPolicy, Transport};
/// use dmx_topology::NodeId;
///
/// let mut transport = Transport::new(4, FlushPolicy::EveryTick);
/// let mut pool = BatchPool::new();
/// for key in [0u32, 1, 2] {
///     transport.stage(NodeId(3), KeyedDagMessage {
///         lock: LockId(key),
///         msg: DagMessage::Privilege,
///     });
/// }
/// let mut envelopes = 0;
/// transport.flush(&mut pool, |_to, envelope| {
///     assert_eq!(envelope.len(), 3); // one batch, three keys
///     envelopes += 1;
/// });
/// assert_eq!(envelopes, 1);
/// ```
#[derive(Debug)]
pub struct Transport {
    policy: FlushPolicy,
    /// Sends staged since the last flush, in stage order.
    staging: Vec<(NodeId, KeyedDagMessage)>,
    /// Group index per destination (`u32::MAX` = none yet); reset at
    /// flush.
    dst_group: Vec<u32>,
    /// One entry per destination of the pending flush, in
    /// first-appearance order.
    groups: Vec<Group>,
    /// Flush scratch: staging re-ordered into per-destination slices.
    sorted: Vec<KeyedDagMessage>,
    /// The tick the pending flush is booked for, if any (simulated
    /// runtime only).
    flush_at: Option<Time>,
    /// The adaptive policy's learned per-destination occupancy target:
    /// seeded from the configured `target_per_dst`, updated by an EWMA
    /// over the occupancy each flush actually observed. Unused (stays
    /// at the seed) under the other policies.
    learned_target: f64,
}

impl Transport {
    /// A transport for an `n`-node system under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (see [`FlushPolicy::validate`]).
    pub fn new(n: usize, policy: FlushPolicy) -> Self {
        policy.validate();
        let learned_target = match policy {
            FlushPolicy::Adaptive { target_per_dst, .. } => target_per_dst,
            _ => 1.0,
        };
        Transport {
            policy,
            staging: Vec::new(),
            dst_group: vec![u32::MAX; n],
            groups: Vec::new(),
            sorted: Vec::new(),
            flush_at: None,
            learned_target,
        }
    }

    /// The adaptive policy's current per-destination occupancy target:
    /// the configured seed before the first flush, then an EWMA of the
    /// occupancies observed at each flush (smoothing factor
    /// [`Transport::EWMA_ALPHA`], floored at 1.0 — an envelope never
    /// carries less than one message).
    pub fn learned_target(&self) -> f64 {
        self.learned_target
    }

    /// The policy this transport flushes under.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Messages staged for the next flush.
    pub fn staged(&self) -> usize {
        self.staging.len()
    }

    /// Distinct destinations among the staged messages.
    pub fn destinations(&self) -> usize {
        self.groups.len()
    }

    /// Visits every staged send in stage order without flushing it.
    ///
    /// Consistent-cut capture uses this to count messages that are
    /// logically in flight (sent by the protocol, not yet on the wire):
    /// a Chandy–Lamport cut must account for them exactly once.
    pub fn for_each_staged(&self, mut f: impl FnMut(NodeId, &KeyedDagMessage)) {
        for (to, msg) in &self.staging {
            f(*to, msg);
        }
    }

    /// Stages one keyed send for `to`, assigning it to its
    /// destination's group (created on first appearance, so flush-time
    /// envelope order is first-appearance order).
    pub fn stage(&mut self, to: NodeId, msg: KeyedDagMessage) {
        let slot = &mut self.dst_group[to.index()];
        if *slot == u32::MAX {
            *slot = self.groups.len() as u32;
            self.groups.push(Group {
                dst: to,
                count: 0,
                cursor: 0,
            });
        }
        self.groups[*slot as usize].count += 1;
        self.staging.push((to, msg));
    }

    /// Ends one simulated dispatch: decides whether a flush wake must
    /// be booked and returns the time to book it for, per the policy.
    ///
    /// * `EveryTick` books an end-of-tick wake (once per tick);
    /// * `Window(k)` books `now + k - 1` when no window is open;
    /// * `Adaptive` books `now + max_window - 1` when no window is
    ///   open, and *pulls the deadline in to `now`* the moment the
    ///   staged-per-destination ratio reaches its target.
    ///
    /// Returns `None` when nothing is staged or the right wake is
    /// already booked. A wake that fires when its deadline has been
    /// superseded is answered by [`Transport::flush_due`] returning
    /// `false`, so stale wakes are harmless.
    pub fn after_dispatch(&mut self, now: Time) -> Option<Time> {
        if self.staging.is_empty() {
            return None;
        }
        match self.policy {
            FlushPolicy::EveryTick => self.book(now),
            FlushPolicy::Window(ticks) => {
                if self.flush_at.is_none() {
                    self.book(now + Time(ticks - 1))
                } else {
                    None
                }
            }
            FlushPolicy::Adaptive { max_window, .. } => {
                if self.batches_are_fat() {
                    self.book(now)
                } else if self.flush_at.is_none() {
                    self.book(now + Time(max_window - 1))
                } else {
                    None
                }
            }
        }
    }

    /// Books (or re-books) the flush for `at`; returns the wake to
    /// schedule unless it is already booked.
    fn book(&mut self, at: Time) -> Option<Time> {
        if self.flush_at == Some(at) {
            return None;
        }
        self.flush_at = Some(at);
        Some(at)
    }

    /// `true` iff the pending flush is booked for `now`; consumes the
    /// booking. The simulated node calls this from `on_wake` and
    /// flushes when it returns `true` — a wake whose deadline was
    /// superseded (e.g. an adaptive early flush already happened)
    /// returns `false` and costs nothing.
    pub fn flush_due(&mut self, now: Time) -> bool {
        if self.flush_at == Some(now) {
            self.flush_at = None;
            true
        } else {
            false
        }
    }

    /// Threaded-runtime trigger: `true` when the sends of `bursts`
    /// bursts — a burst is one keyed input a shard handled — should
    /// flush without waiting for channel idle.
    /// `EveryTick` caps at one burst, `Window(k)` at `k`, and
    /// `Adaptive` fires on its staged-per-destination target *or* at
    /// `max_window` bursts — the tickless enforcement of its
    /// bounded-delay contract, so thin batches on a continuously busy
    /// node still leave on time.
    pub fn burst_cap_reached(&self, bursts: u64) -> bool {
        match self.policy {
            FlushPolicy::EveryTick => bursts >= 1,
            FlushPolicy::Window(ticks) => bursts >= ticks,
            FlushPolicy::Adaptive { max_window, .. } => {
                bursts >= max_window || self.batches_are_fat()
            }
        }
    }

    /// EWMA smoothing factor for the adaptive policy's learned target:
    /// each flush contributes 20% of its observed per-destination
    /// occupancy, so the target adapts within a handful of flushes but
    /// one outlier batch cannot whipsaw it.
    pub const EWMA_ALPHA: f64 = 0.2;

    fn batches_are_fat(&self) -> bool {
        !self.groups.is_empty()
            && self.staging.len() as f64 >= self.learned_target * self.groups.len() as f64
    }

    /// Transmits everything staged, grouped by destination
    /// (first-appearance order, per-destination message order
    /// preserved): one pooled [`Envelope::Batch`] per destination with
    /// several messages, a bare [`Envelope::One`] otherwise.
    ///
    /// Grouping finishes the stable counting sort started at
    /// [`Transport::stage`] — prefix sums plus one distribution pass —
    /// over buffers that persist across flushes, so the steady-state
    /// hot path stays allocation-free.
    pub fn flush(&mut self, pool: &mut BatchPool, mut send: impl FnMut(NodeId, Envelope)) {
        if self.staging.is_empty() {
            return;
        }
        // Prefix sums: each group's cursor starts at its slice's offset.
        let mut offset = 0;
        for g in &mut self.groups {
            g.cursor = offset;
            offset += g.count;
        }
        // Distribute into the per-destination slices, stably.
        const FILLER: KeyedDagMessage = KeyedDagMessage {
            lock: LockId(0),
            msg: DagMessage::Privilege,
        };
        self.sorted.clear();
        self.sorted.resize(self.staging.len(), FILLER);
        for &(dst, keyed) in &self.staging {
            let g = &mut self.groups[self.dst_group[dst.index()] as usize];
            self.sorted[g.cursor] = keyed;
            g.cursor += 1;
        }
        // One envelope per destination.
        for gi in 0..self.groups.len() {
            let Group { dst, count, cursor } = self.groups[gi];
            let slice = &self.sorted[cursor - count..cursor];
            if count == 1 {
                send(dst, Envelope::One(slice[0]));
            } else {
                let mut batch = pool.take();
                batch.extend_from_slice(slice);
                send(dst, Envelope::Batch(batch));
            }
            self.dst_group[dst.index()] = u32::MAX;
        }
        if matches!(self.policy, FlushPolicy::Adaptive { .. }) {
            // Learn from what this flush actually carried: the observed
            // per-destination occupancy folds into the target so the
            // fatness threshold tracks real traffic instead of the
            // configured seed. Floored at 1.0 — an envelope never
            // carries less than one message.
            let observed = (self.staging.len() as f64 / self.groups.len() as f64).max(1.0);
            self.learned_target =
                (1.0 - Self::EWMA_ALPHA) * self.learned_target + Self::EWMA_ALPHA * observed;
        }
        self.groups.clear();
        self.staging.clear();
    }

    /// Drains the staged messages one [`Envelope::One`] each, in stage
    /// order — the batching-off path, where per-key traffic matches an
    /// equivalent single-lock run message for message.
    pub fn drain_unbatched(&mut self, mut send: impl FnMut(NodeId, KeyedDagMessage)) {
        for &(to, keyed) in &self.staging {
            send(to, keyed);
        }
        for g in &self.groups {
            self.dst_group[g.dst.index()] = u32::MAX;
        }
        self.groups.clear();
        self.staging.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(key: u32) -> KeyedDagMessage {
        KeyedDagMessage {
            lock: LockId(key),
            msg: DagMessage::Privilege,
        }
    }

    fn request(key: u32, from: u32, origin: u32) -> KeyedDagMessage {
        KeyedDagMessage {
            lock: LockId(key),
            msg: DagMessage::Request {
                from: NodeId(from),
                origin: NodeId(origin),
            },
        }
    }

    #[test]
    fn flush_groups_by_destination_in_first_appearance_order() {
        let mut t = Transport::new(8, FlushPolicy::EveryTick);
        let mut pool = BatchPool::new();
        t.stage(NodeId(5), keyed(0));
        t.stage(NodeId(2), keyed(1));
        t.stage(NodeId(5), request(2, 0, 0));
        t.stage(NodeId(2), keyed(3));
        t.stage(NodeId(7), keyed(4));
        assert_eq!(t.staged(), 5);
        assert_eq!(t.destinations(), 3);
        let mut out = Vec::new();
        t.flush(&mut pool, |to, env| out.push((to, env)));
        assert_eq!(out.len(), 3);
        // First-appearance order: 5, 2, 7; per-destination order stable.
        assert_eq!(out[0].0, NodeId(5));
        assert_eq!(out[0].1, Envelope::Batch(vec![keyed(0), request(2, 0, 0)]));
        assert_eq!(out[1].0, NodeId(2));
        assert_eq!(out[1].1, Envelope::Batch(vec![keyed(1), keyed(3)]));
        assert_eq!(out[2].0, NodeId(7));
        assert_eq!(out[2].1, Envelope::One(keyed(4)));
        assert_eq!(t.staged(), 0);
        assert_eq!(t.destinations(), 0);
    }

    #[test]
    fn pool_recycles_batch_buffers() {
        let mut t = Transport::new(4, FlushPolicy::EveryTick);
        let mut pool = BatchPool::new();
        t.stage(NodeId(1), keyed(0));
        t.stage(NodeId(1), keyed(1));
        let mut returned = None;
        t.flush(&mut pool, |_, env| {
            if let Envelope::Batch(b) = env {
                returned = Some(b);
            }
        });
        assert!(pool.is_empty());
        pool.put(returned.expect("a batch formed"));
        assert_eq!(pool.len(), 1);
        let recycled = pool.take();
        assert!(recycled.is_empty() && recycled.capacity() >= 2);
    }

    #[test]
    fn every_tick_books_one_wake_per_tick() {
        let mut t = Transport::new(4, FlushPolicy::EveryTick);
        t.stage(NodeId(1), keyed(0));
        assert_eq!(t.after_dispatch(Time(7)), Some(Time(7)));
        t.stage(NodeId(2), keyed(1));
        assert_eq!(t.after_dispatch(Time(7)), None, "already booked this tick");
        assert!(!t.flush_due(Time(6)));
        assert!(t.flush_due(Time(7)));
        assert!(!t.flush_due(Time(7)), "booking is consumed");
    }

    #[test]
    fn window_holds_traffic_for_k_ticks() {
        let mut t = Transport::new(4, FlushPolicy::Window(4));
        t.stage(NodeId(1), keyed(0));
        assert_eq!(t.after_dispatch(Time(10)), Some(Time(13)));
        // Later dispatches inside the window ride the same deadline.
        t.stage(NodeId(1), keyed(1));
        assert_eq!(t.after_dispatch(Time(12)), None);
        assert!(!t.flush_due(Time(12)));
        assert!(t.flush_due(Time(13)));
    }

    #[test]
    fn window_of_one_matches_every_tick() {
        let mut t = Transport::new(4, FlushPolicy::Window(1));
        t.stage(NodeId(1), keyed(0));
        assert_eq!(t.after_dispatch(Time(3)), Some(Time(3)));
        assert!(t.flush_due(Time(3)));
    }

    #[test]
    fn adaptive_pulls_the_deadline_in_when_batches_are_fat() {
        let mut t = Transport::new(
            8,
            FlushPolicy::Adaptive {
                target_per_dst: 3.0,
                max_window: 16,
            },
        );
        t.stage(NodeId(1), keyed(0));
        assert_eq!(t.after_dispatch(Time(0)), Some(Time(15)), "window opens");
        t.stage(NodeId(1), keyed(1));
        assert_eq!(t.after_dispatch(Time(2)), None, "2/dst < 3: keep waiting");
        t.stage(NodeId(1), keyed(2));
        assert_eq!(t.after_dispatch(Time(4)), Some(Time(4)), "3/dst: flush now");
        assert!(t.flush_due(Time(4)));
        // The stale wake at t=15 finds nothing due.
        assert!(!t.flush_due(Time(15)));
    }

    #[test]
    fn adaptive_learns_its_target_from_observed_occupancy() {
        let mut t = Transport::new(
            8,
            FlushPolicy::Adaptive {
                target_per_dst: 3.0,
                max_window: 16,
            },
        );
        let mut pool = BatchPool::new();
        assert_eq!(t.learned_target(), 3.0, "seeded from the config");
        // A fat flush (6 messages, one destination) pulls the target up
        // by exactly one EWMA step.
        for i in 0..6 {
            t.stage(NodeId(1), keyed(i));
        }
        t.flush(&mut pool, |_, _| {});
        let expected = (1.0 - Transport::EWMA_ALPHA) * 3.0 + Transport::EWMA_ALPHA * 6.0;
        assert!((t.learned_target() - expected).abs() < 1e-12);
        assert!(t.learned_target() > 3.0 && t.learned_target() < 6.0);
        // Repeated thin flushes (one message each) walk it back down
        // toward the 1.0 floor.
        for _ in 0..64 {
            t.stage(NodeId(2), keyed(0));
            t.flush(&mut pool, |_, _| {});
        }
        assert!(t.learned_target() < 1.01, "converges toward the floor");
        // The fatness threshold follows the learned value, not the
        // configured seed: two messages per destination would have sat
        // out the window under the 3.0 seed, but flush immediately now.
        t.stage(NodeId(3), keyed(0));
        t.stage(NodeId(3), keyed(1));
        assert_eq!(
            t.after_dispatch(Time(0)),
            Some(Time(0)),
            "learned-thin traffic flushes immediately"
        );
        assert!(t.flush_due(Time(0)));
    }

    #[test]
    fn non_adaptive_policies_never_move_the_learned_target() {
        let mut t = Transport::new(4, FlushPolicy::EveryTick);
        let mut pool = BatchPool::new();
        for i in 0..5 {
            t.stage(NodeId(1), keyed(i));
        }
        t.flush(&mut pool, |_, _| {});
        assert_eq!(t.learned_target(), 1.0, "static policies keep the 1.0 seed");
    }

    #[test]
    fn burst_caps_mirror_the_policies() {
        let mut tick = Transport::new(4, FlushPolicy::EveryTick);
        tick.stage(NodeId(1), keyed(0));
        assert!(tick.burst_cap_reached(1));
        let mut w = Transport::new(4, FlushPolicy::Window(3));
        w.stage(NodeId(1), keyed(0));
        assert!(!w.burst_cap_reached(2));
        assert!(w.burst_cap_reached(3));
        let mut a = Transport::new(
            4,
            FlushPolicy::Adaptive {
                target_per_dst: 2.0,
                max_window: 8,
            },
        );
        a.stage(NodeId(1), keyed(0));
        assert!(
            !a.burst_cap_reached(7),
            "thin batches wait within the window"
        );
        assert!(
            a.burst_cap_reached(8),
            "max_window bounds the wait even when batches stay thin"
        );
        a.stage(NodeId(1), keyed(1));
        assert!(a.burst_cap_reached(0), "a fat batch flushes early");
    }

    #[test]
    fn pool_cap_bounds_a_net_receiver() {
        let mut pool = BatchPool::new();
        for _ in 0..BatchPool::CAP + 50 {
            pool.put(vec![keyed(0)]);
        }
        assert_eq!(pool.len(), BatchPool::CAP, "excess buffers are dropped");
    }

    #[test]
    fn drain_unbatched_preserves_stage_order_and_resets() {
        let mut t = Transport::new(4, FlushPolicy::EveryTick);
        t.stage(NodeId(1), keyed(0));
        t.stage(NodeId(2), keyed(1));
        t.stage(NodeId(1), keyed(2));
        let mut out = Vec::new();
        t.drain_unbatched(|to, m| out.push((to, m)));
        assert_eq!(
            out,
            vec![
                (NodeId(1), keyed(0)),
                (NodeId(2), keyed(1)),
                (NodeId(1), keyed(2))
            ]
        );
        assert_eq!(t.staged(), 0);
        // The destination map is clean: staging again starts fresh groups.
        t.stage(NodeId(1), keyed(3));
        assert_eq!(t.destinations(), 1);
    }

    #[test]
    #[should_panic(expected = "Window needs >= 1 tick")]
    fn zero_tick_window_is_rejected() {
        FlushPolicy::Window(0).validate();
    }

    #[test]
    #[should_panic(expected = "target_per_dst must be finite")]
    fn nan_adaptive_target_is_rejected() {
        FlushPolicy::Adaptive {
            target_per_dst: f64::NAN,
            max_window: 4,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "target_per_dst must be finite")]
    fn sub_unit_adaptive_target_is_rejected() {
        FlushPolicy::Adaptive {
            target_per_dst: 0.5,
            max_window: 4,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "max_window needs >= 1 tick")]
    fn zero_adaptive_window_is_rejected() {
        Transport::new(
            2,
            FlushPolicy::Adaptive {
                target_per_dst: 2.0,
                max_window: 0,
            },
        );
    }
}
