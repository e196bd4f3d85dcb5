//! Conservative parallel simulation: the lock space sharded across
//! per-core engines with deterministic tick-barrier synchronization.
//!
//! The sequential [`LockSpace`](crate::LockSpace) multiplexes every key
//! over one event loop, topping out at one core. This module shards the
//! **key space** instead: shard `s` of `K` simulates the full node set
//! but only the keys its [`ShardMap`] assigns it, on its own event
//! queue. The paper's protocol never couples two keys — each key's DAG
//! instances, REQUEST/PRIVILEGE traffic, and grants are a closed system
//! — so a key-partitioned run is the ideal conservative decomposition:
//! the cross-shard lookahead is unbounded, and shard engines only
//! rendezvous at **tick-barrier windows** to keep each other within one
//! window of simulated time and to exchange their staged envelope
//! accounting (below).
//!
//! # Shard maps and skew
//!
//! [`ShardMap::Modulo`] (the default) assigns `key % K` — balanced in
//! key *counts*, which is balanced in *load* only when demand is
//! uniform. Under zipf skew a handful of hot keys carry most events,
//! and whichever shard draws them becomes the critical path:
//! `critical_path_events` collapses back toward a single core while
//! `K - 1` shards idle at every barrier. [`ShardMap::Balanced`] fixes
//! the assignment, not the protocol: given a per-key demand profile
//! (e.g. [`PacedKeyDemand::demand_profile`]) it LPT-packs keys onto
//! shards — heaviest key first, always onto the least-loaded shard — a
//! classic greedy guarantee of ≤ 4/3 × optimal makespan. Because every
//! observable output folds commutatively over *keys* (grant digest,
//! rollup, envelope merge), any key→shard assignment produces the same
//! report; only the critical path moves. [`ParallelReport`] exposes
//! per-shard event/busy vectors and [`ParallelReport::imbalance`] so a
//! run can say *why* it did or didn't scale.
//!
//! # Adaptive barrier windows
//!
//! The barrier window is a pure performance knob (results are invariant
//! in it), but it prices two costs against each other: narrow windows
//! pay a rendezvous over and over on sparse phases, wide ones let an
//! imbalanced window hide idle time inside the per-window maximum.
//! [`WindowPolicy::Adaptive`] widens or narrows the width from the
//! **merged** per-window event count — folded at the barrier, so every
//! shard (and the sequential driver) computes the identical width
//! sequence from identical data, preserving shard-count invariance and
//! threaded ≡ sequential bit-compatibility. The threaded loop itself is
//! a single rendezvous per round (the last shard to arrive folds the
//! round and announces the next window in the same critical section —
//! there is no second wait to skip, for empty windows or full ones),
//! which together with adaptive widening is what closes the historical
//! 1-shard threaded-vs-sequential gap.
//!
//! # Determinism and shard-count invariance
//!
//! A `ParallelEngine` run is deterministic (same seed, same report) and
//! *shard-count invariant*: per-key grant sequences, per-key metrics,
//! safety verdicts, and the global envelope accounting are identical at
//! `K = 1, 2, 4, 8, …` shards, threaded or not. Three properties carry
//! the proof, each pinned by `tests/parallel_equivalence.rs`:
//!
//! 1. **Per-key pinned demand.** [`PacedKeyDemand`] computes every
//!    arrival as a pure function of `(seed, key, round, j)` — no shared
//!    RNG stream exists to draw from in shard-dependent order (this is
//!    the "per-shard RNG streams" requirement, by construction).
//! 2. **Key-tagged events.** Every event a shard processes — arrival,
//!    delivery, release — belongs to exactly one key, and processing an
//!    event for key `k` only reads and writes `k`'s state and schedules
//!    more `k`-events. By induction the relative order of `k`'s events
//!    is decided by `k`'s history alone, so interleaving with other
//!    keys (which *does* vary with `K`) is unobservable.
//! 3. **Deterministic barrier merge.** Envelope records exchanged at a
//!    barrier are merged in stable `(tick, src, dst)` order with a
//!    fixed shard→slot map, so the shared-network accounting any two
//!    shards contribute to folds identically for every `K`.
//!
//! The one-tick-per-hop latency model is load-bearing for (2): a shared
//! latency RNG would order draws by global event order, which is
//! shard-dependent. `Fixed(1)` draws nothing.
//!
//! # Envelope exchange
//!
//! Within a tick each shard stages its sends through the shared
//! [`Transport`] (grouping per source node, [`FlushPolicy::EveryTick`]
//! semantics) into `(tick, src, dst, messages, payload)` records. At
//! the next barrier the leader merges all shards' records: one logical
//! envelope per `(tick, src, dst)` — a batch that crosses shards pays
//! its [`BATCH_HEADER_BYTES`] once, exactly as the single shared
//! network would have charged it.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dmx_core::{Action, DagMessage, DagNode, KeyedDagMessage, LockId};
use dmx_simnet::checker::{KeyedSafetyChecker, KeyedViolation};
use dmx_simnet::metrics::{KeyedMetrics, KeyedRollup};
use dmx_simnet::sched::{ActiveQueue, EventQueue};
use dmx_simnet::{LatencyModel, MessageMeta, Scheduler, Time};
use dmx_topology::{NodeId, Tree};
use dmx_workload::PacedKeyDemand;

use crate::envelope::{Envelope, BATCH_HEADER_BYTES};
use crate::space::{LeaseConfig, OrientationCache, Placement};
use crate::table::LockTable;
use crate::transport::{BatchPool, FlushPolicy, Transport};

/// How keys are assigned to shard engines. Every observable output of a
/// run folds commutatively over keys, so the map never changes results
/// — only which shard carries which load (see the
/// [module docs](self#shard-maps-and-skew)).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ShardMap {
    /// `key % shards`: balanced key counts, the default. Ideal under
    /// uniform demand, collapses under skew.
    #[default]
    Modulo,
    /// LPT bin-packing of per-key demand weights (index = key):
    /// heaviest key first, each onto the currently least-loaded shard
    /// (ties to the lowest shard, then the lowest key — fully
    /// deterministic). Weights are request counts or any proportional
    /// estimate; [`PacedKeyDemand::demand_profile`] produces them the
    /// same way `KeyedAffinity::hub_profile` produces placement hubs.
    Balanced(Arc<Vec<u64>>),
}

impl ShardMap {
    /// A balanced map over a per-key demand profile.
    pub fn balanced(profile: Vec<u64>) -> Self {
        ShardMap::Balanced(Arc::new(profile))
    }
}

/// Tick-barrier window policy: how wide each synchronization round is.
/// Results are invariant in the width (key partitioning gives unbounded
/// cross-shard lookahead); only round count, critical-path resolution,
/// and barrier overhead move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowPolicy {
    /// Every round spans this many ticks.
    Fixed(u64),
    /// Deterministic width controller: the width starts at `min`;
    /// after every round, if the *merged* event count across all
    /// shards fell below `target / 2` the width doubles (up to `max`),
    /// and above `2 × target` it halves (down to `min`). The decision
    /// reads only barrier-merged data, so every shard — and the
    /// sequential driver — computes the identical width sequence.
    Adaptive {
        /// Narrowest width (also the starting width), ≥ 1.
        min: u64,
        /// Widest width, ≥ `min`.
        max: u64,
        /// Merged events per window the controller steers toward, ≥ 1.
        target: u64,
    },
}

impl WindowPolicy {
    /// Panics on a malformed policy (zero widths, inverted bounds).
    fn validate(&self) {
        match *self {
            WindowPolicy::Fixed(w) => {
                assert!(w >= 1, "tick-barrier window must be at least one tick");
            }
            WindowPolicy::Adaptive { min, max, target } => {
                assert!(min >= 1, "adaptive window floor must be at least one tick");
                assert!(
                    max >= min,
                    "adaptive window ceiling ({max}) must be at least the floor ({min})"
                );
                assert!(target >= 1, "adaptive window event target must be positive");
            }
        }
    }

    /// Width of the first round.
    fn initial_width(&self) -> u64 {
        match *self {
            WindowPolicy::Fixed(w) => w,
            WindowPolicy::Adaptive { min, .. } => min,
        }
    }

    /// Width of the next round, given this round's width and merged
    /// event count. Pure — the heart of the determinism argument.
    fn next_width(&self, width: u64, merged_events: u64) -> u64 {
        match *self {
            WindowPolicy::Fixed(w) => w,
            WindowPolicy::Adaptive { min, max, target } => {
                if merged_events < target / 2 + target % 2 {
                    width.saturating_mul(2).min(max)
                } else if merged_events > target.saturating_mul(2) {
                    (width / 2).max(min)
                } else {
                    width
                }
            }
        }
    }
}

/// The resolved key→shard assignment a run executes: arithmetic for
/// [`ShardMap::Modulo`], a precomputed table for [`ShardMap::Balanced`]
/// (shared across shard engines via `Arc`).
#[derive(Debug, Clone)]
enum Assignment {
    Modulo {
        shards: usize,
    },
    Table {
        /// `key → (shard, slot)`; the slot indexes the shard's dense
        /// per-owned-key state.
        placement: Arc<Vec<(u32, u32)>>,
        /// `shard → owned keys`, ascending.
        owned: Arc<Vec<Vec<u32>>>,
    },
}

impl Assignment {
    /// LPT (longest-processing-time-first) greedy bin-packing of
    /// `weights` onto `shards` bins, fully deterministic: keys in
    /// descending weight (ties: ascending key), each onto the
    /// least-loaded shard (ties: lowest shard). Zero-weight keys count
    /// as weight 1 so untouched keys still spread.
    fn balanced(weights: &[u64], shards: usize) -> Self {
        let mut order: Vec<u32> = (0..weights.len() as u32).collect();
        order.sort_unstable_by_key(|&k| (std::cmp::Reverse(weights[k as usize]), k));
        let mut load = vec![0u64; shards];
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for k in order {
            let s = (0..shards)
                .min_by_key(|&s| (load[s], s))
                .expect("at least one shard");
            load[s] += weights[k as usize].max(1);
            owned[s].push(k);
        }
        let mut placement = vec![(0u32, 0u32); weights.len()];
        for (s, keys) in owned.iter_mut().enumerate() {
            keys.sort_unstable();
            for (slot, &k) in keys.iter().enumerate() {
                placement[k as usize] = (s as u32, slot as u32);
            }
        }
        Assignment::Table {
            placement: Arc::new(placement),
            owned: Arc::new(owned),
        }
    }

    /// The dense per-shard slot `key`'s state lives in.
    #[inline]
    fn slot_of(&self, key: LockId) -> usize {
        match self {
            Assignment::Modulo { shards } => key.index() / shards,
            Assignment::Table { placement, .. } => placement[key.index()].1 as usize,
        }
    }

    /// Keys owned by `shard` out of `keys` total.
    fn owned_count(&self, shard: usize, keys: u32) -> usize {
        match self {
            Assignment::Modulo { shards } => {
                (keys as usize).saturating_sub(shard).div_ceil(*shards)
            }
            Assignment::Table { owned, .. } => owned[shard].len(),
        }
    }

    /// Inverse of [`Assignment::slot_of`] for `shard`'s `slot`-th owned
    /// key (owned keys are ascending in the slot for both variants).
    #[inline]
    fn key_at(&self, shard: usize, slot: usize) -> LockId {
        match self {
            Assignment::Modulo { shards } => LockId((shard + slot * shards) as u32),
            Assignment::Table { owned, .. } => LockId(owned[shard][slot]),
        }
    }
}

/// Configuration of a [`ParallelEngine`] run.
///
/// # Examples
///
/// ```
/// use dmx_lockspace::ParallelConfig;
///
/// let config = ParallelConfig { shards: 4, ..ParallelConfig::default() };
/// assert!(!config.threads); // sequential shard stepping by default
/// config.validate();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelConfig {
    /// Shard engines to partition the key space over.
    pub shards: usize,
    /// Key→shard assignment policy.
    pub shard_map: ShardMap,
    /// Tick-barrier window policy: shard engines synchronize at window
    /// boundaries; the window bounds how far shards drift apart within
    /// a round. Results are invariant in it.
    pub window: WindowPolicy,
    /// Run each shard engine on its own OS thread. Off, the shards are
    /// stepped round-robin on the calling thread — same barriers, same
    /// merge order, bit-identical report; the sequential mode is also
    /// what per-shard busy time is measured under (uncontended).
    pub threads: bool,
    /// How long a grant holds its key before releasing.
    pub hold: Time,
    /// Initial token placement per key.
    pub placement: Placement,
    /// Holder-lease policy (see [`LeaseConfig`]): off by default. Leases
    /// are a per-key decision over per-key state only, so lease runs
    /// stay shard-count invariant by the same argument as everything
    /// else here.
    pub lease: LeaseConfig,
    /// Record full per-key grant logs in the report (tests and small
    /// runs; the folded digest is always computed).
    pub record_grants: bool,
    /// Capacity every `(node, key)` instance's local arrival queue is
    /// materialized with. Zero (the default) materializes empty queues
    /// that grow on demand — the right call for huge lazy key spaces.
    /// The zero-allocation harness sets it the way `Engine::reserve`
    /// pre-sizes the single-lock engine: local queue *depth* keeps
    /// setting sporadic new records long after every other buffer
    /// plateaus, and pre-sizing past the workload's realistic depth is
    /// what makes the steady-state window exactly allocation-free.
    pub queue_capacity: usize,
    /// Event-queue backend for every shard engine. [`Scheduler::Auto`]
    /// resolves against the runtime's `Fixed(1)` hop latency.
    pub scheduler: Scheduler,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            shards: 1,
            shard_map: ShardMap::Modulo,
            window: WindowPolicy::Fixed(64),
            threads: false,
            hold: Time(1),
            placement: Placement::Modulo,
            lease: LeaseConfig::OFF,
            record_grants: false,
            queue_capacity: 0,
            scheduler: Scheduler::Auto,
        }
    }
}

impl ParallelConfig {
    /// Validates the configuration in isolation (the checks that need
    /// no tree or demand — those run in [`ParallelEngine::new`]).
    /// Mirrors the construction-time contract of
    /// [`LeaseConfig`]/[`FlushPolicy::validate`](crate::FlushPolicy::validate).
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`, the window policy is malformed (zero
    /// width, `max < min`, zero target), or a balanced shard map
    /// carries an empty demand profile.
    pub fn validate(&self) {
        assert!(self.shards >= 1, "parallel engine needs at least one shard");
        self.window.validate();
        if let ShardMap::Balanced(profile) = &self.shard_map {
            assert!(
                !profile.is_empty(),
                "balanced shard map requires a non-empty demand profile"
            );
        }
    }
}

/// What a [`ParallelEngine`] run produced. Every field except the two
/// wall-clock timings is deterministic and shard-count invariant, save
/// [`ParallelReport::peak_concurrent`] (noted there).
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Shards the run used.
    pub shards: usize,
    /// Barrier rounds executed.
    pub windows: u64,
    /// Largest simulated time any shard reached.
    pub end: Time,
    /// Events processed across all shards (arrivals + deliveries +
    /// releases).
    pub events: u64,
    /// Critical-path event count: per window, the *maximum* events any
    /// one shard processed, summed over windows. `events /
    /// critical_path_events` is the run's potential speedup on enough
    /// cores — the standard conservative-PDES figure, deterministic
    /// unlike wall time.
    pub critical_path_events: u64,
    /// Total grants across all keys.
    pub grants: u64,
    /// Grants served by a holder lease (local re-entry, no messages) —
    /// a subset of [`ParallelReport::grants`]; 0 with leases off.
    pub lease_grants: u64,
    /// Order-sensitive digest folded over every key's `(time, node)`
    /// grant sequence, combined across keys commutatively — *the*
    /// shard-invariance witness.
    pub grant_digest: u64,
    /// Per-key grant logs (index = key), when
    /// [`ParallelConfig::record_grants`] was set.
    pub per_key_grants: Option<Vec<Vec<(Time, NodeId)>>>,
    /// Merged per-key metrics rollup.
    pub rollup: KeyedRollup,
    /// Logical envelopes the shared network carried (one per busy
    /// `(tick, src, dst)` under `EveryTick` coalescing).
    pub envelopes: u64,
    /// Bytes those envelopes carried (payload plus batch headers).
    pub envelope_bytes: u64,
    /// Keyed protocol messages inside those envelopes.
    pub messages: u64,
    /// Events each shard processed over the whole run (index = shard;
    /// sums to [`ParallelReport::events`]). Deterministic — the raw
    /// material of the imbalance story.
    pub per_shard_events: Vec<u64>,
    /// Busy nanoseconds each shard spent inside its windows (index =
    /// shard). Wall-clock, not deterministic; under `threads: false` it
    /// is measured uncontended.
    pub per_shard_busy_nanos: Vec<u128>,
    /// First safety violation observed, if any (lowest shard wins the
    /// tie, deterministically).
    pub violation: Option<KeyedViolation>,
    /// Requests that never got granted — 0 on a completed run.
    pub starved: u64,
    /// The liveness oracle's starvation bound, folded across shards the
    /// way grants and safety merge: how long the longest-waiting
    /// still-pending request had been outstanding at quiescence, in
    /// ticks (the same request `KeyedLivenessChecker::at_quiescence`
    /// names in the sequential runtimes — the checker itself cannot run
    /// per shard because paced demand lets one node wait on several
    /// keys at once, so each shard reports its oldest pending arrival
    /// and the merge takes the global oldest, a commutative min). 0 on
    /// a fully-served run.
    pub starvation_bound_ticks: u64,
    /// Peak concurrent holders as merged across shard checkers. Within
    /// a shard this observes true interleaving; across shards the
    /// checkers are combined at quiescence (max), so unlike every other
    /// field it is a per-shard-resolution figure, not shard-invariant.
    pub peak_concurrent: usize,
    /// Wall-clock nanoseconds for the whole run (threads or not).
    pub wall_nanos: u128,
    /// Critical-path busy time: per window, the longest any shard spent
    /// processing, summed. Under `threads: false` this is measured
    /// uncontended and estimates the run's wall time on `shards` cores.
    pub busy_critical_nanos: u128,
}

impl ParallelReport {
    /// Aggregate simulated events per wall-clock second.
    pub fn wall_events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_nanos.max(1) as f64 / 1e9)
    }

    /// Events per second along the critical path — the throughput the
    /// run would sustain with every shard on its own core.
    pub fn critical_path_events_per_sec(&self) -> f64 {
        self.events as f64 / (self.busy_critical_nanos.max(1) as f64 / 1e9)
    }

    /// `events / critical_path_events`: the run's potential speedup on
    /// enough cores — the standard conservative-PDES figure,
    /// deterministic unlike wall time.
    pub fn potential_speedup(&self) -> f64 {
        self.events as f64 / self.critical_path_events.max(1) as f64
    }

    /// Max/mean ratio of per-shard event counts: 1.0 is a perfectly
    /// balanced run, `shards` is one shard carrying everything. The
    /// one-number answer to *why* a cell does or doesn't scale —
    /// `potential_speedup ≤ shards / imbalance` up to window effects.
    pub fn imbalance(&self) -> f64 {
        let max = self.per_shard_events.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = self.events as f64 / self.per_shard_events.len().max(1) as f64;
        max as f64 / mean
    }
}

/// One shard-local event; every variant names exactly one key.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The `i`-th paced arrival for `key` (issuer recomputed from the
    /// demand at dispatch).
    Arrival { key: LockId, i: u64 },
    /// A keyed protocol message crossing one edge, sent the previous
    /// tick.
    Deliver { dst: NodeId, msg: KeyedDagMessage },
    /// End of a hold: `node` leaves `key`'s critical section.
    Release { key: LockId, node: NodeId },
}

/// Per-`(node, key)` protocol instance plus the local request queue:
/// overlapping arrivals at the same node for the same key wait here and
/// re-issue FIFO on release, so the DAG instance always has at most one
/// outstanding request.
#[derive(Debug, Clone)]
struct Instance {
    node: DagNode,
    /// Arrival time of the request currently outstanding (wait base).
    wait_since: Time,
    /// Arrival times queued behind the outstanding request.
    queued: VecDeque<Time>,
    /// When this instance's FOLLOW pointer formed (a remote REQUEST is
    /// queued behind the local hold) — the lease fairness clock. `None`
    /// when no remote waiter is known.
    follow_since: Option<Time>,
}

/// Per-owned-key bookkeeping (indexed by `key / shards`).
#[derive(Debug, Clone, Default)]
struct KeyState {
    /// FNV-1a over the key's `(time, node)` grant sequence.
    digest: u64,
    log: Vec<(Time, NodeId)>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// One `(tick, src, dst)` slice of a shard's staged traffic, exchanged
/// at the barrier.
#[derive(Debug, Clone, Copy)]
struct EnvRecord {
    tick: Time,
    src: NodeId,
    dst: NodeId,
    msgs: u64,
    /// Sum of the inner messages' wire sizes (headerless, so the
    /// barrier merge can re-batch across shards without double-charging
    /// the batch header).
    payload: u64,
}

/// One shard's engine: the full node set, `1/K` of the key space, its
/// own queue, metrics, safety checker, and transport.
struct ShardEngine {
    shard: usize,
    assignment: Assignment,
    demand: PacedKeyDemand,
    hold: Time,
    placement: Placement,
    lease: LeaseConfig,
    record_grants: bool,
    queue_capacity: usize,
    tree: Tree,
    orientations: OrientationCache,
    queue: ActiveQueue<Ev>,
    seq: u64,
    /// Per-node `LockId -> Instance` tables.
    tables: Vec<LockTable<Instance>>,
    /// Per-owned-key grant bookkeeping (`key / shards`).
    keys: Vec<KeyState>,
    metrics: KeyedMetrics,
    safety: KeyedSafetyChecker,
    violation: Option<KeyedViolation>,
    scratch: Vec<Action>,
    /// `(src, dst, msg, dispatch index)` sends of the tick being
    /// dispatched. The index makes the flush's per-source grouping sort
    /// key unique, so the allocation-free *unstable* sort reproduces
    /// exactly what a stable sort by source would (stable sorts heap-
    /// allocate their merge buffer past ~20 elements, which would leak
    /// allocations into the steady-state window).
    sends: Vec<(NodeId, NodeId, KeyedDagMessage, u32)>,
    send_tick: Time,
    transport: Transport,
    pool: BatchPool,
    /// Drained batch buffers on their way back to the pool — reused
    /// across flushes so the steady-state flush path never allocates.
    spent: Vec<Vec<KeyedDagMessage>>,
    /// This window's envelope records, handed to the barrier merge.
    records: Vec<EnvRecord>,
    grants: u64,
    lease_grants: u64,
    events: u64,
    window_events: u64,
    now: Time,
}

impl ShardEngine {
    fn new(
        tree: &Tree,
        demand: PacedKeyDemand,
        config: &ParallelConfig,
        assignment: Assignment,
        shard: usize,
    ) -> Self {
        let n = tree.len();
        let backend = config.scheduler.resolve(
            LatencyModel::Fixed(Time(1)),
            LatencyModel::Fixed(config.hold),
        );
        let owned = assignment.owned_count(shard, demand.keys());
        let mut engine = ShardEngine {
            shard,
            assignment,
            demand,
            hold: config.hold,
            placement: config.placement.clone(),
            lease: config.lease,
            record_grants: config.record_grants,
            queue_capacity: config.queue_capacity,
            tree: tree.clone(),
            orientations: OrientationCache::new(n),
            queue: ActiveQueue::for_backend(backend),
            seq: 0,
            tables: (0..n).map(|_| LockTable::new(1)).collect(),
            keys: vec![KeyState::default(); owned],
            metrics: KeyedMetrics::with_keys(demand.keys() as usize),
            safety: KeyedSafetyChecker::with_keys(demand.keys() as usize),
            violation: None,
            scratch: Vec::new(),
            sends: Vec::new(),
            send_tick: Time::ZERO,
            transport: Transport::new(n, FlushPolicy::EveryTick),
            pool: BatchPool::new(),
            spent: Vec::new(),
            records: Vec::new(),
            grants: 0,
            lease_grants: 0,
            events: 0,
            window_events: 0,
            now: Time::ZERO,
        };
        // Seed the first arrival of every owned key, in key order (both
        // assignment variants keep owned keys ascending in the slot).
        for slot in 0..owned {
            let key = engine.assignment.key_at(shard, slot);
            let (at, _) = demand.arrival(key, 0);
            engine.push(at, Ev::Arrival { key, i: 0 });
        }
        engine
    }

    fn owned_keys(&self) -> impl Iterator<Item = LockId> + '_ {
        (0..self.assignment.owned_count(self.shard, self.demand.keys()))
            .map(move |slot| self.assignment.key_at(self.shard, slot))
    }

    /// Grants this shard owes over the whole run.
    fn expected_grants(&self) -> u64 {
        self.owned_keys()
            .map(|key| self.demand.requests_for(key))
            .sum()
    }

    #[inline]
    fn push(&mut self, at: Time, ev: Ev) {
        self.queue.push(at, self.seq, ev);
        self.seq += 1;
    }

    fn next_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// The `(node, key)` instance, materialized on first touch with its
    /// initial orientation (same soundness argument as the sequential
    /// lock space — see the [`table`](crate::table) module docs).
    fn instance(&mut self, node: NodeId, key: LockId) -> &mut Instance {
        let placement = &self.placement;
        let tree = &self.tree;
        let orientations = &mut self.orientations;
        let queue_capacity = self.queue_capacity;
        self.tables[node.index()].get_or_insert_with(key, || Instance {
            node: placement.initial_instance(key, node, tree, orientations),
            wait_since: Time::ZERO,
            queued: VecDeque::with_capacity(queue_capacity),
            follow_since: None,
        })
    }

    /// Drains `actions` produced by `me`'s instance for `key` at `now`:
    /// sends become next-tick deliveries plus staged envelope traffic,
    /// `Enter` becomes a grant.
    fn apply_actions(
        &mut self,
        me: NodeId,
        key: LockId,
        wait_since: Time,
        actions: &mut Vec<Action>,
    ) {
        let now = self.now;
        for action in actions.drain(..) {
            match action {
                Action::Send { to, message } => {
                    let keyed = KeyedDagMessage {
                        lock: key,
                        msg: message,
                    };
                    let idx = self.sends.len() as u32;
                    self.sends.push((me, to, keyed, idx));
                    self.push(
                        now + Time(1),
                        Ev::Deliver {
                            dst: to,
                            msg: keyed,
                        },
                    );
                }
                Action::Enter => {
                    let wait = now.saturating_since(wait_since).ticks();
                    self.metrics.on_grant(key.index(), wait);
                    if let Err(v) = self.safety.on_enter(key.index(), me, now) {
                        self.violation.get_or_insert(v);
                    }
                    self.grants += 1;
                    let state = &mut self.keys[self.assignment.slot_of(key)];
                    state.digest = fnv(fnv(state.digest, now.ticks()), me.index() as u64);
                    if self.record_grants {
                        state.log.push((now, me));
                    }
                    self.push(now + self.hold, Ev::Release { key, node: me });
                }
            }
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        let now = self.now;
        let mut actions = std::mem::take(&mut self.scratch);
        match ev {
            Ev::Arrival { key, i } => {
                // Chain the key's next arrival (strictly later in time,
                // so the queue invariant holds).
                if i + 1 < self.demand.requests_for(key) {
                    let (at, _) = self.demand.arrival(key, i + 1);
                    self.push(at, Ev::Arrival { key, i: i + 1 });
                }
                let (_, node) = self.demand.arrival(key, i);
                self.metrics.on_request(key.index());
                let inst = self.instance(node, key);
                if inst.node.is_requesting() || inst.node.is_executing() {
                    inst.queued.push_back(now);
                } else {
                    inst.wait_since = now;
                    inst.node.request_into(&mut actions);
                    self.apply_actions(node, key, now, &mut actions);
                }
            }
            Ev::Deliver { dst, msg } => {
                let key = msg.lock;
                self.metrics.on_message(key.index(), msg.kind());
                let inst = self.instance(dst, key);
                let wait_since = inst.wait_since;
                match msg.msg {
                    DagMessage::Request { from, origin } => {
                        inst.node.receive_request_into(from, origin, &mut actions);
                    }
                    DagMessage::Privilege => {
                        inst.node.receive_privilege_into(&mut actions);
                    }
                    DagMessage::Initialize => {
                        unreachable!("the paced runtime never floods INITIALIZE")
                    }
                }
                self.apply_actions(dst, key, wait_since, &mut actions);
                if self.lease.enabled() {
                    // Start the fairness clock the moment a remote
                    // waiter queues behind this instance (FOLLOW set).
                    let inst = self.instance(dst, key);
                    if inst.follow_since.is_none() && inst.node.follow().is_some() {
                        inst.follow_since = Some(now);
                    }
                }
            }
            Ev::Release { key, node } => {
                if let Err(v) = self.safety.on_exit(key.index(), node, now) {
                    self.violation.get_or_insert(v);
                }
                let lease = self.lease;
                let hold = self.hold;
                let inst = self.instance(node, key);
                let fair = lease.enabled()
                    && match inst.follow_since {
                        None => true,
                        Some(since) => {
                            (now + hold).saturating_since(since).ticks() <= lease.fairness_budget
                        }
                    };
                let leased = if fair { inst.queued.pop_front() } else { None };
                if let Some(t0) = leased {
                    // Holder lease: the queued local claimant re-enters
                    // without ceding the privilege — zero messages, zero
                    // DAG hops. The instance never exits, so FOLLOW (and
                    // its fairness clock) carries to the next release.
                    inst.wait_since = t0;
                    let wait = now.saturating_since(t0).ticks();
                    self.metrics.on_grant(key.index(), wait);
                    if let Err(v) = self.safety.on_enter(key.index(), node, now) {
                        self.violation.get_or_insert(v);
                    }
                    self.grants += 1;
                    self.lease_grants += 1;
                    let state = &mut self.keys[self.assignment.slot_of(key)];
                    state.digest = fnv(fnv(state.digest, now.ticks()), node.index() as u64);
                    if self.record_grants {
                        state.log.push((now, node));
                    }
                    self.push(now + hold, Ev::Release { key, node });
                } else {
                    inst.node.exit_into(&mut actions);
                    inst.follow_since = None;
                    let requeued = inst.queued.pop_front();
                    self.apply_actions(node, key, now, &mut actions);
                    // A queued local arrival re-issues after the exit's
                    // traffic left, FIFO.
                    if let Some(t0) = requeued {
                        let inst = self.instance(node, key);
                        inst.wait_since = t0;
                        inst.node.request_into(&mut actions);
                        self.apply_actions(node, key, t0, &mut actions);
                    }
                }
            }
        }
        self.scratch = actions;
    }

    /// Groups the finished tick's sends per source through the shared
    /// transport (`EveryTick` flush) into exchange records.
    fn flush_sends(&mut self) {
        if self.sends.is_empty() {
            return;
        }
        let tick = self.send_tick;
        // Stable by source: per-source dispatch order is preserved, as
        // if each source node had staged into its own transport. The
        // dispatch index breaks ties, so the unstable sort (which never
        // allocates) yields the stable order.
        self.sends
            .sort_unstable_by_key(|&(src, _, _, idx)| (src.index(), idx));
        let mut i = 0;
        while i < self.sends.len() {
            let src = self.sends[i].0;
            while i < self.sends.len() && self.sends[i].0 == src {
                self.transport.stage(self.sends[i].1, self.sends[i].2);
                i += 1;
            }
            let records = &mut self.records;
            let spent = &mut self.spent;
            self.transport.flush(&mut self.pool, |dst, env| {
                let (msgs, payload) = match &env {
                    Envelope::One(m) => (1u64, m.wire_size() as u64),
                    Envelope::Batch(v) => {
                        (v.len() as u64, v.iter().map(|m| m.wire_size() as u64).sum())
                    }
                };
                records.push(EnvRecord {
                    tick,
                    src,
                    dst,
                    msgs,
                    payload,
                });
                if let Envelope::Batch(b) = env {
                    spent.push(b);
                }
            });
            for b in self.spent.drain(..) {
                self.pool.put(b);
            }
        }
        self.sends.clear();
    }

    /// Arrival time of the oldest request still outstanding (requesting
    /// or queued locally) — `None` once every request was served. This
    /// is the shard's slice of the liveness starvation bound.
    fn oldest_pending(&self) -> Option<Time> {
        let mut oldest: Option<Time> = None;
        let mut consider = |t: Time| oldest = Some(oldest.map_or(t, |o| o.min(t)));
        for table in &self.tables {
            for (_, inst) in table.iter() {
                if inst.node.is_requesting() {
                    consider(inst.wait_since);
                }
                for &t in &inst.queued {
                    consider(t);
                }
            }
        }
        oldest
    }

    /// Processes every event strictly before `barrier_end`.
    fn run_window(&mut self, barrier_end: Time) {
        while let Some(t) = self.queue.peek_time() {
            if t >= barrier_end {
                break;
            }
            let (t, ev) = self.queue.pop_earliest().expect("just peeked");
            if t != self.send_tick {
                self.flush_sends();
                self.send_tick = t;
            }
            self.now = t;
            self.events += 1;
            self.window_events += 1;
            self.dispatch(ev);
        }
        self.flush_sends();
    }
}

/// Running totals the barrier round leader folds each round — including
/// the adaptive window width, which must evolve from *merged* data only
/// so every driver computes the identical sequence.
#[derive(Debug)]
struct Totals {
    windows: u64,
    critical_path_events: u64,
    busy_critical_nanos: u128,
    envelopes: u64,
    envelope_bytes: u64,
    messages: u64,
    per_shard_events: Vec<u64>,
    per_shard_busy_nanos: Vec<u128>,
    policy: WindowPolicy,
    /// Width of the *next* round's window.
    width: u64,
}

impl Totals {
    fn new(shards: usize, policy: WindowPolicy) -> Self {
        Totals {
            windows: 0,
            critical_path_events: 0,
            busy_critical_nanos: 0,
            envelopes: 0,
            envelope_bytes: 0,
            messages: 0,
            per_shard_events: vec![0; shards],
            per_shard_busy_nanos: vec![0; shards],
            width: policy.initial_width(),
            policy,
        }
    }

    /// Folds one barrier round: critical-path and per-shard accounting,
    /// the deterministic `(tick, src, dst)` merge of every shard's
    /// records, and the next window width.
    fn fold_round(
        &mut self,
        window_events: &[u64],
        busy_nanos: &[u128],
        records: &mut Vec<EnvRecord>,
    ) {
        self.windows += 1;
        self.critical_path_events += window_events.iter().copied().max().unwrap_or(0);
        self.busy_critical_nanos += busy_nanos.iter().copied().max().unwrap_or(0);
        for (acc, &e) in self.per_shard_events.iter_mut().zip(window_events) {
            *acc += e;
        }
        for (acc, &b) in self.per_shard_busy_nanos.iter_mut().zip(busy_nanos) {
            *acc += b;
        }
        self.width = self
            .policy
            .next_width(self.width, window_events.iter().sum());
        records.sort_unstable_by_key(|r| (r.tick, r.src.index(), r.dst.index()));
        let mut i = 0;
        while i < records.len() {
            let (tick, src, dst) = (records[i].tick, records[i].src, records[i].dst);
            let (mut msgs, mut payload) = (0u64, 0u64);
            while i < records.len()
                && records[i].tick == tick
                && records[i].src == src
                && records[i].dst == dst
            {
                msgs += records[i].msgs;
                payload += records[i].payload;
                i += 1;
            }
            self.envelopes += 1;
            self.messages += msgs;
            self.envelope_bytes += payload
                + if msgs > 1 {
                    BATCH_HEADER_BYTES as u64
                } else {
                    0
                };
        }
        records.clear();
    }
}

/// Shared rendezvous state for the threaded rounds: one mutex, one
/// condvar, one critical section per shard per round. The *last* shard
/// to arrive is that round's leader — it folds the finished round and
/// announces the next window before anyone wakes, so the second
/// rendezvous of the classic two-phase barrier never happens (not for
/// empty windows, not for full ones). At `K = 1` a round is a single
/// uncontended lock with zero waits.
struct RoundState {
    /// Shards that have published this round, so far.
    arrived: usize,
    /// Completed rendezvous count — the condvar's wake predicate.
    round: u64,
    next: Vec<Option<Time>>,
    window_events: Vec<u64>,
    busy_nanos: Vec<u128>,
    records: Vec<EnvRecord>,
    barrier_end: Option<Time>,
    totals: Totals,
}

/// The parallel lock-space runtime; see the [module docs](self).
///
/// # Examples
///
/// ```
/// use dmx_lockspace::{ParallelConfig, ParallelEngine};
/// use dmx_topology::Tree;
/// use dmx_workload::PacedKeyDemand;
///
/// let tree = Tree::kary(15, 2);
/// let demand = PacedKeyDemand::new(32, 15, 200, 2, 3, 42);
/// let one = ParallelEngine::new(&tree, demand, ParallelConfig::default()).run();
/// let four = ParallelEngine::new(
///     &tree,
///     demand,
///     ParallelConfig { shards: 4, ..ParallelConfig::default() },
/// )
/// .run();
/// assert_eq!(one.grant_digest, four.grant_digest); // shard-count invariant
/// assert_eq!(one.starved, 0);
/// ```
pub struct ParallelEngine {
    shards: Vec<ShardEngine>,
    threads: bool,
    totals: Totals,
    /// Sequential-driver scratch, hoisted so steady-state rounds do not
    /// allocate (the zero-allocation contract `tests/alloc_free.rs`
    /// pins for the parallel phases).
    scratch_events: Vec<u64>,
    scratch_busy: Vec<u128>,
    scratch_records: Vec<EnvRecord>,
}

/// The end of the barrier window of width `width` containing `next`.
#[inline]
fn window_end(width: u64, next: Time) -> Time {
    Time((next.ticks() / width + 1) * width)
}

impl ParallelEngine {
    /// Builds `config.shards` shard engines over `tree` and `demand`.
    ///
    /// # Panics
    ///
    /// Panics on whatever [`ParallelConfig::validate`] rejects, and on
    /// the cross-checks that need the tree and demand: mismatched node
    /// counts, a balanced profile whose length is not the key count, or
    /// a placement [`Placement::validate`] rejects.
    pub fn new(tree: &Tree, demand: PacedKeyDemand, config: ParallelConfig) -> Self {
        config.validate();
        assert_eq!(
            demand.nodes(),
            tree.len(),
            "demand and tree disagree on the node count"
        );
        config.placement.validate(tree.len());
        let assignment = match &config.shard_map {
            ShardMap::Modulo => Assignment::Modulo {
                shards: config.shards,
            },
            ShardMap::Balanced(profile) => {
                assert_eq!(
                    profile.len(),
                    demand.keys() as usize,
                    "balanced shard map profile must weight every key"
                );
                Assignment::balanced(profile, config.shards)
            }
        };
        let shards = (0..config.shards)
            .map(|s| ShardEngine::new(tree, demand, &config, assignment.clone(), s))
            .collect();
        ParallelEngine {
            shards,
            threads: config.threads,
            totals: Totals::new(config.shards, config.window),
            scratch_events: Vec::with_capacity(config.shards),
            scratch_busy: Vec::with_capacity(config.shards),
            scratch_records: Vec::new(),
        }
    }

    /// Runs the simulation to quiescence and reports.
    pub fn run(mut self) -> ParallelReport {
        let started = Instant::now();
        if self.threads {
            self.run_threaded();
        } else {
            while self.step_round() {}
        }
        self.finalize(started.elapsed().as_nanos())
    }

    /// Drives up to `rounds` further barrier rounds on the calling
    /// thread, returning `false` once the run quiesced. Together with
    /// [`ParallelEngine::finish`] this is the incremental face of
    /// [`ParallelEngine::run`] — same rounds, same merge, same report —
    /// for callers that need to observe the engine mid-run (the
    /// zero-allocation harness warms up through it).
    ///
    /// # Panics
    ///
    /// Panics when the engine was configured with `threads: true`:
    /// incremental stepping is the sequential driver.
    pub fn step_rounds(&mut self, rounds: u64) -> bool {
        assert!(
            !self.threads,
            "incremental stepping drives shards on the calling thread; \
             build with threads: false"
        );
        for _ in 0..rounds {
            if !self.step_round() {
                return false;
            }
        }
        true
    }

    /// Reports on a (possibly incomplete) incrementally-driven run.
    /// Wall-clock time is not tracked across [`step_rounds`] calls, so
    /// the report's `wall_nanos` is zero; every deterministic field is
    /// exactly what [`ParallelEngine::run`] would have produced at the
    /// same point.
    ///
    /// [`step_rounds`]: ParallelEngine::step_rounds
    pub fn finish(self) -> ParallelReport {
        self.finalize(0)
    }

    /// One round of the single-thread driver: identical fold order and
    /// window sequence to the threaded path, plus uncontended per-shard
    /// busy timing. Allocation-free once buffers are warm.
    fn step_round(&mut self) -> bool {
        let Some(next) = self.shards.iter().filter_map(ShardEngine::next_time).min() else {
            return false;
        };
        let end = window_end(self.totals.width, next);
        self.scratch_events.clear();
        self.scratch_busy.clear();
        for shard in &mut self.shards {
            let t0 = Instant::now();
            shard.run_window(end);
            self.scratch_busy.push(t0.elapsed().as_nanos());
            self.scratch_events
                .push(std::mem::take(&mut shard.window_events));
            self.scratch_records.append(&mut shard.records);
        }
        self.totals.fold_round(
            &self.scratch_events,
            &self.scratch_busy,
            &mut self.scratch_records,
        );
        true
    }

    /// One OS thread per shard, one rendezvous per round (see
    /// [`RoundState`]): every shard publishes its window results and
    /// next event time under the lock; the last to arrive folds the
    /// round, derives the next window from the folded width, bumps the
    /// round counter, and wakes everyone.
    fn run_threaded(&mut self) {
        let k = self.shards.len();
        let totals = std::mem::replace(&mut self.totals, Totals::new(0, WindowPolicy::Fixed(1)));
        let state = Mutex::new(RoundState {
            arrived: 0,
            round: 0,
            next: vec![None; k],
            window_events: vec![0; k],
            busy_nanos: vec![0; k],
            records: Vec::new(),
            barrier_end: None,
            totals,
        });
        let cv = Condvar::new();
        std::thread::scope(|scope| {
            for shard in &mut self.shards {
                let state = &state;
                let cv = &cv;
                scope.spawn(move || {
                    // Rendezvous this thread has completed; `seen == 0`
                    // publishes empty pre-run state (nothing to fold).
                    let mut seen = 0u64;
                    let mut busy: u128 = 0;
                    loop {
                        let end = {
                            let mut st = state.lock().expect("round state poisoned");
                            let s = shard.shard;
                            st.next[s] = shard.next_time();
                            st.window_events[s] = std::mem::take(&mut shard.window_events);
                            st.busy_nanos[s] = busy;
                            st.records.append(&mut shard.records);
                            st.arrived += 1;
                            if st.arrived == k {
                                st.arrived = 0;
                                let RoundState {
                                    round,
                                    next,
                                    window_events,
                                    busy_nanos,
                                    records,
                                    barrier_end,
                                    totals,
                                    ..
                                } = &mut *st;
                                if seen > 0 {
                                    totals.fold_round(window_events, busy_nanos, records);
                                }
                                *barrier_end = next
                                    .iter()
                                    .flatten()
                                    .min()
                                    .map(|&t| window_end(totals.width, t));
                                *round += 1;
                                cv.notify_all();
                            } else {
                                while st.round == seen {
                                    st = cv.wait(st).expect("round state poisoned");
                                }
                            }
                            seen += 1;
                            debug_assert_eq!(st.round, seen);
                            st.barrier_end
                        };
                        let Some(end) = end else { break };
                        let t0 = Instant::now();
                        shard.run_window(end);
                        busy = t0.elapsed().as_nanos();
                    }
                });
            }
        });
        let state = state.into_inner().expect("round state poisoned");
        self.totals = state.totals;
    }

    fn finalize(self, wall_nanos: u128) -> ParallelReport {
        let totals = self.totals;
        let keys = self.shards.first().map_or(0, |s| s.demand.keys() as usize);
        let shards_n = self.shards.len();
        let mut metrics = KeyedMetrics::with_keys(keys);
        let mut safety = KeyedSafetyChecker::with_keys(keys);
        let mut violation = None;
        let mut grant_digest = 0u64;
        let mut grants = 0;
        let mut lease_grants = 0;
        let mut events = 0;
        let mut expected = 0;
        let mut end = Time::ZERO;
        let mut oldest_pending: Option<Time> = None;
        let mut per_key_grants = self
            .shards
            .first()
            .filter(|s| s.record_grants)
            .map(|_| vec![Vec::new(); keys]);
        for shard in &self.shards {
            metrics.merge(&shard.metrics);
            if let Err(v) = safety.merge(&shard.safety, shard.now) {
                violation.get_or_insert(v);
            }
            if let Some(v) = &shard.violation {
                violation.get_or_insert(*v);
            }
            grants += shard.grants;
            lease_grants += shard.lease_grants;
            events += shard.events;
            expected += shard.expected_grants();
            end = end.max(shard.now);
            if let Some(t) = shard.oldest_pending() {
                oldest_pending = Some(oldest_pending.map_or(t, |o| o.min(t)));
            }
            for (local, state) in shard.keys.iter().enumerate() {
                let key = shard.assignment.key_at(shard.shard, local).index();
                // Commutative fold over keys: invariant under any
                // key-to-shard assignment.
                grant_digest =
                    grant_digest.wrapping_add(fnv(FNV_OFFSET ^ key as u64, state.digest));
                if let Some(logs) = per_key_grants.as_mut() {
                    logs[key] = state.log.clone();
                }
            }
        }
        ParallelReport {
            shards: shards_n,
            windows: totals.windows,
            end,
            events,
            critical_path_events: totals.critical_path_events,
            grants,
            lease_grants,
            grant_digest,
            per_key_grants,
            rollup: metrics.rollup(),
            envelopes: totals.envelopes,
            envelope_bytes: totals.envelope_bytes,
            messages: totals.messages,
            per_shard_events: totals.per_shard_events,
            per_shard_busy_nanos: totals.per_shard_busy_nanos,
            violation,
            starved: expected - grants,
            starvation_bound_ticks: oldest_pending.map_or(0, |t| end.saturating_since(t).ticks()),
            peak_concurrent: safety.peak_concurrent(),
            wall_nanos,
            busy_critical_nanos: totals.busy_critical_nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run(shards: usize, threads: bool) -> ParallelReport {
        let tree = Tree::kary(15, 2);
        let demand = PacedKeyDemand::new(24, 15, 120, 2, 4, 0xC0FFEE);
        ParallelEngine::new(
            &tree,
            demand,
            ParallelConfig {
                shards,
                threads,
                record_grants: true,
                ..ParallelConfig::default()
            },
        )
        .run()
    }

    #[test]
    fn completes_without_violations_or_starvation() {
        let report = small_run(1, false);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert_eq!(report.starved, 0);
        assert_eq!(report.starvation_bound_ticks, 0);
        assert_eq!(report.grants, 24 * 2 * 4);
        assert_eq!(report.rollup.grants, report.grants);
        assert_eq!(report.rollup.requests, report.grants);
        assert!(report.envelopes > 0);
        assert!(report.messages >= report.envelopes);
    }

    #[test]
    fn shard_counts_agree_on_everything_observable() {
        let base = small_run(1, false);
        for shards in [2, 3, 4, 8] {
            let report = small_run(shards, false);
            assert_eq!(report.grant_digest, base.grant_digest, "K={shards}");
            assert_eq!(report.per_key_grants, base.per_key_grants, "K={shards}");
            assert_eq!(report.rollup, base.rollup, "K={shards}");
            assert_eq!(report.envelopes, base.envelopes, "K={shards}");
            assert_eq!(report.envelope_bytes, base.envelope_bytes, "K={shards}");
            assert_eq!(report.messages, base.messages, "K={shards}");
            assert_eq!(report.events, base.events, "K={shards}");
            assert_eq!(report.end, base.end, "K={shards}");
            assert_eq!(report.starved, 0, "K={shards}");
            assert_eq!(report.starvation_bound_ticks, 0, "K={shards}");
        }
    }

    #[test]
    fn threaded_and_sequential_runs_are_bit_identical() {
        let seq = small_run(4, false);
        let thr = small_run(4, true);
        assert_eq!(seq.grant_digest, thr.grant_digest);
        assert_eq!(seq.per_key_grants, thr.per_key_grants);
        assert_eq!(seq.rollup, thr.rollup);
        assert_eq!(seq.envelopes, thr.envelopes);
        assert_eq!(seq.envelope_bytes, thr.envelope_bytes);
        assert_eq!(seq.windows, thr.windows);
        assert_eq!(seq.critical_path_events, thr.critical_path_events);
    }

    #[test]
    fn window_width_does_not_change_results() {
        let run = |window| {
            let tree = Tree::kary(15, 2);
            let demand = PacedKeyDemand::new(24, 15, 120, 2, 4, 0xC0FFEE);
            ParallelEngine::new(
                &tree,
                demand,
                ParallelConfig {
                    shards: 4,
                    window,
                    record_grants: true,
                    ..ParallelConfig::default()
                },
            )
            .run()
        };
        let narrow = run(WindowPolicy::Fixed(1));
        let wide = run(WindowPolicy::Fixed(512));
        let adaptive = run(WindowPolicy::Adaptive {
            min: 4,
            max: 1024,
            target: 32,
        });
        assert_eq!(narrow.grant_digest, wide.grant_digest);
        assert_eq!(narrow.per_key_grants, wide.per_key_grants);
        assert_eq!(narrow.envelopes, wide.envelopes);
        assert!(
            narrow.windows > wide.windows,
            "narrow windows mean more rounds"
        );
        // The adaptive controller changes the round count, nothing else
        // observable.
        assert_eq!(adaptive.grant_digest, wide.grant_digest);
        assert_eq!(adaptive.per_key_grants, wide.per_key_grants);
        assert_eq!(adaptive.rollup, wide.rollup);
        assert_eq!(adaptive.envelopes, wide.envelopes);
        assert_eq!(adaptive.envelope_bytes, wide.envelope_bytes);
        assert!(
            adaptive.windows < narrow.windows,
            "the controller must widen away from the floor"
        );
    }

    #[test]
    fn balanced_map_matches_modulo_everywhere_observable() {
        let run = |shard_map: ShardMap, shards, threads| {
            let tree = Tree::kary(15, 2);
            let demand = PacedKeyDemand::new(24, 15, 120, 2, 4, 0xC0FFEE)
                .with_load(dmx_workload::KeyLoad::Zipf { exponent: 1.1 });
            ParallelEngine::new(
                &tree,
                demand,
                ParallelConfig {
                    shards,
                    shard_map,
                    threads,
                    record_grants: true,
                    ..ParallelConfig::default()
                },
            )
            .run()
        };
        let profile = PacedKeyDemand::new(24, 15, 120, 2, 4, 0xC0FFEE)
            .with_load(dmx_workload::KeyLoad::Zipf { exponent: 1.1 })
            .demand_profile();
        let base = run(ShardMap::Modulo, 1, false);
        assert!(base.violation.is_none());
        assert_eq!(base.starved, 0);
        for shards in [1, 2, 4, 8] {
            for threads in [false, true] {
                let balanced = run(ShardMap::balanced(profile.clone()), shards, threads);
                assert_eq!(
                    balanced.grant_digest, base.grant_digest,
                    "K={shards} threads={threads}"
                );
                assert_eq!(balanced.per_key_grants, base.per_key_grants);
                assert_eq!(balanced.rollup, base.rollup);
                assert_eq!(balanced.envelopes, base.envelopes);
                assert_eq!(balanced.starved, 0);
            }
        }
    }

    #[test]
    fn balanced_map_spreads_skewed_load() {
        // All weight on keys 0 and 1: modulo-2 puts both even/odd
        // halves' hot keys on fixed shards; LPT must split the two hot
        // keys across the two shards.
        let weights = vec![100, 100, 1, 1];
        let a = Assignment::balanced(&weights, 2);
        let (s0, s1) = match &a {
            Assignment::Table { placement, .. } => (placement[0].0, placement[1].0),
            _ => unreachable!(),
        };
        assert_ne!(s0, s1, "the two hot keys must land on different shards");
        // Every key owned exactly once, slots dense and ascending.
        for shard in 0..2 {
            let count = a.owned_count(shard, 4);
            for slot in 0..count {
                let key = a.key_at(shard, slot);
                assert_eq!(a.slot_of(key), slot);
            }
        }
    }

    #[test]
    fn per_shard_events_sum_and_imbalance_are_consistent() {
        let report = small_run(4, false);
        assert_eq!(report.per_shard_events.len(), 4);
        assert_eq!(report.per_shard_events.iter().sum::<u64>(), report.events);
        assert!(report.imbalance() >= 1.0);
        assert!(report.imbalance() <= 4.0 + 1e-9);
        assert!(report.potential_speedup() >= 1.0);
    }

    #[test]
    fn incremental_stepping_matches_run() {
        let tree = Tree::kary(15, 2);
        let demand = PacedKeyDemand::new(24, 15, 120, 2, 4, 0xC0FFEE);
        let config = ParallelConfig {
            shards: 4,
            record_grants: true,
            ..ParallelConfig::default()
        };
        let whole = ParallelEngine::new(&tree, demand, config.clone()).run();
        let mut engine = ParallelEngine::new(&tree, demand, config);
        while engine.step_rounds(3) {}
        let stepped = engine.finish();
        assert_eq!(stepped.grant_digest, whole.grant_digest);
        assert_eq!(stepped.per_key_grants, whole.per_key_grants);
        assert_eq!(stepped.windows, whole.windows);
        assert_eq!(stepped.critical_path_events, whole.critical_path_events);
        assert_eq!(stepped.per_shard_events, whole.per_shard_events);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        ParallelConfig {
            shards: 0,
            ..ParallelConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "window must be at least one tick")]
    fn zero_window_is_rejected() {
        ParallelConfig {
            window: WindowPolicy::Fixed(0),
            ..ParallelConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "ceiling (4) must be at least the floor (8)")]
    fn inverted_adaptive_bounds_are_rejected() {
        ParallelConfig {
            window: WindowPolicy::Adaptive {
                min: 8,
                max: 4,
                target: 32,
            },
            ..ParallelConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "non-empty demand profile")]
    fn empty_balanced_profile_is_rejected() {
        ParallelConfig {
            shard_map: ShardMap::balanced(Vec::new()),
            ..ParallelConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "must weight every key")]
    fn wrong_length_balanced_profile_is_rejected() {
        let tree = Tree::kary(15, 2);
        let demand = PacedKeyDemand::new(24, 15, 120, 2, 4, 0xC0FFEE);
        ParallelEngine::new(
            &tree,
            demand,
            ParallelConfig {
                shard_map: ShardMap::balanced(vec![1; 23]),
                ..ParallelConfig::default()
            },
        );
    }

    #[test]
    fn matches_across_queue_backends() {
        let run = |scheduler| {
            let tree = Tree::star(9);
            let demand = PacedKeyDemand::new(16, 9, 90, 3, 3, 7);
            ParallelEngine::new(
                &tree,
                demand,
                ParallelConfig {
                    shards: 2,
                    scheduler,
                    record_grants: true,
                    ..ParallelConfig::default()
                },
            )
            .run()
        };
        let heap = run(Scheduler::Heap);
        let wheel = run(Scheduler::Wheel);
        assert_eq!(heap.grant_digest, wheel.grant_digest);
        assert_eq!(heap.per_key_grants, wheel.per_key_grants);
        assert_eq!(heap.envelopes, wheel.envelopes);
    }

    #[test]
    fn leased_runs_stay_shard_invariant_and_serve_everyone() {
        let run = |shards| {
            let tree = Tree::kary(15, 2);
            let demand = PacedKeyDemand::new(8, 15, 80, 4, 4, 0xBEEF);
            ParallelEngine::new(
                &tree,
                demand,
                ParallelConfig {
                    shards,
                    lease: LeaseConfig::new(8, 16),
                    record_grants: true,
                    ..ParallelConfig::default()
                },
            )
            .run()
        };
        let base = run(1);
        assert!(base.violation.is_none(), "{:?}", base.violation);
        assert_eq!(base.starved, 0);
        assert_eq!(base.starvation_bound_ticks, 0);
        assert!(base.lease_grants > 0, "bursty local demand leases locally");
        assert!(
            base.lease_grants < base.grants,
            "the DAG still moves the token"
        );
        for shards in [2, 4, 8] {
            let report = run(shards);
            assert_eq!(report.grant_digest, base.grant_digest, "K={shards}");
            assert_eq!(report.per_key_grants, base.per_key_grants, "K={shards}");
            assert_eq!(report.rollup, base.rollup, "K={shards}");
            assert_eq!(report.lease_grants, base.lease_grants, "K={shards}");
            assert_eq!(report.starved, 0, "K={shards}");
        }
    }

    #[test]
    fn hub_placement_and_queued_local_requests_work() {
        // One key, every request through a hub leaf: bursts pile up at
        // single nodes and exercise the local FIFO queue.
        let tree = Tree::line(6);
        let demand = PacedKeyDemand::new(1, 6, 40, 4, 5, 99);
        let report = ParallelEngine::new(
            &tree,
            demand,
            ParallelConfig {
                placement: Placement::Hub(NodeId(5)),
                record_grants: true,
                ..ParallelConfig::default()
            },
        )
        .run();
        assert!(report.violation.is_none());
        assert_eq!(report.starved, 0);
        assert_eq!(report.grants, 20);
        let grants = &report.per_key_grants.as_ref().unwrap()[0];
        assert_eq!(grants.len(), 20);
        // Grant times never go backwards on one key.
        for pair in grants.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }
}
