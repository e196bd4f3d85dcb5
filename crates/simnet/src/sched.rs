//! Pluggable event-queue backends for the [`Engine`](crate::Engine)'s
//! scheduler.
//!
//! The engine's ordering contract is load-bearing for everything this
//! repo measures: events pop in nondecreasing `(time, seq)` order, where
//! `seq` is the engine's push counter — same-tick events leave in
//! schedule order, which is what makes runs deterministic. This module
//! factors that contract into a sealed [`EventQueue`] trait with two
//! interchangeable backends that must produce **byte-identical traces**
//! (pinned by the `determinism_golden` and `sched_equivalence` tests in
//! the umbrella crate):
//!
//! * [`HeapQueue`] — the classic binary heap over a packed
//!   `(time << 64) | seq` `u128` key: one branch per sift comparison,
//!   `O(log q)` push/pop at any horizon. The safe default for
//!   heavy-tailed latency models.
//! * [`WheelQueue`] — a two-level hierarchical timing wheel with
//!   power-of-two bucketing plus a binary-heap overflow for far-future
//!   timers. Under the default one-tick-per-hop network model nearly
//!   every event lands at `now + 0/1` (the multi-lock `dmx-lockspace`
//!   subsystem schedules even more same-tick flush wakes), so the
//!   `O(log q)` heap sift is wasted ordering work; the wheel makes
//!   push and pop `O(1)` for the near-now common case.
//!
//! # Wheel design
//!
//! Time is split into power-of-two blocks ([`SLOTS`]` = 64` ticks per
//! block, 64 blocks per super-block):
//!
//! * **Level 0** — 64 one-tick slots covering the block the cursor is
//!   in. A slot is a `VecDeque` popped front-to-back, so same-tick
//!   events leave in insertion order; because the engine's `seq` only
//!   grows, insertion order *is* seq order.
//! * **Level 1** — 64 buckets of 64 ticks each covering the cursor's
//!   super-block (4096 ticks). When level 0 drains, the next non-empty
//!   bucket is **rotated** down into level-0 slots (stable
//!   distribution, so per-tick seq order is preserved);
//!   [`Metrics::sched_bucket_rotations`](crate::metrics::Metrics)
//!   counts these.
//! * **Overflow** — events beyond the current super-block
//!   ([`Ctx::wake_at`](crate::Ctx::wake_at) may schedule arbitrarily
//!   far ahead) park in a binary heap ordered by the same packed key.
//!   When the whole wheel drains, overflow events are **promoted
//!   lazily, one level-0 block at a time**: only the earliest block's
//!   events move into level-0 slots, and the rest of their super-block
//!   stays parked in the heap until the cursor actually reaches it.
//!   (Pushes that arrive in the meantime file into level 1, so a
//!   promoted block can later meet a level-1 bucket covering the same
//!   block — the two are merge-sorted by the packed key.)
//!   [`Metrics::sched_overflow_promotions`](crate::metrics::Metrics)
//!   counts promoted events.
//!
//! Occupancy bitmasks (one `u64` per level) make "find the next
//! non-empty slot" a single `trailing_zeros`. All slots, buckets, and
//! scratch structures are persistent — drained, never dropped — so the
//! steady-state hot path performs **zero heap allocations** once warm
//! (pinned by the umbrella crate's `alloc_free` test under both
//! backends).
//!
//! # Determinism contract
//!
//! Both backends pop identical `(time, seq)` sequences provided callers
//! honor the engine's own invariants, which the backends `debug_assert`:
//!
//! 1. `push` is never called with `at` earlier than the last popped
//!    time (the engine never schedules into the past), and
//! 2. `seq` strictly increases across pushes.
//!
//! Under those rules every wheel structure only ever appends events of
//! one tick in increasing `seq` order — direct pushes arrive with
//! ever-larger `seq`, a bucket rotation distributes stably, an overflow
//! promotion drains one block's events from the heap in `(time, seq)`
//! order into empty level-0 slots, and when a promoted block coincides
//! with a level-1 bucket the union is sorted by the packed `(time,
//! seq)` key before filing — so FIFO pops reproduce the heap's total
//! order exactly.
//!
//! # Choosing a backend
//!
//! [`EngineConfig::scheduler`](crate::EngineConfig) selects a
//! [`Scheduler`]; the default [`Scheduler::Auto`] resolves to the wheel
//! exactly when both the latency and CS-duration models are *near-now*:
//! `Fixed(t)` with `t <=` [`WHEEL_NEAR_HORIZON`] or `Uniform { hi, .. }` with
//! `hi <=` [`SLOTS`]. `Exponential` (unbounded tail) and wide models
//! resolve to the heap. The resolution is pure and covered by tests.

use std::collections::{BinaryHeap, VecDeque};

use crate::latency::LatencyModel;
use crate::time::Time;

/// Slots per wheel level (one-tick slots at level 0, [`SLOTS`]-tick
/// buckets at level 1). A power of two so slot indexing is a mask.
pub const SLOTS: usize = 64;

const SLOT_BITS: u32 = SLOTS.trailing_zeros();
const SLOT_MASK: u64 = SLOTS as u64 - 1;

/// Ticks the two wheel levels span together (64 × 64 = 4096): events
/// scheduled beyond the current super-block go to the wheel's overflow
/// heap.
pub const WHEEL_SPAN: u64 = (SLOTS * SLOTS) as u64;

/// Largest `Fixed` latency [`Scheduler::Auto`] still considers
/// *near-now*. A `Fixed(t)` push lands in the overflow heap whenever it
/// crosses a super-block boundary — probability ≈ `t / WHEEL_SPAN` from
/// a uniformly-placed cursor — and an overflow round-trip (heap push,
/// heap pop, re-file) costs more than the plain heap backend would
/// have. Capping the accepted horizon at a quarter super-block keeps
/// that detour rare (≤ 25% of pushes) so the O(1) majority still wins.
pub const WHEEL_NEAR_HORIZON: u64 = WHEEL_SPAN / 4;

/// Event-queue backend selection, set via
/// [`EngineConfig::scheduler`](crate::EngineConfig).
///
/// # Examples
///
/// ```
/// use dmx_simnet::{LatencyModel, SchedBackend, Scheduler, Time};
///
/// // The default one-tick-per-hop model is the wheel's home turf.
/// let fixed = LatencyModel::Fixed(Time(1));
/// assert_eq!(Scheduler::Auto.resolve(fixed, fixed), SchedBackend::Wheel);
///
/// // Heavy-tailed latencies resolve to the heap.
/// let exp = LatencyModel::Exponential { mean: Time(4) };
/// assert_eq!(Scheduler::Auto.resolve(exp, fixed), SchedBackend::Heap);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Pick per run: the wheel when both the latency and CS-duration
    /// models are near-now (`Fixed` within [`WHEEL_NEAR_HORIZON`] or
    /// `Uniform` with `hi <= `[`SLOTS`]), the heap otherwise.
    #[default]
    Auto,
    /// Always the binary-heap backend ([`HeapQueue`]).
    Heap,
    /// Always the timing-wheel backend ([`WheelQueue`]).
    Wheel,
}

/// The backend a [`Scheduler`] resolved to for a concrete run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedBackend {
    /// Binary heap over packed `(time, seq)` keys.
    Heap,
    /// Hierarchical timing wheel with heap overflow.
    Wheel,
}

impl SchedBackend {
    /// Stable lowercase label (used in bench table keys and JSON).
    pub fn name(self) -> &'static str {
        match self {
            SchedBackend::Heap => "heap",
            SchedBackend::Wheel => "wheel",
        }
    }
}

/// `true` when `model` schedules (almost) everything near now, so the
/// wheel's O(1) buckets pay off.
fn near_now(model: LatencyModel) -> bool {
    match model {
        LatencyModel::Fixed(t) => t.0 <= WHEEL_NEAR_HORIZON,
        LatencyModel::Uniform { hi, .. } => hi.0 <= SLOTS as u64,
        // Unbounded tail: samples routinely overshoot any fixed horizon.
        LatencyModel::Exponential { .. } => false,
    }
}

impl Scheduler {
    /// Resolves the selection against the run's latency models. Pure:
    /// the same inputs always pick the same backend, so a config is
    /// reproducible by construction.
    pub fn resolve(self, latency: LatencyModel, cs_duration: LatencyModel) -> SchedBackend {
        match self {
            Scheduler::Heap => SchedBackend::Heap,
            Scheduler::Wheel => SchedBackend::Wheel,
            Scheduler::Auto => {
                if near_now(latency) && near_now(cs_duration) {
                    SchedBackend::Wheel
                } else {
                    SchedBackend::Heap
                }
            }
        }
    }
}

/// Counters a backend accumulates while reorganizing its internals;
/// drained into [`Metrics`](crate::metrics::Metrics) by the engine
/// after every pop. Always zero for [`HeapQueue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Level-1 buckets rotated down into level-0 slots.
    pub bucket_rotations: u64,
    /// Events promoted out of the overflow heap into the wheel.
    pub overflow_promotions: u64,
}

mod sealed {
    /// Seals [`EventQueue`](super::EventQueue): the engine's ordering
    /// contract is verified for exactly the backends in this module,
    /// and foreign backends could silently break determinism.
    pub trait Sealed {}
}

/// The engine's scheduling core: a priority queue over `(time, seq)`
/// keys, popped earliest-first with `seq` breaking same-tick ties.
///
/// Sealed — [`HeapQueue`] and [`WheelQueue`] are the only
/// implementations, selected via
/// [`EngineConfig::scheduler`](crate::EngineConfig). Both are pinned to
/// produce identical pop orders by the umbrella crate's equivalence
/// tests.
///
/// Callers must honor two invariants (the engine does by construction):
/// `at` is never earlier than the last popped time, and `seq` strictly
/// increases across pushes.
pub trait EventQueue<T>: sealed::Sealed {
    /// Enqueues `item` at absolute time `at` with tie-break rank `seq`.
    fn push(&mut self, at: Time, seq: u64, item: T);

    /// Removes and returns the earliest `(time, seq)` event.
    fn pop_earliest(&mut self) -> Option<(Time, T)>;

    /// The earliest queued event's time without popping it.
    fn peek_time(&self) -> Option<Time>;

    /// Number of queued events.
    fn len(&self) -> usize;

    /// `true` when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-sizes internal storage for `additional` more events so a
    /// bounded run performs no allocation inside the hot loop.
    fn reserve(&mut self, additional: usize);

    /// Returns and resets the counters accumulated since the last call.
    fn drain_stats(&mut self) -> SchedStats;
}

#[inline]
fn pack(at: Time, seq: u64) -> u128 {
    (u128::from(at.0) << 64) | u128::from(seq)
}

/// One queued event of a heap-ordered structure: the packed
/// `(time << 64) | seq` key makes sift comparisons — the most-executed
/// comparisons in the engine — a single branch.
struct Entry<T> {
    key: u128,
    item: T,
}

impl<T> Entry<T> {
    #[inline]
    fn at(&self) -> Time {
        Time((self.key >> 64) as u64)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse to pop earliest (time, seq).
        other.key.cmp(&self.key)
    }
}

/// The classic backend: a binary heap over packed `(time, seq)` `u128`
/// keys — `O(log q)` push/pop at any horizon, no assumptions about the
/// event-time distribution.
///
/// # Examples
///
/// ```
/// use dmx_simnet::sched::{EventQueue, HeapQueue};
/// use dmx_simnet::Time;
///
/// let mut q = HeapQueue::new();
/// q.push(Time(5), 0, "late");
/// q.push(Time(1), 1, "early");
/// assert_eq!(q.pop_earliest(), Some((Time(1), "early")));
/// assert_eq!(q.peek_time(), Some(Time(5)));
/// ```
pub struct HeapQueue<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> HeapQueue<T> {
    /// An empty heap.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

impl<T> sealed::Sealed for HeapQueue<T> {}

impl<T> EventQueue<T> for HeapQueue<T> {
    #[inline]
    fn push(&mut self, at: Time, seq: u64, item: T) {
        self.heap.push(Entry {
            key: pack(at, seq),
            item,
        });
    }

    #[inline]
    fn pop_earliest(&mut self) -> Option<(Time, T)> {
        self.heap.pop().map(|e| (e.at(), e.item))
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(Entry::at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    fn drain_stats(&mut self) -> SchedStats {
        SchedStats::default()
    }
}

/// The hierarchical timing-wheel backend: `O(1)` push/pop for events
/// within [`WHEEL_SPAN`] ticks of now, heap overflow beyond. See the
/// [module docs](self) for the full design and determinism argument.
///
/// # Examples
///
/// ```
/// use dmx_simnet::sched::{EventQueue, WheelQueue};
/// use dmx_simnet::Time;
///
/// let mut q: WheelQueue<&str> = WheelQueue::new();
/// q.push(Time(1), 0, "near");
/// q.push(Time(1_000_000), 1, "far"); // parks in the overflow heap
/// assert_eq!(q.pop_earliest(), Some((Time(1), "near")));
/// assert_eq!(q.pop_earliest(), Some((Time(1_000_000), "far")));
/// assert!(q.is_empty());
/// ```
pub struct WheelQueue<T> {
    /// Block (`at >> 6`) level 0 currently covers.
    block0: u64,
    /// Super-block (`at >> 12`) level 1 currently covers.
    block1: u64,
    /// Absolute time of the last pop; level-0 scans start at its slot.
    cursor: u64,
    len: usize,
    /// Occupancy bitmask of `level0` (bit *s* set ⇔ slot *s*
    /// non-empty).
    occ0: u64,
    /// Occupancy bitmask of `level1`.
    occ1: u64,
    /// One-tick FIFO slots; the slot index *is* the tick (mod
    /// [`SLOTS`]), so entries carry no key.
    level0: Vec<VecDeque<T>>,
    /// [`SLOTS`]-tick buckets; entries keep their key for the rotation
    /// down into level 0.
    level1: Vec<Vec<Entry<T>>>,
    /// Far-future timers, beyond the current super-block — plus, after
    /// a lazy promotion, the unpromoted tail of the super-block the
    /// wheel jumped into.
    overflow: BinaryHeap<Entry<T>>,
    /// Persistent merge buffer for promotions that coincide with a
    /// level-1 bucket (drained, never dropped — the hot path stays
    /// allocation-free once warm).
    promote_scratch: Vec<Entry<T>>,
    stats: SchedStats,
    #[cfg(debug_assertions)]
    last_seq: Option<u64>,
}

impl<T> WheelQueue<T> {
    /// An empty wheel with its cursor at [`Time::ZERO`].
    pub fn new() -> Self {
        WheelQueue {
            block0: 0,
            block1: 0,
            cursor: 0,
            len: 0,
            occ0: 0,
            occ1: 0,
            level0: (0..SLOTS).map(|_| VecDeque::new()).collect(),
            level1: (0..SLOTS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            promote_scratch: Vec::new(),
            stats: SchedStats::default(),
            #[cfg(debug_assertions)]
            last_seq: None,
        }
    }

    /// Counters accumulated so far (without resetting them).
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// First occupied level-0 slot at or after `start`, if any: one
    /// masked `trailing_zeros`.
    #[inline]
    fn occ0_first_from(&self, start: usize) -> Option<usize> {
        let masked = self.occ0 & (u64::MAX << start);
        (masked != 0).then(|| masked.trailing_zeros() as usize)
    }

    /// Files `e` into its level-0 slot. Caller guarantees `e` lies in
    /// the current level-0 block and arrives in `(time, seq)` order
    /// relative to the slot's existing tail.
    #[inline]
    fn file_into_level0(&mut self, e: Entry<T>) {
        debug_assert_eq!(e.at().0 >> SLOT_BITS, self.block0);
        let s = (e.at().0 & SLOT_MASK) as usize;
        self.level0[s].push_back(e.item);
        self.occ0 |= 1 << s;
    }

    /// Pops every overflow event belonging to level-0 block `block`
    /// into `into`, counting each as a promotion. The heap yields them
    /// in `(time, seq)` order, so `into` stays sorted if it was empty.
    #[inline]
    fn drain_overflow_block(&mut self, block: u64, into: &mut Vec<Entry<T>>) {
        while let Some(head) = self.overflow.peek() {
            if head.at().0 >> SLOT_BITS != block {
                break;
            }
            into.push(self.overflow.pop().expect("just peeked"));
            self.stats.overflow_promotions += 1;
        }
    }
}

impl<T> Default for WheelQueue<T> {
    fn default() -> Self {
        WheelQueue::new()
    }
}

impl<T> sealed::Sealed for WheelQueue<T> {}

impl<T> EventQueue<T> for WheelQueue<T> {
    #[inline]
    fn push(&mut self, at: Time, seq: u64, item: T) {
        debug_assert!(
            at.0 >= self.cursor,
            "wheel push at {at} before cursor t{}",
            self.cursor
        );
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.last_seq.is_none_or(|last| seq > last),
                "seq must strictly increase (got {seq})"
            );
            self.last_seq = Some(seq);
        }
        self.len += 1;
        let t = at.0;
        if t >> SLOT_BITS == self.block0 {
            // The near-now common case: O(1) append, no key stored —
            // the slot *is* the tick and append order is seq order.
            let s = (t & SLOT_MASK) as usize;
            self.level0[s].push_back(item);
            self.occ0 |= 1 << s;
        } else if t >> (2 * SLOT_BITS) == self.block1 {
            let b = ((t >> SLOT_BITS) & SLOT_MASK) as usize;
            self.level1[b].push(Entry {
                key: pack(at, seq),
                item,
            });
            self.occ1 |= 1 << b;
        } else {
            // Beyond the current super-block: park far-future timers in
            // the overflow heap (promoted when the wheel drains).
            self.overflow.push(Entry {
                key: pack(at, seq),
                item,
            });
        }
    }

    fn pop_earliest(&mut self) -> Option<(Time, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Level 0: first occupied slot at or after the cursor.
            let start = (self.cursor & SLOT_MASK) as usize;
            if let Some(s) = self.occ0_first_from(start) {
                let slot = &mut self.level0[s];
                let item = slot.pop_front().expect("occupancy bit set on empty slot");
                if slot.is_empty() {
                    self.occ0 &= !(1 << s);
                }
                self.len -= 1;
                let at = (self.block0 << SLOT_BITS) | s as u64;
                self.cursor = at;
                return Some((Time(at), item));
            }
            // Level 0 drained: the next event lives in a level-1
            // bucket, in the overflow heap, or both. (Lazy promotion
            // parks the tail of a super-block in the heap, where it can
            // end up behind — or level with — later pushes that filed
            // into level 1.) Jump to whichever block comes first.
            let l1_block = (self.occ1 != 0).then(|| {
                // A bucket's block index is recoverable from the bucket
                // number alone: every entry shares `(block1 << 6) | b`.
                let b = self.occ1.trailing_zeros() as usize;
                (b, (self.block1 << SLOT_BITS) | b as u64)
            });
            let of_block = self.overflow.peek().map(|e| e.at().0 >> SLOT_BITS);
            let target = match (l1_block, of_block) {
                (Some((_, lb)), Some(ob)) => lb.min(ob),
                (Some((_, lb)), None) => lb,
                (None, Some(ob)) => ob,
                (None, None) => unreachable!("len > 0 with every structure empty"),
            };
            debug_assert!(target > self.block0);
            self.block1 = target >> SLOT_BITS;
            self.block0 = target;
            self.cursor = self.block0 << SLOT_BITS;

            match l1_block {
                Some((b, lb)) if lb == target => {
                    self.occ1 &= !(1 << b);
                    self.stats.bucket_rotations += 1;
                    if of_block == Some(target) {
                        // The promoted block and a level-1 bucket cover
                        // the same 64 ticks: merge through the scratch
                        // buffer, sorted by the packed `(time, seq)`
                        // key, so per-tick FIFO order stays seq order.
                        let mut scratch = std::mem::take(&mut self.promote_scratch);
                        scratch.append(&mut self.level1[b]);
                        self.drain_overflow_block(target, &mut scratch);
                        scratch.sort_unstable_by_key(|e| e.key);
                        for e in scratch.drain(..) {
                            self.file_into_level0(e);
                        }
                        self.promote_scratch = scratch; // drained; capacity retained
                    } else {
                        // Rotate the bucket down into level 0 (stable
                        // distribution preserves per-tick seq order).
                        let mut bucket = std::mem::take(&mut self.level1[b]);
                        for e in bucket.drain(..) {
                            self.file_into_level0(e);
                        }
                        self.level1[b] = bucket;
                    }
                }
                _ => {
                    // Overflow only: promote just this block's events,
                    // filing straight into level 0 — heap pops arrive
                    // in `(time, seq)` order, so per-slot FIFO order is
                    // seq order. The rest of the super-block stays
                    // parked; each far-future event still round-trips
                    // the heap at most once, and blocks the cursor
                    // never visits cost nothing.
                    while let Some(head) = self.overflow.peek() {
                        if head.at().0 >> SLOT_BITS != target {
                            break;
                        }
                        let e = self.overflow.pop().expect("just peeked");
                        self.stats.overflow_promotions += 1;
                        self.file_into_level0(e);
                    }
                }
            }
        }
    }

    fn peek_time(&self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let start = (self.cursor & SLOT_MASK) as usize;
        if let Some(s) = self.occ0_first_from(start) {
            return Some(Time((self.block0 << SLOT_BITS) | s as u64));
        }
        // Lazy promotion can leave overflow events *earlier* than the
        // next level-1 bucket (the unpromoted tail of the current
        // super-block), so the earliest of the two structures wins.
        let l1_min = if self.occ1 != 0 {
            let b = self.occ1.trailing_zeros() as usize;
            // Buckets are not internally time-sorted; scan for the
            // minimum (bounded by bucket size — peek is off the hot
            // path, the engine only pops).
            self.level1[b].iter().map(Entry::at).min()
        } else {
            None
        };
        let of_min = self.overflow.peek().map(Entry::at);
        match (l1_min, of_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn reserve(&mut self, additional: usize) {
        // Any single tick, bucket, or the overflow heap could briefly
        // hold every in-flight event, so size them all: O(slots ×
        // additional) memory, bounded and paid only by callers that
        // want strict allocation-freedom (`Engine::reserve`).
        for slot in &mut self.level0 {
            slot.reserve(additional);
        }
        for bucket in &mut self.level1 {
            bucket.reserve(additional);
        }
        self.overflow.reserve(additional);
        self.promote_scratch.reserve(additional);
    }

    fn drain_stats(&mut self) -> SchedStats {
        std::mem::take(&mut self.stats)
    }
}

/// The engine's concrete queue: static dispatch over the two sealed
/// backends (a predictable branch, not a vtable, on the hottest loop in
/// the workspace).
pub enum ActiveQueue<T> {
    /// The binary-heap backend.
    Heap(HeapQueue<T>),
    /// The timing-wheel backend.
    Wheel(WheelQueue<T>),
}

impl<T> ActiveQueue<T> {
    /// An empty queue of the backend a [`Scheduler`] resolved to.
    pub fn for_backend(backend: SchedBackend) -> Self {
        match backend {
            SchedBackend::Heap => ActiveQueue::Heap(HeapQueue::new()),
            SchedBackend::Wheel => ActiveQueue::Wheel(WheelQueue::new()),
        }
    }
}

impl<T> sealed::Sealed for ActiveQueue<T> {}

impl<T> EventQueue<T> for ActiveQueue<T> {
    #[inline]
    fn push(&mut self, at: Time, seq: u64, item: T) {
        match self {
            ActiveQueue::Heap(q) => q.push(at, seq, item),
            ActiveQueue::Wheel(q) => q.push(at, seq, item),
        }
    }

    #[inline]
    fn pop_earliest(&mut self) -> Option<(Time, T)> {
        match self {
            ActiveQueue::Heap(q) => q.pop_earliest(),
            ActiveQueue::Wheel(q) => q.pop_earliest(),
        }
    }

    fn peek_time(&self) -> Option<Time> {
        match self {
            ActiveQueue::Heap(q) => q.peek_time(),
            ActiveQueue::Wheel(q) => q.peek_time(),
        }
    }

    fn len(&self) -> usize {
        match self {
            ActiveQueue::Heap(q) => q.len(),
            ActiveQueue::Wheel(q) => q.len(),
        }
    }

    fn reserve(&mut self, additional: usize) {
        match self {
            ActiveQueue::Heap(q) => q.reserve(additional),
            ActiveQueue::Wheel(q) => q.reserve(additional),
        }
    }

    #[inline]
    fn drain_stats(&mut self) -> SchedStats {
        match self {
            ActiveQueue::Heap(q) => q.drain_stats(),
            ActiveQueue::Wheel(q) => q.drain_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes the same schedule into the heap and the wheel and
    /// asserts identical pop sequences.
    fn assert_equivalent(schedule: &[(u64, &'static str)]) {
        let mut heap = HeapQueue::new();
        let mut wheel = WheelQueue::new();
        for (seq, &(at, label)) in schedule.iter().enumerate() {
            heap.push(Time(at), seq as u64, label);
            wheel.push(Time(at), seq as u64, label);
        }
        loop {
            let h = heap.pop_earliest();
            let w = wheel.pop_earliest();
            assert_eq!(h, w);
            if h.is_none() {
                break;
            }
        }
    }

    #[test]
    fn same_tick_ties_pop_in_seq_order() {
        assert_equivalent(&[(3, "a"), (3, "b"), (1, "c"), (3, "d"), (1, "e")]);
    }

    #[test]
    fn far_future_overflow_and_block_crossings_match_the_heap() {
        assert_equivalent(&[
            (0, "now"),
            (63, "block-edge"),
            (64, "next-block"),
            (4095, "superblock-edge"),
            (4096, "next-superblock"),
            (1_000_000, "far"),
            (1_000_000, "far-tie"),
            (5, "near"),
        ]);
    }

    #[test]
    fn interleaved_pushes_and_pops_stay_ordered() {
        let mut heap = HeapQueue::new();
        let mut wheel: WheelQueue<u64> = WheelQueue::new();
        let mut seq = 0u64;
        let mut push = |heap: &mut HeapQueue<u64>, wheel: &mut WheelQueue<u64>, at: u64| {
            heap.push(Time(at), seq, seq);
            wheel.push(Time(at), seq, seq);
            seq += 1;
        };
        push(&mut heap, &mut wheel, 0);
        push(&mut heap, &mut wheel, 10_000);
        let (t, _) = wheel.pop_earliest().unwrap();
        assert_eq!(heap.pop_earliest().unwrap().0, t);
        // Push behind the far-future event but ahead of the cursor.
        push(&mut heap, &mut wheel, t.0 + 1);
        push(&mut heap, &mut wheel, t.0 + 70); // next block
        push(&mut heap, &mut wheel, t.0 + 5000); // overflow again
        loop {
            let h = heap.pop_earliest();
            let w = wheel.pop_earliest();
            assert_eq!(h, w);
            if h.is_none() {
                break;
            }
        }
        assert!(wheel.is_empty() && heap.is_empty());
    }

    #[test]
    fn wheel_counts_rotations_and_promotions() {
        let mut wheel: WheelQueue<()> = WheelQueue::new();
        wheel.push(Time(0), 0, ());
        wheel.push(Time(100), 1, ()); // level 1 (different block)
        wheel.push(Time(10_000), 2, ()); // overflow
        while wheel.pop_earliest().is_some() {}
        let stats = wheel.stats();
        assert!(stats.bucket_rotations >= 1, "{stats:?}");
        assert_eq!(stats.overflow_promotions, 1);
        // drain_stats resets.
        assert_eq!(wheel.drain_stats(), stats);
        assert_eq!(wheel.drain_stats(), SchedStats::default());
    }

    #[test]
    fn promotion_is_lazy_one_block_at_a_time() {
        // Two far-future events in the same super-block (blocks 156 and
        // 160): popping the first promotes *only* its block; the second
        // stays parked in the heap until its own block is reached.
        let mut wheel: WheelQueue<&str> = WheelQueue::new();
        wheel.push(Time(10_000), 0, "first");
        wheel.push(Time(10_300), 1, "second");
        assert_eq!(wheel.pop_earliest(), Some((Time(10_000), "first")));
        assert_eq!(wheel.stats().overflow_promotions, 1, "second block parked");
        assert_eq!(wheel.pop_earliest(), Some((Time(10_300), "second")));
        assert_eq!(wheel.stats().overflow_promotions, 2);
        assert!(wheel.is_empty());
    }

    #[test]
    fn parked_overflow_merges_with_later_level1_pushes() {
        // A lazy leftover (t=10_301, parked at push time) can meet
        // level-1 entries covering the same block (160), pushed after
        // the wheel jumped into the leftover's super-block. The merge
        // must interleave the two sources by (time, seq) — including a
        // same-tick tie across structures — exactly like the heap.
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut wheel: WheelQueue<u64> = WheelQueue::new();
        let mut seq = 0u64;
        let mut push = |heap: &mut HeapQueue<u64>, wheel: &mut WheelQueue<u64>, at: u64| {
            heap.push(Time(at), seq, seq);
            wheel.push(Time(at), seq, seq);
            seq += 1;
        };
        push(&mut heap, &mut wheel, 10_000); // block 156
        push(&mut heap, &mut wheel, 10_301); // block 160, parked
        assert_eq!(heap.pop_earliest(), wheel.pop_earliest()); // t=10_000
        push(&mut heap, &mut wheel, 10_240); // block 160, files into level 1
        push(&mut heap, &mut wheel, 10_301); // same tick as the leftover
        loop {
            let h = heap.pop_earliest();
            assert_eq!(h, wheel.pop_earliest());
            if h.is_none() {
                break;
            }
        }
        assert!(wheel.is_empty() && heap.is_empty());
    }

    #[test]
    fn peek_sees_parked_overflow_before_level1() {
        // Leftover at t=10_100 (block 157) parked by a lazy promotion;
        // a later push files t=10_300 into level 1. peek must report
        // the *overflow* head — the old level1-first peek would lie.
        let mut wheel: WheelQueue<&str> = WheelQueue::new();
        wheel.push(Time(10_000), 0, "now");
        wheel.push(Time(10_100), 1, "parked");
        assert_eq!(wheel.pop_earliest(), Some((Time(10_000), "now")));
        wheel.push(Time(10_300), 2, "bucketed");
        assert_eq!(wheel.peek_time(), Some(Time(10_100)));
        assert_eq!(wheel.pop_earliest(), Some((Time(10_100), "parked")));
        assert_eq!(wheel.peek_time(), Some(Time(10_300)));
        assert_eq!(wheel.pop_earliest(), Some((Time(10_300), "bucketed")));
        assert!(wheel.is_empty());
    }

    #[test]
    fn peek_matches_next_pop_everywhere() {
        let mut wheel = WheelQueue::new();
        for (seq, at) in [7u64, 3, 3, 200, 9999, 40_000].into_iter().enumerate() {
            wheel.push(Time(at), seq as u64, at);
        }
        while let Some(peeked) = wheel.peek_time() {
            let (t, _) = wheel.pop_earliest().unwrap();
            assert_eq!(peeked, t);
        }
        assert_eq!(wheel.peek_time(), None);
        assert_eq!(wheel.pop_earliest(), None);
    }

    #[test]
    fn auto_resolution_rules() {
        let fixed1 = LatencyModel::Fixed(Time(1));
        let fixed_edge = LatencyModel::Fixed(Time(WHEEL_NEAR_HORIZON));
        let fixed_huge = LatencyModel::Fixed(Time(WHEEL_NEAR_HORIZON + 1));
        let small_uniform = LatencyModel::Uniform {
            lo: Time(1),
            hi: Time(SLOTS as u64),
        };
        let wide_uniform = LatencyModel::Uniform {
            lo: Time(1),
            hi: Time(SLOTS as u64 + 1),
        };
        let exp = LatencyModel::Exponential { mean: Time(4) };
        let auto = Scheduler::Auto;
        assert_eq!(auto.resolve(fixed1, fixed1), SchedBackend::Wheel);
        assert_eq!(auto.resolve(small_uniform, fixed1), SchedBackend::Wheel);
        assert_eq!(auto.resolve(fixed1, small_uniform), SchedBackend::Wheel);
        assert_eq!(auto.resolve(fixed_edge, fixed1), SchedBackend::Wheel);
        assert_eq!(auto.resolve(fixed_huge, fixed1), SchedBackend::Heap);
        assert_eq!(auto.resolve(wide_uniform, fixed1), SchedBackend::Heap);
        assert_eq!(auto.resolve(exp, fixed1), SchedBackend::Heap);
        assert_eq!(auto.resolve(fixed1, exp), SchedBackend::Heap);
        // Explicit selections override the heuristic.
        assert_eq!(Scheduler::Heap.resolve(fixed1, fixed1), SchedBackend::Heap);
        assert_eq!(Scheduler::Wheel.resolve(exp, exp), SchedBackend::Wheel);
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(SchedBackend::Heap.name(), "heap");
        assert_eq!(SchedBackend::Wheel.name(), "wheel");
    }
}
