use std::fmt;

use dmx_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checker::{LivenessChecker, SafetyChecker, Violation};
use crate::latency::LatencyModel;
use crate::metrics::{GrantRecord, Metrics, SyncDelay};
use crate::protocol::{Ctx, MessageMeta, Protocol};
use crate::sched::{ActiveQueue, EventQueue, SchedBackend, Scheduler};
use crate::time::Time;
use crate::trace::{Trace, TraceEvent};

/// Engine configuration.
///
/// The defaults model the network of the paper: reliable, per-pair FIFO,
/// one tick per hop, one tick inside the critical section.
///
/// # Examples
///
/// ```
/// use dmx_simnet::{EngineConfig, LatencyModel, Time};
///
/// let config = EngineConfig {
///     latency: LatencyModel::Uniform { lo: Time(1), hi: Time(9) },
///     seed: 7,
///     ..EngineConfig::default()
/// };
/// assert!(config.fifo);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Message transit-time distribution.
    pub latency: LatencyModel,
    /// How long a node stays inside its critical section.
    pub cs_duration: LatencyModel,
    /// Seed for all randomness (latency and CS-duration sampling).
    pub seed: u64,
    /// Enforce the paper's FIFO-link assumption ("messages sent by the
    /// same node are not allowed to overtake each other"). Disable only to
    /// demonstrate that the protocols *depend* on the assumption — the
    /// checkers will catch the resulting violations.
    pub fifo: bool,
    /// Record a full [`Trace`]. Disable for large parameter sweeps.
    pub record_trace: bool,
    /// Track the maximum per-node control-state footprint (the Chapter
    /// 6.4 high-water mark). A node's storage only changes inside its
    /// own callbacks, so the engine samples just the node each event
    /// dispatched to — O(1) per event (plus one full scan at start-up
    /// and after [`Engine::reset_metrics`]). Off by default.
    pub track_storage: bool,
    /// Probability (0.0..=1.0) that a message is lost in transit. The
    /// paper assumes a *reliable* network; a nonzero rate deliberately
    /// violates that assumption so tests can confirm the failure is
    /// *detected* (starvation / lost token) rather than silent. Sampled
    /// from the engine's seeded RNG. Validated once at [`Engine::new`]:
    /// NaN and negative values are rejected, values above 1.0 clamp to
    /// 1.0 — the hot loop uses the value as-is.
    pub drop_rate: f64,
    /// Abort the run after this many processed events (guards against a
    /// livelocked protocol spinning forever).
    pub max_events: u64,
    /// Event-queue backend (see [`crate::sched`]). The default
    /// [`Scheduler::Auto`] picks the O(1) timing wheel when both
    /// `latency` and `cs_duration` are near-now (`Fixed`/small
    /// `Uniform`) and the binary heap otherwise; both backends produce
    /// byte-identical traces, so this is purely a performance knob.
    pub scheduler: Scheduler,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            latency: LatencyModel::Fixed(Time(1)),
            cs_duration: LatencyModel::Fixed(Time(1)),
            seed: 0,
            fifo: true,
            record_trace: true,
            track_storage: false,
            drop_rate: 0.0,
            max_events: 50_000_000,
            scheduler: Scheduler::Auto,
        }
    }
}

/// Why a run could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A checker found a correctness violation.
    Violation(Violation),
    /// `max_events` was hit; the protocol is probably livelocked.
    EventLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Violation(v) => write!(f, "{v}"),
            EngineError::EventLimitExceeded { limit } => {
                write!(
                    f,
                    "event limit of {limit} exceeded; protocol appears livelocked"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Violation(v) => Some(v),
            EngineError::EventLimitExceeded { .. } => None,
        }
    }
}

impl From<Violation> for EngineError {
    fn from(v: Violation) -> Self {
        EngineError::Violation(v)
    }
}

/// Summary returned by a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Simulated time when the queue drained.
    pub final_time: Time,
    /// All collected metrics (cloned; the engine keeps its own copy too).
    pub metrics: Metrics,
}

/// A source of critical-section requests driving a closed-loop run.
///
/// The engine asks once up front for the initial request schedule and then,
/// every time a node leaves the critical section, whether (and when) that
/// node requests again. Returning `None` retires the node.
///
/// Implementations live in the `dmx-workload` crate.
pub trait Workload {
    /// Requests to schedule before the run starts.
    fn initial_requests(&mut self, n: usize) -> Vec<(Time, NodeId)>;

    /// Called after `node` exits at `now`; the next time this node should
    /// request, or `None` to stop.
    fn next_request(&mut self, node: NodeId, now: Time) -> Option<Time>;
}

enum EventKind<M> {
    Deliver { src: NodeId, dst: NodeId, msg: M },
    Request { node: NodeId },
    Exit { node: NodeId },
    Wake { node: NodeId },
}

/// Deterministic discrete-event engine running one [`Protocol`] instance
/// per node.
///
/// See the [crate-level documentation](crate) for the model, and
/// [`EngineConfig`] for knobs.
///
/// # Examples
///
/// Driving a run manually with [`Engine::step`]:
///
/// ```
/// use dmx_simnet::{Ctx, Engine, EngineConfig, Protocol, Time};
/// use dmx_topology::NodeId;
///
/// struct Selfish;
/// impl Protocol for Selfish {
///     type Message = ();
///     fn on_request_cs(&mut self, ctx: &mut Ctx<'_, ()>) { ctx.enter_cs(); }
///     fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {}
///     fn on_exit_cs(&mut self, _: &mut Ctx<'_, ()>) {}
/// }
///
/// let mut engine = Engine::new(vec![Selfish, Selfish], EngineConfig::default());
/// engine.request_at(Time(0), NodeId(1));
/// while engine.step()?.is_some() {}
/// assert_eq!(engine.metrics().cs_entries, 1);
/// # Ok::<(), dmx_simnet::EngineError>(())
/// ```
pub struct Engine<P: Protocol> {
    nodes: Vec<P>,
    config: EngineConfig,
    rng: StdRng,
    /// The pluggable scheduling core (see [`crate::sched`]): either the
    /// binary heap or the timing wheel, fixed at construction by
    /// resolving `config.scheduler` against the latency models.
    queue: ActiveQueue<EventKind<P::Message>>,
    /// The backend `queue` resolved to (for observability and tests).
    backend: SchedBackend,
    /// Monotone push counter; the `(time, seq)` pair is every queued
    /// event's total order, and seq ties break in schedule order —
    /// which is what makes runs deterministic.
    seq: u64,
    now: Time,
    /// Earliest allowed delivery per (src, dst) to honor FIFO links,
    /// stored flat at `src * n + dst`: a single indexed load on the send
    /// path instead of a hash-map probe. Empty when `config.fifo` is
    /// off. O(n²) memory — fine at the current sweep sizes (8 MB at
    /// n = 1023); revisit (per-edge indexing) before very large N.
    link_clock: Vec<Time>,
    /// Scratch buffer lent to every [`Ctx`]; persists across dispatches
    /// so the steady-state hot path performs no allocation.
    outbox: Vec<(NodeId, P::Message)>,
    /// Scratch buffer for [`Ctx::wake_at`] requests, persistent for the
    /// same reason as `outbox`.
    wake_buf: Vec<Time>,
    trace: Trace,
    metrics: Metrics,
    safety: SafetyChecker,
    liveness: LivenessChecker,
    /// Index into `metrics.grants` of the open (un-released) grant per node.
    open_grant: Vec<Option<usize>>,
    /// messages_total snapshot when each pending request was issued.
    msgs_at_request: Vec<u64>,
    /// Exit bookkeeping for synchronization delay: set when a node exits
    /// while other requests are pending.
    handoff: Option<(NodeId, Time, u64)>,
    /// Set by the most recent `Exit` event so closed-loop workloads can
    /// schedule the node's next request.
    just_released: Option<(NodeId, Time)>,
}

impl<P: Protocol> Engine<P> {
    /// Builds an engine over one protocol instance per node and runs every
    /// node's [`Protocol::on_init`] (in node order), scheduling any
    /// messages it sends.
    ///
    /// Initialization traffic (e.g. the paper's Figure 5 flood) counts
    /// toward the metrics; call [`Engine::run_to_quiescence`] followed by
    /// [`Engine::reset_metrics`] to exclude it from an experiment.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<P>, mut config: EngineConfig) -> Self {
        assert!(!nodes.is_empty(), "engine needs at least one node");
        // Validate the loss probability once, here, instead of re-clamping
        // on every delivery in the hot loop.
        assert!(
            config.drop_rate.is_finite() && config.drop_rate >= 0.0,
            "drop_rate must be a finite probability >= 0, got {}",
            config.drop_rate
        );
        config.drop_rate = config.drop_rate.min(1.0);
        // Validate the latency models once, here, instead of panicking
        // mid-run on the first sample of an inverted Uniform range.
        config.latency.validate("latency");
        config.cs_duration.validate("cs_duration");
        let backend = config.scheduler.resolve(config.latency, config.cs_duration);
        let n = nodes.len();
        let mut engine = Engine {
            nodes,
            config,
            rng: StdRng::seed_from_u64(config.seed),
            queue: ActiveQueue::for_backend(backend),
            backend,
            seq: 0,
            now: Time::ZERO,
            link_clock: if config.fifo {
                vec![Time::ZERO; n * n]
            } else {
                Vec::new()
            },
            outbox: Vec::new(),
            wake_buf: Vec::new(),
            trace: Trace::new(),
            metrics: Metrics::default(),
            safety: SafetyChecker::new(),
            liveness: LivenessChecker::new(),
            open_grant: vec![None; n],
            msgs_at_request: vec![0; n],
            handoff: None,
            just_released: None,
        };
        for i in 0..n {
            let id = NodeId::from_index(i);
            // on_init may send but must not enter the critical section.
            let entered = engine.dispatch(id, |node, ctx| node.on_init(ctx));
            assert!(!entered, "protocol bug: {id} entered the CS from on_init");
        }
        engine.seed_storage_high_water_mark();
        engine
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the engine drives no nodes — consistent with
    /// [`Engine::len`]. The constructor rejects an empty node set, so
    /// this is always `false`; it exists to honor the `len`/`is_empty`
    /// API convention (it used to report `true` for a *single-node*
    /// system, contradicting `len() == 1`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Immutable view of a node's protocol state — how an observer
    /// "deduces the implicit queue by observing the states of the nodes".
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.index()]
    }

    /// All protocol instances, indexed by node.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Trace recorded so far (empty if `record_trace` is off).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The node currently inside the critical section, if any.
    pub fn occupant(&self) -> Option<NodeId> {
        self.safety.occupant()
    }

    /// The event-queue backend this engine resolved
    /// [`EngineConfig::scheduler`] to at construction.
    pub fn sched_backend(&self) -> SchedBackend {
        self.backend
    }

    /// `true` while requests are outstanding or events are queued.
    pub fn is_busy(&self) -> bool {
        !self.queue.is_empty() || self.liveness.pending_count() > 0
    }

    /// The timestamp of the next queued event, if any. Lets scripted tests
    /// run "until just before time t".
    pub fn next_event_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Forgets all metrics and trace collected so far (bookkeeping for
    /// in-flight requests is kept). Used to exclude initialization traffic
    /// from measurements.
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::default();
        self.trace = Trace::new();
        self.open_grant.iter_mut().for_each(|g| *g = None);
        self.handoff = None;
        self.seed_storage_high_water_mark();
    }

    /// Pre-sizes the event queue and the per-grant metric vectors so a
    /// run expected to hold at most `queued_events` simultaneous events
    /// and record at most `grants` critical-section entries performs no
    /// heap allocation inside [`Engine::step`] (with `record_trace`
    /// off). Optional: without it the same path merely amortizes
    /// allocation through doubling growth.
    pub fn reserve(&mut self, queued_events: usize, grants: usize) {
        self.queue.reserve(queued_events);
        self.metrics.grants.reserve(grants);
        self.metrics.sync_delays.reserve(grants);
    }

    /// Full-scan seed of `max_storage_words`; after this the hot path
    /// only samples the node an event dispatched to.
    fn seed_storage_high_water_mark(&mut self) {
        if !self.config.track_storage {
            return;
        }
        let peak = self
            .nodes
            .iter()
            .map(Protocol::storage_words)
            .max()
            .unwrap_or(0);
        self.metrics.max_storage_words = self.metrics.max_storage_words.max(peak);
    }

    /// Samples the storage footprint of the node the current event
    /// dispatched to. Only that node's state can have changed, so this
    /// O(1) probe maintains the same high-water mark the previous
    /// every-event O(N) scan did.
    fn note_storage(&mut self, id: NodeId) {
        let words = self.nodes[id.index()].storage_words();
        if words > self.metrics.max_storage_words {
            self.metrics.max_storage_words = words;
        }
    }

    /// Schedules a critical-section request for `node` at absolute time
    /// `at`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `at` is in the past.
    pub fn request_at(&mut self, at: Time, node: NodeId) {
        assert!(
            node.index() < self.nodes.len(),
            "request for out-of-range {node}"
        );
        assert!(
            at >= self.now,
            "request scheduled in the past ({at} < {})",
            self.now
        );
        self.push(at, EventKind::Request { node });
    }

    /// Processes the next event.
    ///
    /// Returns `Ok(Some(t))` with the event's time, or `Ok(None)` when the
    /// queue is empty.
    ///
    /// # Errors
    ///
    /// Any checker [`Violation`], wrapped in [`EngineError`].
    pub fn step(&mut self) -> Result<Option<Time>, EngineError> {
        let Some((at, kind)) = self.queue.pop_earliest() else {
            return Ok(None);
        };
        let sched = self.queue.drain_stats();
        self.metrics.sched_bucket_rotations += sched.bucket_rotations;
        self.metrics.sched_overflow_promotions += sched.overflow_promotions;
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        // The node this event dispatches to — the only node whose state
        // (and storage footprint) the event can change.
        let touched;
        match kind {
            EventKind::Request { node } => {
                touched = node;
                self.liveness.on_request(node, self.now)?;
                self.metrics.requests += 1;
                self.msgs_at_request[node.index()] = self.metrics.messages_total;
                if self.config.record_trace {
                    self.trace.push(TraceEvent::Request { at: self.now, node });
                }
                let entered = self.dispatch(node, |p, ctx| p.on_request_cs(ctx));
                if entered {
                    self.enter(node)?;
                }
            }
            EventKind::Deliver { src, dst, msg } => {
                touched = dst;
                let wire_bytes = msg.wire_size() as u64;
                self.metrics.messages_total += 1;
                self.metrics.bytes_total += wire_bytes;
                self.metrics.max_message_bytes = self.metrics.max_message_bytes.max(wire_bytes);
                self.metrics.by_kind.increment(msg.kind());
                if self.config.record_trace {
                    self.trace.push(TraceEvent::Deliver {
                        at: self.now,
                        src,
                        dst,
                        kind: msg.kind(),
                    });
                }
                let entered = self.dispatch(dst, |p, ctx| p.on_message(src, msg, ctx));
                if entered {
                    self.enter(dst)?;
                }
            }
            EventKind::Exit { node } => {
                touched = node;
                self.safety.on_exit(node, self.now)?;
                if let Some(gi) = self.open_grant[node.index()].take() {
                    self.metrics.grants[gi].released_at = Some(self.now);
                }
                if self.config.record_trace {
                    self.trace.push(TraceEvent::Exit { at: self.now, node });
                }
                // A hand-off is pending if someone is waiting as we exit.
                self.handoff = if self.liveness.pending_count() > 0 {
                    Some((node, self.now, self.metrics.messages_total))
                } else {
                    None
                };
                self.just_released = Some((node, self.now));
                let entered = self.dispatch(node, |p, ctx| p.on_exit_cs(ctx));
                if entered {
                    self.enter(node)?;
                }
            }
            EventKind::Wake { node } => {
                touched = node;
                self.metrics.wakes += 1;
                if self.config.record_trace {
                    self.trace.push(TraceEvent::Wake { at: self.now, node });
                }
                let entered = self.dispatch(node, |p, ctx| p.on_wake(ctx));
                if entered {
                    self.enter(node)?;
                }
            }
        }
        if self.config.track_storage {
            self.note_storage(touched);
        }
        Ok(Some(self.now))
    }

    /// Runs until the next event would be at or after `deadline` (or the
    /// queue empties), leaving the system frozen mid-flight — the way the
    /// examples take implicit-queue snapshots. No liveness check is
    /// performed (requests may legitimately still be pending).
    ///
    /// # Errors
    ///
    /// Any checker [`Violation`] raised by the processed events.
    pub fn run_until(&mut self, deadline: Time) -> Result<(), EngineError> {
        while self
            .next_event_time()
            .map(|t| t < deadline)
            .unwrap_or(false)
        {
            self.step()?;
        }
        Ok(())
    }

    /// Runs until no events remain, then checks liveness.
    ///
    /// # Errors
    ///
    /// A checker [`Violation`] (including [`Violation::Starvation`] when a
    /// request is still pending at quiescence), or
    /// [`EngineError::EventLimitExceeded`].
    pub fn run_to_quiescence(&mut self) -> Result<RunReport, EngineError> {
        let mut processed: u64 = 0;
        while self.step()?.is_some() {
            processed += 1;
            if processed > self.config.max_events {
                return Err(EngineError::EventLimitExceeded {
                    limit: self.config.max_events,
                });
            }
        }
        self.liveness.at_quiescence()?;
        Ok(RunReport {
            final_time: self.now,
            metrics: self.metrics.clone(),
        })
    }

    /// Runs a closed-loop workload: schedules its initial requests, then
    /// after every exit asks it when that node requests next, until the
    /// workload stops issuing and the system quiesces.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run_to_quiescence`].
    pub fn run_with_workload<W: Workload + ?Sized>(
        &mut self,
        workload: &mut W,
    ) -> Result<RunReport, EngineError> {
        for (at, node) in workload.initial_requests(self.nodes.len()) {
            self.request_at(at, node);
        }
        let mut processed: u64 = 0;
        // After each event, ask the workload whether the node that just
        // exited should re-request.
        while self.step()?.is_some() {
            processed += 1;
            if processed > self.config.max_events {
                return Err(EngineError::EventLimitExceeded {
                    limit: self.config.max_events,
                });
            }
            if let Some((node, released)) = self.take_just_released() {
                if let Some(next) = workload.next_request(node, released) {
                    let next = next.max(self.now);
                    self.request_at(next, node);
                }
            }
        }
        self.liveness.at_quiescence()?;
        Ok(RunReport {
            final_time: self.now,
            metrics: self.metrics.clone(),
        })
    }

    fn enter(&mut self, node: NodeId) -> Result<(), EngineError> {
        let requested_at = self.liveness.on_grant(node, self.now)?;
        self.safety.on_enter(node, self.now)?;
        self.metrics.cs_entries += 1;
        if self.config.record_trace {
            self.trace.push(TraceEvent::Enter { at: self.now, node });
        }
        if let Some((from, exit_at, msgs_at_exit)) = self.handoff.take() {
            self.metrics.sync_delays.push(SyncDelay {
                from,
                to: node,
                messages: self.metrics.messages_total - msgs_at_exit,
                elapsed: self.now.saturating_since(exit_at),
            });
        }
        let record = GrantRecord {
            node,
            requested_at,
            granted_at: self.now,
            released_at: None,
            messages_during_wait: self.metrics.messages_total - self.msgs_at_request[node.index()],
        };
        self.open_grant[node.index()] = Some(self.metrics.grants.len());
        self.metrics.grants.push(record);
        let dur = self.config.cs_duration.sample(&mut self.rng);
        self.push(self.now + dur, EventKind::Exit { node });
        Ok(())
    }

    /// The node that exited the critical section on the most recent
    /// [`Engine::step`], if any; consumed on read. External closed-loop
    /// drivers use this to schedule re-requests without the engine
    /// calling back into them (see [`Engine::run_with_workload`]).
    pub fn take_just_released(&mut self) -> Option<(NodeId, Time)> {
        self.just_released.take()
    }

    /// Runs `f` on node `id` with a fresh [`Ctx`]; schedules any sends.
    /// Returns whether the callback signalled critical-section entry.
    ///
    /// The send buffer lent to the `Ctx` is the engine's persistent
    /// `outbox`, moved out for the duration of the call (an empty `Vec`
    /// takes its place — no allocation) and moved back drained, so
    /// steady-state dispatches reuse its capacity.
    fn dispatch<F>(&mut self, id: NodeId, f: F) -> bool
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Message>),
    {
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut wake_buf = std::mem::take(&mut self.wake_buf);
        debug_assert!(outbox.is_empty(), "outbox must drain between dispatches");
        debug_assert!(
            wake_buf.is_empty(),
            "wake buffer must drain between dispatches"
        );
        let mut enter = false;
        {
            let mut ctx = Ctx::new(
                id,
                self.now,
                self.nodes.len(),
                &mut outbox,
                &mut wake_buf,
                &mut enter,
            );
            f(&mut self.nodes[id.index()], &mut ctx);
        }
        for (to, msg) in outbox.drain(..) {
            self.send_from(id, to, msg);
        }
        for at in wake_buf.drain(..) {
            debug_assert!(at >= self.now, "Ctx::wake_at already rejects past wakes");
            self.push(at, EventKind::Wake { node: id });
        }
        self.outbox = outbox;
        self.wake_buf = wake_buf;
        enter
    }

    fn send_from(&mut self, src: NodeId, dst: NodeId, msg: P::Message) {
        if self.config.record_trace {
            self.trace.push(TraceEvent::Send {
                at: self.now,
                src,
                dst,
                kind: msg.kind(),
            });
        }
        if self.config.drop_rate > 0.0 && self.rng.gen_bool(self.config.drop_rate) {
            self.metrics.messages_dropped += 1;
            if self.config.record_trace {
                self.trace.push(TraceEvent::Drop {
                    at: self.now,
                    src,
                    dst,
                    kind: msg.kind(),
                });
            }
            return;
        }
        let latency = self.config.latency.sample(&mut self.rng);
        let mut deliver_at = self.now + latency;
        if self.config.fifo {
            let clock = &mut self.link_clock[src.index() * self.nodes.len() + dst.index()];
            if deliver_at < *clock {
                deliver_at = *clock;
            }
            *clock = deliver_at;
        }
        self.push(deliver_at, EventKind::Deliver { src, dst, msg });
    }

    fn push(&mut self, at: Time, kind: EventKind<P::Message>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny hub-and-spoke token protocol: node 0 is the hub holding the
    /// token; leaves ask the hub, the hub grants in FIFO order, leaves
    /// return the token on exit. REQ + TOKEN + TOKEN-return = 3 messages
    /// per leaf entry.
    #[derive(Debug)]
    struct Hub {
        me: NodeId,
        holding: bool,
        wants: bool,
        queue: std::collections::VecDeque<NodeId>,
    }

    #[derive(Clone, Debug)]
    enum HubMsg {
        Req,
        Token,
    }
    impl MessageMeta for HubMsg {
        fn kind(&self) -> &'static str {
            match self {
                HubMsg::Req => "REQ",
                HubMsg::Token => "TOKEN",
            }
        }
        fn wire_size(&self) -> usize {
            0
        }
    }

    const HUB: NodeId = NodeId(0);

    impl Protocol for Hub {
        type Message = HubMsg;
        fn on_request_cs(&mut self, ctx: &mut Ctx<'_, HubMsg>) {
            self.wants = true;
            if self.me == HUB {
                if self.holding {
                    self.holding = false;
                    ctx.enter_cs();
                } else {
                    self.queue.push_back(self.me);
                }
            } else {
                ctx.send(HUB, HubMsg::Req);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: HubMsg, ctx: &mut Ctx<'_, HubMsg>) {
            match msg {
                HubMsg::Req => {
                    debug_assert_eq!(self.me, HUB);
                    if self.holding {
                        self.holding = false;
                        ctx.send(from, HubMsg::Token);
                    } else {
                        self.queue.push_back(from);
                    }
                }
                HubMsg::Token => {
                    if self.me == HUB {
                        self.grant_next(ctx);
                    } else {
                        debug_assert!(self.wants);
                        ctx.enter_cs();
                    }
                }
            }
        }
        fn on_exit_cs(&mut self, ctx: &mut Ctx<'_, HubMsg>) {
            self.wants = false;
            if self.me == HUB {
                self.holding = true;
                self.grant_next(ctx);
            } else {
                ctx.send(HUB, HubMsg::Token);
            }
        }

        fn storage_words(&self) -> usize {
            2 + self.queue.len()
        }
    }

    impl Hub {
        fn grant_next(&mut self, ctx: &mut Ctx<'_, HubMsg>) {
            self.holding = true;
            if let Some(next) = self.queue.pop_front() {
                self.holding = false;
                if next == self.me {
                    ctx.enter_cs();
                } else {
                    ctx.send(next, HubMsg::Token);
                }
            }
        }
    }

    fn hub(n: usize) -> Vec<Hub> {
        (0..n)
            .map(|i| Hub {
                me: NodeId::from_index(i),
                holding: i == 0,
                wants: false,
                queue: std::collections::VecDeque::new(),
            })
            .collect()
    }

    #[test]
    fn hub_grants_remote_request_in_three_messages() {
        let mut engine = Engine::new(hub(4), EngineConfig::default());
        engine.request_at(Time(0), NodeId(2));
        let report = engine.run_to_quiescence().unwrap();
        assert_eq!(report.metrics.cs_entries, 1);
        // REQ to hub, TOKEN to leaf, TOKEN returned.
        assert_eq!(report.metrics.messages_total, 3);
        assert_eq!(report.metrics.kind_count("TOKEN"), 2);
        assert_eq!(report.metrics.kind_count("REQ"), 1);
        assert_eq!(report.metrics.grant_order(), vec![NodeId(2)]);
    }

    #[test]
    fn starvation_is_detected() {
        // Node 0 holds but never requests; the ring only moves when the
        // holder exits, so a request at node 1 can never be served if the
        // token never moves. Build a broken ring where node 0 won't forward.
        #[derive(Debug)]
        struct Hoarder;
        impl Protocol for Hoarder {
            type Message = HubMsg;
            fn on_request_cs(&mut self, _ctx: &mut Ctx<'_, HubMsg>) {
                // Never grants, never forwards: a deadlocked protocol.
            }
            fn on_message(&mut self, _f: NodeId, _m: HubMsg, _ctx: &mut Ctx<'_, HubMsg>) {}
            fn on_exit_cs(&mut self, _ctx: &mut Ctx<'_, HubMsg>) {}
        }
        let mut engine = Engine::new(vec![Hoarder, Hoarder], EngineConfig::default());
        engine.request_at(Time(0), NodeId(1));
        let err = engine.run_to_quiescence().unwrap_err();
        assert!(matches!(
            err,
            EngineError::Violation(Violation::Starvation { node, .. }) if node == NodeId(1)
        ));
    }

    #[test]
    fn mutual_exclusion_violation_is_detected() {
        /// Grants itself whenever asked, with no coordination at all.
        #[derive(Debug)]
        struct Anarchist;
        impl Protocol for Anarchist {
            type Message = ();
            fn on_request_cs(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.enter_cs();
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _ctx: &mut Ctx<'_, ()>) {}
            fn on_exit_cs(&mut self, _ctx: &mut Ctx<'_, ()>) {}
        }
        let mut engine = Engine::new(
            vec![Anarchist, Anarchist],
            EngineConfig {
                cs_duration: LatencyModel::Fixed(Time(10)),
                ..Default::default()
            },
        );
        engine.request_at(Time(0), NodeId(0));
        engine.request_at(Time(1), NodeId(1));
        let err = engine.run_to_quiescence().unwrap_err();
        assert!(matches!(
            err,
            EngineError::Violation(Violation::MutualExclusion { .. })
        ));
    }

    #[test]
    fn fifo_links_preserve_send_order_under_random_latency() {
        /// Sender fires a burst of sequenced messages; receiver asserts order.
        #[derive(Debug, Default)]
        struct Burst {
            received: Vec<u32>,
        }
        #[derive(Clone, Debug)]
        struct Seq(u32);
        impl MessageMeta for Seq {
            fn kind(&self) -> &'static str {
                "SEQ"
            }
            fn wire_size(&self) -> usize {
                4
            }
        }
        impl Protocol for Burst {
            type Message = Seq;
            fn on_request_cs(&mut self, ctx: &mut Ctx<'_, Seq>) {
                for i in 0..50 {
                    ctx.send(NodeId(1), Seq(i));
                }
                ctx.enter_cs();
            }
            fn on_message(&mut self, _f: NodeId, m: Seq, _ctx: &mut Ctx<'_, Seq>) {
                self.received.push(m.0);
            }
            fn on_exit_cs(&mut self, _ctx: &mut Ctx<'_, Seq>) {}
        }
        let config = EngineConfig {
            latency: LatencyModel::Uniform {
                lo: Time(1),
                hi: Time(100),
            },
            seed: 1234,
            ..Default::default()
        };
        let mut engine = Engine::new(vec![Burst::default(), Burst::default()], config);
        engine.request_at(Time(0), NodeId(0));
        engine.run_to_quiescence().unwrap();
        let received = &engine.node(NodeId(1)).received;
        assert_eq!(*received, (0..50).collect::<Vec<_>>());
        assert_eq!(engine.metrics().bytes_total, 200);
    }

    #[test]
    fn non_fifo_links_can_reorder() {
        #[derive(Debug, Default)]
        struct Burst {
            received: Vec<u32>,
        }
        #[derive(Clone, Debug)]
        struct Seq(u32);
        impl MessageMeta for Seq {
            fn kind(&self) -> &'static str {
                "SEQ"
            }
            fn wire_size(&self) -> usize {
                4
            }
        }
        impl Protocol for Burst {
            type Message = Seq;
            fn on_request_cs(&mut self, ctx: &mut Ctx<'_, Seq>) {
                for i in 0..50 {
                    ctx.send(NodeId(1), Seq(i));
                }
                ctx.enter_cs();
            }
            fn on_message(&mut self, _f: NodeId, m: Seq, _ctx: &mut Ctx<'_, Seq>) {
                self.received.push(m.0);
            }
            fn on_exit_cs(&mut self, _ctx: &mut Ctx<'_, Seq>) {}
        }
        let config = EngineConfig {
            latency: LatencyModel::Uniform {
                lo: Time(1),
                hi: Time(100),
            },
            seed: 1234,
            fifo: false,
            ..Default::default()
        };
        let mut engine = Engine::new(vec![Burst::default(), Burst::default()], config);
        engine.request_at(Time(0), NodeId(0));
        engine.run_to_quiescence().unwrap();
        let received = &engine.node(NodeId(1)).received;
        assert_ne!(
            *received,
            (0..50).collect::<Vec<_>>(),
            "expected reordering"
        );
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let run = |seed: u64| {
            let config = EngineConfig {
                latency: LatencyModel::Exponential { mean: Time(7) },
                seed,
                ..Default::default()
            };
            let mut engine = Engine::new(hub(5), config);
            for i in 0..5u32 {
                engine.request_at(Time(i as u64), NodeId(i));
            }
            engine.run_to_quiescence().unwrap();
            engine.trace().clone()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn sync_delay_measured_on_handoff() {
        let mut engine = Engine::new(hub(3), EngineConfig::default());
        engine.request_at(Time(0), NodeId(1));
        engine.request_at(Time(0), NodeId(2));
        let report = engine.run_to_quiescence().unwrap();
        assert_eq!(report.metrics.cs_entries, 2);
        // Hand-off 1 -> 2 goes through the hub: TOKEN back + TOKEN out.
        assert_eq!(report.metrics.sync_delays.len(), 1);
        assert_eq!(report.metrics.sync_delays[0].messages, 2);
        assert_eq!(report.metrics.sync_delays[0].from, NodeId(1));
        assert_eq!(report.metrics.sync_delays[0].to, NodeId(2));
    }

    #[test]
    fn run_until_freezes_mid_flight() {
        let mut engine = Engine::new(hub(4), EngineConfig::default());
        engine.request_at(Time(0), NodeId(2));
        engine.run_until(Time(1)).unwrap();
        // The REQ is in flight but not delivered: no grant yet.
        assert_eq!(engine.metrics().cs_entries, 0);
        assert!(engine.is_busy());
        engine.run_to_quiescence().unwrap();
        assert_eq!(engine.metrics().cs_entries, 1);
    }

    #[test]
    fn drop_rate_loses_messages_and_liveness_detects_it() {
        let config = EngineConfig {
            drop_rate: 1.0,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(hub(3), config);
        engine.request_at(Time(0), NodeId(1));
        let err = engine.run_to_quiescence().unwrap_err();
        assert!(matches!(
            err,
            EngineError::Violation(Violation::Starvation { .. })
        ));
        assert_eq!(engine.metrics().messages_dropped, 1);
        assert_eq!(engine.metrics().messages_total, 0);
    }

    #[test]
    fn track_storage_records_high_water_mark() {
        let config = EngineConfig {
            track_storage: true,
            cs_duration: LatencyModel::Fixed(Time(10)),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(hub(5), config);
        for i in 0..5u32 {
            engine.request_at(Time(0), NodeId(i));
        }
        engine.run_to_quiescence().unwrap();
        // The hub's queue held several waiters at its peak.
        assert!(engine.metrics().max_storage_words > 0);
    }

    #[test]
    fn reset_metrics_clears_counts() {
        let mut engine = Engine::new(hub(4), EngineConfig::default());
        engine.request_at(Time(0), NodeId(3));
        engine.run_to_quiescence().unwrap();
        assert!(engine.metrics().messages_total > 0);
        engine.reset_metrics();
        assert_eq!(engine.metrics().messages_total, 0);
        assert!(engine.trace().is_empty());
    }

    #[test]
    fn event_limit_stops_livelocked_protocols() {
        /// Two nodes bounce a message forever.
        #[derive(Debug)]
        struct PingPong {
            peer: NodeId,
        }
        impl Protocol for PingPong {
            type Message = ();
            fn on_request_cs(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.send(self.peer, ());
            }
            fn on_message(&mut self, _f: NodeId, _m: (), ctx: &mut Ctx<'_, ()>) {
                ctx.send(self.peer, ());
            }
            fn on_exit_cs(&mut self, _ctx: &mut Ctx<'_, ()>) {}
        }
        let nodes = vec![PingPong { peer: NodeId(1) }, PingPong { peer: NodeId(0) }];
        let config = EngineConfig {
            max_events: 500,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(nodes, config);
        engine.request_at(Time(0), NodeId(0));
        let err = engine.run_to_quiescence().unwrap_err();
        assert_eq!(err, EngineError::EventLimitExceeded { limit: 500 });
        assert!(err.to_string().contains("livelocked"));
    }

    #[test]
    #[should_panic(expected = "drop_rate must be a finite probability")]
    fn nan_drop_rate_is_rejected_at_construction() {
        let config = EngineConfig {
            drop_rate: f64::NAN,
            ..EngineConfig::default()
        };
        let _ = Engine::new(hub(2), config);
    }

    #[test]
    #[should_panic(expected = "drop_rate must be a finite probability")]
    fn negative_drop_rate_is_rejected_at_construction() {
        let config = EngineConfig {
            drop_rate: -0.25,
            ..EngineConfig::default()
        };
        let _ = Engine::new(hub(2), config);
    }

    #[test]
    #[should_panic(expected = "needs lo <= hi")]
    fn inverted_uniform_latency_is_rejected_at_construction() {
        let config = EngineConfig {
            latency: LatencyModel::Uniform {
                lo: Time(9),
                hi: Time(1),
            },
            ..EngineConfig::default()
        };
        let _ = Engine::new(hub(2), config);
    }

    #[test]
    #[should_panic(expected = "cs_duration")]
    fn inverted_uniform_cs_duration_is_rejected_at_construction() {
        let config = EngineConfig {
            cs_duration: LatencyModel::Uniform {
                lo: Time(5),
                hi: Time(2),
            },
            ..EngineConfig::default()
        };
        let _ = Engine::new(hub(2), config);
    }

    #[test]
    fn auto_scheduler_resolves_from_the_latency_models() {
        use crate::sched::SchedBackend;
        // The default one-tick-per-hop model gets the wheel...
        let engine = Engine::new(hub(2), EngineConfig::default());
        assert_eq!(engine.sched_backend(), SchedBackend::Wheel);
        // ...heavy-tailed latencies get the heap...
        let engine = Engine::new(
            hub(2),
            EngineConfig {
                latency: LatencyModel::Exponential { mean: Time(7) },
                ..EngineConfig::default()
            },
        );
        assert_eq!(engine.sched_backend(), SchedBackend::Heap);
        // ...and explicit selections always win.
        let engine = Engine::new(
            hub(2),
            EngineConfig {
                scheduler: crate::sched::Scheduler::Heap,
                ..EngineConfig::default()
            },
        );
        assert_eq!(engine.sched_backend(), SchedBackend::Heap);
    }

    #[test]
    fn both_backends_serve_the_hub_identically() {
        let run = |scheduler| {
            let config = EngineConfig {
                scheduler,
                cs_duration: LatencyModel::Fixed(Time(3)),
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(hub(6), config);
            for i in [3u32, 1, 5, 2, 4, 0] {
                engine.request_at(Time(i as u64 % 2), NodeId(i));
            }
            let report = engine.run_to_quiescence().unwrap();
            (engine.trace().clone(), report)
        };
        let (trace_h, report_h) = run(crate::sched::Scheduler::Heap);
        let (trace_w, report_w) = run(crate::sched::Scheduler::Wheel);
        assert_eq!(trace_h, trace_w);
        assert_eq!(report_h.final_time, report_w.final_time);
        assert_eq!(
            report_h.metrics.grant_order(),
            report_w.metrics.grant_order()
        );
    }

    #[test]
    fn oversized_drop_rate_clamps_to_certain_loss() {
        let config = EngineConfig {
            drop_rate: 17.0,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(hub(3), config);
        engine.request_at(Time(0), NodeId(1));
        let err = engine.run_to_quiescence().unwrap_err();
        assert!(matches!(
            err,
            EngineError::Violation(Violation::Starvation { .. })
        ));
        assert_eq!(engine.metrics().messages_dropped, 1);
    }

    #[test]
    fn wakes_fire_in_time_order_and_are_counted() {
        /// Schedules three timers up front and records firing times.
        #[derive(Debug, Default)]
        struct Alarm {
            fired: Vec<Time>,
        }
        impl Protocol for Alarm {
            type Message = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.wake_at(Time(9));
                ctx.wake_at(Time(2));
                ctx.wake_in(Time(5));
            }
            fn on_request_cs(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.enter_cs();
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_exit_cs(&mut self, _c: &mut Ctx<'_, ()>) {}
            fn on_wake(&mut self, ctx: &mut Ctx<'_, ()>) {
                self.fired.push(ctx.now());
            }
        }
        let mut engine = Engine::new(vec![Alarm::default(), Alarm::default()], Default::default());
        engine.run_to_quiescence().unwrap();
        assert_eq!(
            engine.node(NodeId(0)).fired,
            vec![Time(2), Time(5), Time(9)]
        );
        assert_eq!(engine.metrics().wakes, 6);
        let wakes = engine
            .trace()
            .iter()
            .filter(|e| matches!(e, crate::trace::TraceEvent::Wake { .. }))
            .count();
        assert_eq!(wakes, 6);
    }

    #[test]
    fn wake_can_send_and_reschedule() {
        /// Node 0 pings node 1 from a timer, twice.
        #[derive(Debug)]
        struct Ticker {
            remaining: u32,
        }
        impl Protocol for Ticker {
            type Message = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.wake_in(Time(1));
                }
            }
            fn on_request_cs(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.enter_cs();
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_exit_cs(&mut self, _c: &mut Ctx<'_, ()>) {}
            fn on_wake(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.send(NodeId(1), ());
                self.remaining -= 1;
                if self.remaining > 0 {
                    ctx.wake_in(Time(3));
                }
            }
        }
        let nodes = vec![Ticker { remaining: 2 }, Ticker { remaining: 0 }];
        let mut engine = Engine::new(nodes, Default::default());
        engine.run_to_quiescence().unwrap();
        assert_eq!(engine.metrics().wakes, 2);
        assert_eq!(engine.metrics().messages_total, 2);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn request_for_unknown_node_panics() {
        let mut engine = Engine::new(hub(2), EngineConfig::default());
        engine.request_at(Time(0), NodeId(7));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn request_in_the_past_panics() {
        let mut engine = Engine::new(hub(2), EngineConfig::default());
        engine.request_at(Time(10), NodeId(1));
        engine.run_to_quiescence().unwrap();
        engine.request_at(Time(0), NodeId(1));
    }

    #[test]
    fn grant_records_carry_wait_times() {
        let mut engine = Engine::new(hub(4), EngineConfig::default());
        engine.request_at(Time(5), NodeId(1));
        let report = engine.run_to_quiescence().unwrap();
        let g = &report.metrics.grants[0];
        assert_eq!(g.node, NodeId(1));
        assert_eq!(g.requested_at, Time(5));
        assert_eq!(g.granted_at, Time(7)); // REQ hop + TOKEN hop at 1 tick each
        assert!(g.released_at.is_some());
        assert_eq!(g.messages_during_wait, 2);
    }

    #[test]
    fn hub_serves_many_waiters_in_fifo_order() {
        let mut engine = Engine::new(hub(6), EngineConfig::default());
        for i in [3u32, 1, 5, 2, 4, 0] {
            engine.request_at(Time(0), NodeId(i));
        }
        let report = engine.run_to_quiescence().unwrap();
        assert_eq!(report.metrics.cs_entries, 6);
        // All requests arrive at t=1 in schedule order; hub itself entered
        // at t=0 immediately.
        assert_eq!(report.metrics.grant_order()[0], NodeId(0));
    }

    #[test]
    fn run_with_workload_closes_the_loop() {
        /// Each node requests once at t = node id, then re-requests once
        /// more after a think time of 2 ticks, then stops.
        struct TwoRounds {
            remaining: Vec<u8>,
        }
        impl Workload for TwoRounds {
            fn initial_requests(&mut self, n: usize) -> Vec<(Time, NodeId)> {
                (0..n)
                    .map(|i| (Time(i as u64), NodeId::from_index(i)))
                    .collect()
            }
            fn next_request(&mut self, node: NodeId, now: Time) -> Option<Time> {
                if self.remaining[node.index()] > 0 {
                    self.remaining[node.index()] -= 1;
                    Some(now + Time(2))
                } else {
                    None
                }
            }
        }
        let mut engine = Engine::new(hub(3), EngineConfig::default());
        let mut workload = TwoRounds {
            remaining: vec![1; 3],
        };
        let report = engine.run_with_workload(&mut workload).unwrap();
        assert_eq!(report.metrics.cs_entries, 6);
        assert_eq!(report.metrics.requests, 6);
    }
}
