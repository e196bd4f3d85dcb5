//! Sim-parity client sessions: a [`ScriptedClient`] runs a
//! [`Script`](dmx_workload::Script) — the portable lock-client program
//! of lock / try / timeout / deadline / multi-key steps — under the
//! deterministic engine, producing exactly the
//! [`Outcome`](dmx_workload::Outcome) vector the threaded executor
//! (`dmx_runtime::run_script`) produces for the same script.
//!
//! ## Execution model
//!
//! Step `i` of the script is issued at tick `i ×`
//! [`Script::STEP_TICKS`](dmx_workload::Script::STEP_TICKS) — the
//! script's logical clock, shared with the threaded executor; with
//! that spacing generously larger than any grant latency or timeout
//! window, the simulated steps are globally sequenced exactly like
//! the threaded driver's turn-taking.
//! A client is a [`KeyAgent`] — the same sans-IO agent the threaded
//! backends' nodes step — driven by the script instead of a caller, by
//! engine ticks instead of a wall clock, with the oracles watching its
//! [`AgentEvent`]s; acquisition semantics therefore mirror the unified
//! client API by construction:
//!
//! * **try** grants iff every requested key's token is locally parked
//!   and idle, and never sends a protocol message;
//! * **timeout/deadline** drive an engine timer ([`Ctx::wake_at`]); on
//!   expiry the in-flight key's request is *abandoned* — the paper has
//!   no cancel message, so the privilege is released the moment it
//!   arrives — and every key already acquired is rolled back in
//!   reverse order (all-or-nothing);
//! * **multi-key** acquisition proceeds in sorted [`LockId`] order,
//!   the same global order every client uses, so overlapping key sets
//!   cannot deadlock.
//!
//! Per-key mutual exclusion is watched throughout by the shared
//! [`KeyedSafetyChecker`]; [`SessionMonitor::finish`] surfaces the
//! verdict with the outcomes.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use dmx_core::LockId;
use dmx_simnet::checker::{KeyedLivenessChecker, KeyedSafetyChecker, KeyedViolation};
use dmx_simnet::metrics::Histogram;
use dmx_simnet::{Ctx, Protocol, Time};
use dmx_topology::{NodeId, Tree};
use dmx_workload::{AcquireMode, Outcome, Script, SessionOp};

use crate::agent::{Abandon, AgentEvent, KeyAgent};
use crate::envelope::Envelope;
use crate::space::Placement;

/// Session parameters. (Step pacing is not a knob: the logical clock
/// is [`Script::STEP_TICKS`], shared with the threaded executor, so
/// deadline outcomes stay substrate-independent.)
///
/// # Examples
///
/// ```
/// use dmx_lockspace::SessionConfig;
///
/// let config = SessionConfig { keys: 64, ..SessionConfig::default() };
/// assert_eq!(config.shards, 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Number of independent locks (the key space is `0..keys`).
    pub keys: u32,
    /// Initial token placement per key.
    pub placement: Placement,
    /// Shard count of each node's [`LockTable`](crate::LockTable).
    pub shards: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            keys: 1,
            placement: Placement::Modulo,
            shards: 16,
        }
    }
}

/// State shared by every client of one session (single-threaded, under
/// the engine).
struct Shared {
    safety: KeyedSafetyChecker,
    /// Liveness oracle: every request a client starts waiting on must
    /// resolve (grant or explicit abandonment) before quiescence.
    liveness: KeyedLivenessChecker,
    /// Request→grant waits of every granted acquisition, in ticks
    /// (locally-parked tokens grant with zero wait). Abandoned waits
    /// never enter the distribution.
    waits: Histogram,
    /// One slot per script step; acquire steps fill theirs.
    outcomes: Vec<Option<Outcome>>,
    /// First correctness violation observed, if any.
    violation: Option<KeyedViolation>,
}

impl Shared {
    fn note(&mut self, err: Option<KeyedViolation>) {
        if self.violation.is_none() {
            self.violation = err;
        }
    }
}

/// What this client is doing right now.
enum Activity {
    /// Between steps.
    Idle,
    /// Working through an acquire step's sorted key list. A validated
    /// script releases before it acquires again, so the keys already
    /// taken are exactly the agent's `held()` and — between engine
    /// callbacks — the live claim is on `keys[held().len()]`.
    Acquiring {
        /// Global step index (for outcome recording).
        step: usize,
        /// Sorted, deduplicated keys.
        keys: Vec<LockId>,
        /// Expiry tick and the outcome expiry maps to
        /// ([`Outcome::TimedOut`] or [`Outcome::DeadlineExceeded`]).
        limit: Option<(Time, Outcome)>,
    },
}

/// One node of a scripted session: the [`Protocol`] impl the engine
/// drives — a [`KeyAgent`] plus the script cursor, the engine's clock
/// and the oracles. Build a whole session with
/// [`ScriptedClient::cluster`]; see the [module docs](self).
pub struct ScriptedClient {
    /// The node's protocol state and claims: the same agent the
    /// threaded backends step.
    agent: KeyAgent,
    shared: Rc<RefCell<Shared>>,
    /// This node's steps: `(global index, issue tick, op)`.
    steps: Vec<(usize, Time, SessionOp)>,
    cursor: usize,
    activity: Activity,
    /// What the agent asked for since the last [`pump`](Self::pump).
    events: Vec<AgentEvent>,
}

impl ScriptedClient {
    /// One [`ScriptedClient`] per node of `tree`, executing `script`.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (`keys == 0`, `shards == 0`, a
    /// placement [`Placement::validate`] rejects), the script fails
    /// [`Script::validate`], or a timeout window reaches
    /// [`Script::STEP_TICKS`] (which would break global step
    /// sequencing).
    pub fn cluster(
        tree: &Tree,
        config: SessionConfig,
        script: &Script,
    ) -> (Vec<ScriptedClient>, SessionMonitor) {
        assert!(config.keys > 0, "session needs at least one key");
        assert!(config.shards > 0, "session needs at least one shard");
        let n = tree.len();
        config.placement.validate(n);
        script.validate(n, config.keys);
        for (i, step) in script.steps().iter().enumerate() {
            if let SessionOp::Acquire {
                mode: AcquireMode::Timeout(w),
                ..
            } = &step.op
            {
                assert!(
                    w.ticks() < Script::STEP_TICKS,
                    "step {i}: timeout window {w} reaches the step spacing t{}",
                    Script::STEP_TICKS
                );
            }
        }

        let shared = Rc::new(RefCell::new(Shared {
            safety: KeyedSafetyChecker::with_keys(config.keys as usize),
            liveness: KeyedLivenessChecker::with_nodes(n),
            waits: Histogram::default(),
            outcomes: vec![None; script.len()],
            violation: None,
        }));
        let mut per_node: Vec<Vec<(usize, Time, SessionOp)>> = vec![Vec::new(); n];
        for (i, step) in script.steps().iter().enumerate() {
            per_node[step.node.index()].push((
                i,
                Time(i as u64 * Script::STEP_TICKS),
                step.op.clone(),
            ));
        }
        let tree = Arc::new(tree.clone());
        let clients = tree
            .nodes()
            .zip(per_node)
            .map(|(id, steps)| ScriptedClient {
                agent: KeyAgent::new(
                    id,
                    Arc::clone(&tree),
                    config.placement.clone(),
                    config.shards,
                ),
                shared: Rc::clone(&shared),
                steps,
                cursor: 0,
                activity: Activity::Idle,
                events: Vec::new(),
            })
            .collect();
        (clients, SessionMonitor { shared })
    }

    /// This client's node.
    pub fn id(&self) -> NodeId {
        self.agent.id()
    }

    /// Records `key` entered (safety oracle) at `now`.
    fn note_enter(&mut self, key: LockId, now: Time) {
        let mut sh = self.shared.borrow_mut();
        let r = sh.safety.on_enter(key.index(), self.id(), now).err();
        sh.note(r);
    }

    /// Records `key` left (safety oracle) at `now`.
    fn note_exit(&mut self, key: LockId, now: Time) {
        let mut sh = self.shared.borrow_mut();
        let r = sh.safety.on_exit(key.index(), self.id(), now).err();
        sh.note(r);
    }

    /// Opens `key`'s liveness interval: the local user starts waiting.
    fn note_request(&mut self, key: LockId, now: Time) {
        let mut sh = self.shared.borrow_mut();
        let r = sh.liveness.on_request(self.id(), key.index(), now).err();
        sh.note(r);
    }

    /// Closes `key`'s liveness interval as a grant and records the
    /// request→grant wait in the session's distribution.
    fn note_grant(&mut self, key: LockId, now: Time) {
        let mut sh = self.shared.borrow_mut();
        match sh.liveness.on_grant(self.id(), key.index(), now) {
            Ok(since) => sh.waits.record(now.saturating_since(since).ticks()),
            Err(v) => sh.note(Some(v)),
        }
    }

    /// Closes `key`'s liveness interval without a grant: the user gave
    /// up, so the wait resolved (not starved) but was never served —
    /// it stays out of the grant-wait distribution.
    fn note_abandoned(&mut self, key: LockId, now: Time) {
        let mut sh = self.shared.borrow_mut();
        let r = sh.liveness.on_grant(self.id(), key.index(), now).err();
        sh.note(r);
    }

    /// Leaves every held key's critical section, latest grant first: a
    /// release step, or the rollback of a failed all-or-nothing
    /// acquisition.
    fn exit_all(&mut self, now: Time) {
        while let Some(&key) = self.agent.held().last() {
            self.note_exit(key, now);
            self.agent.release(key, &mut self.events);
        }
    }

    /// Records `outcome` for step `step`.
    fn record(&mut self, step: usize, outcome: Outcome) {
        self.shared.borrow_mut().outcomes[step] = Some(outcome);
    }

    /// Claims the current acquisition's next key, or completes the step
    /// when the whole set is held. A key whose token is parked here is
    /// granted within the claim; [`pump`](Self::pump) comes back here
    /// on that `Granted`, as it does when a remote grant arrives.
    fn claim_next(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let Activity::Acquiring { step, ref keys, .. } = self.activity else {
            return;
        };
        match keys.get(self.agent.held().len()).copied() {
            Some(key) => {
                // Adopting an abandoned request starts a new wait too:
                // the abandoned interval closed when its user gave up.
                self.note_request(key, ctx.now());
                self.agent.acquire(key, &mut self.events);
            }
            None => {
                self.activity = Activity::Idle;
                self.record(step, Outcome::Granted);
                self.run_overdue_steps(ctx);
            }
        }
    }

    /// Expires the current acquisition: abandons the claim in flight —
    /// its REQUEST cannot be recalled, so the grant will bounce — rolls
    /// back every key already acquired, and records the limit's
    /// outcome.
    fn expire_acquisition(&mut self, now: Time) {
        let Activity::Acquiring { step, keys, limit } =
            std::mem::replace(&mut self.activity, Activity::Idle)
        else {
            unreachable!("expire without an acquisition");
        };
        let (_, outcome) = limit.expect("expire without a limit");
        let key = keys[self.agent.held().len()];
        self.note_abandoned(key, now);
        let abandon = self.agent.abandon(key, &mut self.events);
        debug_assert_eq!(
            abandon,
            Abandon::Marked,
            "no grant races a simulated expiry"
        );
        self.exit_all(now);
        self.record(step, outcome);
    }

    /// Executes one script step right now.
    fn execute(&mut self, step: usize, op: SessionOp, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        match op {
            SessionOp::Release => self.exit_all(now),
            SessionOp::Acquire { mut keys, mode } => {
                keys.sort_unstable();
                keys.dedup();
                match mode {
                    AcquireMode::Try => {
                        // All-or-nothing local availability, no messages.
                        for &key in &keys {
                            if !self.agent.try_acquire(key) {
                                self.exit_all(now);
                                return self.record(step, Outcome::WouldBlock);
                            }
                            // A try is an instant request→grant: it
                            // contributes a zero-tick wait.
                            self.note_request(key, now);
                            self.note_grant(key, now);
                            self.note_enter(key, now);
                        }
                        self.record(step, Outcome::Granted);
                    }
                    AcquireMode::Deadline(at) if at <= now => {
                        // Already elapsed: fail without acquiring.
                        self.record(step, Outcome::DeadlineExceeded);
                    }
                    AcquireMode::Wait | AcquireMode::Timeout(_) | AcquireMode::Deadline(_) => {
                        let limit = match mode {
                            AcquireMode::Wait => None,
                            AcquireMode::Timeout(w) => Some((now + w, Outcome::TimedOut)),
                            AcquireMode::Deadline(at) => Some((at, Outcome::DeadlineExceeded)),
                            AcquireMode::Try => unreachable!(),
                        };
                        if let Some((at, _)) = limit {
                            ctx.wake_at(at);
                        }
                        self.activity = Activity::Acquiring { step, keys, limit };
                        self.claim_next(ctx);
                    }
                }
            }
        }
    }

    /// Executes every step whose issue tick has passed, while idle.
    /// Also called after a late-completing acquisition, so a step whose
    /// wake fired mid-acquisition still runs.
    fn run_overdue_steps(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        while matches!(self.activity, Activity::Idle) && self.cursor < self.steps.len() {
            let (step, at, _) = self.steps[self.cursor];
            if at > now {
                break;
            }
            let op = self.steps[self.cursor].2.clone();
            self.cursor += 1;
            self.execute(step, op, ctx);
        }
    }

    /// Performs what the agent asked for since the last pump, ending
    /// every engine callback: sends go on the wire; a grant feeds the
    /// oracles and claims the acquisition's next key, whose own events
    /// queue behind it; a bounce is an enter and an exit in one tick.
    fn pump(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        let mut next = 0;
        while let Some(&event) = self.events.get(next) {
            next += 1;
            match event {
                AgentEvent::Send { to, msg } => ctx.send(to, Envelope::One(msg)),
                AgentEvent::Granted(key) => {
                    self.note_grant(key, now);
                    self.note_enter(key, now);
                    self.claim_next(ctx);
                }
                AgentEvent::Bounced(key) => {
                    self.note_enter(key, now);
                    self.note_exit(key, now);
                }
            }
        }
        self.events.clear();
    }
}

impl Protocol for ScriptedClient {
    type Message = Envelope;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        for &(_, at, _) in &self.steps {
            ctx.wake_at(at);
        }
    }

    fn on_request_cs(&mut self, _ctx: &mut Ctx<'_, Envelope>) {
        unreachable!("sessions drive demand through their script; not Engine::request_at");
    }

    fn on_message(&mut self, from: NodeId, msg: Envelope, ctx: &mut Ctx<'_, Envelope>) {
        match msg {
            Envelope::One(keyed) => self.agent.deliver(from, keyed, &mut self.events),
            Envelope::Batch(batch) => {
                for &keyed in batch.iter() {
                    self.agent.deliver(from, keyed, &mut self.events);
                }
            }
        }
        self.pump(ctx);
    }

    fn on_exit_cs(&mut self, _ctx: &mut Ctx<'_, Envelope>) {
        unreachable!("sessions never call enter_cs, so the engine never schedules an exit");
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        if let Activity::Acquiring {
            limit: Some((at, _)),
            ..
        } = self.activity
        {
            if at <= now {
                self.expire_acquisition(now);
            }
        }
        self.run_overdue_steps(ctx);
        self.pump(ctx);
    }

    fn storage_words(&self) -> usize {
        // Three words per materialized instance (Chapter 6.4 per key),
        // plus the client's own step/activity bookkeeping.
        3 * self.agent.table().len() + 4
    }
}

/// Observer handle over a running (or finished) session: per-step
/// outcomes and the per-key safety verdict.
pub struct SessionMonitor {
    shared: Rc<RefCell<Shared>>,
}

impl SessionMonitor {
    /// The outcome vector so far: one slot per script step, `Some` for
    /// completed acquire steps, `None` for release steps (and acquires
    /// still in flight).
    pub fn outcomes(&self) -> Vec<Option<Outcome>> {
        self.shared.borrow().outcomes.clone()
    }

    /// The first per-key safety violation observed, if any.
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

    /// Request→grant wait distribution over every granted acquisition,
    /// in ticks. Timed-out acquisitions contribute nothing; a grant off
    /// a locally parked token records a zero-tick wait.
    pub fn wait_histogram(&self) -> Histogram {
        self.shared.borrow().waits
    }

    /// Nodes currently waiting on an unresolved acquisition.
    pub fn waiting(&self) -> usize {
        self.shared.borrow().liveness.pending_count()
    }

    /// Full-run verdict once the engine has quiesced: the outcome
    /// vector, or the first safety violation.
    ///
    /// # Errors
    ///
    /// The first recorded [`KeyedViolation`].
    ///
    /// # Panics
    ///
    /// Panics if any acquire step never completed — a stalled script
    /// (e.g. a waiting acquire on a key whose holder releases later),
    /// which the executors cannot detect statically.
    pub fn finish(&self) -> Result<Vec<Option<Outcome>>, KeyedViolation> {
        let sh = self.shared.borrow();
        if let Some(v) = sh.violation {
            return Err(v);
        }
        // Starvation first: a starved waiter coexists with a live
        // holder, so the held-key assert below would mask it.
        sh.liveness.at_quiescence()?;
        assert_eq!(
            sh.safety.concurrent(),
            0,
            "session quiesced with keys still held"
        );
        Ok(sh.outcomes.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_simnet::{Engine, EngineConfig};

    fn run(tree: &Tree, config: SessionConfig, script: &Script) -> Vec<Option<Outcome>> {
        let (clients, monitor) = ScriptedClient::cluster(tree, config, script);
        let mut engine = Engine::new(clients, EngineConfig::default());
        engine.run_to_quiescence().expect("session run completes");
        monitor.finish().expect("per-key safety holds")
    }

    #[test]
    fn lock_then_try_reproduces_token_parking() {
        let tree = Tree::star(4);
        let script = Script::new()
            .lock(NodeId(2), LockId(0))
            .release(NodeId(2))
            .try_lock(NodeId(2), LockId(0)) // token parked here: granted
            .release(NodeId(2))
            .try_lock(NodeId(1), LockId(0)) // token remote: refused
            .release(NodeId(1));
        let config = SessionConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(0)),
            ..SessionConfig::default()
        };
        let outcomes = run(&tree, config, &script);
        assert_eq!(
            outcomes,
            vec![
                Some(Outcome::Granted),
                None,
                Some(Outcome::Granted),
                None,
                Some(Outcome::WouldBlock),
                None,
            ]
        );
    }

    #[test]
    fn timeout_on_a_held_key_expires_and_rolls_back() {
        let tree = Tree::star(3);
        let script = Script::new()
            .lock(NodeId(1), LockId(2))
            .lock_timeout(NodeId(2), LockId(2), Time(100)) // held: times out
            .release(NodeId(2))
            .release(NodeId(1))
            .lock(NodeId(2), LockId(2)) // now free (abandon bounced the token)
            .release(NodeId(2));
        let config = SessionConfig {
            keys: 4,
            ..SessionConfig::default()
        };
        let outcomes = run(&tree, config, &script);
        assert_eq!(
            outcomes,
            vec![
                Some(Outcome::Granted),
                Some(Outcome::TimedOut),
                None,
                None,
                Some(Outcome::Granted),
                None,
            ]
        );
    }

    #[test]
    fn deadlines_split_on_elapsed_versus_generous() {
        let tree = Tree::line(3);
        let script = Script::new()
            .lock_deadline(NodeId(2), LockId(0), Time(0)) // elapsed at issue
            .release(NodeId(2))
            .lock_deadline(NodeId(2), LockId(0), Time(1_000_000)) // plenty
            .release(NodeId(2));
        let outcomes = run(&tree, SessionConfig::default(), &script);
        assert_eq!(
            outcomes,
            vec![
                Some(Outcome::DeadlineExceeded),
                None,
                Some(Outcome::Granted),
                None,
            ]
        );
    }

    #[test]
    fn lock_many_takes_sorted_order_and_times_out_all_or_nothing() {
        let tree = Tree::star(4);
        let script = Script::new()
            .lock(NodeId(1), LockId(5))
            // {2, 5} sorted: takes 2, stalls on 5, expires, rolls 2 back.
            .lock_many_timeout(NodeId(2), &[LockId(5), LockId(2)], Time(120))
            .release(NodeId(2))
            // Key 2 must be free again for a plain lock.
            .lock(NodeId(3), LockId(2))
            .release(NodeId(3))
            .release(NodeId(1))
            // With every token free, the full set is acquirable.
            .lock_many(NodeId(2), &[LockId(5), LockId(2)])
            .release(NodeId(2));
        let config = SessionConfig {
            keys: 8,
            placement: Placement::Hub(NodeId(0)),
            ..SessionConfig::default()
        };
        let outcomes = run(&tree, config, &script);
        assert_eq!(
            outcomes,
            vec![
                Some(Outcome::Granted),
                Some(Outcome::TimedOut),
                None,
                Some(Outcome::Granted),
                None,
                None,
                Some(Outcome::Granted),
                None,
            ]
        );
    }

    #[test]
    fn multi_key_try_rolls_back_on_first_remote_key() {
        let tree = Tree::line(2);
        // Modulo placement: key 0 hubs at node 0, key 1 at node 1.
        let script = Script::new()
            .acquire(NodeId(0), &[LockId(0), LockId(1)], AcquireMode::Try)
            .release(NodeId(0))
            // Key 0 was rolled back: node 1 can lock it.
            .lock(NodeId(1), LockId(0))
            .release(NodeId(1));
        let config = SessionConfig {
            keys: 2,
            ..SessionConfig::default()
        };
        let outcomes = run(&tree, config, &script);
        assert_eq!(outcomes[0], Some(Outcome::WouldBlock));
        assert_eq!(outcomes[2], Some(Outcome::Granted));
    }

    #[test]
    fn reacquisition_adopts_an_abandoned_request() {
        let tree = Tree::line(3);
        let script = Script::new()
            .lock(NodeId(0), LockId(0))
            .lock_timeout(NodeId(2), LockId(0), Time(50)) // abandoned
            .release(NodeId(2))
            .lock_timeout(NodeId(2), LockId(0), Time(50)) // adopts, expires again
            .release(NodeId(2))
            .release(NodeId(0)) // privilege finally travels; node 2 bounces it
            .lock(NodeId(2), LockId(0)) // token parked at node 2 after the bounce
            .release(NodeId(2));
        let config = SessionConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(0)),
            ..SessionConfig::default()
        };
        let outcomes = run(&tree, config, &script);
        assert_eq!(
            outcomes,
            vec![
                Some(Outcome::Granted),
                Some(Outcome::TimedOut),
                None,
                Some(Outcome::TimedOut),
                None,
                None,
                Some(Outcome::Granted),
                None,
            ]
        );
    }

    #[test]
    fn waiting_acquire_on_a_releasing_holder_is_granted_late() {
        // Node 2 waits on a key node 1 holds; node 1 releases in an
        // *earlier* step (well-formed), so the wait resolves.
        let tree = Tree::star(3);
        let script = Script::new()
            .lock(NodeId(1), LockId(0))
            .release(NodeId(1))
            .lock(NodeId(2), LockId(0))
            .release(NodeId(2));
        let outcomes = run(&tree, SessionConfig::default(), &script);
        assert_eq!(
            outcomes,
            vec![Some(Outcome::Granted), None, Some(Outcome::Granted), None]
        );
    }

    #[test]
    fn monitor_reports_the_wait_distribution_without_abandons() {
        let tree = Tree::star(3);
        let script = Script::new()
            .lock(NodeId(1), LockId(2)) // hub is node 2: a real wait
            .lock_timeout(NodeId(2), LockId(2), Time(100)) // times out: excluded
            .release(NodeId(2))
            .release(NodeId(1))
            .lock(NodeId(2), LockId(2)) // bounced token parked locally: zero wait
            .release(NodeId(2));
        let config = SessionConfig {
            keys: 4,
            ..SessionConfig::default()
        };
        let (clients, monitor) = ScriptedClient::cluster(&tree, config, &script);
        let mut engine = Engine::new(clients, EngineConfig::default());
        engine.run_to_quiescence().expect("session run completes");
        monitor.finish().expect("per-key safety holds");
        let hist = monitor.wait_histogram();
        assert_eq!(
            hist.count(),
            2,
            "two grants; the abandoned wait is excluded"
        );
        assert!(hist.max() > 0, "the remote grant took time");
        let zeros: u64 = hist
            .iter_buckets()
            .filter(|&(lo, _, _)| lo == 0)
            .map(|(_, _, c)| c)
            .sum();
        assert_eq!(zeros, 1, "the parked-token grant waited zero ticks");
        assert_eq!(monitor.waiting(), 0);
    }

    #[test]
    fn unserved_waiter_is_reported_as_starved() {
        use dmx_simnet::checker::Violation;

        let tree = Tree::line(3);
        // Well-formed script, inspected *mid-run*: node 0 still holds
        // key 0 (its release is step 3, issued at t3000) while node 2's
        // step-1 request waits. Pausing the engine between the two is
        // exactly the state the starvation oracle must flag.
        let script = Script::new()
            .lock(NodeId(0), LockId(0))
            .lock(NodeId(2), LockId(0))
            .release(NodeId(2))
            .release(NodeId(0));
        let config = SessionConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(0)),
            ..SessionConfig::default()
        };
        let (clients, monitor) = ScriptedClient::cluster(&tree, config, &script);
        let mut engine = Engine::new(clients, EngineConfig::default());
        engine
            .run_until(Time(2 * Script::STEP_TICKS + 500))
            .expect("mid-run prefix is clean");
        assert_eq!(monitor.waiting(), 1);
        let err = monitor.finish().expect_err("node 2 is starving");
        assert_eq!(err.key, 0);
        assert!(
            matches!(err.violation, Violation::Starvation { node, .. } if node == NodeId(2)),
            "unexpected violation: {err:?}"
        );

        // Resuming to quiescence clears the verdict: the wait resolves.
        engine.run_to_quiescence().expect("run completes");
        assert_eq!(monitor.waiting(), 0);
        monitor.finish().expect("served run has no starvation");
    }

    #[test]
    #[should_panic(expected = "reaches the step spacing")]
    fn oversized_timeout_window_is_rejected() {
        let script = Script::new()
            .lock_timeout(NodeId(0), LockId(0), Time(1000))
            .release(NodeId(0));
        let _ = ScriptedClient::cluster(&Tree::line(2), SessionConfig::default(), &script);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn zero_keys_is_rejected() {
        let config = SessionConfig {
            keys: 0,
            ..SessionConfig::default()
        };
        let _ = ScriptedClient::cluster(&Tree::line(2), config, &Script::new());
    }
}
