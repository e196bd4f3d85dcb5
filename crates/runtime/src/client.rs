//! The one lock client every backend hands out: [`LockClient`],
//! request builders, RAII guards, and the threaded session-script
//! executor.
//!
//! A [`LockClient`] is one node's handle on a running
//! [`LockService`](crate::LockService) backend. Acquisition is a tiny
//! builder: [`LockClient::lock`] names the key, then exactly one of
//! [`wait`](LockRequest::wait), [`try_now`](LockRequest::try_now),
//! [`timeout`](LockRequest::timeout), or
//! [`deadline`](LockRequest::deadline) runs it. Multi-key acquisition
//! ([`LockClient::lock_many`]) takes the keys in sorted [`LockId`]
//! order — every client orders identically, so overlapping key sets
//! cannot deadlock — and is all-or-nothing: a timeout rolls back every
//! key already acquired.
//!
//! `lock` takes `&mut self` and the guards borrow the client, so the
//! borrow checker enforces the paper's system model ("each node can
//! have at most one outstanding request") at compile time: a second
//! acquisition on the same node is impossible while a [`LockGuard`] or
//! [`MultiGuard`] lives.
//!
//! Timeouts cannot recall the REQUEST already travelling the tree (the
//! paper has no cancel message); the node releases the privilege the
//! moment it arrives — unless a new acquisition on the same key adopts
//! the in-flight request first. This abandon machinery is uniform
//! across all three backends (see [`service`](crate::service)).

use std::time::{Duration, Instant};

use dmx_core::LockId;
use dmx_topology::NodeId;
use dmx_workload::{AcquireMode, Outcome, Script, SessionOp};

use crate::cluster::Input;
use crate::mailbox::ack;
use crate::service::{LockError, Reply};

/// When an acquisition stops waiting (`None`: never), and which error
/// that expiry maps to.
type WaitLimit = Option<(Instant, LockError)>;

/// The distributed-lock endpoint for one node of a running backend.
///
/// Obtained from a backend's `start`; see the
/// [service module](crate::service) for the cross-substrate example.
pub struct LockClient {
    node: NodeId,
    keys: u32,
    /// Hands one client operation to the node: a push onto its inbox
    /// (`Cluster`, which then drains the node on the calling thread), a
    /// push onto the owning shard's inbox (lock space), or (TCP) a step
    /// of the node on the calling thread.
    submit: Box<dyn Fn(Input) -> Result<(), LockError> + Send>,
}

impl std::fmt::Debug for LockClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockClient")
            .field("node", &self.node)
            .field("keys", &self.keys)
            .finish_non_exhaustive()
    }
}

/// A single-key acquisition, ready to run; does nothing until one of
/// its consuming methods is called.
#[must_use = "a LockRequest does nothing until .wait()/.try_now()/.timeout()/.deadline() runs it"]
#[derive(Debug)]
pub struct LockRequest<'a> {
    client: &'a mut LockClient,
    key: LockId,
}

/// A multi-key acquisition, ready to run; does nothing until one of
/// its consuming methods is called.
#[must_use = "a MultiRequest does nothing until .wait()/.try_now()/.timeout()/.deadline() runs it"]
#[derive(Debug)]
pub struct MultiRequest<'a> {
    client: &'a mut LockClient,
    /// Sorted, deduplicated — the global acquisition order.
    keys: Vec<LockId>,
}

/// Possession of one key's critical section; releases on drop (or
/// explicitly via [`LockGuard::unlock`]).
#[must_use = "dropping a LockGuard releases the lock immediately"]
#[derive(Debug)]
pub struct LockGuard<'a> {
    client: &'a mut LockClient,
    key: LockId,
}

/// Possession of a whole key set's critical sections; releases all of
/// them (in reverse acquisition order) on drop or via
/// [`MultiGuard::unlock`].
#[must_use = "dropping a MultiGuard releases every key immediately"]
#[derive(Debug)]
pub struct MultiGuard<'a> {
    client: &'a mut LockClient,
    keys: Vec<LockId>,
}

impl LockClient {
    pub(crate) fn new(
        node: NodeId,
        keys: u32,
        submit: impl Fn(Input) -> Result<(), LockError> + Send + 'static,
    ) -> Self {
        LockClient {
            node,
            keys,
            submit: Box::new(submit),
        }
    }

    /// This client's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of keys the backend serves (valid keys are
    /// `LockId(0..keys)`; `1` for the single-lock backends).
    pub fn keys(&self) -> u32 {
        self.keys
    }

    /// Begins acquiring `key`'s distributed lock.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range for the backend's key space.
    pub fn lock(&mut self, key: LockId) -> LockRequest<'_> {
        assert!(
            key.0 < self.keys,
            "{key} out of range: this service has {} keys",
            self.keys
        );
        LockRequest { client: self, key }
    }

    /// Begins acquiring every key in `keys` (all-or-nothing, in sorted
    /// [`LockId`] order regardless of the order given; duplicates
    /// collapse).
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty or any key is out of range.
    pub fn lock_many(&mut self, keys: &[LockId]) -> MultiRequest<'_> {
        assert!(!keys.is_empty(), "lock_many needs at least one key");
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for key in &sorted {
            assert!(
                key.0 < self.keys,
                "{key} out of range: this service has {} keys",
                self.keys
            );
        }
        MultiRequest {
            client: self,
            keys: sorted,
        }
    }

    /// One blocking (possibly bounded) acquisition; `Ok` means the key
    /// is held.
    fn acquire_key(&mut self, key: LockId, limit: WaitLimit) -> Result<(), LockError> {
        let (ack, reply) = ack();
        (self.submit)(Input::Acquire(key, ack))?;
        match (reply.pop(limit.map(|(at, _)| at)), limit) {
            (Ok(Reply::Granted), _) => Ok(()),
            (Ok(Reply::Unavailable), _) => unreachable!("blocking acquire never bounces"),
            (Err(LockError::Timeout), Some((_, expired))) => {
                (self.submit)(Input::Abandon(key))?;
                Err(expired)
            }
            (Err(down), _) => Err(down),
        }
    }

    /// One non-blocking acquisition; `Ok` means the key is held.
    fn try_key(&mut self, key: LockId) -> Result<(), LockError> {
        let (ack, reply) = ack();
        (self.submit)(Input::TryAcquire(key, ack))?;
        match reply.pop(None)? {
            Reply::Granted => Ok(()),
            Reply::Unavailable => Err(LockError::WouldBlock),
        }
    }

    /// Acquires `keys[..]` in order under `limit`, rolling back on any
    /// failure.
    fn acquire_all(&mut self, keys: &[LockId], limit: WaitLimit) -> Result<(), LockError> {
        for (i, &key) in keys.iter().enumerate() {
            if let Err(e) = self.acquire_key(key, limit) {
                self.release_all(&keys[..i]);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Releases `held` in reverse acquisition order.
    fn release_all(&mut self, held: &[LockId]) {
        for &key in held.iter().rev() {
            // If the cluster is already gone there is nobody to notify.
            let _ = (self.submit)(Input::Release(key));
        }
    }
}

impl<'a> LockRequest<'a> {
    /// Blocks until the key is granted.
    ///
    /// # Errors
    ///
    /// [`LockError::ClusterDown`] if the cluster has shut down.
    pub fn wait(self) -> Result<LockGuard<'a>, LockError> {
        self.client.acquire_key(self.key, None)?;
        Ok(LockGuard {
            key: self.key,
            client: self.client,
        })
    }

    /// Grants only if the key's token is locally available right now;
    /// no protocol message is sent either way.
    ///
    /// # Errors
    ///
    /// [`LockError::WouldBlock`] if the token is remote (or an
    /// abandoned request is still in flight);
    /// [`LockError::ClusterDown`] if the cluster has shut down.
    pub fn try_now(self) -> Result<LockGuard<'a>, LockError> {
        self.client.try_key(self.key)?;
        Ok(LockGuard {
            key: self.key,
            client: self.client,
        })
    }

    /// Blocks up to `window`, then gives up.
    ///
    /// A zero `window` degenerates to [`try_now`](LockRequest::try_now)
    /// (reported as [`LockError::Timeout`]): it cannot even send a
    /// REQUEST, because an expired wait must not leave one in flight.
    ///
    /// # Errors
    ///
    /// [`LockError::Timeout`] when the window elapses;
    /// [`LockError::ClusterDown`] if the cluster has shut down.
    pub fn timeout(self, window: Duration) -> Result<LockGuard<'a>, LockError> {
        if window.is_zero() {
            return match self.try_now() {
                Err(LockError::WouldBlock) => Err(LockError::Timeout),
                other => other,
            };
        }
        let limit = Some((Instant::now() + window, LockError::Timeout));
        self.client.acquire_key(self.key, limit)?;
        Ok(LockGuard {
            key: self.key,
            client: self.client,
        })
    }

    /// Blocks until the absolute instant `at`, then gives up. An
    /// already-elapsed deadline fails immediately without acquiring.
    ///
    /// # Errors
    ///
    /// [`LockError::Deadline`] when `at` passes;
    /// [`LockError::ClusterDown`] if the cluster has shut down.
    pub fn deadline(self, at: Instant) -> Result<LockGuard<'a>, LockError> {
        if at <= Instant::now() {
            return Err(LockError::Deadline);
        }
        self.client
            .acquire_key(self.key, Some((at, LockError::Deadline)))?;
        Ok(LockGuard {
            key: self.key,
            client: self.client,
        })
    }
}

impl<'a> MultiRequest<'a> {
    fn into_guard(self) -> MultiGuard<'a> {
        MultiGuard {
            keys: self.keys,
            client: self.client,
        }
    }

    /// Blocks until every key is granted, acquiring in sorted order.
    ///
    /// # Errors
    ///
    /// [`LockError::ClusterDown`] if the cluster has shut down.
    pub fn wait(mut self) -> Result<MultiGuard<'a>, LockError> {
        let keys = std::mem::take(&mut self.keys);
        self.client.acquire_all(&keys, None)?;
        self.keys = keys;
        Ok(self.into_guard())
    }

    /// Grants only if *every* key's token is locally available right
    /// now; on the first remote key the ones already taken are
    /// released again.
    ///
    /// # Errors
    ///
    /// [`LockError::WouldBlock`] if any token is remote;
    /// [`LockError::ClusterDown`] if the cluster has shut down.
    pub fn try_now(mut self) -> Result<MultiGuard<'a>, LockError> {
        let keys = std::mem::take(&mut self.keys);
        for (i, &key) in keys.iter().enumerate() {
            if let Err(e) = self.client.try_key(key) {
                self.client.release_all(&keys[..i]);
                return Err(e);
            }
        }
        self.keys = keys;
        Ok(self.into_guard())
    }

    /// Blocks up to `window` for the whole set; expiry rolls back every
    /// key already acquired (all-or-nothing).
    ///
    /// # Errors
    ///
    /// [`LockError::Timeout`] when the window elapses;
    /// [`LockError::ClusterDown`] if the cluster has shut down.
    pub fn timeout(mut self, window: Duration) -> Result<MultiGuard<'a>, LockError> {
        if window.is_zero() {
            return match self.try_now() {
                Err(LockError::WouldBlock) => Err(LockError::Timeout),
                other => other,
            };
        }
        let keys = std::mem::take(&mut self.keys);
        let limit = Some((Instant::now() + window, LockError::Timeout));
        self.client.acquire_all(&keys, limit)?;
        self.keys = keys;
        Ok(self.into_guard())
    }

    /// Blocks until the absolute instant `at` for the whole set; see
    /// [`LockRequest::deadline`] for the elapsed-deadline rule.
    ///
    /// # Errors
    ///
    /// [`LockError::Deadline`] when `at` passes;
    /// [`LockError::ClusterDown`] if the cluster has shut down.
    pub fn deadline(mut self, at: Instant) -> Result<MultiGuard<'a>, LockError> {
        if at <= Instant::now() {
            return Err(LockError::Deadline);
        }
        let keys = std::mem::take(&mut self.keys);
        self.client
            .acquire_all(&keys, Some((at, LockError::Deadline)))?;
        self.keys = keys;
        Ok(self.into_guard())
    }
}

impl LockGuard<'_> {
    /// The locked key.
    pub fn key(&self) -> LockId {
        self.key
    }

    /// The node holding the critical section.
    pub fn node(&self) -> NodeId {
        self.client.node
    }

    /// Releases explicitly (equivalent to dropping the guard).
    pub fn unlock(self) {}
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.client.release_all(&[self.key]);
    }
}

impl MultiGuard<'_> {
    /// The locked keys, in acquisition (sorted) order.
    pub fn keys(&self) -> &[LockId] {
        &self.keys
    }

    /// The node holding the critical sections.
    pub fn node(&self) -> NodeId {
        self.client.node
    }

    /// Releases explicitly (equivalent to dropping the guard).
    pub fn unlock(self) {}
}

impl Drop for MultiGuard<'_> {
    fn drop(&mut self) {
        let keys = std::mem::take(&mut self.keys);
        self.client.release_all(&keys);
    }
}

/// Runs a session [`Script`] against a running backend's clients,
/// returning one [`Outcome`] per acquire step (`None` for release
/// steps) — the same vector the simulated
/// `dmx_lockspace::ScriptedClient` produces for the same script, which
/// is the sim-parity contract `tests/runtime_vs_sim.rs` pins.
///
/// Steps are globally sequenced: step `i` starts only after step
/// `i − 1` completed, with each node's steps executed by its own
/// thread so grants are *held* across other nodes' steps. `tick` is
/// the wall-clock length of one script tick — timeout windows scale
/// by it, and deadlines are first resolved against the script's
/// *logical clock* (step `i` issues at tick
/// `i ×`[`Script::STEP_TICKS`], exactly as the simulator schedules
/// it) so the remaining window — and therefore the outcome — matches
/// the simulated run even though threaded steps complete in
/// microseconds, not ticks.
///
/// # Panics
///
/// Panics if the script fails [`Script::validate`] against the
/// clients, or if the cluster shuts down mid-script.
pub fn run_script(
    clients: &mut [LockClient],
    script: &Script,
    tick: Duration,
) -> Vec<Option<Outcome>> {
    let keys = clients.first().map_or(0, LockClient::keys);
    script.validate(clients.len(), keys);
    let turn = std::sync::Mutex::new(0usize);
    let turned = std::sync::Condvar::new();
    let outcomes = std::sync::Mutex::new(vec![None; script.len()]);

    // Per-node step lists, in global order.
    let mut per_node: Vec<Vec<(usize, &SessionOp)>> = clients.iter().map(|_| Vec::new()).collect();
    for (i, step) in script.steps().iter().enumerate() {
        per_node[step.node.index()].push((i, &step.op));
    }

    let wait_turn = |want: usize| {
        let mut t = turn.lock().expect("turn lock poisoned");
        while *t != want {
            t = turned.wait(t).expect("turn lock poisoned");
        }
    };
    let advance = || {
        *turn.lock().expect("turn lock poisoned") += 1;
        turned.notify_all();
    };
    let scale = |ticks: dmx_simnet::Time| {
        tick * u32::try_from(ticks.ticks()).expect("script tick count fits u32")
    };

    std::thread::scope(|scope| {
        for (client, steps) in clients.iter_mut().zip(per_node) {
            let (wait_turn, advance, outcomes) = (&wait_turn, &advance, &outcomes);
            scope.spawn(move || {
                let mut iter = steps.into_iter().peekable();
                while let Some((i, op)) = iter.next() {
                    let SessionOp::Acquire { keys, mode } = op else {
                        // A release whose acquire failed: nothing held.
                        wait_turn(i);
                        advance();
                        continue;
                    };
                    wait_turn(i);
                    let held = acquire_step(client, keys, *mode, i, scale);
                    let outcome = match &held {
                        Ok(_) => Outcome::Granted,
                        Err(LockError::Timeout) => Outcome::TimedOut,
                        Err(LockError::WouldBlock) => Outcome::WouldBlock,
                        Err(LockError::Deadline) => Outcome::DeadlineExceeded,
                        Err(LockError::ClusterDown) => panic!("cluster shut down mid-script"),
                    };
                    outcomes.lock().expect("outcome lock poisoned")[i] = Some(outcome);
                    advance();
                    if let Ok(guard) = held {
                        // Validation guarantees this node's next step is
                        // the matching release; hold until its turn.
                        let (r, op) = iter.next().expect("validated: grant has a release");
                        debug_assert!(matches!(op, SessionOp::Release));
                        wait_turn(r);
                        drop(guard);
                        advance();
                    }
                }
            });
        }
    });
    outcomes.into_inner().expect("outcome lock poisoned")
}

/// A held acquisition of either arity, so the script loop can hold it
/// across other nodes' steps; the guards exist only for their drops.
enum Held<'a> {
    One(#[allow(dead_code)] LockGuard<'a>),
    Many(#[allow(dead_code)] MultiGuard<'a>),
}

fn acquire_step<'a>(
    client: &'a mut LockClient,
    keys: &[LockId],
    mode: AcquireMode,
    step: usize,
    scale: impl Fn(dmx_simnet::Time) -> Duration,
) -> Result<Held<'a>, LockError> {
    // A script deadline is absolute on the logical session clock; this
    // step reads `step × STEP_TICKS` on that clock (the tick the
    // simulator issues it at), so only the remainder is wall-clock
    // waitable — and an already-passed logical deadline maps to an
    // already-passed instant.
    let wall_deadline = |at: dmx_simnet::Time| {
        let logical_now = step as u64 * Script::STEP_TICKS;
        Instant::now() + scale(dmx_simnet::Time(at.ticks().saturating_sub(logical_now)))
    };
    if let [key] = keys {
        let request = client.lock(*key);
        match mode {
            AcquireMode::Wait => request.wait(),
            AcquireMode::Try => request.try_now(),
            AcquireMode::Timeout(w) => request.timeout(scale(w)),
            AcquireMode::Deadline(at) => request.deadline(wall_deadline(at)),
        }
        .map(Held::One)
    } else {
        let request = client.lock_many(keys);
        match mode {
            AcquireMode::Wait => request.wait(),
            AcquireMode::Try => request.try_now(),
            AcquireMode::Timeout(w) => request.timeout(scale(w)),
            AcquireMode::Deadline(at) => request.deadline(wall_deadline(at)),
        }
        .map(Held::Many)
    }
}
