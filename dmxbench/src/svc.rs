//! The wall-clock half: two closed-loop callers against a running lock
//! service. The paper's model allows one outstanding request per node
//! and `LockClient` blocks, so the load is closed loop by construction:
//! caller `c` owns the clients of nodes `{i : i mod 2 = c}` of a
//! seven-node binary tree and issues its next acquire only when the
//! previous guard is dropped. Critical sections are empty, no link
//! delay is injected and the callers of [`run`] confine the service to
//! one CPU, so a latency here is processor time plus context switches.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use dmx_core::LockId;
use dmx_lockspace::{FlushPolicy, Placement};
use dmx_runtime::tcp::TcpCluster;
use dmx_runtime::{Cluster, LockClient, LockSpaceCluster, LockSpaceClusterConfig};
use dmx_topology::{NodeId, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{LatencyHist, SliceHist};
use crate::trace::{Span, Tracer};

/// Seven nodes because every node is one or two OS threads; 127 would
/// measure the scheduler.
pub const NODES: usize = 7;
/// Fixed at 2 (= `nproc` on the sizing host), not scaled with the host.
pub const CALLERS: usize = 2;
pub const SPACE_KEYS: u32 = 64;
/// Pre-generated acquires per caller, cycled; a power of two. Short
/// enough that generating it stays a small part of `setup_s`, which is
/// there to watch the program's `start`, not the benchmark's own RNG.
const SCRIPT_LEN: usize = 1 << 14;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Chan,
    Tcp,
    Space,
}

impl Backend {
    pub fn keys(self) -> u32 {
        match self {
            Backend::Chan | Backend::Tcp => 1,
            Backend::Space => SPACE_KEYS,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMix {
    /// The backend's single key.
    Single,
    /// Every key equally likely.
    Uniform,
    /// 90% of draws are keys whose modulo home is the calling node.
    Home,
}

#[derive(Debug, Clone, Copy)]
pub struct SvcSpec {
    pub backend: Backend,
    pub mix: KeyMix,
}

pub fn spec_of(workload: &str) -> Option<SvcSpec> {
    let (backend, mix) = match workload {
        "svc_chan_handoff" => (Backend::Chan, KeyMix::Single),
        "svc_tcp_handoff" => (Backend::Tcp, KeyMix::Single),
        "svc_space_uniform" => (Backend::Space, KeyMix::Uniform),
        "svc_space_home" => (Backend::Space, KeyMix::Home),
        _ => return None,
    };
    Some(SvcSpec { backend, mix })
}

pub enum Service {
    Chan(Cluster),
    Tcp(TcpCluster),
    Space(LockSpaceCluster),
}

/// Lifetime counters a backend reports when it stops.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub entries: u64,
    pub messages: u64,
    /// Post-coalescing sends; equals `messages` off the lock space.
    pub envelopes: u64,
    pub abandoned: u64,
}

impl Service {
    /// Token(s) start at node 0 / per `Placement::Modulo`.
    pub fn start(backend: Backend, tree: &Tree) -> (Service, Vec<LockClient>) {
        match backend {
            Backend::Chan => {
                let (c, clients) = Cluster::start(tree, NodeId(0));
                (Service::Chan(c), clients)
            }
            Backend::Tcp => {
                let (c, clients) =
                    TcpCluster::start(tree, NodeId(0)).expect("loopback sockets must bind");
                (Service::Tcp(c), clients)
            }
            Backend::Space => {
                let config = LockSpaceClusterConfig {
                    keys: SPACE_KEYS,
                    placement: Placement::Modulo,
                    workers: 1,
                    flush: FlushPolicy::EveryTick,
                };
                let (c, clients) = LockSpaceCluster::start_with(tree, config);
                (Service::Space(c), clients)
            }
        }
    }

    /// The lock space's consistent-cut oracle; vacuously true for the
    /// single-lock backends, which have no online capture.
    pub fn verify(&self) -> bool {
        match self {
            Service::Space(c) => c.snapshot().verify().is_ok(),
            Service::Chan(_) | Service::Tcp(_) => true,
        }
    }

    pub fn shutdown(self) -> Totals {
        match self {
            Service::Chan(c) => single_totals(c.shutdown()),
            Service::Tcp(c) => single_totals(c.shutdown()),
            Service::Space(c) => {
                let s = c.shutdown();
                Totals {
                    entries: s.entries,
                    messages: s.messages_total,
                    envelopes: s.envelopes_total,
                    abandoned: s.per_node.iter().map(|n| n.abandoned).sum(),
                }
            }
        }
    }
}

fn single_totals(s: dmx_runtime::ClusterStats) -> Totals {
    Totals {
        entries: s.entries,
        messages: s.messages_total,
        envelopes: s.messages_total,
        abandoned: s.per_node.iter().map(|n| n.abandoned).sum(),
    }
}

/// One scripted acquire: which of the caller's clients, which key.
#[derive(Debug, Clone, Copy)]
struct Op {
    slot: u8,
    key: u8,
}

fn caller_nodes(caller: usize) -> Vec<usize> {
    (0..NODES).filter(|i| i % CALLERS == caller).collect()
}

/// The caller's acquire sequence, a pure function of `(spec.mix, seed,
/// caller)` — `svc_chan_handoff` and `svc_tcp_handoff` therefore replay
/// the identical script.
fn script(spec: SvcSpec, seed: u64, caller: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_add((caller as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let nodes = caller_nodes(caller);
    let keys = spec.backend.keys();
    (0..SCRIPT_LEN)
        .map(|_| {
            let slot = rng.gen_range(0..nodes.len());
            let key = match spec.mix {
                KeyMix::Single => 0,
                KeyMix::Uniform => rng.gen_range(0..keys),
                KeyMix::Home if rng.gen_range(0..10u32) < 9 => {
                    let node = nodes[slot] as u32;
                    let homed = (keys - node).div_ceil(NODES as u32);
                    node + NODES as u32 * rng.gen_range(0..homed)
                }
                KeyMix::Home => rng.gen_range(0..keys),
            };
            Op {
                slot: slot as u8,
                key: key as u8,
            }
        })
        .collect()
}

/// One stretch of the closed loop. An acquire belongs to the phase it
/// starts in.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub secs: f64,
    /// Record latencies (the timed windows) or only run the load.
    pub record: bool,
    /// Record a span per `lock().wait()` and per guard drop.
    pub trace: bool,
}

impl Phase {
    pub fn new(secs: f64, record: bool, trace: bool) -> Phase {
        Phase {
            secs,
            record,
            trace,
        }
    }
}

struct CallerOut {
    grants: Vec<u64>,
    hists: Vec<SliceHist>,
    errors: u64,
    violations: u64,
    spans: Vec<Span>,
    spans_dropped: u64,
}

/// Where a caller's spans hang in the trace.
#[derive(Clone, Copy)]
struct SpanSlot {
    base: u32,
    parent: u32,
    cap: usize,
}

/// What both callers share for the length of the closed loop.
struct Load<'a> {
    /// One owner cell per key: 0 when free, else the caller inside.
    owners: &'a [AtomicU32],
    epoch: Instant,
    phases: &'a [Phase],
    /// When each phase ends, in ns since `epoch`.
    until_ns: &'a [u64],
}

fn caller_loop(
    me: u32,
    clients: &mut [LockClient],
    script: &[Op],
    load: &Load<'_>,
    slot: SpanSlot,
) -> CallerOut {
    let Load {
        owners,
        epoch,
        phases,
        until_ns,
    } = *load;
    let mut out = CallerOut {
        grants: vec![0; phases.len()],
        hists: phases.iter().map(|_| SliceHist::new()).collect(),
        errors: 0,
        violations: 0,
        spans: Vec::with_capacity(slot.cap),
        spans_dropped: 0,
    };
    let now = || epoch.elapsed().as_nanos() as u64;
    let (mut p, mut i) = (0, 0usize);
    loop {
        let op = script[i & (SCRIPT_LEN - 1)];
        i += 1;
        let t0 = now();
        while p < phases.len() && t0 >= until_ns[p] {
            p += 1;
        }
        if p == phases.len() {
            return out;
        }
        let guard = match clients[op.slot as usize]
            .lock(LockId(u32::from(op.key)))
            .wait()
        {
            Ok(guard) => guard,
            Err(_) => {
                // The cluster is gone; spinning on it would only inflate
                // the error count.
                out.errors += 1;
                return out;
            }
        };
        let t1 = now();
        // Mutual exclusion, checked inside the critical section: the
        // cell must be free on entry and is freed before the release.
        let cell = &owners[op.key as usize];
        if cell
            .compare_exchange(0, me, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            out.violations += 1;
        }
        cell.store(0, Ordering::SeqCst);
        drop(guard);
        out.grants[p] += 1;
        if phases[p].record {
            out.hists[p].record(t1 - t0);
        }
        if phases[p].trace {
            let t2 = now();
            if out.spans.len() + 2 <= slot.cap {
                let id = slot.base + out.spans.len() as u32;
                out.spans.push(Span {
                    name: "LockClient::lock().wait",
                    id,
                    parent: slot.parent,
                    start_ns: t0,
                    end_ns: t1,
                    count: 1,
                });
                // Caused by the acquire, so it hangs under it.
                out.spans.push(Span {
                    name: "LockGuard::drop",
                    id: id + 1,
                    parent: id,
                    start_ns: t1,
                    end_ns: t2,
                    count: 1,
                });
            } else {
                out.spans_dropped += 2;
            }
        }
    }
}

/// What one service run measured.
pub struct SvcRun {
    /// One entry per set-up repetition: tree + `start` + script
    /// generation, warm-up excluded.
    pub setup_ns: Vec<f64>,
    pub start_ns: Vec<f64>,
    pub shutdown_ns: Vec<f64>,
    /// Per phase, both callers merged: grants, and the p50 and p99 of
    /// the recorded latencies in ns (NaN for a phase that recorded
    /// none).
    pub grants: Vec<u64>,
    pub p50_ns: Vec<f64>,
    pub p99_ns: Vec<f64>,
    /// Every recorded phase together.
    pub whole: LatencyHist,
    /// No slice histogram saturated a count.
    pub hists_exact: bool,
    pub errors: u64,
    pub violations: u64,
    pub totals: Totals,
    /// Shutdown `entries` equals the grants the callers counted.
    pub entries_match: bool,
    /// `snapshot().verify()` at the end (lock space; else true).
    pub verified: bool,
    pub spans_dropped: u64,
}

impl SvcRun {
    pub fn attempted(&self) -> u64 {
        self.grants.iter().sum::<u64>() + self.errors
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.violations
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
            && self.entries_match
            && self.verified
            && self.totals.abandoned == 0
            && self.hists_exact
    }

    pub fn msgs_per_grant(&self) -> f64 {
        self.totals.messages as f64 / self.totals.entries.max(1) as f64
    }

    pub fn envelopes_per_msg(&self) -> f64 {
        self.totals.envelopes as f64 / self.totals.messages.max(1) as f64
    }
}

/// Sets the service up, runs the two callers through `phases`, checks
/// the run and stops the service; around that it sets the service up
/// and stops it again until `setup_reps` set-ups have been timed. Spans
/// go to `tracer` under `parent`.
pub fn run(
    spec: SvcSpec,
    seed: u64,
    setup_reps: usize,
    phases: &[Phase],
    tracer: &mut Tracer,
    parent: u32,
) -> SvcRun {
    let (mut setup_ns, mut start_ns, mut shutdown_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut set_up = |tracer: &mut Tracer| {
        let setup = tracer.open("setup", parent);
        let (tree, _) = tracer.time("Tree::kary", setup.id, 1, || Tree::kary(NODES, 2));
        let ((service, clients), ns) =
            tracer.time("start", setup.id, 1, || Service::start(spec.backend, &tree));
        start_ns.push(ns as f64);
        let (scripts, _) = tracer.time("script", setup.id, 1, || {
            [script(spec, seed, 0), script(spec, seed, 1)]
        });
        setup_ns.push(tracer.close(setup, 1) as f64);
        (service, clients, scripts)
    };
    // Half the spare set-ups run before the load and half after it, a
    // run's length apart: the host's mood holds for a good fraction of a
    // second, so back-to-back set-ups all sample one moment of it.
    let spare = setup_reps.saturating_sub(1);
    for _ in 0..spare / 2 {
        let (service, clients, _) = set_up(tracer);
        drop(clients);
        let (_, ns) = tracer.time("shutdown", parent, 1, || service.shutdown());
        shutdown_ns.push(ns as f64);
    }
    let (service, clients, scripts) = set_up(tracer);

    let mut per_caller: [Vec<LockClient>; CALLERS] = [Vec::new(), Vec::new()];
    for (i, client) in clients.into_iter().enumerate() {
        per_caller[i % CALLERS].push(client);
    }
    let owners: Vec<AtomicU32> = (0..spec.backend.keys())
        .map(|_| AtomicU32::new(0))
        .collect();

    let epoch = tracer.epoch();
    let loop_span = tracer.open("closed_loop", parent);
    let mut until_ns = Vec::with_capacity(phases.len());
    let mut edge = epoch.elapsed().as_nanos() as u64;
    for phase in phases {
        edge += (phase.secs * 1e9) as u64;
        until_ns.push(edge);
    }
    // Room for every traced acquire at well above the fastest rate seen.
    let traced_secs: f64 = phases.iter().filter(|p| p.trace).map(|p| p.secs).sum();
    let cap = (traced_secs * 150_000.0) as usize * 2;
    let slots: Vec<SpanSlot> = (0..CALLERS)
        .map(|_| SpanSlot {
            base: tracer.reserve_ids(cap as u32),
            parent: loop_span.id,
            cap,
        })
        .collect();
    let load = Load {
        owners: &owners,
        epoch,
        phases,
        until_ns: &until_ns,
    };
    let outs: Vec<CallerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_caller
            .iter_mut()
            .zip(&scripts)
            .zip(&slots)
            .enumerate()
            .map(|(c, ((clients, script), &slot))| {
                let load = &load;
                scope.spawn(move || caller_loop(c as u32 + 1, clients, script, load, slot))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    tracer.close(loop_span, 1);

    let (verified, _) = tracer.time("snapshot+verify", parent, 1, || service.verify());
    drop(per_caller);
    let (totals, ns) = tracer.time("shutdown", parent, 1, || service.shutdown());
    shutdown_ns.push(ns as f64);
    for _ in 0..spare - spare / 2 {
        let (service, clients, _) = set_up(tracer);
        drop(clients);
        let (_, ns) = tracer.time("shutdown", parent, 1, || service.shutdown());
        shutdown_ns.push(ns as f64);
    }

    let mut grants = vec![0u64; phases.len()];
    let (mut errors, mut violations, mut spans_dropped) = (0, 0, 0);
    let mut slice_hists = Vec::with_capacity(CALLERS);
    for out in outs {
        for (p, g) in out.grants.iter().enumerate() {
            grants[p] += g;
        }
        errors += out.errors;
        violations += out.violations;
        spans_dropped += out.spans_dropped;
        tracer.absorb(out.spans);
        slice_hists.push(out.hists);
    }
    let (mut p50_ns, mut p99_ns) = (Vec::new(), Vec::new());
    let (mut whole, mut merged, mut hists_exact) = (LatencyHist::new(), LatencyHist::new(), true);
    for p in 0..phases.len() {
        merged.clear();
        for hists in &slice_hists {
            hists_exact &= merged.absorb(&hists[p]);
        }
        p50_ns.push(merged.quantile(0.50).unwrap_or(f64::NAN));
        p99_ns.push(merged.quantile(0.99).unwrap_or(f64::NAN));
        whole.merge(&merged);
    }
    SvcRun {
        setup_ns,
        start_ns,
        shutdown_ns,
        entries_match: totals.entries == grants.iter().sum::<u64>(),
        grants,
        p50_ns,
        p99_ns,
        whole,
        hists_exact,
        errors,
        violations,
        totals,
        verified,
        spans_dropped,
    }
}
