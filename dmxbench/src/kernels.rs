//! Layer kernels: one small measurement per module of the workspace,
//! run by every traced pass. Calls are timed in batches (one span per
//! batch) so that the clock is not the measurement; a kernel's value is
//! the median batch divided by the calls it covers.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use dmx_core::{init_nodes, Action, DagMessage, DagNode, KeyedDagMessage, LockId};
use dmx_lockspace::{BatchPool, Envelope, FlushPolicy, LockTable, OrientationCache, Transport};
use dmx_simnet::checker::{KeyedLivenessChecker, KeyedSafetyChecker};
use dmx_simnet::metrics::{GrantRecord, Histogram, Metrics, SyncDelay};
use dmx_simnet::sched::{EventQueue, HeapQueue, WheelQueue};
use dmx_simnet::{Ctx, Engine, EngineConfig, Protocol, Time};
use dmx_topology::{NodeId, Tree};
use dmx_workload::{KeyDist, KeySampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::sim::{self, Cell};
use crate::stats::median;
use crate::svc::{self, Backend, Phase, Service};
use crate::trace::Tracer;

/// How long each kind of kernel measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds per in-process micro kernel.
    pub micro: f64,
    /// Seconds per star-cluster acquire loop.
    pub star: f64,
    /// Recorded seconds of each service mini-run.
    pub mini: f64,
    /// Kept repetitions of each simulator cell.
    pub cell_reps: usize,
}

impl Budget {
    pub const FULL: Budget = Budget {
        micro: 0.04,
        star: 0.25,
        mini: 0.4,
        cell_reps: 3,
    };
    pub const SMOKE: Budget = Budget {
        micro: 0.005,
        star: 0.03,
        mini: 0.1,
        cell_reps: 1,
    };
}

pub struct Kernels {
    pub metrics: Vec<(&'static str, f64)>,
    /// Every cell and mini-run inside the pass passed its own checks.
    pub correct: bool,
}

/// One kernel pass in progress: where its spans hang, how long a micro
/// kernel measures, and what has been measured so far.
struct Pass<'a> {
    tracer: &'a mut Tracer,
    span: u32,
    micro: f64,
    out: Kernels,
}

impl Pass<'_> {
    fn push(&mut self, metric: &'static str, value: f64) {
        self.out.metrics.push((metric, value));
    }

    /// Median ns per call of `call`, timed `batch` calls per span for
    /// about `secs`. `fresh` builds the state a batch consumes, outside
    /// the span. The kernel's span carries the metric's name.
    fn time_for<S>(
        &mut self,
        metric: &'static str,
        secs: f64,
        batch: u32,
        mut fresh: impl FnMut() -> S,
        mut call: impl FnMut(&mut S),
    ) -> f64 {
        let kernel = self.tracer.open(metric, self.span);
        let started = Instant::now();
        let mut per_call = Vec::new();
        while started.elapsed().as_secs_f64() < secs || per_call.len() < 5 {
            let mut state = fresh();
            let (_, ns) = self.tracer.time("batch", kernel.id, batch, || {
                for _ in 0..batch {
                    call(&mut state);
                }
            });
            black_box(&state);
            per_call.push(ns as f64 / f64::from(batch));
        }
        self.tracer.close(kernel, 1);
        median(&per_call)
    }

    /// A micro kernel with no per-batch state, reported in ns per call.
    fn micro(&mut self, metric: &'static str, batch: u32, mut call: impl FnMut()) {
        let ns = self.time_for(metric, self.micro, batch, || (), |_| call());
        self.push(metric, ns);
    }

    /// Depth 128, one-tick horizon: pop the earliest, push it one tick on.
    fn push_pop(&mut self, metric: &'static str, mut queue: impl EventQueue<u64>) {
        let mut seq = 128;
        for i in 0..seq {
            queue.push(Time(1), i, i);
        }
        self.micro(metric, 1024, || {
            let (at, item) = queue.pop_earliest().expect("queue stays at depth 128");
            queue.push(at + Time(1), seq, item);
            seq += 1;
        });
    }

    /// A few repetitions of one simulator cell.
    fn cell(&mut self, cell: Cell, seed: u64, reps: usize) -> sim::SimRun {
        let run = sim::repeat(cell, seed, 0.0, reps, self.tracer, self.span);
        self.out.correct &= run.correct();
        run
    }

    /// ns per acquire for one caller cycling through `order` (client
    /// indices) on a three-node star: `[1]` is the parked token (zero
    /// messages), `[1, 2]` the leaf-to-leaf hand-off (three messages).
    fn star_cycle(
        &mut self,
        span: &'static str,
        backend: Backend,
        order: &[usize],
        secs: f64,
    ) -> f64 {
        let (service, mut clients) = Service::start(backend, &Tree::star(3));
        // Key 1's modulo home is node 1; the single-lock token moves
        // there on the first acquire.
        let key = LockId(if backend == Backend::Space { 1 } else { 0 });
        let mut turn = 0usize;
        let mut acquire = || {
            let client = &mut clients[order[turn % order.len()]];
            turn += 1;
            drop(client.lock(key).wait().expect("kernel cluster is up"));
        };
        (0..256).for_each(|_| acquire());
        let ns = self.time_for(span, secs, 256, || (), |_| acquire());
        drop(clients);
        service.shutdown();
        ns
    }
}

/// The saturated hand-off sequence replayed through the bare `DagNode`
/// handlers: every node requests, re-requests on exit, and messages are
/// delivered by hand from one FIFO (which preserves per-link order).
struct Replay {
    tree: Tree,
    nodes: Vec<DagNode>,
    work: VecDeque<Work>,
    remaining: Vec<u32>,
    actions: Vec<Action>,
    grants: u64,
    messages: u64,
}

#[derive(Clone, Copy)]
enum Work {
    Request(NodeId),
    Exit(NodeId),
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: DagMessage,
    },
}

impl Replay {
    const ROUNDS: u32 = 50;

    fn new() -> Self {
        let mut replay = Replay {
            tree: Tree::kary(sim::NODES, 2),
            nodes: Vec::new(),
            work: VecDeque::new(),
            remaining: Vec::new(),
            actions: Vec::new(),
            grants: 0,
            messages: 0,
        };
        replay.refill();
        replay
    }

    fn refill(&mut self) {
        self.nodes = init_nodes(&self.tree, NodeId(0));
        self.remaining = vec![Self::ROUNDS - 1; self.nodes.len()];
        self.work.extend(self.tree.nodes().map(Work::Request));
    }

    /// One handler call.
    fn step(&mut self) {
        let work = match self.work.pop_front() {
            Some(work) => work,
            None => {
                self.refill();
                self.work.pop_front().expect("refilled")
            }
        };
        let me = match work {
            Work::Request(me) => {
                self.nodes[me.index()].request_into(&mut self.actions);
                me
            }
            Work::Exit(me) => {
                self.nodes[me.index()].exit_into(&mut self.actions);
                let left = &mut self.remaining[me.index()];
                if *left > 0 {
                    *left -= 1;
                    self.work.push_back(Work::Request(me));
                }
                me
            }
            Work::Deliver { to, from, msg } => {
                let node = &mut self.nodes[to.index()];
                match msg {
                    DagMessage::Request { origin, .. } => {
                        node.receive_request_into(from, origin, &mut self.actions)
                    }
                    DagMessage::Privilege => node.receive_privilege_into(&mut self.actions),
                    DagMessage::Initialize => unreachable!("replay starts initialized"),
                }
                to
            }
        };
        for action in self.actions.drain(..) {
            match action {
                Action::Send { to, message } => {
                    self.messages += 1;
                    self.work.push_back(Work::Deliver {
                        to,
                        from: me,
                        msg: message,
                    });
                }
                Action::Enter => {
                    self.grants += 1;
                    self.work.push_back(Work::Exit(me));
                }
            }
        }
    }
}

/// The engine with the protocol nulled: every delivery forwards one
/// unit message to the next node, nobody ever enters.
struct Ring {
    next: NodeId,
}

impl Protocol for Ring {
    type Message = ();

    fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.send(self.next, ());
    }

    fn on_request_cs(&mut self, _: &mut Ctx<'_, ()>) {}

    fn on_message(&mut self, _: NodeId, _: (), ctx: &mut Ctx<'_, ()>) {
        ctx.send(self.next, ());
    }

    fn on_exit_cs(&mut self, _: &mut Ctx<'_, ()>) {}
}

/// The engine's single-lock bookkeeping with the protocol nulled: a
/// request enters at once, so every event is a `Request` or an `Exit`
/// and pays the safety and liveness oracles, the grant record and the
/// hold-time sample, but no message.
struct Selfish;

impl Protocol for Selfish {
    type Message = ();

    fn on_request_cs(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.enter_cs();
    }

    fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {}

    fn on_exit_cs(&mut self, _: &mut Ctx<'_, ()>) {}
}

fn events_per_s(run: &sim::SimRun) -> f64 {
    run.first.events as f64 / (median(&run.run_ns()) / 1e9)
}

/// Runs every kernel. `seed` seeds the cells and mini-runs only; the
/// micro kernels use fixed inputs.
pub fn run(seed: u64, budget: Budget, tracer: &mut Tracer, parent: u32) -> Kernels {
    let span = tracer.open("kernels", parent);
    let mut pass = Pass {
        span: span.id,
        tracer,
        micro: budget.micro,
        out: Kernels {
            metrics: Vec::new(),
            correct: true,
        },
    };
    let micro = budget.micro;
    let tree = Tree::kary(sim::NODES, 2);
    let n = tree.len() as u32;

    // topology
    let ns = pass.time_for(
        "topology.tree.build_us",
        micro,
        8,
        || (),
        |_| {
            black_box(Tree::kary(black_box(sim::NODES), 2));
        },
    );
    pass.push("topology.tree.build_us", ns / 1e3);
    let ns = pass.time_for(
        "topology.orientation.next_hop_cold_ns",
        micro,
        n,
        || (OrientationCache::new(tree.len()), 0u32),
        |(cache, hub)| {
            black_box(cache.next_hop(&tree, NodeId(*hub), NodeId(n - 1 - *hub)));
            *hub += 1;
        },
    );
    pass.push("topology.orientation.next_hop_cold_ns", ns);
    let mut warm = OrientationCache::new(tree.len());
    for hub in tree.nodes() {
        warm.next_hop(&tree, hub, NodeId(0));
    }
    let mut i = 0u32;
    pass.micro("topology.orientation.next_hop_warm_ns", 1024, || {
        i = i.wrapping_mul(5).wrapping_add(1);
        black_box(warm.next_hop(&tree, NodeId(i % n), NodeId((i >> 8) % n)));
    });

    // core
    let mut replay = Replay::new();
    pass.micro("core.node.handler_ns", 1024, || replay.step());
    pass.push(
        "core.node.msgs_per_grant",
        replay.messages as f64 / replay.grants.max(1) as f64,
    );

    // simnet
    pass.push_pop("simnet.sched.heap_push_pop_ns", HeapQueue::new());
    pass.push_pop("simnet.sched.wheel_push_pop_ns", WheelQueue::<u64>::new());
    let quiet = EngineConfig {
        record_trace: false,
        ..EngineConfig::default()
    };
    let ring = (0..n).map(|i| Ring {
        next: NodeId((i + 1) % n),
    });
    let mut engine = Engine::new(ring.collect(), quiet);
    pass.micro("simnet.engine.dispatch_ns", 1024, || {
        black_box(engine.step().expect("the ring never violates anything"));
    });
    let mut engine = Engine::new((0..n).map(|_| Selfish).collect(), quiet);
    engine.request_at(Time::ZERO, NodeId(0));
    pass.micro("simnet.engine.enter_exit_ns", 1024, || {
        engine.step().expect("one node at a time never collides");
        // The next node asks the moment this one leaves.
        if let Some((node, at)) = engine.take_just_released() {
            engine.request_at(at, NodeId((node.0 + 1) % n));
        }
    });
    let mut hist = Histogram::default();
    let mut x = 0x9E37_79B9u64;
    pass.micro("simnet.metrics.histogram_record_ns", 1024, || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        hist.record(x & 0xFFFF);
    });
    black_box(hist.count());
    // `run_with_workload` returns a clone of the engine's metrics, grant
    // log included: the closing cost of every single-lock cell.
    let grant = GrantRecord {
        node: NodeId(0),
        requested_at: Time::ZERO,
        granted_at: Time(1),
        released_at: Some(Time(2)),
        messages_during_wait: 3,
    };
    let handoff = SyncDelay {
        from: NodeId(0),
        to: NodeId(1),
        messages: 1,
        elapsed: Time(1),
    };
    let report = Metrics {
        grants: vec![grant; sim::SATURATED_GRANTS],
        sync_delays: vec![handoff; sim::SATURATED_GRANTS],
        ..Metrics::default()
    };
    let ns = pass.time_for(
        "simnet.metrics.report_clone_ns",
        micro,
        1,
        || (),
        |_| {
            black_box(black_box(&report).clone());
        },
    );
    pass.push(
        "simnet.metrics.report_clone_ns",
        ns / sim::SATURATED_GRANTS as f64,
    );
    drop(report);
    let mut safety = KeyedSafetyChecker::with_keys(64);
    let mut liveness = KeyedLivenessChecker::with_nodes(tree.len());
    let mut i = 0u64;
    pass.micro("simnet.checker.keyed_grant_ns", 1024, || {
        i += 1;
        let (node, key, at) = (
            NodeId((i % u64::from(n)) as u32),
            (i % 64) as usize,
            Time(i),
        );
        let ok = liveness.on_request(node, key, at).is_ok()
            && liveness.on_grant(node, key, at).is_ok()
            && safety.on_enter(key, node, at).is_ok()
            && safety.on_exit(key, node, at).is_ok();
        black_box(ok);
    });

    // lockspace: table and transport
    let instance = || DagNode::new(NodeId(0), None);
    let mut table: LockTable = LockTable::new(16);
    for k in 0..4096 {
        table.get_or_insert_with(LockId(k), instance);
    }
    let mut k = 0u32;
    pass.micro("lockspace.table.hit_ns", 1024, || {
        k = (k.wrapping_mul(5).wrapping_add(1)) & 4095;
        black_box(table.get_mut(LockId(k)).map(|node| node.holding()));
    });
    let ns = pass.time_for(
        "lockspace.table.insert_ns",
        micro,
        4096,
        || (LockTable::<DagNode>::new(16), 0u32),
        |(table, k)| {
            table.get_or_insert_with(LockId(*k), instance);
            *k += 1;
        },
    );
    pass.push("lockspace.table.insert_ns", ns);
    let mut transport = Transport::new(tree.len(), FlushPolicy::EveryTick);
    let mut pool = BatchPool::new();
    let mut sent: Vec<Envelope> = Vec::new();
    let ns = pass.time_for(
        "lockspace.transport.stage_flush_ns",
        micro,
        256,
        || (),
        |_| {
            for key in 0..8 {
                for dst in 1..=3 {
                    let msg = DagMessage::Privilege;
                    let lock = LockId(key);
                    transport.stage(NodeId(dst), KeyedDagMessage { lock, msg });
                }
            }
            transport.flush(&mut pool, |_, envelope| sent.push(envelope));
            // The receiver's half of the pool cycle.
            for envelope in sent.drain(..) {
                if let Envelope::Batch(batch) = envelope {
                    pool.put(batch);
                }
            }
        },
    );
    pass.push("lockspace.transport.stage_flush_ns", ns / 24.0);

    // workload
    let sampler = KeySampler::new(64, KeyDist::Zipf { exponent: 1.1 });
    let mut rng = StdRng::seed_from_u64(1);
    pass.micro("workload.keyed.sample_ns", 1024, || {
        black_box(sampler.sample(&mut rng));
    });

    // The four simulator cells and the Raymond baseline, briefly. The
    // parallel cell is four to eight times the others' length.
    let reps = budget.cell_reps;
    let lock = pass.cell(Cell::LockSaturated, seed, reps);
    pass.push("simnet.engine.events_per_s", events_per_s(&lock));
    pass.push(
        "simnet.engine.wait_p99_ticks",
        lock.first.wait_p99_ticks as f64,
    );
    let raymond = pass.cell(Cell::RaymondSaturated, seed, reps);
    pass.push("baselines.raymond.events_per_s", events_per_s(&raymond));
    pass.push(
        "baselines.raymond.msgs_per_grant",
        raymond.first.msgs_per_grant(),
    );
    let space = pass.cell(Cell::SpaceUniform, seed, reps);
    pass.push(
        "lockspace.transport.envelopes_per_msg",
        space.first.envelopes as f64 / space.first.messages.max(1) as f64,
    );
    pass.push("lockspace.space.events_per_s", events_per_s(&space));
    pass.push(
        "lockspace.space.overhead_ns",
        1e9 / events_per_s(&space) - 1e9 / events_per_s(&lock),
    );
    pass.push(
        "lockspace.space.wait_p99_ticks",
        space.first.wait_p99_ticks as f64,
    );
    let tenant = pass.cell(Cell::SpaceTenant, seed, reps);
    pass.push("lockspace.lease.events_per_s", events_per_s(&tenant));
    pass.push(
        "lockspace.lease.share",
        tenant.first.lease_grants as f64 / tenant.first.grants.max(1) as f64,
    );
    pass.push(
        "lockspace.lease.wait_p99_ticks",
        tenant.first.wait_p99_ticks as f64,
    );
    let one = pass.cell(Cell::ParUniform { shards: 1 }, seed, 1);
    let two = pass.cell(Cell::ParUniform { shards: 2 }, seed, reps.min(2));
    pass.out.correct &= one.first.digest == two.first.digest;
    pass.push("lockspace.parallel.events_per_s", events_per_s(&two));
    pass.push(
        "lockspace.parallel.wall_speedup",
        median(&one.run_ns()) / median(&two.run_ns()),
    );
    let barrier: Vec<f64> = two
        .reps
        .iter()
        .map(|r| r.run_ns.saturating_sub(r.busy_critical_ns) as f64 / r.run_ns as f64)
        .collect();
    pass.push("lockspace.parallel.barrier_share", median(&barrier));
    pass.push("lockspace.parallel.imbalance", two.first.imbalance);
    pass.push("lockspace.parallel.windows", two.first.windows as f64);
    pass.push(
        "lockspace.parallel.wait_p99_ticks",
        two.first.wait_p99_ticks as f64,
    );

    // runtime, per backend; on one CPU like the service workloads, so
    // that `hop_ns` and their latencies are the same currency.
    let pin = crate::host::OneCpu::pin();
    let phases = [
        Phase::new(budget.mini / 4.0, false, false),
        Phase::new(budget.mini, true, false),
    ];
    for (backend, workload, names) in [
        (
            Backend::Chan,
            "svc_chan_handoff",
            [
                "runtime.cluster.parked_ns",
                "runtime.cluster.handoff_ns",
                "runtime.cluster.hop_ns",
                "runtime.cluster.start_us",
                "runtime.cluster.shutdown_us",
                "runtime.cluster.msgs_per_grant",
            ],
        ),
        (
            Backend::Tcp,
            "svc_tcp_handoff",
            [
                "runtime.tcp.parked_ns",
                "runtime.tcp.handoff_ns",
                "runtime.tcp.hop_ns",
                "runtime.tcp.start_us",
                "runtime.tcp.shutdown_us",
                "runtime.tcp.msgs_per_grant",
            ],
        ),
        (
            Backend::Space,
            "svc_space_uniform",
            [
                "runtime.lockspace.parked_ns",
                "runtime.lockspace.handoff_ns",
                "runtime.lockspace.hop_ns",
                "runtime.lockspace.start_us",
                "runtime.lockspace.shutdown_us",
                "runtime.lockspace.msgs_per_grant",
            ],
        ),
    ] {
        let parked = pass.star_cycle("runtime.parked", backend, &[1], budget.star);
        let handoff = pass.star_cycle("runtime.handoff", backend, &[1, 2], budget.star);
        let mini = pass.tracer.open("runtime.mini_run", pass.span);
        let spec = svc::spec_of(workload).expect("a service workload");
        let run = svc::run(spec, seed, 5, &phases, pass.tracer, mini.id);
        pass.tracer.close(mini, 1);
        pass.out.correct &= run.correct();
        pass.push(names[0], parked);
        pass.push(names[1], handoff);
        pass.push(names[2], (handoff - parked) / 3.0);
        pass.push(names[3], median(&run.start_ns) / 1e3);
        pass.push(names[4], median(&run.shutdown_ns) / 1e3);
        pass.push(names[5], run.msgs_per_grant());
        match backend {
            Backend::Chan => pass.push(
                "runtime.client.acquire_p999_us",
                run.whole.quantile(0.999).unwrap_or(0.0) / 1e3,
            ),
            Backend::Tcp => {}
            Backend::Space => pass.push(
                "runtime.lockspace.envelopes_per_msg",
                run.envelopes_per_msg(),
            ),
        }
    }

    // snapshot() + verify() on a lock space that has served every key once.
    let (service, mut clients) = Service::start(Backend::Space, &Tree::kary(svc::NODES, 2));
    for key in 0..svc::SPACE_KEYS {
        let client = &mut clients[(key as usize + 3) % svc::NODES];
        drop(
            client
                .lock(LockId(key))
                .wait()
                .expect("kernel cluster is up"),
        );
    }
    let capture = pass.tracer.open("runtime.snapshot.capture_us", pass.span);
    let mut samples = Vec::new();
    for _ in 0..15 {
        let (ok, ns) = pass
            .tracer
            .time("snapshot+verify", capture.id, 1, || service.verify());
        pass.out.correct &= ok;
        samples.push(ns as f64);
    }
    pass.tracer.close(capture, 1);
    drop(clients);
    service.shutdown();
    pass.push("runtime.snapshot.capture_us", median(&samples) / 1e3);
    drop(pin);

    pass.tracer.close(span, 1);
    pass.out
}
