//! The host-time half: fixed simulator cells, each built and run to
//! quiescence once per repetition. The simulated answers (messages per
//! grant, wait ticks, the grant digest) are exact for a seed and must
//! repeat on every repetition; only the host time varies.

use std::sync::Arc;
use std::time::Instant;

use dmx_baselines::raymond::RaymondProtocol;
use dmx_core::{DagProtocol, LockId};
use dmx_lockspace::{
    FlushPolicy, LeaseConfig, LockSpace, LockSpaceConfig, ParallelConfig, ParallelEngine,
    Placement, ShardMap, WindowPolicy,
};
use dmx_simnet::metrics::Histogram;
use dmx_simnet::{Engine, EngineConfig, LatencyModel, Protocol, Time};
use dmx_topology::{NodeId, Tree};
use dmx_workload::{
    KeyDist, KeyedAffinity, KeyedThinkTime, KeyedWorkload, PacedKeyDemand, Saturated,
};

use crate::trace::Tracer;

pub const NODES: usize = 127;
/// Entries per node of the saturated cell: the `BENCH_PR1` cell × 2.
const SATURATED_ROUNDS: u32 = 4000;
/// Grants one saturated cell records.
pub const SATURATED_GRANTS: usize = NODES * SATURATED_ROUNDS as usize;
const UNIFORM_KEYS: u32 = 4096;
const UNIFORM_ROUNDS: u32 = 560;
const TENANT_KEYS: u32 = 64;
const TENANT_ROUNDS: u32 = 5000;
/// Bursts per key of the parallel cell: a repetition of ~0.11 s, like
/// the other cells. The two shard threads need both vCPUs at once, and
/// the host's quiet gaps are about that long; at 50 rounds (~0.45 s)
/// hardly a repetition escaped a busy neighbour and ten runs spread by
/// 12%.
const PAR_ROUNDS: u64 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    LockSaturated,
    /// The saturated cell under Raymond's algorithm (layer kernel only).
    RaymondSaturated,
    SpaceUniform,
    SpaceTenant,
    /// `ParallelEngine` with this many shards; 1 runs sequentially on
    /// the calling thread, more run one OS thread per shard.
    ParUniform {
        shards: usize,
    },
}

pub fn cell_of(workload: &str) -> Option<Cell> {
    Some(match workload {
        "sim_lock_saturated" => Cell::LockSaturated,
        "sim_space_uniform" => Cell::SpaceUniform,
        "sim_space_tenant" => Cell::SpaceTenant,
        "sim_par_uniform" => Cell::ParUniform { shards: 2 },
        _ => return None,
    })
}

/// One repetition of a cell.
#[derive(Debug, Clone, Default)]
pub struct CellOut {
    /// Tree + protocol/engine construction + demand generation.
    pub setup_ns: u64,
    /// The `run_*` call alone.
    pub run_ns: u64,
    pub events: u64,
    pub requests: u64,
    pub grants: u64,
    /// Protocol messages (keyed, pre-coalescing on the lock space).
    pub messages: u64,
    /// Network deliveries (post-coalescing).
    pub envelopes: u64,
    pub lease_grants: u64,
    pub final_ticks: u64,
    pub wait_p50_ticks: u64,
    pub wait_p99_ticks: u64,
    pub wait_p999_ticks: u64,
    /// Order-sensitive fold of the run's grants; equal digests mean the
    /// same simulated run.
    pub digest: u64,
    /// Starved requests plus oracle violations.
    pub failed: u64,
    /// `ParallelEngine` only.
    pub windows: u64,
    pub imbalance: f64,
    pub busy_critical_ns: u64,
}

impl CellOut {
    /// Everything that must repeat exactly for one seed.
    pub fn exact(&self) -> [u64; 9] {
        [
            self.events,
            self.requests,
            self.grants,
            self.messages,
            self.envelopes,
            self.lease_grants,
            self.final_ticks,
            self.wait_p99_ticks,
            self.digest,
        ]
    }

    pub fn msgs_per_grant(&self) -> f64 {
        self.messages as f64 / self.grants.max(1) as f64
    }
}

fn fold(digest: u64, value: u64) -> u64 {
    (digest ^ value).wrapping_mul(0x0000_0100_0000_01B3)
}

fn waits(out: &mut CellOut, hist: &Histogram) {
    out.wait_p50_ticks = hist.p50();
    out.wait_p99_ticks = hist.p99();
    out.wait_p999_ticks = hist.p999();
}

fn engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        record_trace: false,
        seed,
        ..EngineConfig::default()
    }
}

/// Builds and runs `cell` once. The seed picks the initial holder of
/// the single-lock cells and seeds every demand generator.
pub fn run_once(cell: Cell, seed: u64, tracer: &mut Tracer, parent: u32) -> CellOut {
    let rep = tracer.open("repetition", parent);
    let out = match cell {
        Cell::LockSaturated => saturated(seed, tracer, rep.id, DagProtocol::cluster),
        Cell::RaymondSaturated => saturated(seed, tracer, rep.id, RaymondProtocol::cluster),
        Cell::SpaceUniform => {
            let workload = KeyedThinkTime::new(
                UNIFORM_KEYS,
                KeyDist::Uniform,
                LatencyModel::Fixed(Time(0)),
                UNIFORM_ROUNDS,
                seed,
            )
            .with_stagger(4);
            let config = LockSpaceConfig {
                keys: UNIFORM_KEYS,
                placement: Placement::Modulo,
                hold: Time(1),
                batching: true,
                flush: FlushPolicy::Window(16),
                ..LockSpaceConfig::default()
            };
            lock_space(seed, tracer, rep.id, |_| (Box::new(workload), config))
        }
        Cell::SpaceTenant => lock_space(seed, tracer, rep.id, |tree| {
            let workload = KeyedAffinity::new(
                TENANT_KEYS,
                tree.len(),
                KeyDist::Zipf { exponent: 1.1 },
                0.9,
                LatencyModel::Fixed(Time(0)),
                TENANT_ROUNDS,
                seed,
            )
            .with_onset_spacing(8);
            let config = LockSpaceConfig {
                keys: TENANT_KEYS,
                placement: Placement::Profile(Arc::new(workload.hub_profile())),
                hold: Time(1),
                batching: true,
                lease: LeaseConfig::new(2, 4),
                ..LockSpaceConfig::default()
            };
            (Box::new(workload), config)
        }),
        Cell::ParUniform { shards } => parallel(seed, shards, tracer, rep.id),
    };
    tracer.close(rep, 1);
    out
}

fn saturated<P: Protocol>(
    seed: u64,
    tracer: &mut Tracer,
    parent: u32,
    cluster: impl FnOnce(&Tree, NodeId) -> Vec<P>,
) -> CellOut {
    let setup = tracer.open("setup", parent);
    let tree = Tree::kary(NODES, 2);
    let holder = NodeId((seed % NODES as u64) as u32);
    let nodes = cluster(&tree, holder);
    let (mut engine, _) = tracer.time("Engine::new", setup.id, 1, || {
        Engine::new(nodes, engine_config(seed))
    });
    let mut workload = Saturated::new(SATURATED_ROUNDS);
    let setup_ns = tracer.close(setup, 1);
    let (report, run_ns) = tracer.time("Engine::run_with_workload", parent, 1, || {
        engine.run_with_workload(&mut workload)
    });
    let mut out = CellOut {
        setup_ns,
        run_ns,
        ..CellOut::default()
    };
    let Ok(report) = report else {
        out.failed = 1;
        return out;
    };
    let m = &report.metrics;
    out.events = m.requests + m.messages_total + m.cs_entries;
    out.requests = m.requests;
    out.grants = m.cs_entries;
    out.messages = m.messages_total;
    out.envelopes = m.messages_total;
    out.final_ticks = report.final_time.ticks();
    waits(&mut out, &m.wait_histogram());
    out.digest = m.grants.iter().fold(0, |d, g| {
        fold(fold(d, u64::from(g.node.0)), g.granted_at.ticks())
    });
    out
}

fn lock_space(
    seed: u64,
    tracer: &mut Tracer,
    parent: u32,
    demand: impl FnOnce(&Tree) -> (Box<dyn KeyedWorkload>, LockSpaceConfig),
) -> CellOut {
    let setup = tracer.open("setup", parent);
    let tree = Tree::kary(NODES, 2);
    let (workload, config) = demand(&tree);
    let keys = config.keys;
    let ((nodes, monitor), _) = tracer.time("LockSpace::cluster", setup.id, 1, || {
        LockSpace::cluster(&tree, config, workload.as_ref())
    });
    let (mut engine, _) = tracer.time("Engine::new", setup.id, 1, || {
        Engine::new(nodes, engine_config(seed))
    });
    let setup_ns = tracer.close(setup, 1);
    let (report, run_ns) = tracer.time("Engine::run_to_quiescence", parent, 1, || {
        engine.run_to_quiescence()
    });
    let mut out = CellOut {
        setup_ns,
        run_ns,
        ..CellOut::default()
    };
    let Ok(report) = report else {
        out.failed = 1;
        return out;
    };
    let m = &report.metrics;
    let rollup = monitor.rollup();
    out.events = m.requests + m.messages_total + m.cs_entries + m.wakes;
    out.requests = rollup.requests;
    out.grants = rollup.grants;
    out.messages = rollup.messages;
    out.envelopes = m.messages_total;
    out.lease_grants = monitor.lease_grants();
    out.final_ticks = report.final_time.ticks();
    waits(&mut out, &monitor.wait_histogram());
    out.failed = monitor.pending_requests() as u64 + u64::from(monitor.check_quiescent().is_err());
    out.digest = (0..keys).fold(out.final_ticks, |d, k| {
        let s = monitor.key_stats(LockId(k));
        [
            s.requests,
            s.grants,
            s.request_messages,
            s.privilege_messages,
            s.wait_ticks,
        ]
        .into_iter()
        .fold(d, fold)
    });
    out
}

fn parallel(seed: u64, shards: usize, tracer: &mut Tracer, parent: u32) -> CellOut {
    let setup = tracer.open("setup", parent);
    let tree = Tree::kary(NODES, 2);
    let demand = PacedKeyDemand::new(UNIFORM_KEYS, NODES, 60, 2, PAR_ROUNDS, seed);
    let config = ParallelConfig {
        shards,
        shard_map: ShardMap::Modulo,
        window: WindowPolicy::Fixed(64),
        threads: shards > 1,
        ..ParallelConfig::default()
    };
    let (engine, _) = tracer.time("ParallelEngine::new", setup.id, 1, || {
        ParallelEngine::new(&tree, demand, config)
    });
    let setup_ns = tracer.close(setup, 1);
    let (report, run_ns) = tracer.time("ParallelEngine::run", parent, 1, || engine.run());
    CellOut {
        setup_ns,
        run_ns,
        events: report.events,
        requests: report.rollup.requests,
        grants: report.grants,
        messages: report.messages,
        envelopes: report.envelopes,
        lease_grants: report.lease_grants,
        final_ticks: report.end.ticks(),
        wait_p50_ticks: report.rollup.p50_wait_ticks,
        wait_p99_ticks: report.rollup.p99_wait_ticks,
        wait_p999_ticks: report.rollup.p999_wait_ticks,
        digest: report.grant_digest,
        failed: report.starved + u64::from(report.violation.is_some()),
        windows: report.windows,
        imbalance: report.imbalance(),
        busy_critical_ns: report.busy_critical_nanos as u64,
    }
}

/// Repetitions of one cell, the first one discarded.
pub struct SimRun {
    /// The discarded first repetition: the exact reference the others
    /// must reproduce.
    pub first: CellOut,
    pub reps: Vec<CellOut>,
    /// Every repetition reproduced `first`'s counts and digest.
    pub repeatable: bool,
}

impl SimRun {
    pub fn run_ns(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.run_ns as f64).collect()
    }

    pub fn setup_ns(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.setup_ns as f64).collect()
    }

    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.requests).sum::<u64>().max(1)
    }

    pub fn failed(&self) -> u64 {
        self.first.failed + self.reps.iter().map(|r| r.failed).sum::<u64>()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.repeatable && self.first.grants == self.first.requests
    }
}

/// Repeats `cell` until `secs` have passed (at least `min_reps` kept
/// repetitions after the discarded first).
pub fn repeat(
    cell: Cell,
    seed: u64,
    secs: f64,
    min_reps: usize,
    tracer: &mut Tracer,
    parent: u32,
) -> SimRun {
    let first = run_once(cell, seed, tracer, parent);
    let started = Instant::now();
    let mut reps = Vec::new();
    while started.elapsed().as_secs_f64() < secs || reps.len() < min_reps {
        reps.push(run_once(cell, seed, tracer, parent));
    }
    let repeatable = reps.iter().all(|r| r.exact() == first.exact());
    SimRun {
        first,
        reps,
        repeatable,
    }
}
