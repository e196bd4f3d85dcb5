//! [`SpaceCell`] — the one place the harness builds and runs a
//! multiplexed lock-space cell. `ext_lock`, `ext_window`, `ext_skew`,
//! `ext_path` and the perf guards all describe their cell as a
//! `SpaceCell` value and differ only in which fields they override.

use std::sync::Arc;
use std::time::Instant;

use dmx_lockspace::{
    FlushPolicy, LeaseConfig, LockSpace, LockSpaceConfig, LockSpaceMonitor, LockSpaceNode,
    Placement,
};
use dmx_simnet::{Engine, EngineConfig, LatencyModel, Time};
use dmx_topology::Tree;
use dmx_workload::{KeyDist, KeyedAffinity, KeyedThinkTime, KeyedWorkload};

/// Home-node share of each key's demand in the affinity cells.
pub const AFFINITY: f64 = 0.9;

/// Ticks between consecutive node onsets in the affinity cells (see
/// [`KeyedAffinity::with_onset_spacing`]).
const ONSET_SPACING: u64 = 8;

/// Which workload shape a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Symmetric [`KeyedThinkTime`]: every node, same key distribution.
    Think,
    /// [`KeyedAffinity`] at [`AFFINITY`]: each key's home node issues
    /// most of its demand.
    Affinity,
}

impl Load {
    /// Stable table label.
    pub fn label(self) -> &'static str {
        match self {
            Load::Think => "think",
            Load::Affinity => "affinity",
        }
    }
}

/// Which initial-placement policy a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hubs {
    /// `key % n` — the sharded-service default, blind to demand.
    Modulo,
    /// [`Placement::Profile`] seeded from the workload's
    /// [`hub_profile`](KeyedAffinity::hub_profile) (affinity cells
    /// only — symmetric demand has no hottest node).
    Profile,
}

impl Hubs {
    /// Stable table label.
    pub fn label(self) -> &'static str {
        match self {
            Hubs::Modulo => "modulo",
            Hubs::Profile => "profile",
        }
    }
}

/// One closed-loop lock-space run on a complete binary tree: `rounds`
/// keyed entries per node, hold 1 tick, think 0 ticks, batching on,
/// trace off, `Scheduler::Auto`. Override fields with struct-update
/// syntax:
///
/// ```
/// use dmx_harness::experiments::SpaceCell;
/// use dmx_lockspace::FlushPolicy;
///
/// let (engine, monitor) = SpaceCell {
///     rounds: 4,
///     flush: FlushPolicy::Window(4),
///     ..SpaceCell::new(15, 16)
/// }
/// .run();
/// assert_eq!(monitor.rollup().grants, 60);
/// assert!(engine.metrics().messages_total > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceCell {
    /// Node count.
    pub n: usize,
    /// Key-space size.
    pub keys: u32,
    /// Table label of `dist` (`"uniform"` / `"zipf-1.1"`).
    pub skew: &'static str,
    /// Key-popularity distribution.
    pub dist: KeyDist,
    /// Entries per node.
    pub rounds: u32,
    /// Workload seed.
    pub seed: u64,
    /// Workload shape.
    pub load: Load,
    /// Initial token placement.
    pub hubs: Hubs,
    /// Holder-lease configuration.
    pub lease: LeaseConfig,
    /// Transport flush policy.
    pub flush: FlushPolicy,
    /// Per-node start stagger in ticks (1 = none).
    pub stagger: u64,
    /// Record REQUEST path lengths.
    pub trace_paths: bool,
}

impl SpaceCell {
    /// The plain cell: one round of uniform symmetric demand, seed 42,
    /// modulo placement, leases off, end-of-tick flushing, no stagger,
    /// no path tracing.
    pub fn new(n: usize, keys: u32) -> Self {
        SpaceCell {
            n,
            keys,
            skew: "uniform",
            dist: KeyDist::Uniform,
            rounds: 1,
            seed: 42,
            load: Load::Think,
            hubs: Hubs::Modulo,
            lease: LeaseConfig::OFF,
            flush: FlushPolicy::EveryTick,
            stagger: 1,
            trace_paths: false,
        }
    }

    /// Runs the cell to quiescence and verifies per-key safety and
    /// liveness.
    ///
    /// # Panics
    ///
    /// Panics if the run violates per-key safety or liveness, if the
    /// flush policy is invalid, or if [`Hubs::Profile`] is combined with
    /// [`Load::Think`] (symmetric demand has no per-key hottest node to
    /// place at).
    pub fn run(&self) -> (Engine<LockSpaceNode>, LockSpaceMonitor) {
        let tree = Tree::kary(self.n, 2);
        let think = LatencyModel::Fixed(Time(0));
        let (workload, profile): (Box<dyn KeyedWorkload>, _) = match self.load {
            Load::Think => (
                Box::new(
                    KeyedThinkTime::new(self.keys, self.dist, think, self.rounds, self.seed)
                        .with_stagger(self.stagger),
                ),
                None,
            ),
            Load::Affinity => {
                // Hot tenants run saturated from their onset; cold-tenant
                // onsets spread 8 ticks apart (a fleet's background tenants
                // do not all wake in the same tick — an unspaced start
                // would measure a one-tick thundering herd, not skew).
                let w = KeyedAffinity::new(
                    self.keys,
                    self.n,
                    self.dist,
                    AFFINITY,
                    think,
                    self.rounds,
                    self.seed,
                )
                .with_stagger(self.stagger)
                .with_onset_spacing(ONSET_SPACING);
                let profile = w.hub_profile();
                (Box::new(w), Some(profile))
            }
        };
        let placement = match self.hubs {
            Hubs::Modulo => Placement::Modulo,
            Hubs::Profile => Placement::Profile(Arc::new(
                profile.expect("profile placement needs an affinity workload"),
            )),
        };
        let config = LockSpaceConfig {
            keys: self.keys,
            placement,
            hold: Time(1),
            batching: true,
            flush: self.flush,
            lease: self.lease,
            trace_paths: self.trace_paths,
            ..LockSpaceConfig::default()
        };
        let (nodes, monitor) = LockSpace::cluster(&tree, config, workload.as_ref());
        let engine_config = EngineConfig {
            record_trace: false,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(nodes, engine_config);
        engine
            .run_to_quiescence()
            .expect("lock-space cell must quiesce");
        monitor
            .check_quiescent()
            .expect("per-key safety and liveness verified, leases included");
        (engine, monitor)
    }

    /// Runs the cell and reports its counts next to the wall-clock time
    /// of the whole run, construction included.
    ///
    /// # Panics
    ///
    /// As [`SpaceCell::run`].
    pub fn measure(&self) -> SpaceMeasurement {
        let start = Instant::now();
        let (engine, monitor) = self.run();
        let elapsed_secs = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        let m = engine.metrics();
        let rollup = monitor.rollup();
        SpaceMeasurement {
            cell: *self,
            events: m.requests + m.messages_total + m.cs_entries + m.wakes,
            grants: rollup.grants,
            lease_grants: monitor.lease_grants(),
            keyed_messages: rollup.messages,
            envelopes: m.messages_total,
            msgs_per_grant: rollup.messages_per_grant,
            mean_wait_ticks: rollup.mean_wait_ticks,
            p50_wait_ticks: rollup.p50_wait_ticks,
            p99_wait_ticks: rollup.p99_wait_ticks,
            p999_wait_ticks: rollup.p999_wait_ticks,
            max_wait_ticks: rollup.max_wait_ticks,
            elapsed_secs,
        }
    }
}

/// What one cell served and carried — the row type of the `ext_window`
/// and `ext_skew` tables.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceMeasurement {
    /// The cell that was run.
    pub cell: SpaceCell,
    /// Engine events processed (deliveries + wake-ups).
    pub events: u64,
    /// Keyed critical-section entries completed.
    pub grants: u64,
    /// Grants served locally under a holder lease (zero messages).
    pub lease_grants: u64,
    /// Keyed (pre-batching) messages carried.
    pub keyed_messages: u64,
    /// Envelopes (post-batching deliveries) carried.
    pub envelopes: u64,
    /// Keyed messages per grant.
    pub msgs_per_grant: f64,
    /// Mean request→grant wait in ticks.
    pub mean_wait_ticks: f64,
    /// Median request→grant wait in ticks.
    pub p50_wait_ticks: u64,
    /// 99th-percentile request→grant wait in ticks.
    pub p99_wait_ticks: u64,
    /// 99.9th-percentile request→grant wait in ticks.
    pub p999_wait_ticks: u64,
    /// Largest request→grant wait in ticks.
    pub max_wait_ticks: u64,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
}

impl SpaceMeasurement {
    /// Engine events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_secs
    }

    /// Percentage of keyed messages batched away by the transport
    /// (`0.0` when the cell carried no keyed traffic).
    pub fn savings_pct(&self) -> f64 {
        if self.keyed_messages == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.envelopes as f64 / self.keyed_messages as f64)
    }

    /// Share of grants served under a lease, in percent.
    pub fn leased_pct(&self) -> f64 {
        if self.grants == 0 {
            return 0.0;
        }
        100.0 * self.lease_grants as f64 / self.grants as f64
    }
}
