//! `ext_par` — parallel-simulation scaling: events/s vs shard engines
//! under the tick-barrier runtime, uniform and skewed.
//!
//! The conservative parallel runtime (`dmx_lockspace::parallel`) shards
//! the key space across per-core engines synchronized at tick barriers.
//! This experiment sweeps the shard count over paced demand and
//! reports, per cell:
//!
//! - **wall events/s** — aggregate simulated events over wall-clock
//!   time, for the machine the sweep actually ran on;
//! - **critical-path events/s** — events over the *critical-path busy
//!   time* (per barrier window, the longest any shard spent processing,
//!   summed). This is the standard conservative-PDES potential-speedup
//!   figure: what the same run sustains once every shard has its own
//!   core. On a single-core host the wall column is flat and this
//!   column is the result; the sequential round-robin driver measures
//!   it uncontended.
//! - **imbalance** — max/mean per-shard event counts. Under uniform
//!   demand with the modulo map this sits near 1.0; under zipf-1.1 the
//!   shard that draws the hot keys pins it, and `potential_speedup ≈
//!   shards / imbalance` explains exactly what the cell lost.
//!
//! The skewed cells run both [`ShardMap`] variants side by side: the
//! default `key % K` map (balanced key counts, load-blind) and the
//! demand-balanced LPT map packed from
//! [`PacedKeyDemand::demand_profile`]. The grant digest is asserted
//! identical across every cell of a demand shape — shard maps, shard
//! counts, and drivers never change results, only the critical path.
//!
//! `repro -- ext_mega` runs the acceptance-scale cell: 1M keys × 10k
//! nodes, completed deterministically at two shard counts.
//!
//! Skewed cells use 64 keys: a zipf-1.1 hot key's burst scales ~16×,
//! and the paced-demand contract requires the widest burst to fit
//! strictly inside the round spacing (the 4096-key uniform cells keep
//! their historical shape for cross-PR comparability).

use std::sync::Arc;
use std::time::Instant;

use dmx_lockspace::{
    ParallelConfig, ParallelEngine, ParallelReport, Placement, ShardMap, WindowPolicy,
};
use dmx_simnet::Time;
use dmx_topology::Tree;
use dmx_workload::{KeyLoad, PacedKeyDemand};

use crate::Table;

/// Shard counts the sweep walks — the "cores" axis of the scaling
/// table.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Key count for the skewed cells (see the module docs for why they
/// stay small-keyed).
pub const SKEW_KEYS: u32 = 64;

/// Seed of the skewed cells. The zipf rank permutation is seeded, so
/// *which* keys are hot — and how they collide mod `K` — is a seed
/// property; this one lands several hot ranks on the same modulo-8
/// shard, the realistic worst case the balanced map exists for.
pub const SKEW_SEED: u64 = 26;

/// The adaptive window policy the comparison cells run: floor at the
/// historical fixed width so dense phases behave identically, widen up
/// to 4096 ticks across sparse phases (run tails, drained keys).
pub const ADAPTIVE_WINDOW: WindowPolicy = WindowPolicy::Adaptive {
    min: 64,
    max: 4096,
    target: 512,
};

/// Demand shape of one measured cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandShape {
    /// Every key the same paced volume — the historical cells.
    Uniform,
    /// Zipf-1.1 per-key volume under a seeded rank permutation.
    Zipf,
    /// Zipf-1.1 volume plus 90% home-affine issuers and profile
    /// placement (the PR 8 hot-tenant story on the parallel runtime).
    HotTenant,
}

impl DemandShape {
    fn label(self) -> &'static str {
        match self {
            DemandShape::Uniform => "uniform",
            DemandShape::Zipf => "zipf-1.1",
            DemandShape::HotTenant => "hot-tenant",
        }
    }
}

/// One timed parallel cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelScalingMeasurement {
    /// Shard engines (the simulated core count).
    pub shards: usize,
    /// `"threaded"` (one OS thread per shard) or `"seq"` (round-robin
    /// driver, uncontended busy timing).
    pub mode: &'static str,
    /// Demand shape label (`"uniform"`, `"zipf-1.1"`, `"hot-tenant"`).
    pub demand: &'static str,
    /// Shard map label (`"modulo"`, `"balanced"`).
    pub map: &'static str,
    /// Key-space size.
    pub keys: u32,
    /// Node count.
    pub n: usize,
    /// Events processed across all shards.
    pub events: u64,
    /// Grants served.
    pub grants: u64,
    /// Barrier rounds.
    pub windows: u64,
    /// Per-window max shard events, summed — the critical path.
    pub critical_path_events: u64,
    /// Max/mean per-shard event counts (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// The shard-invariance witness.
    pub grant_digest: u64,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
    /// Critical-path busy seconds (per window, the slowest shard).
    pub busy_critical_secs: f64,
}

impl ParallelScalingMeasurement {
    /// Aggregate events per wall-clock second.
    pub fn wall_events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_secs.max(f64::MIN_POSITIVE)
    }

    /// Events per critical-path busy second — throughput with every
    /// shard on its own core.
    pub fn critical_events_per_sec(&self) -> f64 {
        self.events as f64 / self.busy_critical_secs.max(f64::MIN_POSITIVE)
    }

    /// Event-count parallelism: total events over critical-path events
    /// (≥ 1; the load-balance ceiling on speedup at this shard count).
    pub fn potential_speedup(&self) -> f64 {
        self.events as f64 / (self.critical_path_events as f64).max(1.0)
    }
}

/// Full cell specification for [`measure_cell`].
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Node count (complete binary tree).
    pub n: usize,
    /// Key-space size.
    pub keys: u32,
    /// Paced rounds per key.
    pub rounds: u64,
    /// Shard engines.
    pub shards: usize,
    /// One OS thread per shard, or the round-robin driver.
    pub threads: bool,
    /// Demand shape.
    pub shape: DemandShape,
    /// Demand-balanced LPT shard map instead of `key % K`.
    pub balanced: bool,
    /// [`ADAPTIVE_WINDOW`] instead of the fixed 64-tick window.
    pub adaptive: bool,
}

impl Cell {
    /// The historical uniform cell at this shard count/driver.
    pub fn uniform(n: usize, keys: u32, rounds: u64, shards: usize, threads: bool) -> Self {
        Cell {
            n,
            keys,
            rounds,
            shards,
            threads,
            shape: DemandShape::Uniform,
            balanced: false,
            adaptive: false,
        }
    }

    fn demand(&self) -> PacedKeyDemand {
        match self.shape {
            DemandShape::Uniform => PacedKeyDemand::new(self.keys, self.n, 60, 2, self.rounds, 42),
            DemandShape::Zipf => {
                PacedKeyDemand::new(self.keys, self.n, 60, 2, self.rounds, SKEW_SEED)
                    .with_load(KeyLoad::Zipf { exponent: 1.1 })
            }
            DemandShape::HotTenant => {
                PacedKeyDemand::new(self.keys, self.n, 60, 2, self.rounds, SKEW_SEED)
                    .with_load(KeyLoad::Zipf { exponent: 1.1 })
                    .with_home_affinity(0.9)
            }
        }
    }
}

fn from_report(r: &ParallelReport, cell: &Cell) -> ParallelScalingMeasurement {
    ParallelScalingMeasurement {
        shards: r.shards,
        mode: if cell.threads { "threaded" } else { "seq" },
        demand: cell.shape.label(),
        map: if cell.balanced { "balanced" } else { "modulo" },
        keys: cell.keys,
        n: cell.n,
        events: r.events,
        grants: r.grants,
        windows: r.windows,
        critical_path_events: r.critical_path_events,
        imbalance: r.imbalance(),
        grant_digest: r.grant_digest,
        elapsed_secs: (r.wall_nanos as f64 / 1e9).max(f64::MIN_POSITIVE),
        busy_critical_secs: (r.busy_critical_nanos as f64 / 1e9).max(f64::MIN_POSITIVE),
    }
}

/// Times one parallel cell on a complete binary tree.
///
/// # Panics
///
/// Panics if the run starves a request or violates per-key safety —
/// the sweep never reports throughput for a broken run.
pub fn measure_cell(cell: &Cell) -> ParallelScalingMeasurement {
    let tree = Tree::kary(cell.n, 2);
    let demand = cell.demand();
    let shard_map = if cell.balanced {
        ShardMap::balanced(demand.demand_profile())
    } else {
        ShardMap::Modulo
    };
    let placement = match cell.shape {
        DemandShape::HotTenant => Placement::Profile(Arc::new(demand.hub_profile())),
        _ => Placement::Modulo,
    };
    let report = ParallelEngine::new(
        &tree,
        demand,
        ParallelConfig {
            shards: cell.shards,
            shard_map,
            threads: cell.threads,
            window: if cell.adaptive {
                ADAPTIVE_WINDOW
            } else {
                WindowPolicy::Fixed(64)
            },
            hold: Time(2),
            placement,
            ..ParallelConfig::default()
        },
    )
    .run();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert_eq!(report.starved, 0, "paced run must serve every request");
    from_report(&report, cell)
}

/// Times one historical uniform cell (modulo map, fixed window) — the
/// shape every pre-existing caller and pinned number uses.
pub fn measure(
    n: usize,
    keys: u32,
    rounds: u64,
    shards: usize,
    threads: bool,
) -> ParallelScalingMeasurement {
    measure_cell(&Cell::uniform(n, keys, rounds, shards, threads))
}

/// Appends one measured row to the `ext_par` table.
fn push_row(table: &mut Table, m: &ParallelScalingMeasurement) {
    table.row(&[
        m.shards.to_string(),
        m.mode.to_string(),
        m.demand.to_string(),
        m.map.to_string(),
        m.events.to_string(),
        m.grants.to_string(),
        m.windows.to_string(),
        format!("{:.2}", m.imbalance),
        format!("{:.2}x", m.potential_speedup()),
        format!("{:016x}", m.grant_digest),
    ]);
}

/// The sweep as a repro table: the uniform shard-count sweep, then the
/// skew story — zipf-1.1 and hot-tenant cells at 8 shards under both
/// shard maps. Digest-checked within every demand shape (the digest
/// *does* differ across shapes: they are different workloads).
pub fn run(n: usize, keys: u32, rounds: u64) -> Table {
    let mut table = Table::new(
        "ext_par — parallel tick-barrier scaling (uniform sweep + skew cells, digest-checked)",
        &[
            "shards",
            "mode",
            "demand",
            "map",
            "events",
            "grants",
            "windows",
            "imbalance",
            "potential speedup",
            "digest",
        ],
    );
    let mut base_digest = None;
    for shards in SHARD_COUNTS {
        let m = measure(n, keys, rounds, shards, false);
        let base = *base_digest.get_or_insert(m.grant_digest);
        assert_eq!(m.grant_digest, base, "digest moved at K={shards}");
        push_row(&mut table, &m);
    }
    // The skewed cells: one modulo/balanced pair per shape, at the
    // shard count where imbalance hurts most.
    for shape in [DemandShape::Zipf, DemandShape::HotTenant] {
        let mut shape_digest = None;
        for balanced in [false, true] {
            let m = measure_cell(&Cell {
                n,
                keys: SKEW_KEYS,
                rounds: rounds * 8,
                shards: 8,
                threads: false,
                shape,
                balanced,
                adaptive: false,
            });
            let base = *shape_digest.get_or_insert(m.grant_digest);
            assert_eq!(m.grant_digest, base, "digest moved across maps ({shape:?})");
            push_row(&mut table, &m);
        }
    }
    table
}

/// The acceptance-scale run: **1M keys × 10k nodes**, completed at two
/// shard counts whose digests must agree — the "deterministic
/// million-key sweep" the parallel runtime exists for. Explicit-only
/// (`repro -- ext_mega`): it processes tens of millions of events and
/// allocates gigabytes of per-shard orientation cache.
pub fn run_mega() -> Table {
    let tree = Tree::kary(10_000, 2);
    let demand = PacedKeyDemand::new(1_000_000, 10_000, 40, 2, 1, 7);
    let mut table = Table::new(
        "ext_mega — 1M keys × 10k nodes, deterministic across shard counts",
        &["shards", "mode", "events", "grants", "wall secs", "digest"],
    );
    let mut digests = Vec::new();
    for (shards, threads) in [(4usize, false), (8, true)] {
        let start = Instant::now();
        let report = ParallelEngine::new(
            &tree,
            demand,
            ParallelConfig {
                shards,
                threads,
                window: WindowPolicy::Fixed(256),
                hold: Time(2),
                ..ParallelConfig::default()
            },
        )
        .run();
        let secs = start.elapsed().as_secs_f64();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert_eq!(report.starved, 0);
        digests.push(report.grant_digest);
        table.row(&[
            shards.to_string(),
            if threads { "threaded" } else { "seq" }.to_string(),
            report.events.to_string(),
            report.grants.to_string(),
            format!("{secs:.1}"),
            format!("{:016x}", report.grant_digest),
        ]);
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "mega run digests diverged: {digests:x?}"
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_cover_every_shard_count_and_agree() {
        let table = run(31, 64, 2);
        assert_eq!(table.len(), 8, "uniform sweep plus two map pairs");
        // The four uniform rows carry the same digest (run() asserts it
        // too — this pins the digest actually landing in the table).
        let digests: Vec<String> = (0..4).map(|r| table.cell(r, 9).to_string()).collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
        // Grants identical across uniform rows, and windows recorded.
        let grants: Vec<u64> = (0..4).map(|r| table.cell(r, 5).parse().unwrap()).collect();
        assert!(grants.windows(2).all(|w| w[0] == w[1]));
        assert!(table.cell(0, 6).parse::<u64>().unwrap() > 0);
        // Each skewed pair agrees across maps.
        assert_eq!(table.cell(4, 9), table.cell(5, 9), "zipf maps diverged");
        assert_eq!(
            table.cell(6, 9),
            table.cell(7, 9),
            "hot-tenant maps diverged"
        );
    }

    #[test]
    fn measure_reports_timing_and_parallelism() {
        let seq = measure(31, 128, 2, 4, false);
        assert!(seq.events > 0 && seq.grants > 0);
        assert!(seq.wall_events_per_sec() > 0.0);
        assert!(seq.critical_events_per_sec() > 0.0);
        assert!(seq.potential_speedup() >= 1.0);
        assert!(seq.critical_path_events <= seq.events);
        assert!(seq.imbalance >= 1.0);
        let thr = measure(31, 128, 2, 4, true);
        assert_eq!(
            thr.grant_digest, seq.grant_digest,
            "threads changed the run"
        );
        assert_eq!(thr.events, seq.events);
    }

    #[test]
    fn balanced_map_beats_modulo_on_the_skewed_cell() {
        // The tentpole claim at test scale: same digest, materially
        // better load spread (`tests/perf_guards.rs` holds the full
        // ≥ 1.5× at the 127-node × 200-round scale).
        let cell = |balanced| {
            measure_cell(&Cell {
                n: 31,
                keys: SKEW_KEYS,
                rounds: 24,
                shards: 8,
                threads: false,
                shape: DemandShape::Zipf,
                balanced,
                adaptive: false,
            })
        };
        let modulo = cell(false);
        let balanced = cell(true);
        assert_eq!(balanced.grant_digest, modulo.grant_digest);
        assert_eq!(balanced.events, modulo.events);
        assert!(
            balanced.imbalance < modulo.imbalance,
            "LPT must spread the hot keys: balanced {:.2} vs modulo {:.2}",
            balanced.imbalance,
            modulo.imbalance
        );
        assert!(
            balanced.potential_speedup() > modulo.potential_speedup(),
            "balanced {:.2}x vs modulo {:.2}x",
            balanced.potential_speedup(),
            modulo.potential_speedup()
        );
    }
}
