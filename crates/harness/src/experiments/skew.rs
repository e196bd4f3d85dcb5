//! `ext_skew` — beating the DAG under skew: holder leases × hub
//! placement × key-popularity skew, against a quorum floor.
//!
//! The lock-space sweeps (`ext_lock`) showed the failure mode: under
//! Zipf-skewed key popularity the hot keys' tokens ping-pong between
//! contending nodes and mean wait blows up by ~6× over uniform demand.
//! This experiment measures the two optimisations that close that gap
//! and the baseline that cannot:
//!
//! * **Holder leases** ([`dmx_lockspace::LeaseConfig`]): a node whose
//!   own next request for a key arrives within the lease window keeps
//!   the privilege — zero messages, zero DAG hops — until the window
//!   closes or a queued remote REQUEST would wait past the fairness
//!   budget.
//! * **Skew-aware hub placement**
//!   ([`dmx_lockspace::Placement::Profile`]): each key's orientation DAG
//!   is seeded at the node a popularity profile names as its hottest, so
//!   the *first* acquisition is already local.
//! * **Naimi–Thiare quorum baseline**
//!   ([`dmx_baselines::naimi_thiare`]): the flat `3(K−1)`-per-entry
//!   floor quorum algorithms pay however local the demand is — the
//!   structural reason a path-reversal DAG plus leases wins under skew.
//!
//! Two workload shapes per cell ([`Load`]): symmetric `KeyedThinkTime`
//! (every node draws from the same key distribution — continuity with
//! `ext_lock`), and `KeyedAffinity` (each key has a home node issuing
//! most of its demand — the skewed-*and*-local shape leases and
//! placement are designed for). The split matters because the two
//! regimes have different physics: symmetric skew is a queueing bound
//! no protocol can remove (the hot key's cross-node holds serialize
//! regardless of who carries the token — see [`SkewGap`] for the
//! arithmetic), while locality-correlated skew is exactly the regime
//! path reversal + placement + leases turn into near-free local
//! re-grants. Per-key safety and liveness oracles verify every cell,
//! leases included.

use dmx_lockspace::LeaseConfig;
use dmx_simnet::metrics::Metrics;
use dmx_simnet::{EngineConfig, LatencyModel, Time};
use dmx_topology::{NodeId, Tree};
use dmx_workload::{KeyDist, ThinkTime};

use super::lock_scaling::SKEWS;
use super::{Hubs, Load, SpaceCell, SpaceMeasurement, AFFINITY};
use crate::{run_algorithm, Algorithm, Scenario, Table};

/// Lease window (ticks) the sweep runs with: the tightest setting that
/// still catches a hot tenant's back-to-back draws (hold 1t, think 0t →
/// the next local request lands within 2t). Wider windows were probed
/// (4t/8t, 8t/16t) and retain marginally more grants on skewed demand
/// (msgs/grant 1.07 vs 1.10) but idle the token long enough to tax the
/// *uniform* affinity cells by 5–10% mean wait; 2t/4t keeps those cells
/// within noise.
pub const LEASE_WINDOW: u64 = 2;

/// Fairness budget (ticks): the longest a queued remote REQUEST may
/// wait behind a leased holder before the lease is broken.
pub const LEASE_BUDGET: u64 = 4;

/// The lease configuration every lease-on cell uses.
pub const LEASE: LeaseConfig = LeaseConfig {
    window: LEASE_WINDOW,
    fairness_budget: LEASE_BUDGET,
};

/// Runs the Naimi–Thiare quorum baseline: a single lock under a
/// closed-loop think-time workload on `n` nodes. Its per-entry message
/// bill is exactly `3(K−1)` with no locality term — the floor the
/// skewed DAG cells are compared against.
///
/// # Panics
///
/// Panics if the closed-loop run starves (it cannot in a correct
/// build).
pub fn run_quorum_cell(n: usize, rounds: u32, seed: u64) -> Metrics {
    let tree = Tree::star(n);
    let scenario = Scenario {
        tree: &tree,
        holder: NodeId(0),
        config: EngineConfig::default(),
    };
    let mut workload = ThinkTime::new(LatencyModel::Fixed(Time(0)), rounds, seed);
    run_algorithm(Algorithm::NaimiThiare, &scenario, &mut workload)
        .expect("closed-loop quorum run cannot starve")
}

/// The six DAG cells of one `(keys, skew)` grid point, in table order:
/// think × {off, on}, affinity/modulo × {off, on}, affinity/profile ×
/// {off, on}.
pub fn grid_point(
    n: usize,
    keys: u32,
    skew: &'static str,
    dist: KeyDist,
    rounds: u32,
) -> Vec<SpaceMeasurement> {
    let mut out = Vec::with_capacity(6);
    for (load, hubs) in [
        (Load::Think, Hubs::Modulo),
        (Load::Affinity, Hubs::Modulo),
        (Load::Affinity, Hubs::Profile),
    ] {
        for lease in [LeaseConfig::OFF, LEASE] {
            let cell = SpaceCell {
                skew,
                dist,
                rounds,
                load,
                hubs,
                lease,
                ..SpaceCell::new(n, keys)
            };
            out.push(cell.measure());
        }
    }
    out
}

/// The sweep: `keys ∈ key_counts × skew ∈ {uniform, zipf-1.1}`, six DAG
/// cells each, plus the quorum baseline row.
pub fn run(n: usize, key_counts: &[u32], rounds: u32) -> Table {
    let mut table = Table::new(
        &format!(
            "ext_skew — leases × placement × skew on N = {n} \
             (lease {LEASE_WINDOW}t / budget {LEASE_BUDGET}t, affinity {AFFINITY}, \
             per-key safety checked)"
        ),
        &[
            "algorithm",
            "keys",
            "skew",
            "workload",
            "placement",
            "lease",
            "grants",
            "leased",
            "msgs/grant",
            "mean wait",
            "p50",
            "p99",
        ],
    );
    for &keys in key_counts {
        for (skew, dist) in SKEWS {
            for m in grid_point(n, keys, skew, dist, rounds) {
                table.row(&[
                    "dag".to_string(),
                    m.cell.keys.to_string(),
                    m.cell.skew.to_string(),
                    m.cell.load.label().to_string(),
                    m.cell.hubs.label().to_string(),
                    if m.cell.lease.window == 0 {
                        "off".into()
                    } else {
                        format!("{}t", m.cell.lease.window)
                    },
                    m.grants.to_string(),
                    format!("{:.0}%", m.leased_pct()),
                    format!("{:.2}", m.msgs_per_grant),
                    format!("{:.1}", m.mean_wait_ticks),
                    m.p50_wait_ticks.to_string(),
                    m.p99_wait_ticks.to_string(),
                ]);
            }
        }
    }
    // The quorum baseline: one lock, no keys, no locality term.
    let q = run_quorum_cell(n, rounds.min(6), 42);
    let hist = q.wait_histogram();
    table.row(&[
        "naimi-thiare",
        "1",
        "flat",
        "think",
        "quorum",
        "off",
        &q.cs_entries.to_string(),
        "0%",
        &format!("{:.2}", q.messages_per_entry()),
        &format!("{:.1}", q.mean_wait_ticks().unwrap_or(0.0)),
        &hist.p50().to_string(),
        &hist.p99().to_string(),
    ]);
    table
}

/// Gap-closure summary at one key count: how much of the skew penalty
/// (the symmetric-zipf mean/p99 wait over symmetric-uniform, both
/// lease-off — PR 7's 60.9-vs-9.8 baseline cells) the full stack
/// (locality-aware demand + profile placement + holder leases) closes.
///
/// Why the baseline is the *symmetric* cell and the stack the
/// *affinity* cell: symmetric popularity skew is queueing-bound — at 64
/// keys × 127 nodes zipf-1.1 the hottest key alone carries ~28% of all
/// grants, every consecutive pair from *different* nodes, so even a
/// zero-message oracle scheduler leaves ≈ 34 ticks mean wait (the hot
/// key's serialized holds divided by each node's round count) — almost
/// exactly the 50%-closure point. No token scheme can close that; the
/// closable regime is skew *correlated with locality* (each hot key's
/// demand concentrated at a hot tenant), which is what `KeyedAffinity`
/// models and what leases + placement serve. The suite publishes all
/// twelve cells per key count so the decomposition stays transparent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewGap {
    /// Key count the summary is computed at.
    pub keys: u32,
    /// think/modulo/lease-off, uniform — the target, and the cell that
    /// must not move ("uniform within noise of today").
    pub uniform_base_mean: f64,
    /// think/modulo/lease-on, uniform — leases must be free here.
    pub uniform_lease_mean: f64,
    /// think/modulo/lease-off, zipf — the unmodified-DAG baseline.
    pub zipf_base_mean: f64,
    /// affinity/profile/lease-on, zipf — the full stack.
    pub stack_mean: f64,
    /// p99 wait for the same four cells.
    pub uniform_base_p99: u64,
    /// p99, think/modulo/lease-on, uniform.
    pub uniform_lease_p99: u64,
    /// p99, think/modulo/lease-off, zipf.
    pub zipf_base_p99: u64,
    /// p99, affinity/profile/lease-on, zipf.
    pub stack_p99: u64,
    /// Mean wait, affinity/modulo/lease-off, uniform — the stack's own
    /// uniform floor…
    pub affinity_uniform_off_mean: f64,
    /// …and affinity/profile/lease-on, uniform: leases + placement must
    /// stay near-free on unskewed affinity demand too.
    pub affinity_uniform_on_mean: f64,
}

impl SkewGap {
    /// Percentage of the zipf→uniform *mean-wait* gap closed by the
    /// full stack; > 100 means the stack beat the uniform target.
    pub fn closed_mean_pct(&self) -> f64 {
        closure(self.zipf_base_mean, self.stack_mean, self.uniform_base_mean)
    }

    /// Percentage of the zipf→uniform *p99-wait* gap closed.
    pub fn closed_p99_pct(&self) -> f64 {
        closure(
            self.zipf_base_p99 as f64,
            self.stack_p99 as f64,
            self.uniform_base_p99 as f64,
        )
    }

    /// Mean-wait movement of today's uniform cell with leases on, in
    /// percent (negative = leases *improved* it). The "leases are free
    /// when idle" guard.
    pub fn uniform_regression_pct(&self) -> f64 {
        regression(self.uniform_base_mean, self.uniform_lease_mean)
    }

    /// Mean-wait movement of the *affinity* uniform cell under the full
    /// stack, in percent — placement + leases must not tax unskewed
    /// local demand either.
    pub fn affinity_uniform_regression_pct(&self) -> f64 {
        regression(
            self.affinity_uniform_off_mean,
            self.affinity_uniform_on_mean,
        )
    }
}

fn closure(off: f64, on: f64, target: f64) -> f64 {
    let gap = off - target;
    if gap <= 0.0 {
        return 100.0;
    }
    100.0 * (off - on) / gap
}

fn regression(off: f64, on: f64) -> f64 {
    if off == 0.0 {
        return 0.0;
    }
    100.0 * (on - off) / off
}

/// Extracts the [`SkewGap`] for `keys` from a suite's cells: the
/// symmetric think cells anchor the baseline and the target, the
/// affinity/profile/lease-on cell is the full stack.
pub fn gap(results: &[SpaceMeasurement], keys: u32) -> Option<SkewGap> {
    let find = |skew: &str, load: Load, hubs: Hubs, lease_on: bool| {
        results.iter().find(move |m| {
            m.cell.keys == keys
                && m.cell.skew == skew
                && m.cell.load == load
                && m.cell.hubs == hubs
                && (m.cell.lease.window > 0) == lease_on
        })
    };
    let uniform_base = find("uniform", Load::Think, Hubs::Modulo, false)?;
    let uniform_lease = find("uniform", Load::Think, Hubs::Modulo, true)?;
    let zipf_base = find("zipf-1.1", Load::Think, Hubs::Modulo, false)?;
    let stack = find("zipf-1.1", Load::Affinity, Hubs::Profile, true)?;
    let affinity_uniform_off = find("uniform", Load::Affinity, Hubs::Modulo, false)?;
    let affinity_uniform_on = find("uniform", Load::Affinity, Hubs::Profile, true)?;
    Some(SkewGap {
        keys,
        uniform_base_mean: uniform_base.mean_wait_ticks,
        uniform_lease_mean: uniform_lease.mean_wait_ticks,
        zipf_base_mean: zipf_base.mean_wait_ticks,
        stack_mean: stack.mean_wait_ticks,
        uniform_base_p99: uniform_base.p99_wait_ticks,
        uniform_lease_p99: uniform_lease.p99_wait_ticks,
        zipf_base_p99: zipf_base.p99_wait_ticks,
        stack_p99: stack.p99_wait_ticks,
        affinity_uniform_off_mean: affinity_uniform_off.mean_wait_ticks,
        affinity_uniform_on_mean: affinity_uniform_on.mean_wait_ticks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_closes_most_of_the_symmetric_skew_gap_at_test_scale() {
        // The acceptance property, shrunk: 15 nodes, 16 keys. The
        // symmetric zipf cell is the baseline penalty; hot-tenant demand
        // plus placement plus leases must win back at least half of the
        // distance to the symmetric-uniform target.
        let zipf = grid_point(15, 16, "zipf-1.1", KeyDist::Zipf { exponent: 1.1 }, 60);
        let uniform = grid_point(15, 16, "uniform", KeyDist::Uniform, 60);
        let all: Vec<SpaceMeasurement> = zipf.into_iter().chain(uniform).collect();
        let g = gap(&all, 16).expect("grid covers the gap cells");
        eprintln!(
            "test-scale gap: baseline {:.2} -> stack {:.2} (target {:.2}), \
             mean {:.0}% p99 {:.0}% uniform {:+.1}% affinity-uniform {:+.1}%",
            g.zipf_base_mean,
            g.stack_mean,
            g.uniform_base_mean,
            g.closed_mean_pct(),
            g.closed_p99_pct(),
            g.uniform_regression_pct(),
            g.affinity_uniform_regression_pct()
        );
        assert!(
            g.closed_mean_pct() >= 50.0,
            "stack closed only {:.0}% of the mean-wait gap ({:.1} -> {:.1}, target {:.1})",
            g.closed_mean_pct(),
            g.zipf_base_mean,
            g.stack_mean,
            g.uniform_base_mean
        );
        // Leases must be free on today's uniform cells…
        assert!(
            g.uniform_regression_pct().abs() <= 5.0,
            "uniform mean wait moved {:.1}% with leases on",
            g.uniform_regression_pct()
        );
        // …and the stack must not tax unskewed affinity demand either.
        assert!(
            g.affinity_uniform_regression_pct() <= 15.0,
            "affinity-uniform mean wait regressed {:.1}% under the stack",
            g.affinity_uniform_regression_pct()
        );
    }

    #[test]
    #[ignore = "bench-scale probe (127 nodes, minutes); run with --ignored --nocapture"]
    fn bench_scale_gap_probe() {
        let mut all = grid_point(127, 64, "zipf-1.1", KeyDist::Zipf { exponent: 1.1 }, 400);
        all.extend(grid_point(127, 64, "uniform", KeyDist::Uniform, 400));
        for m in &all {
            eprintln!(
                "{:>8} {:>8}/{:<7} lease={} grants {:>6} leased {:>3.0}% mean {:>7.2} \
                 p50 {:>4} p99 {:>5} msgs/grant {:>6.2}",
                m.cell.skew,
                m.cell.load.label(),
                m.cell.hubs.label(),
                m.cell.lease.window,
                m.grants,
                m.leased_pct(),
                m.mean_wait_ticks,
                m.p50_wait_ticks,
                m.p99_wait_ticks,
                m.msgs_per_grant
            );
        }
        let g = gap(&all, 64).expect("grid covers the gap cells");
        eprintln!(
            "gap: mean {:.1}% p99 {:.1}% uniform regression {:+.1}%",
            g.closed_mean_pct(),
            g.closed_p99_pct(),
            g.uniform_regression_pct()
        );
    }

    #[test]
    fn leased_cells_serve_identical_demand_with_fewer_messages() {
        let dist = KeyDist::Zipf { exponent: 1.1 };
        let cell = |lease| {
            SpaceCell {
                skew: "zipf-1.1",
                dist,
                load: Load::Affinity,
                lease,
                rounds: 40,
                seed: 7,
                ..SpaceCell::new(15, 16)
            }
            .measure()
        };
        let off = cell(LeaseConfig::OFF);
        let on = cell(LEASE);
        assert_eq!(off.grants, on.grants, "same closed-loop demand");
        assert_eq!(off.lease_grants, 0);
        assert!(on.lease_grants > 0, "leases never engaged");
        assert!(
            on.keyed_messages < off.keyed_messages,
            "leases {} !< lease-off {}",
            on.keyed_messages,
            off.keyed_messages
        );
    }

    #[test]
    fn profile_placement_beats_modulo_on_first_touch_traffic() {
        // One round per node: placement is the whole story (leases
        // can't help a single acquisition).
        let dist = KeyDist::Zipf { exponent: 1.1 };
        let cell = |hubs| {
            SpaceCell {
                skew: "zipf-1.1",
                dist,
                load: Load::Affinity,
                hubs,
                seed: 11,
                ..SpaceCell::new(15, 16)
            }
            .measure()
        };
        let modulo = cell(Hubs::Modulo);
        let profile = cell(Hubs::Profile);
        assert_eq!(modulo.grants, profile.grants);
        assert!(
            profile.keyed_messages < modulo.keyed_messages,
            "profile {} !< modulo {}",
            profile.keyed_messages,
            modulo.keyed_messages
        );
    }

    #[test]
    fn quorum_baseline_pays_its_flat_bill() {
        let m = run_quorum_cell(13, 2, 5);
        assert_eq!(m.cs_entries, 26);
        // 3(K-1) = 9 at N = 13, contended or not.
        assert!(
            (m.messages_per_entry() - 9.0).abs() < 1e-9,
            "msgs/grant {}",
            m.messages_per_entry()
        );
    }

    #[test]
    fn table_covers_the_grid_plus_the_baseline() {
        let t = run(15, &[8], 4);
        // 1 key count × 2 skews × 6 cells + 1 quorum row.
        assert_eq!(t.len(), 13);
        assert_eq!(t.cell(12, 0), "naimi-thiare");
    }
}
