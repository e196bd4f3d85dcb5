//! `ext_lock` — lock-space scaling sweep: the new scenario axis
//! (keys × skew × n) opened by the `dmx-lockspace` subsystem.
//!
//! The paper arbitrates one critical section; the lock space multiplexes
//! thousands. This experiment sweeps the key-space size, the key
//! popularity skew (uniform vs Zipf-skewed hot keys), and the node
//! count, reporting per-key traffic, the envelope savings of
//! per-destination batching, and the cross-key concurrency a single-lock
//! system can never exhibit. Per-key safety and liveness are verified on
//! every cell by the keyed oracles.
//!
//! The companion `ext_window` sweep ([`run_windows`]) walks the
//! transport layer's coalescing window (`FlushPolicy::Window`) instead:
//! window × keys × n under one fixed workload, reporting envelopes and
//! mean wait side by side — the latency-vs-envelope-count tradeoff the
//! transport makes measurable.

use dmx_lockspace::FlushPolicy;
use dmx_workload::KeyDist;

use super::SpaceCell;
use crate::Table;

/// Per-node start stagger the window cells use: spreading the initial
/// burst over a few ticks is the demand shape coalescing windows exist
/// for, and every cell of a comparison uses the same stagger so the
/// windows — not the workload — are what differs.
pub const WINDOW_STAGGER: u64 = 4;

/// The learning transport as the sweep runs it. The occupancy target
/// only seeds the learner (the EWMA takes over from the first flush on);
/// the cap is the widest static window of the sweep, so adaptive can
/// only win by flushing *earlier* when batches are already fat.
pub const ADAPTIVE: FlushPolicy = FlushPolicy::Adaptive {
    target_per_dst: 2.0,
    max_window: 16,
};

/// Flush policies the window sweep walks, in table order: the three
/// static windows (1 tick ≡ `EveryTick`), then the learner.
pub const FLUSHES: [FlushPolicy; 4] = [
    FlushPolicy::EveryTick,
    FlushPolicy::Window(4),
    FlushPolicy::Window(16),
    ADAPTIVE,
];

/// Skews the sweep walks, with stable table labels.
pub const SKEWS: [(&str, KeyDist); 2] = [
    ("uniform", KeyDist::Uniform),
    ("zipf-1.1", KeyDist::Zipf { exponent: 1.1 }),
];

/// The sweep: `keys ∈ key_counts × skew ∈ {uniform, zipf} × n ∈ sizes`,
/// `rounds` entries per node per cell.
pub fn run(sizes: &[usize], key_counts: &[u32], rounds: u32) -> Table {
    let mut table = Table::new(
        "ext_lock — lock-space scaling (keys × skew × n, batching on, per-key safety checked)",
        &[
            "n",
            "keys",
            "skew",
            "grants",
            "keyed msgs/grant",
            "envelopes",
            "batch savings",
            "keys touched",
            "peak held",
        ],
    );
    for &n in sizes {
        for &keys in key_counts {
            for (label, dist) in SKEWS {
                let (engine, monitor) = SpaceCell {
                    skew: label,
                    dist,
                    rounds,
                    ..SpaceCell::new(n, keys)
                }
                .run();
                let rollup = monitor.rollup();
                let envelopes = engine.metrics().messages_total;
                let savings = if rollup.messages > 0 {
                    100.0 * (1.0 - envelopes as f64 / rollup.messages as f64)
                } else {
                    0.0
                };
                table.row(&[
                    n.to_string(),
                    keys.to_string(),
                    label.to_string(),
                    rollup.grants.to_string(),
                    format!("{:.2}", rollup.messages_per_grant),
                    envelopes.to_string(),
                    format!("{savings:.0}%"),
                    rollup.keys_touched.to_string(),
                    monitor.peak_concurrent_holders().to_string(),
                ]);
            }
        }
    }
    table
}

/// One cell of the window sweep: uniform demand staggered by
/// [`WINDOW_STAGGER`], so the flush policy is the only thing that varies.
pub fn window_cell(n: usize, keys: u32, rounds: u32, flush: FlushPolicy) -> SpaceCell {
    SpaceCell {
        rounds,
        flush,
        stagger: WINDOW_STAGGER,
        ..SpaceCell::new(n, keys)
    }
}

/// The window sweep: `flush ∈ FLUSHES × keys ∈ key_counts × n ∈
/// sizes`, all cells under the same staggered uniform workload so the
/// coalescing window is the only thing that varies. Reports the
/// latency-vs-envelope-count tradeoff the transport layer makes
/// measurable: wider windows cut envelopes (and pay for it in mean
/// wait).
pub fn run_windows(sizes: &[usize], key_counts: &[u32], rounds: u32) -> Table {
    let mut table = Table::new(
        "ext_window — coalescing-window sweep (window × keys × n, per-key safety checked)",
        &[
            "n",
            "keys",
            "flush",
            "grants",
            "keyed msgs",
            "envelopes",
            "batch savings",
            "mean wait",
            "p50",
            "p99",
            "p999",
        ],
    );
    for &n in sizes {
        for &keys in key_counts {
            for flush in FLUSHES {
                let m = window_cell(n, keys, rounds, flush).measure();
                table.row(&[
                    n.to_string(),
                    keys.to_string(),
                    match flush {
                        FlushPolicy::EveryTick => "1".into(),
                        FlushPolicy::Window(w) => w.to_string(),
                        FlushPolicy::Adaptive { max_window, .. } => {
                            format!("adaptive≤{max_window}")
                        }
                    },
                    m.grants.to_string(),
                    m.keyed_messages.to_string(),
                    m.envelopes.to_string(),
                    format!("{:.0}%", m.savings_pct()),
                    format!("{:.1}", m.mean_wait_ticks),
                    m.p50_wait_ticks.to_string(),
                    m.p99_wait_ticks.to_string(),
                    m.p999_wait_ticks.to_string(),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_grid_and_batching_saves_envelopes() {
        let table = run(&[15], &[1, 16], 6);
        assert_eq!(table.len(), 4, "2 key counts × 2 skews");
        assert_eq!(table.cell(0, 3), "90", "15 nodes × 6 rounds");
        // At 16 keys there is real cross-key concurrency...
        let peak: usize = table.cell(2, 8).parse().unwrap();
        assert!(peak > 1, "peak held was {peak}");
        // ...while a single key serializes everything.
        let single: usize = table.cell(0, 8).parse().unwrap();
        assert_eq!(single, 1);
    }

    #[test]
    fn measure_counts_events_and_traffic() {
        let m = SpaceCell {
            rounds: 4,
            ..SpaceCell::new(15, 16)
        }
        .measure();
        assert_eq!(m.grants, 60);
        assert!(m.events > m.grants, "wakes + deliveries exceed grants");
        assert!(
            m.envelopes <= m.keyed_messages,
            "batching never adds envelopes"
        );
        assert!(m.events_per_sec() > 0.0);
    }

    #[test]
    fn percentiles_are_ordered_and_bracket_the_mean() {
        let m = SpaceCell {
            rounds: 6,
            ..SpaceCell::new(15, 16)
        }
        .measure();
        assert!(m.p50_wait_ticks <= m.p99_wait_ticks);
        assert!(m.p99_wait_ticks <= m.p999_wait_ticks);
        assert!(m.p999_wait_ticks <= m.max_wait_ticks);
        assert!(
            m.mean_wait_ticks <= m.max_wait_ticks as f64,
            "mean {} exceeds max {}",
            m.mean_wait_ticks,
            m.max_wait_ticks
        );
    }

    #[test]
    fn wider_windows_cut_envelopes_for_the_same_demand() {
        // The acceptance property of the coalescing transport, at test
        // scale: Window(k) serves identical demand with fewer envelopes
        // than EveryTick, paying (at most) a bounded wait increase.
        let cell = |flush| window_cell(15, 64, 30, flush).measure();
        let tick = cell(FlushPolicy::EveryTick);
        let wide = cell(FlushPolicy::Window(16));
        assert_eq!(tick.grants, wide.grants, "same demand served");
        assert!(
            wide.envelopes < tick.envelopes,
            "window 16 {} !< every-tick {}",
            wide.envelopes,
            tick.envelopes
        );
        assert!(wide.mean_wait_ticks >= tick.mean_wait_ticks);
    }

    #[test]
    fn window_sweep_covers_the_grid() {
        let table = run_windows(&[15], &[16], 4);
        assert_eq!(
            table.len(),
            4,
            "3 windows + adaptive × 1 key count × 1 size"
        );
        // Envelope counts are monotonically non-increasing in the window.
        let envelopes: Vec<u64> = (0..3).map(|r| table.cell(r, 5).parse().unwrap()).collect();
        assert!(envelopes[2] <= envelopes[1] && envelopes[1] <= envelopes[0]);
        assert!(table.cell(3, 2).starts_with("adaptive"));
    }

    #[test]
    fn adaptive_envelope_savings_land_within_the_best_static_window() {
        // The satellite acceptance: the learning transport, with no
        // hand-picked window, saves envelopes vs end-of-tick flushing
        // and lands within the static sweep's envelope range — it
        // learns a window instead of needing one tuned.
        let cell = |flush| window_cell(15, 64, 30, flush).measure();
        let static_envelopes: Vec<u64> = FLUSHES[..3].iter().map(|&f| cell(f).envelopes).collect();
        let best = *static_envelopes.iter().min().unwrap();
        let worst = *static_envelopes.iter().max().unwrap();
        let adaptive = cell(ADAPTIVE);
        assert_eq!(
            adaptive.grants,
            cell(FlushPolicy::EveryTick).grants,
            "same demand served"
        );
        assert!(
            adaptive.envelopes < worst,
            "adaptive {} !< every-tick {}",
            adaptive.envelopes,
            worst
        );
        // Within 10% of the best hand-tuned window (it is allowed to
        // beat it: flushing fat batches early regroups later traffic).
        assert!(
            adaptive.envelopes as f64 <= 1.10 * best as f64,
            "adaptive {} not within 10% of best static window {}",
            adaptive.envelopes,
            best
        );
    }
}
