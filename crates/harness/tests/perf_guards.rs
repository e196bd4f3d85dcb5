//! The repo's performance guards, in one place.
//!
//! One is deterministic and runs in the ordinary `cargo test`: the
//! demand-balanced LPT shard map against the modulo map, in critical-path
//! *event counts*. Three are wall-clock ratios — an optional mechanism
//! (holder leases, path tracing, adaptive barrier windows) switched on in
//! the uniform cell where it has nothing to win must not cost throughput
//! — and are `#[ignore]`d: CI's `Perf guards` step runs them optimised
//! and alone (`--release -- --include-ignored --test-threads=1`). All
//! three go through [`paired_guard`], whose decision rule is itself
//! tested below on synthetic closures. Absolute time is dmxbench's job;
//! these only compare a cell with itself.

use dmx_harness::experiments::parallel_scaling::{measure_cell, Cell, DemandShape, SKEW_KEYS};
use dmx_harness::experiments::skew::LEASE;
use dmx_harness::experiments::SpaceCell;

/// The share of the `off` side's median throughput the `on` side must
/// keep once it has lost nearly every pair. One constant for all three
/// guards, set at what this class of host (2 shared vCPUs) resolves, not
/// at what the mechanisms are believed to cost.
///
/// Measured on the unchanged mechanisms, 40 release runs of this file in
/// two batches of 20 (10 pairs per guard per run; `on/off` is the ratio
/// of medians, `lost` the pairs `on` lost):
///
/// | guard | on/off min | q1 | median | q3 | max | lost | runs with lost ≥ 9 |
/// |---|---|---|---|---|---|---|---|
/// | leases | 0.855 | 0.957 | 0.979 | 0.994 | 1.208 | 3–9 | 2 (0.979, 0.935) |
/// | path tracing | 0.915 | 0.982 | 0.995 | 1.014 | 1.148 | 1–8 | 0 |
/// | adaptive windows | 0.869 | 0.986 | 1.008 | 1.045 | 1.139 | 2–7 | 0 |
///
/// One run of unchanged code reads anywhere from −15% to +21%, so the old
/// 0.98/0.99 floors sat inside the noise: under this pairing rule they
/// would still have failed both of the lost-≥-9 runs. The two halves of
/// the rule fail on different runs — the seven ratios under 0.90
/// (0.855–0.894) all split their pairs 6/4 or 7/3, a slow stretch that
/// hit a few consecutive runs rather than one side — so all 120
/// guard-runs pass at 0.90, and a systematic 10% cost still fails.
const FLOOR: f64 = 0.90;

/// Off/on pairs per guard.
const PAIRS: usize = 10;

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    (xs[(xs.len() - 1) / 2] + xs[xs.len() / 2]) / 2.0
}

/// Measures `off` and `on` (each returns a throughput, higher is better)
/// in [`PAIRS`] back-to-back pairs after one discarded warm-up run,
/// alternating which side goes first so that drift lands on both.
///
/// The rule is the one this repo applies to a PR, turned on a guard: a
/// systematic cost loses nearly every pair, noise splits them.
///
/// # Panics
///
/// Panics when `on` loses at least 9 of the 10 pairs **and** its median
/// is under `floor ×` the median of `off`. No retry, no best-of.
fn paired_guard(name: &str, floor: f64, mut off: impl FnMut() -> f64, mut on: impl FnMut() -> f64) {
    on();
    let (mut offs, mut ons) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            offs.push(off());
            ons.push(on());
        } else {
            ons.push(on());
            offs.push(off());
        }
    }
    let lost = offs.iter().zip(&ons).filter(|(off, on)| on < off).count();
    let ratio = median(&mut ons) / median(&mut offs);
    eprintln!("perf guard {name}: on/off {ratio:.3}, on lost {lost}/{PAIRS} pairs");
    assert!(
        lost < PAIRS - 1 || ratio >= floor,
        "{name}: on lost {lost}/{PAIRS} pairs and keeps {ratio:.3} of off's median \
         throughput (floor {floor})"
    );
}

#[test]
#[should_panic(expected = "lost 10/10 pairs")]
fn a_systematic_cost_fails_the_guard() {
    paired_guard("synthetic -20%", FLOOR, || 100.0, || 80.0);
}

#[test]
fn noise_that_splits_the_pairs_passes_whatever_its_size() {
    let alternating = || {
        let mut calls = 0;
        move || {
            calls += 1;
            [95.0, 105.0][calls % 2]
        }
    };
    paired_guard("synthetic ±5%", FLOOR, || 100.0, alternating());
    // Even under a floor no measurement could meet: the pairs split, so
    // the medians are never consulted.
    paired_guard("synthetic ±5%, floor 2.0", 2.0, || 100.0, alternating());
}

#[test]
fn a_cost_the_host_cannot_resolve_passes() {
    // 3% under in 10/10 pairs: consistent, but inside FLOOR.
    paired_guard("synthetic -3%", FLOOR, || 100.0, || 97.0);
}

/// The saturated uniform lock-space cell the wall-clock guards time:
/// 127 nodes × 64 keys × 200 rounds (~25k grants, tens of milliseconds),
/// long enough that construction and scheduler jitter amortise.
fn saturated() -> SpaceCell {
    SpaceCell {
        rounds: 200,
        ..SpaceCell::new(127, 64)
    }
}

fn events_per_sec(cell: SpaceCell) -> impl FnMut() -> f64 {
    move || cell.measure().events_per_sec()
}

/// Holder leases sit on the release path of every key — the stream peek
/// and fairness check run whether or not a lease ever fires. Uniform
/// demand is where they help least. (The skew-side win is `ext_skew`'s.)
#[test]
#[ignore = "wall-clock ratio: release build, alone on the machine"]
fn leases_are_free_on_the_uniform_cell() {
    paired_guard(
        "leases",
        FLOOR,
        events_per_sec(saturated()),
        events_per_sec(SpaceCell {
            lease: LEASE,
            ..saturated()
        }),
    );
}

/// Full observability: per-request path tracing on top of the always-on
/// wait histograms.
#[test]
#[ignore = "wall-clock ratio: release build, alone on the machine"]
fn path_tracing_is_free_on_the_uniform_cell() {
    paired_guard(
        "path tracing",
        FLOOR,
        events_per_sec(saturated()),
        events_per_sec(SpaceCell {
            trace_paths: true,
            ..saturated()
        }),
    );
}

/// The 1-shard threaded uniform cell: every tick-barrier round is pure
/// overhead there and dense demand never widens a window past its floor,
/// so a misbehaving window controller shows up here first.
#[test]
#[ignore = "wall-clock ratio: release build, alone on the machine"]
fn adaptive_windows_are_free_on_the_uniform_cell() {
    let wall = |adaptive| {
        move || {
            measure_cell(&Cell {
                adaptive,
                ..Cell::uniform(127, 4_096, 10, 1, true)
            })
            .wall_events_per_sec()
        }
    };
    paired_guard("adaptive windows", FLOOR, wall(false), wall(true));
}

/// The demand-balanced LPT map must cut the critical path to at most
/// 1/1.5 of the modulo map's on the zipf-1.1 cell (64 keys × 127 nodes ×
/// 200 rounds, 8 shards, sequential driver). Both maps serve the same
/// event stream (digest-asserted), so the wall clock cancels and the
/// ratio is one of event counts: this guard cannot flake.
#[test]
fn balanced_map_holds_1_5x_modulo_critical_path() {
    let cell = |balanced| {
        measure_cell(&Cell {
            n: 127,
            keys: SKEW_KEYS,
            rounds: 200,
            shards: 8,
            threads: false,
            shape: DemandShape::Zipf,
            balanced,
            adaptive: false,
        })
    };
    let (modulo, balanced) = (cell(false), cell(true));
    assert_eq!(
        balanced.grant_digest, modulo.grant_digest,
        "shard map changed the run"
    );
    assert_eq!(balanced.events, modulo.events);
    let ratio = modulo.critical_path_events as f64 / balanced.critical_path_events as f64;
    assert!(
        ratio >= 1.5,
        "balanced map holds only {ratio:.2}x modulo's critical-path events/s \
         ({} vs {} critical-path events)",
        balanced.critical_path_events,
        modulo.critical_path_events
    );
}
