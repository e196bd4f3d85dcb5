//! `bench` — engine hot-loop throughput: the perf trajectory this repo
//! tracks across PRs.
//!
//! Every table in the evaluation chapter is generated by
//! `dmx_simnet::Engine`'s event loop, so its steady-state throughput
//! bounds how many nodes × requests × seeds the harness can sweep. This
//! module runs a saturated closed loop for the DAG algorithm and two
//! baselines (Raymond as the tree-based rival, Ricart–Agrawala as the
//! broadcast extreme) on complete binary trees of n ∈ {15, 127, 1023}
//! and reports events/sec and grants/sec — **per scheduler backend**:
//! every Fixed-latency cell is timed under both the binary heap and the
//! timing wheel (see `dmx_simnet::sched`), and the DAG cells are
//! additionally timed under `Uniform`/`Exponential` latencies so a
//! wheel-side win can never hide a heap-side regression. The
//! `repro -- bench` subcommand serializes the suite to
//! `BENCH_CURRENT.json` (the curated cross-PR artifacts like
//! `BENCH_PR1.json` are assembled from such runs and never
//! overwritten); the `engine_hot_loop` criterion bench wraps the same
//! kernel.

use std::time::Instant;

use dmx_simnet::{EngineConfig, LatencyModel, Scheduler, Time};
use dmx_topology::{NodeId, Tree};
use dmx_workload::Saturated;

use crate::{run_algorithm, Algorithm, Scenario};

/// Node counts the suite sweeps (complete binary trees).
pub const SWEEP_SIZES: [usize; 3] = [15, 127, 1023];

/// Latency models the suite covers, with stable JSON labels: the
/// default synchronous network (the wheel's home turf) plus the two
/// randomized models (where `Auto` may keep the heap, and where any
/// refactor-induced regression of either backend must show up).
pub const LATENCY_CELLS: [(&str, LatencyModel); 3] = [
    ("fixed-1", LatencyModel::Fixed(Time(1))),
    (
        "uniform-1-9",
        LatencyModel::Uniform {
            lo: Time(1),
            hi: Time(9),
        },
    ),
    ("exp-4", LatencyModel::Exponential { mean: Time(4) }),
];

/// Algorithms the suite covers: the paper's, its tree-based rival, and
/// the broadcast extreme.
pub const SWEEP_ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Dag,
    Algorithm::Raymond,
    Algorithm::RicartAgrawala,
];

/// One timed hot-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct HotLoopMeasurement {
    /// Algorithm name (stable table key).
    pub algorithm: &'static str,
    /// Node count.
    pub n: usize,
    /// Critical-section entries per node.
    pub rounds: u32,
    /// Scheduler backend the cell ran under (`"heap"` / `"wheel"`,
    /// resolved — an `Auto` request records what it resolved to).
    pub scheduler: &'static str,
    /// Latency-model label (see [`LATENCY_CELLS`]).
    pub latency: &'static str,
    /// Total engine events processed (requests + deliveries + exits).
    pub events: u64,
    /// Critical-section entries completed.
    pub grants: u64,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

impl HotLoopMeasurement {
    /// Engine events processed per second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_secs
    }

    /// Critical-section grants per second.
    pub fn grants_per_sec(&self) -> f64 {
        self.grants as f64 / self.elapsed_secs
    }
}

/// Per-node entry budget keeping each cell around 10^6 events: the
/// broadcast algorithm's cost grows with `n`, so its budget shrinks.
pub fn rounds_for(algo: Algorithm, n: usize) -> u32 {
    match (algo, n) {
        (Algorithm::RicartAgrawala, _) if n > 512 => 2,
        (Algorithm::RicartAgrawala, _) if n > 64 => 40,
        (Algorithm::RicartAgrawala, _) => 2_000,
        (_, _) if n > 512 => 200,
        (_, _) if n > 64 => 2_000,
        _ => 20_000,
    }
}

/// Times one saturated closed-loop run of `algo` on a complete binary
/// tree of `n` nodes, `rounds` entries per node, tracing off, under an
/// explicit scheduler and latency model.
///
/// The timed window is the *whole* run — engine construction
/// (including the O(n²) FIFO link-clock zeroing) and any
/// initialization traffic included — identically on every side of a
/// comparison, so recorded speedups are end-to-end and conservative
/// for the hot-loop claim (the post-refactor engine pays *more*
/// setup, not less). Keep it that way when re-baselining.
///
/// # Panics
///
/// Panics if the run violates safety or liveness (a protocol bug).
pub fn measure_cell(
    algo: Algorithm,
    n: usize,
    rounds: u32,
    scheduler: Scheduler,
    latency_label: &'static str,
    latency: LatencyModel,
) -> HotLoopMeasurement {
    let tree = Tree::kary(n, 2);
    let config = EngineConfig {
        record_trace: false,
        scheduler,
        latency,
        ..EngineConfig::default()
    };
    // Record the backend by re-running the pure resolution on the very
    // config `run_algorithm` hands to `Engine::new` verbatim. If this
    // function ever stops passing `config` through unchanged, resolve
    // from whatever the engine actually receives — a drifted label here
    // would silently corrupt BENCH_CURRENT.json's heap-vs-wheel cells.
    let backend = config.scheduler.resolve(config.latency, config.cs_duration);
    let scenario = Scenario {
        tree: &tree,
        holder: NodeId(0),
        config,
    };
    let start = Instant::now();
    let metrics = run_algorithm(algo, &scenario, &mut Saturated::new(rounds))
        .expect("saturated hot-loop run must complete");
    let elapsed_secs = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    // Every processed event is a request, a delivery, or an exit.
    let events = metrics.requests + metrics.messages_total + metrics.cs_entries;
    HotLoopMeasurement {
        algorithm: algo.name(),
        n,
        rounds,
        scheduler: backend.name(),
        latency: latency_label,
        events,
        grants: metrics.cs_entries,
        elapsed_secs,
    }
}

/// [`measure_cell`] under the workspace defaults: `Auto` scheduler (the
/// wheel, for the default one-tick-per-hop network) and `Fixed(1)`
/// latency.
pub fn measure(algo: Algorithm, n: usize, rounds: u32) -> HotLoopMeasurement {
    measure_cell(
        algo,
        n,
        rounds,
        Scheduler::Auto,
        LATENCY_CELLS[0].0,
        LATENCY_CELLS[0].1,
    )
}

/// Warm-up plus timed run for one cell, printing progress.
fn timed_cell(
    algo: Algorithm,
    n: usize,
    rounds: u32,
    scheduler: Scheduler,
    latency_label: &'static str,
    latency: LatencyModel,
) -> HotLoopMeasurement {
    let _warmup = measure_cell(
        algo,
        n,
        (rounds / 20).max(1),
        scheduler,
        latency_label,
        latency,
    );
    let m = measure_cell(algo, n, rounds, scheduler, latency_label, latency);
    eprintln!(
        "hot_loop: {:>18} n={:<5} {:>11} {:>6} {:>12.0} events/s {:>10.0} grants/s",
        m.algorithm,
        m.n,
        m.latency,
        m.scheduler,
        m.events_per_sec(),
        m.grants_per_sec()
    );
    m
}

/// Runs the full suite, printing progress. Each cell is preceded by a
/// shrunk warm-up run so the recorded number reflects steady state, not
/// binary start-up cache misses.
///
/// Coverage: every algorithm × size cell under the default `Fixed(1)`
/// network with **both** scheduler backends (the heap-vs-wheel
/// comparison the ROADMAP's calendar-queue item asked for), plus the
/// DAG algorithm under the `Uniform` and `Exponential` models with both
/// backends (regression guard for the non-near-now regimes).
pub fn run_suite() -> Vec<HotLoopMeasurement> {
    let mut results = Vec::new();
    let (fixed_label, fixed) = LATENCY_CELLS[0];
    for algo in SWEEP_ALGORITHMS {
        for n in SWEEP_SIZES {
            let rounds = rounds_for(algo, n);
            for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
                results.push(timed_cell(algo, n, rounds, scheduler, fixed_label, fixed));
            }
        }
    }
    for &(label, latency) in &LATENCY_CELLS[1..] {
        for n in SWEEP_SIZES {
            let rounds = rounds_for(Algorithm::Dag, n);
            for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
                results.push(timed_cell(
                    Algorithm::Dag,
                    n,
                    rounds,
                    scheduler,
                    label,
                    latency,
                ));
            }
        }
    }
    results
}

/// Serializes measurements as a JSON array (no external JSON dependency
/// in this offline workspace, so the encoder is hand-rolled).
pub fn results_json(results: &[HotLoopMeasurement]) -> String {
    let mut out = String::from("[\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"n\": {}, \"rounds\": {}, \
             \"scheduler\": \"{}\", \"latency\": \"{}\", \"events\": {}, \
             \"grants\": {}, \"elapsed_secs\": {:.6}, \"events_per_sec\": {:.0}, \
             \"grants_per_sec\": {:.0}}}{}\n",
            m.algorithm,
            m.n,
            m.rounds,
            m.scheduler,
            m.latency,
            m.events,
            m.grants,
            m.elapsed_secs,
            m.events_per_sec(),
            m.grants_per_sec(),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_every_event() {
        let m = measure(Algorithm::Dag, 15, 2);
        assert_eq!(m.grants, 30);
        assert!(m.events >= m.grants * 2, "request + exit per grant");
        assert!(m.events_per_sec() > 0.0);
        assert!(m.grants_per_sec() > 0.0);
        // Auto + Fixed(1) resolves to the wheel; the label records it.
        assert_eq!(m.scheduler, "wheel");
        assert_eq!(m.latency, "fixed-1");
    }

    #[test]
    fn backends_measure_identical_event_counts() {
        // Schedulers change wall-clock only: the simulated run — and so
        // its event and grant totals — must be backend-invariant.
        let heap = measure_cell(
            Algorithm::Dag,
            15,
            4,
            Scheduler::Heap,
            LATENCY_CELLS[0].0,
            LATENCY_CELLS[0].1,
        );
        let wheel = measure_cell(
            Algorithm::Dag,
            15,
            4,
            Scheduler::Wheel,
            LATENCY_CELLS[0].0,
            LATENCY_CELLS[0].1,
        );
        assert_eq!(heap.events, wheel.events);
        assert_eq!(heap.grants, wheel.grants);
        assert_eq!(heap.scheduler, "heap");
        assert_eq!(wheel.scheduler, "wheel");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let m = measure(Algorithm::Dag, 15, 1);
        let json = results_json(&[m.clone(), m]);
        assert_eq!(json.matches("\"algorithm\"").count(), 2);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn budgets_shrink_for_broadcast_algorithms() {
        assert!(
            rounds_for(Algorithm::RicartAgrawala, 1023) < rounds_for(Algorithm::Dag, 1023),
            "O(N) messages per entry must get a smaller entry budget"
        );
    }
}
