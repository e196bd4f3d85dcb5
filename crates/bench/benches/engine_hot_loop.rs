//! Bench for the engine's steady-state event loop — the single hottest
//! path in the workspace: every table and sweep is generated by it.
//!
//! Wraps the same kernel as `repro -- bench` (which writes
//! `BENCH_CURRENT.json` for the cross-PR perf trajectory). Budgets here
//! are smaller than the suite's so `cargo bench` stays fast; set
//! `BENCH_SMOKE=1` to run each body exactly once (the CI smoke mode).
//!
//! Two lanes:
//!
//! * `engine_hot_loop/saturated` — the historical per-algorithm cells
//!   (Auto scheduler, which resolves to the wheel on the default
//!   `Fixed(1)` network).
//! * `engine_hot_loop/scheduler` — the heap-vs-wheel comparison on the
//!   Fixed-latency DAG cells, so a regression in **either** scheduler
//!   backend shows up in CI even though Auto only ever runs one of
//!   them per config.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmx_harness::experiments::hot_loop::{self, LATENCY_CELLS};
use dmx_harness::Algorithm;
use dmx_simnet::Scheduler;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_hot_loop/saturated");
    group.sample_size(10);
    for (algo, n, rounds) in [
        (Algorithm::Dag, 15, 2_000),
        (Algorithm::Dag, 127, 200),
        (Algorithm::Dag, 1023, 20),
        (Algorithm::Raymond, 15, 2_000),
        (Algorithm::RicartAgrawala, 15, 200),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}@{n}", algo.name())),
            &(algo, n, rounds),
            |b, &(algo, n, rounds)| {
                b.iter(|| hot_loop::measure(black_box(algo), n, rounds));
            },
        );
    }
    group.finish();
}

fn bench_scheduler_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_hot_loop/scheduler");
    group.sample_size(10);
    let (fixed_label, fixed) = LATENCY_CELLS[0];
    for (n, rounds) in [(15usize, 2_000u32), (127, 200), (1023, 20)] {
        for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
            let tag = scheduler.resolve(fixed, fixed).name();
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("dag@{n}/{tag}")),
                &(n, rounds, scheduler),
                |b, &(n, rounds, scheduler)| {
                    b.iter(|| {
                        hot_loop::measure_cell(
                            black_box(Algorithm::Dag),
                            n,
                            rounds,
                            scheduler,
                            fixed_label,
                            fixed,
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench, bench_scheduler_comparison
}
criterion_main!(benches);
