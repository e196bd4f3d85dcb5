//! `dmxbench` — the repository's benchmark. One run measures one
//! workload and prints, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics from an untraced run, or the per-layer metrics
//! from a traced one (`--trace 1`). See `README.md` beside this crate
//! for what each workload and metric is for.
//!
//! Only the library crates' public API is used — never
//! `dmx_harness::experiments`, which the roadmap slates for deletion —
//! so the benchmark compiles unchanged on a parent commit and on the
//! change it judges.

mod host;
mod kernels;
mod sim;
mod spec;
mod stats;
mod svc;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use spec::{Class, END_TO_END, PER_LAYER, RUN_SECONDS, WARMUP_SECONDS, WORKLOADS};
use stats::median;
use svc::Phase;
use trace::Tracer;

const NOTE: &str = "no link delay injected; simulator figures are host time unless suffixed _ticks";

const USAGE: &str = "usage: dmxbench --workload <name|all> [--seed N] [--seconds S] \
[--trace [0|1]] [--smoke]\n       dmxbench --aa N [--seed N] [--seconds S] [--smoke]\n       \
dmxbench --manifest | --list";

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
    manifest: bool,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        aa: None,
        manifest: false,
        list: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = Some(value("--workload")?),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--aa" => opts.aa = Some(value("--aa")?.parse().map_err(|e| format!("--aa: {e}"))?),
            // A bare flag for people, `--trace 0|1` for the driver.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => opts.smoke = true,
            "--manifest" => opts.manifest = true,
            "--list" => opts.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if matches!(opts.aa, Some(n) if n < 2) {
        return Err("--aa needs at least 2 sets to have a spread".into());
    }
    Ok(opts)
}

/// How long each part of a run lasts.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Unmeasured service load in front of the window.
    warmup: f64,
    window: f64,
    /// Kept simulator repetitions, at least.
    min_reps: usize,
    setup_reps: usize,
    budget: kernels::Budget,
}

impl Shape {
    fn of(opts: &Opts) -> Shape {
        if opts.smoke {
            Shape {
                warmup: 0.3,
                window: 0.5,
                min_reps: 2,
                setup_reps: 3,
                budget: kernels::Budget::SMOKE,
            }
        } else {
            Shape {
                warmup: WARMUP_SECONDS * (opts.seconds / f64::from(RUN_SECONDS)).min(1.0),
                // A traced run spends most of its time in the layer
                // kernels; a quarter of the window keeps it about as
                // long as an untraced run.
                window: if opts.trace {
                    opts.seconds / 4.0
                } else {
                    opts.seconds
                },
                min_reps: if opts.trace { 2 } else { 5 },
                setup_reps: 31,
                budget: kernels::Budget::FULL,
            }
        }
    }
}

/// What one run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// `"key": json` pairs for the detail line: counts and diagnostics
    /// that are printed but not judged.
    detail: Vec<(&'static str, String)>,
}

/// Length of one slice of the timed window. Rates and latency
/// quantiles are taken per slice and the best slice is reported: see
/// [`svc_untraced`].
const SLICE_SECONDS: f64 = 0.1;

/// A slice counts as quiet when it ran within this share of the fastest
/// slice's rate.
const QUIET_SHARE: f64 = 0.95;

/// The whole run is confined to one CPU ([`host::OneCpu`]) and the
/// window is cut into [`SLICE_SECONDS`] slices. The host only ever adds
/// time: a busy neighbour on the shared core slows every acquire by a
/// fifth or more, in bursts of a fraction of a second to several
/// seconds with short quiet gaps between them. So the reported rate is
/// the fastest slice's, and the reported p50 and p99 are the lowest any
/// quiet slice reached — the program's cost with the host out of the
/// way, which is the part a change to the program can move. Only quiet
/// slices, because a slice in which the host stalled one caller for a
/// while has a low p50 for the wrong reason: the other caller ran
/// uncontended. The median slice is on the detail line.
fn svc_untraced(spec: svc::SvcSpec, opts: &Opts, shape: Shape) -> Outcome {
    let pin = host::OneCpu::pin();
    let mut tracer = Tracer::new(Instant::now(), false);
    let slices = (shape.window / SLICE_SECONDS).round().max(1.0) as usize;
    let slice = shape.window / slices as f64;
    let mut phases = vec![Phase::new(shape.warmup, false, false)];
    phases.extend((0..slices).map(|_| Phase::new(slice, true, false)));
    let run = svc::run(spec, opts.seed, shape.setup_reps, &phases, &mut tracer, 0);
    let whole = &run.whole;
    let us = |q: f64| whole.quantile(q).unwrap_or(f64::NAN) / 1e3;
    let rates: Vec<f64> = run.grants[1..].iter().map(|&g| g as f64 / slice).collect();
    let p50s: Vec<f64> = run.p50_ns[1..].iter().map(|ns| ns / 1e3).collect();
    let p99s: Vec<f64> = run.p99_ns[1..].iter().map(|ns| ns / 1e3).collect();
    let top_rate = rates.iter().copied().fold(0.0, f64::max);
    let quiet = |i: usize| rates[i] >= QUIET_SHARE * top_rate;
    let lowest_quiet = |values: &[f64]| {
        let quiet_values = (0..slices).filter(|&i| quiet(i)).map(|i| values[i]);
        quiet_values.fold(f64::NAN, f64::min)
    };
    let rounded = |values: &[f64]| {
        let tenths: Vec<String> = values
            .iter()
            .map(|v| {
                if v.is_finite() {
                    format!("{v:.1}")
                } else {
                    // A slice the host stalled through recorded nothing.
                    "null".into()
                }
            })
            .collect();
        format!("[{}]", tenths.join(", "))
    };
    let finite = |values: &[f64]| -> Vec<f64> {
        values.iter().copied().filter(|v| v.is_finite()).collect()
    };
    Outcome {
        correct: run.correct() && whole.count() > 0,
        attempted: run.attempted(),
        failed: run.failed(),
        metrics: vec![
            ("setup_s", median(&run.setup_ns) / 1e9),
            ("grants_per_s", top_rate),
            ("acquire_p50_us", lowest_quiet(&p50s)),
            ("acquire_p99_us", lowest_quiet(&p99s)),
            ("msgs_per_grant", run.msgs_per_grant()),
        ],
        detail: vec![
            (
                "pinned_cpu",
                pin.cpu().map_or_else(|| "null".into(), |c| c.to_string()),
            ),
            ("slices", slices.to_string()),
            (
                "quiet_slices",
                (0..slices).filter(|&i| quiet(i)).count().to_string(),
            ),
            (
                "setup_us",
                format!(
                    "{:?}",
                    run.setup_ns.iter().map(|v| v / 1e3).collect::<Vec<_>>()
                ),
            ),
            ("slice_grants_per_s", format!("{rates:?}")),
            ("slice_p50_us", rounded(&p50s)),
            ("slice_p99_us", rounded(&p99s)),
            ("median_slice_grants_per_s", format!("{}", median(&rates))),
            ("median_slice_p50_us", format!("{:.3}", median(&finite(&p50s)))),
            ("median_slice_p99_us", format!("{:.3}", median(&finite(&p99s)))),
            ("samples", whole.count().to_string()),
            ("window_p99_us", format!("{:.3}", us(0.99))),
            ("acquire_p999_us", format!("{:.3}", us(0.999))),
            ("warmup_grants", run.grants[0].to_string()),
            ("shutdown_entries", run.totals.entries.to_string()),
            ("messages", run.totals.messages.to_string()),
            (
                "envelopes_per_msg",
                format!("{:.4}", run.envelopes_per_msg()),
            ),
            ("acquire_errors", run.errors.to_string()),
            ("exclusion_violations", run.violations.to_string()),
            ("entries_match", run.entries_match.to_string()),
            ("snapshot_verified", run.verified.to_string()),
        ],
    }
}

/// `1 - traced/untraced`.
fn overhead_share(untraced_rate: f64, traced_rate: f64) -> f64 {
    1.0 - traced_rate / untraced_rate
}

fn svc_traced(spec: svc::SvcSpec, opts: &Opts, shape: Shape, tracer: &mut Tracer) -> Outcome {
    // Untraced and traced slices alternate through the window, so that
    // host drift lands on both sides of the ratio.
    const SLICE: f64 = 0.25;
    let _pin = host::OneCpu::pin();
    let mut phases = vec![Phase::new(shape.warmup.min(1.0), false, false)];
    let pairs = (shape.window / (2.0 * SLICE)).round().max(1.0) as usize;
    for _ in 0..pairs {
        phases.push(Phase::new(SLICE, true, false));
        phases.push(Phase::new(SLICE, true, true));
    }
    let run = svc::run(spec, opts.seed, 1, &phases, tracer, 0);
    let grants = |traced: bool| -> u64 {
        let slices = phases.iter().zip(&run.grants);
        slices
            .filter(|(p, _)| p.record && p.trace == traced)
            .map(|(_, g)| g)
            .sum()
    };
    let (untraced, traced) = (grants(false), grants(true));
    Outcome {
        correct: run.correct() && untraced > 0,
        attempted: run.attempted(),
        failed: run.failed(),
        metrics: vec![(
            "trace.overhead_share",
            overhead_share(untraced as f64, traced as f64),
        )],
        detail: vec![
            ("untraced_grants", untraced.to_string()),
            ("traced_grants", traced.to_string()),
            ("spans_dropped", run.spans_dropped.to_string()),
        ],
    }
}

/// The 1-shard sequential reference the threaded 2-shard run must
/// reproduce; trivially true for the other cells.
fn shard_invariant(cell: sim::Cell, seed: u64, first: &sim::CellOut, tracer: &mut Tracer) -> bool {
    match cell {
        sim::Cell::ParUniform { shards } if shards > 1 => {
            let one = sim::run_once(sim::Cell::ParUniform { shards: 1 }, seed, tracer, 0);
            (one.digest, one.grants, one.messages) == (first.digest, first.grants, first.messages)
        }
        _ => true,
    }
}

fn sim_untraced(cell: sim::Cell, opts: &Opts, shape: Shape) -> Outcome {
    let mut tracer = Tracer::new(Instant::now(), false);
    let run = sim::repeat(
        cell,
        opts.seed,
        shape.window,
        shape.min_reps,
        &mut tracer,
        0,
    );
    let invariant = shard_invariant(cell, opts.seed, &run.first, &mut tracer);
    let first = &run.first;
    let run_ns = run.run_ns();
    // The host only ever adds time to a repetition (a shared vCPU, a
    // neighbour's cache traffic), so the lower quartile of the
    // repetition times is the steadier estimate of the cell's own cost.
    let (q1, q3) = stats::quartiles(&run_ns);
    let run_s = q1 / 1e9;
    // Host time one simulated tick took; a wait of w ticks spans w + 1
    // of them (the tick the grant is processed in counts), so a parked
    // token's grant costs one tick, never zero.
    let us_per_tick = run_s * 1e6 / first.final_ticks.max(1) as f64;
    let eps = |ns: f64| first.events as f64 / (ns / 1e9);
    Outcome {
        correct: run.correct() && invariant,
        attempted: run.attempted(),
        failed: run.failed(),
        metrics: vec![
            ("setup_s", median(&run.setup_ns()) / 1e9),
            ("grants_per_s", first.grants as f64 / run_s),
            (
                "acquire_p50_us",
                (first.wait_p50_ticks + 1) as f64 * us_per_tick,
            ),
            (
                "acquire_p99_us",
                (first.wait_p99_ticks + 1) as f64 * us_per_tick,
            ),
            ("msgs_per_grant", first.msgs_per_grant()),
        ],
        detail: vec![
            ("repetitions", run.reps.len().to_string()),
            (
                "run_ms",
                format!(
                    "{:?}",
                    run_ns
                        .iter()
                        .map(|v| (v / 1e4).round() / 100.0)
                        .collect::<Vec<_>>()
                ),
            ),
            ("events_per_s", format!("{:.0}", eps(q1))),
            (
                "events_per_s_median",
                format!("{:.0}", eps(median(&run_ns))),
            ),
            ("events_per_s_slowest_quarter", format!("{:.0}", eps(q3))),
            ("events", first.events.to_string()),
            ("grants", first.grants.to_string()),
            ("final_ticks", first.final_ticks.to_string()),
            ("wait_p50_ticks", first.wait_p50_ticks.to_string()),
            ("wait_p99_ticks", first.wait_p99_ticks.to_string()),
            ("wait_p999_ticks", first.wait_p999_ticks.to_string()),
            ("lease_grants", first.lease_grants.to_string()),
            ("grant_digest", format!("\"{:016x}\"", first.digest)),
            ("repeatable", run.repeatable.to_string()),
            ("shard_invariant", invariant.to_string()),
        ],
    }
}

fn sim_traced(cell: sim::Cell, opts: &Opts, shape: Shape, tracer: &mut Tracer) -> Outcome {
    // Alternate kept and unkept spans repetition by repetition; the
    // simulator is traced only around whole calls, so the two rates
    // should agree to within their noise.
    let first = sim::run_once(cell, opts.seed, tracer, 0);
    let started = Instant::now();
    let (mut kept, mut unkept) = (Vec::new(), Vec::new());
    let (mut failed, mut attempted, mut repeatable) = (first.failed, 0, true);
    while started.elapsed().as_secs_f64() < shape.window || unkept.len() < shape.min_reps {
        for keep in [true, false] {
            tracer.keep = keep;
            let rep = sim::run_once(cell, opts.seed, tracer, 0);
            failed += rep.failed;
            attempted += rep.requests;
            repeatable &= rep.exact() == first.exact();
            if keep { &mut kept } else { &mut unkept }.push(rep.run_ns as f64);
        }
    }
    tracer.keep = true;
    let invariant = shard_invariant(cell, opts.seed, &first, tracer);
    Outcome {
        correct: failed == 0 && repeatable && invariant,
        attempted: attempted.max(1),
        failed,
        metrics: vec![(
            "trace.overhead_share",
            overhead_share(1.0 / median(&unkept), 1.0 / median(&kept)),
        )],
        detail: vec![("repetitions", (kept.len() + unkept.len()).to_string())],
    }
}

fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
            PathBuf::from,
        )
        .join("dmxbench")
}

/// Runs `workload` once, traced or not.
fn run_workload(workload: &spec::Workload, opts: &Opts) -> Outcome {
    let shape = Shape::of(opts);
    let svc_spec = svc::spec_of(workload.name);
    let cell = sim::cell_of(workload.name);
    if !opts.trace {
        let mut outcome = match workload.class {
            Class::Svc => svc_untraced(svc_spec.expect("declared svc"), opts, shape),
            Class::Sim => sim_untraced(cell.expect("declared sim"), opts, shape),
        };
        let rss = host::peak_rss_mb();
        outcome.correct &= rss.is_some();
        outcome
            .metrics
            .push(("peak_rss_mb", rss.unwrap_or(f64::NAN)));
        return outcome;
    }
    let mut tracer = Tracer::new(Instant::now(), true);
    let mut outcome = match workload.class {
        Class::Svc => svc_traced(svc_spec.expect("declared svc"), opts, shape, &mut tracer),
        Class::Sim => sim_traced(cell.expect("declared sim"), opts, shape, &mut tracer),
    };
    let kernels = kernels::run(opts.seed, shape.budget, &mut tracer, 0);
    outcome.correct &= kernels.correct;
    outcome.metrics.extend(kernels.metrics);
    outcome.detail.push(("spans", tracer.len().to_string()));
    let summary = tracer.summary();
    match tracer.write(&trace_dir(), workload.name, &summary) {
        Ok(path) => outcome
            .detail
            .push(("trace_file", format!("\"{}\"", path.display()))),
        Err(e) => {
            eprintln!("dmxbench: cannot write the trace file: {e}");
            outcome.correct = false;
        }
    }
    for row in summary {
        eprintln!(
            "span {:<40} spans {:>8} calls {:>10} total {:>10.3} ms self {:>10.3} ms",
            row.name,
            row.spans,
            row.calls,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
    outcome
}

/// The judged line: exactly the declared metrics, in declared order.
/// A metric that is missing or not finite makes the run incorrect.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let declared: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    assert_eq!(
        outcome.metrics.len(),
        declared.len(),
        "a run reports each declared metric once"
    );
    let mut correct = outcome.correct;
    let mut fields = Vec::with_capacity(declared.len());
    for name in declared {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        correct &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec::unit_of(name)
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    )
}

/// The line in front of it: host stamp, run manifest, diagnostics.
fn detail_line(workload: &str, opts: &Opts, outcome: &Outcome) -> String {
    let shape = Shape::of(opts);
    let detail: Vec<String> = outcome
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"dmxbench\": \"{workload}\", \"host\": {}, \"run\": {{\"seed\": {}, \"callers\": {}, \
         \"warmup_s\": {}, \"window_s\": {}, \"trace\": {}, \"smoke\": {}, \"note\": \"{NOTE}\"}}, \
         \"detail\": {{{}}}}}",
        host::Host::detect().json(),
        opts.seed,
        svc::CALLERS,
        shape.warmup,
        shape.window,
        opts.trace,
        opts.smoke,
        detail.join(", ")
    )
}

/// A child's judged line, parsed back.
struct Parsed {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Only ever reads what [`result_line`] wrote.
fn parse_result(line: &str) -> Option<Parsed> {
    let number = |key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        rest[..rest.find([',', '}'])?].trim().parse().ok()
    };
    let correct = line.contains("\"correct\": true");
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = Vec::new();
    for part in body.split("\"}") {
        let Some((name, rest)) = part
            .trim_start_matches([',', ' '])
            .split_once("\": {\"value\": ")
        else {
            continue;
        };
        let value = rest.split(',').next()?.parse().ok()?;
        metrics.push((name.trim_start_matches('"').to_string(), value));
    }
    Some(Parsed {
        correct,
        attempted: number("\"attempted\": ")?,
        failed: number("\"failed\": ")?,
        metrics,
    })
}

/// Re-executes this binary for one workload (a fresh process each) and
/// returns its standard output.
fn child(workload: &str, opts: &Opts, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

fn run_all(opts: &Opts) -> Result<bool, String> {
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for w in &WORKLOADS {
        let stdout = child(w.name, opts, opts.seed)?;
        let last = stdout.lines().last().unwrap_or_default();
        let result = parse_result(last).ok_or("a child printed no result")?;
        print!("{stdout}");
        correct &= result.correct;
        attempted += result.attempted;
        failed += result.failed;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {}}}",
        WORKLOADS.len()
    );
    Ok(correct)
}

/// Runs the full set `sets` times on this build (seed + i for set i)
/// and prints, per workload and end-to-end metric, median, quartiles,
/// spread and the declared bound. A spread wider than the bound leaves
/// the metric *unresolved*: it cannot be called unchanged.
fn run_aa(sets: usize, opts: &Opts) -> Result<bool, String> {
    let mut correct = true;
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for set in 0..sets {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let stdout = child(workload.name, opts, opts.seed + set as u64)?;
            let last = stdout.lines().last().unwrap_or_default();
            let result = parse_result(last).ok_or("a child printed no result")?;
            correct &= result.correct && result.failed == 0;
            for (m, metric) in END_TO_END.iter().enumerate() {
                let (_, v) = result
                    .metrics
                    .iter()
                    .find(|(n, _)| n == metric.name)
                    .ok_or_else(|| format!("{} did not report {}", workload.name, metric.name))?;
                values[w][m].push(*v);
            }
            eprintln!("aa set {}/{sets}: {} done", set + 1, workload.name);
        }
    }
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let (q1, q3) = stats::quartiles(v);
            let spread = stats::spread(v);
            println!(
                "{{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"n\": {}, \
                 \"median\": {}, \"q1\": {q1}, \"q3\": {q3}, \"spread\": {spread:.4}, \
                 \"bound\": {}, \"status\": \"{}\"}}",
                workload.name,
                metric.name,
                metric.unit,
                v.len(),
                median(v),
                metric.bound,
                if spread > metric.bound {
                    "unresolved"
                } else {
                    "resolved"
                }
            );
        }
    }
    println!("{{\"correct\": {correct}, \"sets\": {sets}}}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("dmxbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.manifest {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if opts.list {
        for w in &WORKLOADS {
            println!("{:<20} {}", w.name, w.why);
        }
        return ExitCode::SUCCESS;
    }
    let many = match (opts.aa, opts.workload.as_deref()) {
        (Some(sets), _) => Some(run_aa(sets, &opts)),
        (None, Some("all")) => Some(run_all(&opts)),
        _ => None,
    };
    if let Some(result) = many {
        return match result {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("dmxbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = opts.workload.as_deref().and_then(spec::workload) else {
        eprintln!("dmxbench: name a workload (see --list)\n{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = run_workload(workload, &opts);
    println!("{}", detail_line(workload.name, &opts, &outcome));
    let line = result_line(&outcome, opts.trace);
    println!("{line}");
    if line.starts_with("{\"correct\": true") && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> (Outcome, String) {
        let opts = Opts {
            trace,
            smoke: true,
            ..parse_args(&[]).expect("defaults parse")
        };
        let outcome = run_workload(spec::workload(workload).expect("declared"), &opts);
        let line = result_line(&outcome, trace);
        (outcome, line)
    }

    fn assert_reports(line: &str, declared: Vec<&str>) {
        let result = parse_result(line).expect("a result line");
        assert!(result.correct, "{line}");
        assert!(result.attempted >= 1);
        assert_eq!(result.failed, 0, "{line}");
        let names: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, declared);
        assert!(result.metrics.iter().all(|(_, v)| v.is_finite()), "{line}");
    }

    #[test]
    fn benchmark_json_is_the_committed_file() {
        assert_eq!(spec::benchmark_json(), include_str!("../../BENCHMARK.json"));
    }

    #[test]
    fn smoke_reports_exactly_the_declared_end_to_end_metrics() {
        for w in &WORKLOADS {
            let (outcome, line) = smoke(w.name, false);
            assert_reports(&line, END_TO_END.iter().map(|m| m.name).collect());
            assert!(
                outcome.metrics.iter().all(|&(_, v)| v > 0.0),
                "end-to-end metrics are never 0: {line}"
            );
        }
    }

    #[test]
    fn smoke_trace_reports_exactly_the_declared_per_layer_metrics() {
        // The kernels do not depend on the traced workload; one of each
        // class covers both traced paths.
        for workload in ["svc_space_home", "sim_space_tenant"] {
            let (_, line) = smoke(workload, true);
            assert_reports(&line, PER_LAYER.iter().map(|m| m.name).collect());
        }
    }

    #[test]
    fn arguments_accept_the_driver_form_and_the_bare_flag() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let o = parse("--workload sim_par_uniform --seed 7 --seconds 3 --trace 0").unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, false));
        assert!(parse("--workload x --trace 1").unwrap().trace);
        assert!(parse("--trace --workload x").unwrap().trace);
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--aa 1").is_err());
    }
}
