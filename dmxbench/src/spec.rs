//! What the benchmark declares: workloads, metrics, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is
//! this table rendered by [`benchmark_json`]; a unit test pins the
//! two byte for byte, so the file cannot drift from the code.

/// Which half of the system a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Threaded lock service under wall-clock closed-loop callers.
    Svc,
    /// Discrete-event simulator timed in host seconds.
    Sim,
}

pub struct Workload {
    pub name: &'static str,
    pub class: Class,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Length of one run's timed window; service workloads spend
/// [`WARMUP_SECONDS`] of unmeasured load in front of it.
pub const RUN_SECONDS: u32 = 14;
pub const WARMUP_SECONDS: f64 = 1.0;

/// Directory the benchmark lives in, relative to the repository root.
pub const DIR: &str = "dmxbench";

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "svc_chan_handoff",
        class: Class::Svc,
        why: "Cluster over in-process channels, 1 key, 2 closed-loop callers: ~86% remote hand-offs through node_main and channel hops; bypasses table, transport and sockets.",
    },
    Workload {
        name: "svc_tcp_handoff",
        class: Class::Svc,
        why: "TcpCluster, same script and seed as svc_chan_handoff: the same node loop over loopback sockets and 9-byte frames, so a framing change moves only this one.",
    },
    Workload {
        name: "svc_space_uniform",
        class: Class::Svc,
        why: "LockSpaceCluster, 64 keys, uniform draws: the remote-dominated path through router, worker, Transport and envelopes to the peer router.",
    },
    Workload {
        name: "svc_space_home",
        class: Class::Svc,
        why: "Same cluster, 90% of draws are keys homed at the calling node: the parked-token fast path; hop-path work should not move it, local round-trip delays show here first.",
    },
    Workload {
        name: "sim_lock_saturated",
        class: Class::Sim,
        why: "Engine<DagProtocol>, 127-node binary tree, saturated demand, trace off: scheduler, dispatch, DagNode and the single-lock oracle with no lock space (the BENCH_PR1 cell x2).",
    },
    Workload {
        name: "sim_space_uniform",
        class: Class::Sim,
        why: "LockSpace, 4096 keys x 127 nodes, uniform think-time demand, Window(16) batching: LockTable probes beyond L1, Transport stage/flush and the keyed oracles.",
    },
    Workload {
        name: "sim_space_tenant",
        class: Class::Sim,
        why: "LockSpace, 64 keys, zipf-1.1 home-affinity demand, profile placement, leases (2,4): the lease clock and on_wake path over a tiny table, so table work should not move it.",
    },
    Workload {
        name: "sim_par_uniform",
        class: Class::Sim,
        why: "ParallelEngine, 2 shard threads, paced demand over 4096 keys, Fixed(64) windows: barrier rendezvous and merge, the repository's wall-clock parallel number.",
    },
];

/// Every workload reports every one of these (the driver's contract),
/// so each has one meaning per workload class; see the README's
/// end-to-end table for the two definitions. The bounds are sized to
/// the host, not to the program: on the 2-vCPU guest this was sized on,
/// a quiet hour repeats every timing within 2-7%, and a noisy one
/// spreads ten identical runs of a service workload by 13-24%.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "grants_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "acquire_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "acquire_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "msgs_per_grant",
        unit: "msgs/grant",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer names are the workspace's module names. Every traced run
/// reports all of them: the kernels do not depend on the workload, and
/// the `trace.*` rows describe the workload that was traced.
pub const PER_LAYER: [PerLayer; 55] = [
    layer("topology.tree.build_us", "us", "lower"),
    layer("topology.orientation.next_hop_cold_ns", "ns", "lower"),
    layer("topology.orientation.next_hop_warm_ns", "ns", "lower"),
    layer("core.node.handler_ns", "ns", "lower"),
    layer("core.node.msgs_per_grant", "msgs/grant", "lower"),
    layer("simnet.sched.heap_push_pop_ns", "ns", "lower"),
    layer("simnet.sched.wheel_push_pop_ns", "ns", "lower"),
    layer("simnet.engine.dispatch_ns", "ns", "lower"),
    layer("simnet.engine.enter_exit_ns", "ns", "lower"),
    layer("simnet.engine.events_per_s", "1/s", "higher"),
    layer("simnet.engine.wait_p99_ticks", "ticks", "lower"),
    layer("simnet.metrics.histogram_record_ns", "ns", "lower"),
    layer("simnet.metrics.report_clone_ns", "ns", "lower"),
    layer("simnet.checker.keyed_grant_ns", "ns", "lower"),
    layer("lockspace.table.hit_ns", "ns", "lower"),
    layer("lockspace.table.insert_ns", "ns", "lower"),
    layer("lockspace.transport.stage_flush_ns", "ns", "lower"),
    layer("lockspace.transport.envelopes_per_msg", "ratio", "lower"),
    layer("lockspace.space.events_per_s", "1/s", "higher"),
    layer("lockspace.space.overhead_ns", "ns", "lower"),
    layer("lockspace.space.wait_p99_ticks", "ticks", "lower"),
    layer("lockspace.lease.events_per_s", "1/s", "higher"),
    layer("lockspace.lease.share", "ratio", "higher"),
    layer("lockspace.lease.wait_p99_ticks", "ticks", "lower"),
    layer("lockspace.parallel.events_per_s", "1/s", "higher"),
    layer("lockspace.parallel.wall_speedup", "ratio", "higher"),
    layer("lockspace.parallel.barrier_share", "ratio", "lower"),
    layer("lockspace.parallel.imbalance", "ratio", "lower"),
    layer("lockspace.parallel.windows", "count", "lower"),
    layer("lockspace.parallel.wait_p99_ticks", "ticks", "lower"),
    layer("runtime.cluster.parked_ns", "ns", "lower"),
    layer("runtime.cluster.handoff_ns", "ns", "lower"),
    layer("runtime.cluster.hop_ns", "ns", "lower"),
    layer("runtime.cluster.start_us", "us", "lower"),
    layer("runtime.cluster.shutdown_us", "us", "lower"),
    layer("runtime.cluster.msgs_per_grant", "msgs/grant", "lower"),
    layer("runtime.tcp.parked_ns", "ns", "lower"),
    layer("runtime.tcp.handoff_ns", "ns", "lower"),
    layer("runtime.tcp.hop_ns", "ns", "lower"),
    layer("runtime.tcp.start_us", "us", "lower"),
    layer("runtime.tcp.shutdown_us", "us", "lower"),
    layer("runtime.tcp.msgs_per_grant", "msgs/grant", "lower"),
    layer("runtime.lockspace.parked_ns", "ns", "lower"),
    layer("runtime.lockspace.handoff_ns", "ns", "lower"),
    layer("runtime.lockspace.hop_ns", "ns", "lower"),
    layer("runtime.lockspace.start_us", "us", "lower"),
    layer("runtime.lockspace.shutdown_us", "us", "lower"),
    layer("runtime.lockspace.msgs_per_grant", "msgs/grant", "lower"),
    layer("runtime.lockspace.envelopes_per_msg", "ratio", "lower"),
    layer("runtime.snapshot.capture_us", "us", "lower"),
    layer("runtime.client.acquire_p999_us", "us", "lower"),
    layer("workload.keyed.sample_ns", "ns", "lower"),
    layer("baselines.raymond.events_per_s", "1/s", "higher"),
    layer("baselines.raymond.msgs_per_grant", "msgs/grant", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == metric)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {metric} is not declared in spec.rs"))
}

/// The committed `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"{DIR}/Cargo.toml\", \"--\"],\n"
    ));
    out.push_str(&format!("  \"paths\": [\"{DIR}\"],\n"));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
