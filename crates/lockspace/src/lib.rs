//! `dmx-lockspace` — a sharded multi-lock service multiplexing many
//! DAG-protocol instances over one network.
//!
//! Everything else in this workspace arbitrates exactly *one* critical
//! section. A production lock service arbitrates **many independent
//! named locks** — and the paper's algorithm is the ideal per-key
//! primitive for that: per-key state is just `HOLDING`/`NEXT`/`FOLLOW`
//! (three words), messages are O(log n) per entry on good topologies,
//! and there is no central queue to shard. This crate hosts `K`
//! independent lock instances behind a single [`Protocol`] impl per
//! node, so one deterministic engine run carries traffic for thousands
//! of keys over shared FIFO links:
//!
//! * [`LockTable`] — each node's sharded `LockId -> DagNode` map, lazily
//!   materialized so untouched keys cost nothing;
//! * [`KeyAgent`] — one node's sans-IO per-key logic for every
//!   claim-driven driver (the session below and all three threaded
//!   backends of `dmx-runtime`): materialize the instance, run one
//!   handler, resolve the grant against the local claim (waiting /
//!   abandoned / adopted), emitting [`AgentEvent`]s;
//! * [`Envelope`] — the wire format: one delivery carries one keyed
//!   message, or (batching on) *many keys'* messages for the same
//!   destination, with pooled payload buffers so the steady-state hot
//!   path stays allocation-free;
//! * [`Transport`]/[`FlushPolicy`] — the coalescing layer both
//!   lock-space runtimes (this crate's simulated one and
//!   `dmx-runtime`'s threaded cluster) share: staged sends, stable
//!   destination grouping, and Nagle-style flush windows that trade
//!   latency for envelope count;
//! * [`LockSpace`]/[`LockSpaceNode`] — the per-node protocol driving
//!   request arrivals and hold durations off the engine's timer facility
//!   (the engine's single-lock safety machinery cannot describe K
//!   concurrently-held keys);
//! * [`LockSpaceMonitor`] — per-key safety/liveness verdicts and per-key
//!   metric rollups, backed by the keyed oracles in `dmx-simnet`;
//! * [`ScriptedClient`]/[`SessionMonitor`] (the [`session`] module) —
//!   sim-parity client sessions: the same lock/try/timeout/deadline/
//!   multi-key [`Script`](dmx_workload::Script) that runs against the
//!   threaded clusters runs here under the deterministic engine, with
//!   identical per-step outcomes.
//!
//! [`Protocol`]: dmx_simnet::Protocol
//!
//! # Examples
//!
//! Sixty-four keys over a 15-node tree under Zipf-skewed demand:
//!
//! ```
//! use dmx_lockspace::{LockSpace, LockSpaceConfig};
//! use dmx_simnet::{Engine, EngineConfig, LatencyModel, Time};
//! use dmx_topology::Tree;
//! use dmx_workload::{KeyDist, KeyedThinkTime};
//!
//! let tree = Tree::kary(15, 2);
//! let workload = KeyedThinkTime::new(
//!     64,
//!     KeyDist::Zipf { exponent: 1.2 },
//!     LatencyModel::Fixed(Time(3)),
//!     10, // rounds per node
//!     42,
//! );
//! let config = LockSpaceConfig { keys: 64, ..LockSpaceConfig::default() };
//! let (nodes, monitor) = LockSpace::cluster(&tree, config, &workload);
//!
//! let mut engine = Engine::new(nodes, EngineConfig::default());
//! engine.run_to_quiescence()?;
//! monitor.check_quiescent().expect("per-key safety and liveness hold");
//!
//! let rollup = monitor.rollup();
//! assert_eq!(rollup.grants, 15 * 10);
//! assert!(rollup.keys_touched > 1, "Zipf still spreads past key 0");
//! assert!(monitor.peak_concurrent_holders() > 1, "distinct keys overlap");
//! # Ok::<(), dmx_simnet::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
mod envelope;
pub mod parallel;
pub mod session;
mod space;
mod table;
pub mod transport;

pub use agent::{Abandon, AgentEvent, Claim, KeyAgent};
pub use envelope::{Envelope, BATCH_HEADER_BYTES};
pub use parallel::{ParallelConfig, ParallelEngine, ParallelReport, ShardMap, WindowPolicy};
pub use session::{ScriptedClient, SessionConfig, SessionMonitor};
pub use space::{
    LeaseConfig, LockSpace, LockSpaceConfig, LockSpaceMonitor, LockSpaceNode, OrientationCache,
    Placement,
};
pub use table::LockTable;
pub use transport::{BatchPool, FlushPolicy, Transport};
