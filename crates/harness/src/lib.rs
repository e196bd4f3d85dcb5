//! Experiment harness: one driver per table and figure of the paper's
//! evaluation (Chapter 6 plus the worked figures), each printing the rows
//! the paper reports next to the values measured on this implementation.
//!
//! | Experiment id | Paper artifact | Driver |
//! |---------------|----------------|--------|
//! | `tab6_1` | §6.1 upper-bound comparison | [`experiments::upper_bound`] |
//! | `tab6_2` | §6.2 average bound on the star | [`experiments::average_bound`] |
//! | `tab6_3` | §6.3 synchronization delay | [`experiments::sync_delay`] |
//! | `tab6_4` | §6.4 storage overhead | [`experiments::storage`] |
//! | `fig2`, `fig6` | worked examples | [`experiments::traces`] |
//! | `fig8` | centralized-topology optimality | [`experiments::topology_sweep`] |
//! | `ext_load` | heavy-demand extension | [`experiments::load_sweep`] |
//! | `ext_scale` | N-scaling extension | [`experiments::scaling`] |
//! | `ext_hub` | weighted hub placement extension | [`experiments::hub_placement`] |
//! | `ext_fair` | fairness extension | [`experiments::fairness`] |
//! | `ext_lock` | lock-space scaling (keys × skew × n) | [`experiments::lock_scaling`] |
//! | `ext_window` | coalescing-window sweep (window × keys × n) | [`experiments::lock_scaling::run_windows`] |
//! | `ext_skew` | leases × hub placement × skew vs a quorum baseline | [`experiments::skew`] |
//! | `ext_par`, `ext_mega` | parallel tick-barrier scaling | [`experiments::parallel_scaling`] |
//! | `ext_path` | REQUEST path lengths vs Lavault's O(log n) bound | [`experiments::path_length`] |
//! | `ext_snap` | live consistent cuts of a threaded cluster | [`experiments::snapshot_storm`] |
//!
//! Every cell these tables print is a deterministic *count* (messages,
//! envelopes, ticks, hops) — `ext_snap`, a live threaded storm, excepted.
//! Wall-clock time is measured by `dmxbench/` alone; the lock-space
//! drivers all build their runs from one [`experiments::SpaceCell`].
//!
//! Run them all with `cargo run -p dmx-harness --bin repro --release`, or
//! a single one by id: `cargo run -p dmx-harness --bin repro -- tab6_1`.
//!
//! # Examples
//!
//! ```no_run
//! // Regenerate the paper's §6.2 average-bound numbers:
//! let table = dmx_harness::experiments::average_bound::run(&[4, 8, 16]);
//! println!("{table}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod registry;
mod table;

pub use registry::{run_algorithm, Algorithm, Scenario};
pub use table::Table;
