//! One module per reproduced table/figure. See the crate docs for the
//! experiment ↔ paper mapping; `repro <id>` prints any of them.

pub mod average_bound;
pub mod fairness;
pub mod hub_placement;
pub mod load_sweep;
pub mod lock_scaling;
pub mod parallel_scaling;
pub mod path_length;
pub mod scaling;
pub mod skew;
pub mod snapshot_storm;
mod space_cell;
pub mod storage;
pub mod sync_delay;
pub mod topology_sweep;
pub mod traces;
pub mod upper_bound;

pub use space_cell::{Hubs, Load, SpaceCell, SpaceMeasurement, AFFINITY};

use dmx_simnet::{EngineConfig, Time};
use dmx_topology::{NodeId, Tree};
use dmx_workload::SingleShot;

use crate::{run_algorithm, Algorithm, Scenario};

/// Message cost of one isolated request by `requester` with the token
/// initially at `holder` (ignored by algorithms without a movable
/// token). Deterministic: unit latency, no contention.
///
/// # Examples
///
/// ```
/// use dmx_harness::{experiments::isolated_cost, Algorithm};
/// use dmx_topology::{NodeId, Tree};
///
/// let star = Tree::star(5);
/// assert_eq!(isolated_cost(Algorithm::Dag, &star, NodeId(1), NodeId(2)), 3);
/// ```
pub fn isolated_cost(algo: Algorithm, tree: &Tree, holder: NodeId, requester: NodeId) -> u64 {
    let config = EngineConfig {
        record_trace: false,
        ..EngineConfig::default()
    };
    let scenario = Scenario {
        tree,
        holder,
        config,
    };
    let mut shot = SingleShot::new(vec![(Time(0), requester)]);
    run_algorithm(algo, &scenario, &mut shot)
        .expect("isolated request cannot starve")
        .messages_total
}

/// Worst-case and mean isolated-request cost over all placements the
/// algorithm admits: `(holder, requester)` pairs for movable-token
/// algorithms, all requesters otherwise. This is exactly the averaging
/// Chapter 6.2 performs ("each node has an equal likelihood of holding
/// the token").
///
/// # Examples
///
/// ```
/// use dmx_harness::{experiments::isolated_worst_and_mean, Algorithm};
/// use dmx_topology::Tree;
///
/// let (worst, _mean) = isolated_worst_and_mean(Algorithm::Dag, &Tree::star(5));
/// assert_eq!(worst, 3);
/// ```
pub fn isolated_worst_and_mean(algo: Algorithm, tree: &Tree) -> (u64, f64) {
    let n = tree.len();
    let holders: Vec<NodeId> = if algo.has_movable_token() {
        tree.nodes().collect()
    } else {
        vec![NodeId(0)]
    };
    let mut worst = 0u64;
    let mut total = 0u64;
    let mut runs = 0u64;
    for &h in &holders {
        for r in tree.nodes() {
            let cost = isolated_cost(algo, tree, h, r);
            worst = worst.max(cost);
            total += cost;
            runs += 1;
        }
    }
    let _ = n;
    (worst, total as f64 / runs as f64)
}
