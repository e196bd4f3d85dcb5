//! `ext_hub` — weighted hub placement (extension of Chapter 6.2).
//!
//! The paper's optimality argument for the star assumes uniform demand.
//! With skewed demand the choice of *which* node sits at the hub
//! matters: every transfer involving the hub costs 2 messages instead
//! of 3. `dmx_topology::placement` predicts the steady-state cost
//! exactly; this experiment validates the prediction by simulating long
//! serialized request sequences drawn from the same weight distribution
//! and measuring actual message counts.

use dmx_simnet::{EngineConfig, Time};
use dmx_topology::{placement, NodeId};
use dmx_workload::SingleShot;
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::fmt_f64;
use crate::{run_algorithm, Algorithm, Scenario, Table};

/// Simulates `entries` consecutive critical-section users drawn from
/// `weights` on a star with the given hub, and returns measured mean
/// messages per entry. The token starts at the first user, so every
/// entry is a steady-state transfer.
pub fn measured_cost(weights: &[f64], hub: NodeId, entries: usize, seed: u64) -> f64 {
    let n = weights.len();
    let tree = placement::star_with_hub(n, hub);
    let dist = WeightedIndex::new(weights).expect("valid weights");
    let mut rng = StdRng::seed_from_u64(seed);
    let users: Vec<NodeId> = (0..entries)
        .map(|_| NodeId::from_index(dist.sample(&mut rng)))
        .collect();
    // Serialize: each request far after the previous one completes.
    let schedule: Vec<(Time, NodeId)> = users
        .iter()
        .enumerate()
        .map(|(i, &u)| (Time(i as u64 * 100), u))
        .collect();
    let config = EngineConfig {
        record_trace: false,
        ..EngineConfig::default()
    };
    let scenario = Scenario {
        tree: &tree,
        holder: users[0],
        config,
    };
    let metrics = run_algorithm(Algorithm::Dag, &scenario, &mut SingleShot::new(schedule))
        .expect("serialized runs cannot starve");
    metrics.messages_total as f64 / metrics.cs_entries as f64
}

/// Regenerates the hub-placement comparison for a hotspot distribution
/// over `n` nodes where `hot` issues `hot_share` of all requests.
///
/// # Examples
///
/// ```
/// let t = dmx_harness::experiments::hub_placement::run(8, dmx_topology::NodeId(5), 0.6, 2_000);
/// assert_eq!(t.len(), 3);
/// ```
pub fn run(n: usize, hot: NodeId, hot_share: f64, entries: usize) -> Table {
    let cold_share = (1.0 - hot_share) / (n - 1) as f64;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            if i == hot.index() {
                hot_share
            } else {
                cold_share
            }
        })
        .collect();

    let (best_hub, best_cost) = placement::optimal_star_hub(&weights);
    let cold_hub = NodeId::from_index(if hot.index() == 0 { 1 } else { 0 });

    let mut table = Table::new(
        &format!(
            "Hub placement — star of {n}, node {hot} issues {:.0}% of requests (predicted vs simulated)",
            hot_share * 100.0
        ),
        &["hub", "predicted msgs/entry", "measured msgs/entry"],
    );
    for (label, hub) in [
        (format!("hot node {hot}"), hot),
        (format!("cold node {cold_hub}"), cold_hub),
        (format!("optimal ({best_hub})"), best_hub),
    ] {
        let predicted =
            placement::expected_messages_per_entry(&placement::star_with_hub(n, hub), &weights);
        let measured = measured_cost(&weights, hub, entries, 42);
        table.row(&[label, fmt_f64(predicted), fmt_f64(measured)]);
    }
    let _ = best_cost;
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_matches_simulation() {
        let weights = [0.05, 0.05, 0.6, 0.1, 0.1, 0.1];
        for hub in [NodeId(2), NodeId(0)] {
            let predicted =
                placement::expected_messages_per_entry(&placement::star_with_hub(6, hub), &weights);
            let measured = measured_cost(&weights, hub, 4_000, 7);
            assert!(
                (predicted - measured).abs() < 0.1,
                "hub {hub}: predicted {predicted:.3}, measured {measured:.3}"
            );
        }
    }

    #[test]
    fn hot_hub_beats_cold_hub_in_simulation() {
        let weights = [0.7, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05];
        let hot = measured_cost(&weights, NodeId(0), 3_000, 9);
        let cold = measured_cost(&weights, NodeId(3), 3_000, 9);
        assert!(
            hot < cold,
            "hot-hub {hot:.3} should beat cold-hub {cold:.3}"
        );
    }

    #[test]
    fn table_has_three_candidates() {
        let t = run(6, NodeId(2), 0.5, 500);
        assert_eq!(t.len(), 3);
        // Optimal row's prediction is the minimum of the three.
        let costs: Vec<f64> = (0..3).map(|r| t.cell(r, 1).parse().unwrap()).collect();
        assert!(costs[2] <= costs[0] + 1e-9 && costs[2] <= costs[1] + 1e-9);
    }
}
