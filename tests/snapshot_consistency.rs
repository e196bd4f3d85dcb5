//! Storm-time consistency of Chandy–Lamport cuts.
//!
//! Property: a [`LockSpaceCluster::snapshot`] taken while client
//! threads hammer the space is a *consistent* global state — every key
//! shows exactly one privilege across node tables, staged transports,
//! and per-channel recordings (plus the implicit token of an untouched
//! hub), and the recordings themselves respect the marker protocol (a
//! node never records its own channel, and every channel's recording is
//! closed by the time the cut is returned).
//!
//! The ledger is recomputed here from the raw slices, independently of
//! [`LockSpaceSnapshot::verify`], so the oracle and the protocol cannot
//! share a blind spot.
//!
//! [`LockSpaceCluster::snapshot`]: dmx_runtime::LockSpaceCluster::snapshot
//! [`LockSpaceSnapshot::verify`]: dmx_runtime::LockSpaceSnapshot::verify

use dmx_core::{DagMessage, LockId};
use dmx_lockspace::{FlushPolicy, Placement};
use dmx_runtime::{LockSpaceCluster, LockSpaceClusterConfig};
use dmx_topology::Tree;
use proptest::prelude::*;

/// Runs `rounds` lock/unlock cycles per node while the main thread
/// captures `snapshots` cuts, checking each one.
fn storm_with_snapshots(
    tree: &Tree,
    keys: u32,
    workers: usize,
    flush: FlushPolicy,
    rounds: u32,
    snapshots: usize,
) -> Result<(), TestCaseError> {
    let placement = Placement::Modulo;
    let config = LockSpaceClusterConfig {
        keys,
        placement: placement.clone(),
        workers,
        flush,
    };
    let (cluster, clients) = LockSpaceCluster::start_with(tree, config);
    let n = cluster.len();
    let mut threads = Vec::new();
    for (i, mut client) in clients.into_iter().enumerate() {
        threads.push(std::thread::spawn(move || {
            for round in 0..rounds {
                let key = LockId(round.wrapping_mul(13).wrapping_add(i as u32 * 5) % keys);
                drop(client.lock(key).wait().unwrap());
            }
        }));
    }

    for _ in 0..snapshots {
        let snapshot = cluster.snapshot();
        let summary = snapshot
            .verify()
            .map_err(|v| TestCaseError::fail(format!("inconsistent cut: {v:?}")))?;
        prop_assert_eq!(
            summary.staged_messages + summary.recorded_messages,
            snapshot.in_flight_messages()
        );

        // Recount the privilege ledger from the raw slices.
        let mut privileges = vec![0usize; keys as usize];
        let mut hub_touched = vec![false; keys as usize];
        for cut in snapshot.cuts() {
            prop_assert_eq!(cut.in_flight.len(), n);
            prop_assert!(
                cut.in_flight[cut.node.index()].is_empty(),
                "node {} recorded its own (nonexistent) channel",
                cut.node
            );
            for kc in &cut.keys {
                if kc.has_token {
                    privileges[kc.key.index()] += 1;
                }
                if cut.node == placement.hub(kc.key, n) {
                    hub_touched[kc.key.index()] = true;
                }
            }
            let in_flight = cut
                .staged
                .iter()
                .map(|(_, msg)| msg)
                .chain(cut.in_flight.iter().flatten());
            for msg in in_flight {
                if matches!(msg.msg, DagMessage::Privilege) {
                    privileges[msg.lock.index()] += 1;
                }
            }
        }
        for (key, &found) in privileges.iter().enumerate() {
            let total = found + usize::from(!hub_touched[key]);
            prop_assert_eq!(total, 1, "key {} carries {} privileges", key, total);
        }
    }

    for t in threads {
        t.join().unwrap();
    }
    let stats = cluster.shutdown();
    prop_assert_eq!(stats.entries, u64::from(rounds) * n as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn storm_time_cuts_have_exactly_one_privilege_per_key(
        shape in 0usize..3,
        n in 3usize..7,
        keys in 1u32..10,
        workers in 1usize..5,
        window in 1u64..5,
        rounds in 4u32..24,
        snapshots in 1usize..4,
    ) {
        let tree = match shape {
            0 => Tree::star(n),
            1 => Tree::line(n),
            _ => Tree::kary(n, 2),
        };
        storm_with_snapshots(
            &tree,
            keys,
            workers,
            FlushPolicy::Window(window),
            rounds,
            snapshots,
        )?;
    }
}
