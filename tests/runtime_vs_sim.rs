//! The threaded runtimes and the deterministic simulator run the *same*
//! pure state machine; on a serialized schedule they must therefore
//! exchange exactly the same messages — and a scripted client session
//! (lock / try / timeout / deadline / multi-key steps) must produce the
//! same per-step outcomes on every substrate.

use std::time::Duration;

use dagmutex::core::{DagProtocol, LockId};
use dagmutex::lockspace::{Placement, ScriptedClient, SessionConfig};
use dagmutex::runtime::{
    run_script, Cluster, LockService, LockSpaceCluster, LockSpaceClusterConfig,
};
use dagmutex::simnet::{Engine, EngineConfig, Time};
use dagmutex::topology::{NodeId, Tree};
use dagmutex::workload::{Outcome, Script};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the same serialized lock sequence on both substrates and
/// compares REQUEST/PRIVILEGE counts.
fn compare_on(tree: &Tree, holder: NodeId, sequence: &[NodeId]) {
    // Simulator: requests spaced far apart => fully serialized.
    let mut engine = Engine::new(DagProtocol::cluster(tree, holder), EngineConfig::default());
    for (i, &node) in sequence.iter().enumerate() {
        engine.request_at(Time(i as u64 * 1_000), node);
    }
    let report = engine.run_to_quiescence().expect("simulated run completes");

    // Threaded runtime: lock/unlock strictly in order from this thread.
    let (cluster, mut clients) = Cluster::start(tree, holder);
    for &node in sequence {
        let guard = clients[node.index()]
            .lock(LockId(0))
            .wait()
            .expect("cluster running");
        drop(guard);
    }
    let stats = cluster.shutdown();

    assert_eq!(stats.entries as usize, sequence.len());
    assert_eq!(
        stats.messages_total, report.metrics.messages_total,
        "message counts diverged on {tree:?} sequence {sequence:?}"
    );
    let requests: u64 = stats.per_node.iter().map(|s| s.requests_sent).sum();
    let privileges: u64 = stats.per_node.iter().map(|s| s.privileges_sent).sum();
    assert_eq!(requests, report.metrics.kind_count("REQUEST"));
    assert_eq!(privileges, report.metrics.kind_count("PRIVILEGE"));
}

#[test]
fn identical_counts_on_fixed_scenarios() {
    compare_on(
        &Tree::star(6),
        NodeId(2),
        &[NodeId(4), NodeId(0), NodeId(4), NodeId(5)],
    );
    compare_on(
        &Tree::line(5),
        NodeId(0),
        &[NodeId(4), NodeId(2), NodeId(0)],
    );
    compare_on(
        &Tree::kary(7, 2),
        NodeId(3),
        &[NodeId(6), NodeId(6), NodeId(1), NodeId(0), NodeId(5)],
    );
}

#[test]
fn identical_counts_on_random_scenarios() {
    let mut rng = StdRng::seed_from_u64(2024);
    for _ in 0..10 {
        let n = rng.gen_range(2..10);
        let tree = Tree::random(n, &mut rng);
        let holder = tree.random_node(&mut rng);
        let sequence: Vec<NodeId> = (0..rng.gen_range(1..12))
            .map(|_| tree.random_node(&mut rng))
            .collect();
        compare_on(&tree, holder, &sequence);
    }
}

#[test]
fn concurrent_runtime_matches_simulator_entry_count() {
    // Under true concurrency exact message counts depend on scheduling,
    // but the entry count and the ≤ (D+1) per-entry average must hold.
    let tree = Tree::star(8);
    let (cluster, clients) = Cluster::start(&tree, NodeId(0));
    let per_node = 25u64;
    let workers: Vec<_> = clients
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                for _ in 0..per_node {
                    drop(c.lock(LockId(0)).wait().expect("running"));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = cluster.shutdown();
    assert_eq!(stats.entries, per_node * 8);
    let bound = (tree.diameter() + 1) as f64;
    assert!(
        stats.messages_per_entry() <= bound,
        "average {} exceeds D+1 = {bound}",
        stats.messages_per_entry()
    );
}

// ---------------------------------------------------------------------
// Scripted sessions: identical client programs, identical outcomes.
// ---------------------------------------------------------------------

/// One wall-clock script tick in the threaded executor. Generous enough
/// that an uncontended grant always lands inside a timeout window, tiny
/// enough that timing out on a blocked key stays fast.
const TICK: Duration = Duration::from_millis(2);

/// Runs `script` under the simulator and against the threaded
/// `LockSpaceCluster` — once with one shard thread per node and once
/// with three, so the keys of a `lock_many` (and a timeout's abandon,
/// adoption and rollback) span different threads — asserting outcome
/// equality; returns the vector for scenario-specific assertions.
fn parity_on(
    tree: &Tree,
    keys: u32,
    placement: Placement,
    script: &Script,
) -> Vec<Option<Outcome>> {
    let config = SessionConfig {
        keys,
        placement: placement.clone(),
        ..SessionConfig::default()
    };
    let (nodes, monitor) = ScriptedClient::cluster(tree, config, script);
    let mut engine = Engine::new(nodes, EngineConfig::default());
    engine
        .run_to_quiescence()
        .expect("simulated session completes");
    let simulated = monitor.finish().expect("per-key safety holds");

    for workers in [1, 3] {
        let config = LockSpaceClusterConfig {
            keys,
            placement: placement.clone(),
            workers,
            ..LockSpaceClusterConfig::default()
        };
        let (cluster, mut clients) = LockSpaceCluster::start_with(tree, config);
        let threaded = run_script(&mut clients, script, TICK);
        drop(clients);
        cluster.shutdown();

        assert_eq!(
            simulated, threaded,
            "sim and threaded ({workers} shards/node) outcomes diverged on {tree:?}"
        );
    }
    simulated
}

#[test]
fn scripted_session_parity_on_basic_lock_try_release() {
    let tree = Tree::star(4);
    let script = Script::new()
        .lock(NodeId(2), LockId(3))
        .try_lock(NodeId(1), LockId(3)) // node 2 holds: refused
        .release(NodeId(1))
        .release(NodeId(2))
        .try_lock(NodeId(2), LockId(3)) // token parked at 2: granted
        .release(NodeId(2))
        .lock(NodeId(1), LockId(3)) // free now: granted
        .release(NodeId(1));
    let outcomes = parity_on(&tree, 8, Placement::Hub(NodeId(0)), &script);
    assert_eq!(
        outcomes,
        vec![
            Some(Outcome::Granted),
            Some(Outcome::WouldBlock),
            None,
            None,
            Some(Outcome::Granted),
            None,
            Some(Outcome::Granted),
            None,
        ]
    );
}

#[test]
fn scripted_session_parity_on_timeouts_and_deadlines() {
    let tree = Tree::kary(5, 2);
    let script = Script::new()
        .lock(NodeId(1), LockId(2))
        // Held by node 1 through this whole step: deterministic timeout.
        .lock_timeout(NodeId(3), LockId(2), Time(60))
        .release(NodeId(3))
        // A different key is granted well inside the window.
        .lock_timeout(NodeId(3), LockId(5), Time(600))
        .release(NodeId(3))
        .release(NodeId(1))
        // Elapsed deadline: fails on the spot, acquiring nothing.
        .lock_deadline(NodeId(2), LockId(2), Time(0))
        .release(NodeId(2))
        // Generous deadline: effectively a wait.
        .lock_deadline(NodeId(2), LockId(2), Time(1_000_000))
        .release(NodeId(2))
        // The abandoned privilege from step 1 bounced; key 2 is clean.
        .lock(NodeId(3), LockId(2))
        .release(NodeId(3))
        // Mid-range deadline in the *logical* past (step 12 issues at
        // logical tick 12 000, far beyond tick 500): must fail on every
        // substrate, even though 500 wall-clock ticks from the session
        // epoch would still be comfortably in the future on threads.
        .lock_deadline(NodeId(2), LockId(2), Time(500))
        .release(NodeId(2))
        // Mid-range deadline shortly *after* this step's logical tick:
        // the uncontended grant lands inside the remaining window.
        .lock_deadline(NodeId(2), LockId(2), Time(14_600))
        .release(NodeId(2));
    let outcomes = parity_on(&tree, 8, Placement::Modulo, &script);
    assert_eq!(
        outcomes,
        vec![
            Some(Outcome::Granted),
            Some(Outcome::TimedOut),
            None,
            Some(Outcome::Granted),
            None,
            None,
            Some(Outcome::DeadlineExceeded),
            None,
            Some(Outcome::Granted),
            None,
            Some(Outcome::Granted),
            None,
            Some(Outcome::DeadlineExceeded),
            None,
            Some(Outcome::Granted),
            None,
        ]
    );
}

#[test]
fn scripted_session_parity_on_multi_key_acquisition() {
    let tree = Tree::star(4);
    let script = Script::new()
        .lock(NodeId(1), LockId(6))
        // {2, 6}: takes 2, stalls on held 6, rolls 2 back on expiry.
        .lock_many_timeout(NodeId(2), &[LockId(6), LockId(2)], Time(80))
        .release(NodeId(2))
        // Key 2 must be free again after the rollback.
        .lock(NodeId(3), LockId(2))
        .release(NodeId(3))
        .release(NodeId(1))
        // All free: the whole (unsorted, duplicated) set is acquirable.
        .lock_many(NodeId(2), &[LockId(6), LockId(1), LockId(6), LockId(2)])
        .release(NodeId(2))
        // And a multi-key try right where the tokens parked.
        .lock_many(NodeId(2), &[LockId(1), LockId(2)])
        .release(NodeId(2));
    let outcomes = parity_on(&tree, 8, Placement::Hub(NodeId(0)), &script);
    assert_eq!(
        outcomes,
        vec![
            Some(Outcome::Granted),
            Some(Outcome::TimedOut),
            None,
            Some(Outcome::Granted),
            None,
            None,
            Some(Outcome::Granted),
            None,
            Some(Outcome::Granted),
            None,
        ]
    );
}

#[test]
fn scripted_session_parity_on_single_lock_backends() {
    // The same script on the single-lock substrates: simulated session
    // with one key vs the channel cluster vs TCP. (The lock-space
    // backend is covered by every other parity test.)
    let tree = Tree::line(3);
    let script = Script::new()
        .lock(NodeId(2), LockId(0))
        .try_lock(NodeId(0), LockId(0)) // held at node 2: refused
        .release(NodeId(0))
        .release(NodeId(2))
        .try_lock(NodeId(2), LockId(0)) // parked at node 2: granted
        .release(NodeId(2))
        .lock_timeout(NodeId(0), LockId(0), Time(600))
        .release(NodeId(0));
    let config = SessionConfig {
        keys: 1,
        placement: Placement::Hub(NodeId(0)),
        ..SessionConfig::default()
    };
    let (nodes, monitor) = ScriptedClient::cluster(&tree, config, &script);
    let mut engine = Engine::new(nodes, EngineConfig::default());
    engine
        .run_to_quiescence()
        .expect("simulated session completes");
    let simulated = monitor.finish().expect("per-key safety holds");

    let (cluster, mut clients) = Cluster::start(&tree, NodeId(0));
    assert_eq!(cluster.keys(), 1);
    let channel = run_script(&mut clients, &script, TICK);
    drop(clients);
    cluster.shutdown();

    let (tcp, mut clients) = dagmutex::runtime::tcp::TcpCluster::start(&tree, NodeId(0))
        .expect("loopback listeners bind");
    let over_tcp = run_script(&mut clients, &script, TICK);
    drop(clients);
    tcp.shutdown();

    assert_eq!(simulated, channel, "sim vs channel cluster diverged");
    assert_eq!(simulated, over_tcp, "sim vs TCP cluster diverged");
    assert_eq!(
        simulated[4],
        Some(Outcome::Granted),
        "token parking visible"
    );
}

#[test]
fn scripted_session_parity_on_random_well_formed_scripts() {
    // Random scripts built so every outcome is deterministic: a step
    // either targets keys that are provably free (hence Granted /
    // tries where the token provably parked), or provably held through
    // the step (hence TimedOut / WouldBlock).
    let mut rng = StdRng::seed_from_u64(7_2026);
    for round in 0..5 {
        let n = rng.gen_range(2..6);
        let tree = Tree::random(n, &mut rng);
        let keys = rng.gen_range(2..6) as u32;

        let mut script = Script::new();
        // One deliberately-held key; its holder sits out the middle
        // steps (it already has an open acquire).
        let blocker = LockId(0);
        let holder = NodeId(rng.gen_range(0..n) as u32);
        script = script.lock(holder, blocker);
        for _ in 0..rng.gen_range(3..8) {
            let node = loop {
                let candidate = NodeId(rng.gen_range(0..n) as u32);
                if candidate != holder {
                    break candidate;
                }
            };
            let free_key = LockId(rng.gen_range(1..keys));
            match rng.gen_range(0..4) {
                // A free key is always granted inside a fat window.
                0 => script = script.lock_timeout(node, free_key, Time(600)),
                // Waiting on a free key always succeeds.
                1 => script = script.lock(node, free_key),
                // The blocker is held through the whole step:
                // deterministic timeout (and re-timeouts exercise
                // request adoption on both substrates).
                2 => script = script.lock_timeout(node, blocker, Time(40)),
                // Multi-key over free keys only.
                _ => {
                    let k2 = LockId(rng.gen_range(1..keys));
                    script = script.lock_many(node, &[free_key, k2]);
                }
            }
            script = script.release(node);
        }
        script = script.release(holder);
        let _ = parity_on(&tree, keys, Placement::Modulo, &script);
        let _ = round;
    }
}
