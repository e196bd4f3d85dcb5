//! Exhaustive interleavings of the sans-IO [`KeyAgent`]: for **every**
//! labeled tree with 2 ≤ n ≤ 4 (all Prüfer sequences; one node cannot
//! make two claims), every initial holder and every ordered pair of
//! claimants, a depth-first search walks every schedule of
//!
//! * delivering the head of any non-empty link (per-link FIFO is the
//!   paper's only network assumption), and
//! * the two users' local steps — claim the key; once inside, release
//!   it; and, in the second variant, the first claimant giving up at
//!   any point after claiming (before the grant: the claim is marked
//!   and its privilege must bounce; after it: released on the spot),
//!
//! by cloning the agents at each branch. Every state is checked for
//! mutual exclusion and exactly one privilege (parked, executing, in
//! flight, or still implicit at the untouched hub); every terminal
//! state for delivered links, each live claim granted exactly once and
//! each abandoned one bounced exactly once. Property tests sample this
//! space; this enumerates it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use dmx_core::{DagMessage, KeyedDagMessage, LockId};
use dmx_lockspace::{Abandon, AgentEvent, KeyAgent, Placement};
use dmx_topology::{NodeId, Tree};

const KEY: LockId = LockId(5);

/// Where one claimant's program stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Has not claimed yet.
    Idle,
    /// Claim live, grant outstanding.
    Waiting,
    /// Inside the critical section.
    Inside,
    /// Gave up before the grant; the privilege has yet to bounce.
    Abandoned,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct User {
    node: NodeId,
    /// The second variant's impatient claimant: gives up instead of
    /// releasing.
    gives_up: bool,
    stage: Stage,
    granted: u32,
    bounced: u32,
}

#[derive(Clone)]
struct World {
    agents: Vec<KeyAgent>,
    /// FIFO link `from → to` at `from * n + to`.
    links: Vec<VecDeque<KeyedDagMessage>>,
    users: [User; 2],
}

/// One schedulable step.
#[derive(Debug, Clone, Copy)]
enum Step {
    Deliver { from: usize, to: usize },
    Local(usize),
}

impl World {
    fn n(&self) -> usize {
        self.agents.len()
    }

    fn enabled(&self) -> Vec<Step> {
        let n = self.n();
        let deliveries = (0..n * n)
            .filter(|&link| !self.links[link].is_empty())
            .map(|link| Step::Deliver {
                from: link / n,
                to: link % n,
            });
        let locals = (0..2).filter(|&u| {
            let user = &self.users[u];
            match user.stage {
                Stage::Idle | Stage::Inside => true,
                Stage::Waiting => user.gives_up,
                Stage::Abandoned | Stage::Done => false,
            }
        });
        deliveries.chain(locals.map(Step::Local)).collect()
    }

    fn take(&mut self, step: Step) {
        let mut events = Vec::new();
        let at = match step {
            Step::Deliver { from, to } => {
                let n = self.n();
                let msg = self.links[from * n + to].pop_front().expect("enabled");
                self.agents[to].deliver(NodeId::from_index(from), msg, &mut events);
                to
            }
            Step::Local(u) => {
                let user = &mut self.users[u];
                let agent = &mut self.agents[user.node.index()];
                match user.stage {
                    Stage::Idle => {
                        agent.acquire(KEY, &mut events);
                        user.stage = Stage::Waiting;
                    }
                    Stage::Waiting | Stage::Inside if user.gives_up => {
                        let inside = user.stage == Stage::Inside;
                        let abandon = agent.abandon(KEY, &mut events);
                        user.stage = match (inside, abandon) {
                            (false, Abandon::Marked) => Stage::Abandoned,
                            (true, Abandon::Released) => Stage::Done,
                            other => panic!("abandon (inside, outcome) = {other:?}"),
                        };
                    }
                    Stage::Inside => {
                        agent.release(KEY, &mut events);
                        user.stage = Stage::Done;
                    }
                    stage => unreachable!("no local step while {stage:?}"),
                }
                user.node.index()
            }
        };
        let n = self.n();
        for event in events {
            let user = self.users.iter_mut().find(|user| user.node.index() == at);
            match event {
                AgentEvent::Send { to, msg } => self.links[at * n + to.index()].push_back(msg),
                AgentEvent::Granted(key) => {
                    let user = user.expect("a grant goes to a claimant");
                    assert_eq!((key, user.stage), (KEY, Stage::Waiting));
                    user.granted += 1;
                    user.stage = Stage::Inside;
                }
                AgentEvent::Bounced(key) => {
                    let user = user.expect("a bounce happens at a claimant");
                    assert_eq!((key, user.stage), (KEY, Stage::Abandoned));
                    user.bounced += 1;
                    user.stage = Stage::Done;
                }
            }
        }
    }

    /// The invariants of every reachable state.
    fn check(&self, hub: NodeId) {
        let holders = self.agents.iter().filter(|a| a.held().contains(&KEY));
        assert!(holders.count() <= 1, "two agents hold the key");
        let instances = self.agents.iter().map(|a| a.table().get(KEY));
        let executing = instances.clone().flatten().filter(|i| i.is_executing());
        assert!(executing.count() <= 1, "two instances executing");
        // An instance nobody touched still has its initial state: at the
        // hub, that is the token.
        let implicit = usize::from(self.agents[hub.index()].table().get(KEY).is_none());
        let in_tables = instances.flatten().filter(|i| i.has_token()).count();
        let in_flight = self.links.iter().flatten();
        let in_flight = in_flight.filter(|m| m.msg == DagMessage::Privilege).count();
        assert_eq!(
            implicit + in_tables + in_flight,
            1,
            "privileges: {implicit} implicit + {in_tables} in tables + {in_flight} in flight"
        );
    }

    /// The invariants of a state with no step left; returns its
    /// fingerprint.
    fn check_terminal(&self) -> String {
        assert!(self.links.iter().all(VecDeque::is_empty));
        for user in &self.users {
            assert_eq!(user.stage, Stage::Done, "{user:?} never finished");
            assert_eq!(user.granted + user.bounced, 1, "{user:?}");
            assert!(user.bounced == 0 || user.gives_up, "{user:?}");
        }
        let agents = self.agents.iter();
        let agents = agents.map(|a| (a.table().get(KEY), a.claims(), a.held()));
        let users = self.users.map(|user| (user.granted, user.bounced));
        format!("{:?} {users:?}", agents.collect::<Vec<_>>())
    }
}

/// What one scenario's search saw.
#[derive(Default)]
struct Tally {
    schedules: u64,
    states: u64,
    terminals: BTreeSet<String>,
}

fn explore(world: &World, hub: NodeId, tally: &mut Tally) {
    tally.states += 1;
    world.check(hub);
    let steps = world.enabled();
    if steps.is_empty() {
        tally.schedules += 1;
        tally.terminals.insert(world.check_terminal());
    }
    for step in steps {
        let mut next = world.clone();
        next.take(step);
        explore(&next, hub, tally);
    }
}

/// Every labeled tree on `n` nodes: one per Prüfer sequence.
fn labeled_trees(n: usize) -> Vec<Tree> {
    let mut sequences = vec![Vec::new()];
    for _ in 0..n - 2 {
        sequences = (sequences.iter())
            .flat_map(|s| (0..n as u32).map(move |v| [&s[..], &[v]].concat()))
            .collect();
    }
    sequences.iter().map(|s| Tree::from_prufer(s)).collect()
}

#[test]
fn every_interleaving_of_two_claims_keeps_one_privilege_and_serves_both() {
    // Per (shape, variant): scenarios, schedules, states, distinct terminals.
    let mut report: BTreeMap<(String, &str), (u64, u64, u64, usize)> = BTreeMap::new();
    for n in 2..=4usize {
        for tree in labeled_trees(n) {
            let max_degree = tree.nodes().map(|v| tree.degree(v)).max().unwrap();
            let shape = if max_degree == n - 1 && n > 3 {
                format!("star{n}")
            } else {
                format!("line{n}")
            };
            let shared = Arc::new(tree.clone());
            for hub in tree.nodes() {
                let agent = |me| KeyAgent::new(me, Arc::clone(&shared), Placement::Hub(hub), 1);
                for (first, second) in tree.nodes().flat_map(|a| tree.nodes().map(move |b| (a, b)))
                {
                    if first == second {
                        continue;
                    }
                    for (variant, gives_up) in [("both wait", false), ("first gives up", true)] {
                        let user = |node, gives_up| User {
                            node,
                            gives_up,
                            stage: Stage::Idle,
                            granted: 0,
                            bounced: 0,
                        };
                        let world = World {
                            agents: tree.nodes().map(agent).collect(),
                            links: vec![VecDeque::new(); n * n],
                            users: [user(first, gives_up), user(second, false)],
                        };
                        let mut tally = Tally::default();
                        explore(&world, hub, &mut tally);
                        let row = report.entry((shape.clone(), variant)).or_default();
                        row.0 += 1;
                        row.1 += tally.schedules;
                        row.2 += tally.states;
                        row.3 += tally.terminals.len();
                    }
                }
            }
        }
    }
    for ((shape, variant), (scenarios, schedules, states, terminals)) in &report {
        println!(
            "{shape} / {variant}: {scenarios} scenarios, {schedules} complete schedules, \
             {states} states checked, {terminals} distinct terminal states"
        );
    }
    // The search enumerates: these are the exact sizes of the space
    // above (summed over a shape's labelings, holders and claimant
    // pairs), so a pruned or short-circuited search fails here.
    let sizes: Vec<_> = report.values().copied().collect();
    assert_eq!(sizes, EXPECTED, "the explored space changed size");
}

/// `(scenarios, schedules, states, distinct terminals)` per
/// `(shape, variant)` in `BTreeMap` order: line2, line3, line4, star4 ×
/// ("both wait", "first gives up").
const EXPECTED: [(u64, u64, u64, usize); 8] = [
    (4, 40, 208, 8),
    (4, 114, 450, 14),
    (54, 984, 5310, 108),
    (54, 3750, 15552, 198),
    (576, 17472, 96432, 1152),
    (576, 79824, 341424, 2160),
    (192, 5376, 29280, 384),
    (192, 24264, 102576, 720),
];
