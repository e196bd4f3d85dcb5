//! Property-level equivalence of the two scheduler backends.
//!
//! `dmx_simnet::sched`'s determinism contract says [`HeapQueue`] and
//! [`WheelQueue`] pop identical `(time, seq)` sequences for any legal
//! schedule — pushes never behind the last popped time, `seq` strictly
//! increasing. The golden test pins one engine-level scenario; this
//! battery hammers the queues *directly* with random interleavings of
//! pushes and pops covering every structural path of the wheel:
//! same-tick ties (the lock space's flush wakes), block crossings
//! (level-1 bucket rotations), super-block crossings, and far-future
//! wakes beyond the wheel's span (overflow heap promotions, the
//! `Ctx::wake_at` regime).
//!
//! A second property drives two whole engines — one per backend — over
//! random request schedules with `Uniform` latencies and asserts the
//! recorded traces match event for event.

use dagmutex::core::DagProtocol;
use dagmutex::simnet::sched::{EventQueue, HeapQueue, WheelQueue, WHEEL_SPAN};
use dagmutex::simnet::{Engine, EngineConfig, LatencyModel, Scheduler, Time};
use dagmutex::topology::{NodeId, Tree};
use proptest::prelude::*;

/// One step of a random queue workout: push some events at offsets from
/// the current virtual now, or pop one.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push an event `offset` ticks after the last popped time.
    Push { offset: u64 },
    /// Pop the earliest event (no-op on empty queues).
    Pop,
}

/// Offsets are biased hard toward the engine's real distribution
/// (`now + 0/1` dominates under one-tick-per-hop), with a tail of
/// block-, super-block-, and span-crossing jumps.
fn arb_op() -> impl Strategy<Value = Op> {
    prop::sample::select(vec![
        Op::Push { offset: 0 },
        Op::Push { offset: 0 },
        Op::Push { offset: 1 },
        Op::Push { offset: 1 },
        Op::Push { offset: 1 },
        Op::Push { offset: 2 },
        Op::Push { offset: 7 },
        Op::Push { offset: 63 },
        Op::Push { offset: 64 },
        Op::Push { offset: 65 },
        Op::Push { offset: 500 },
        Op::Push { offset: 4095 },
        Op::Push { offset: 4096 },
        Op::Push {
            offset: WHEEL_SPAN + 17,
        },
        Op::Push {
            offset: 3 * WHEEL_SPAN,
        },
        Op::Push { offset: 1_000_000 },
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn backends_pop_random_schedules_in_the_same_order(
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        // The heap is the reference; the wheel must reproduce it exactly.
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut wheel: WheelQueue<u64> = WheelQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for op in ops {
            match op {
                Op::Push { offset } => {
                    let at = Time(now + offset);
                    heap.push(at, seq, seq);
                    wheel.push(at, seq, seq);
                    seq += 1;
                }
                Op::Pop => {
                    let h = heap.pop_earliest();
                    let w = wheel.pop_earliest();
                    prop_assert_eq!(h, w);
                    if let Some((t, _)) = h {
                        // Subsequent pushes respect the engine invariant
                        // of never scheduling into the past.
                        now = t.0;
                    }
                }
            }
            prop_assert_eq!(heap.len(), wheel.len());
        }
        // Drain whatever remains; order must agree to the last event.
        loop {
            let h = heap.pop_earliest();
            let w = wheel.pop_earliest();
            prop_assert_eq!(h, w);
            if h.is_none() {
                break;
            }
        }
        prop_assert!(heap.is_empty() && wheel.is_empty());
    }

    #[test]
    fn whole_engine_traces_match_across_backends(
        seed in 0u64..1_000_000,
        n in 4usize..20,
        hi in 1u64..120,
        holder in any::<prop::sample::Index>(),
    ) {
        let run = |scheduler: Scheduler| {
            let tree = Tree::kary(n, 2);
            let config = EngineConfig {
                // Spans the Auto boundary: hi <= 64 would pick the wheel,
                // above it the heap — but here each backend is forced,
                // so the latency width only varies the event horizon.
                latency: LatencyModel::Uniform { lo: Time(1), hi: Time(hi) },
                cs_duration: LatencyModel::Fixed(Time(2)),
                seed,
                scheduler,
                ..EngineConfig::default()
            };
            let nodes = DagProtocol::cluster(&tree, NodeId::from_index(holder.index(n)));
            let mut engine = Engine::new(nodes, config);
            for i in 0..n {
                engine.request_at(Time((i % 3) as u64), NodeId::from_index(i));
            }
            engine.run_to_quiescence().expect("violation-free");
            (engine.trace().clone(), engine.now())
        };
        let (trace_heap, end_heap) = run(Scheduler::Heap);
        let (trace_wheel, end_wheel) = run(Scheduler::Wheel);
        prop_assert_eq!(end_heap, end_wheel);
        prop_assert_eq!(trace_heap, trace_wheel);
    }
}
