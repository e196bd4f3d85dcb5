//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p dmx-harness --bin repro            # everything
//! cargo run --release -p dmx-harness --bin repro -- tab6_1  # one experiment
//! cargo run --release -p dmx-harness --bin repro -- --list  # experiment ids
//! ```

use dmx_harness::experiments;

/// `(id, description, in the no-argument sweep, driver)`. `--list`, the
/// default sweep and dispatch by id all read this one table, so an id
/// cannot be listed without being runnable.
type Experiment = (&'static str, &'static str, bool, fn());

static EXPERIMENTS: &[Experiment] = &[
    (
        "fig2",
        "Figure 2 walkthrough (state tables per step)",
        true,
        || {
            for t in experiments::traces::fig2() {
                println!("{t}");
            }
        },
    ),
    (
        "fig6",
        "Figure 6 complete example (state tables per step)",
        true,
        || {
            for t in experiments::traces::fig6() {
                println!("{t}");
            }
            println!(
                "Implicit queue at step 6g (paper numbering): {:?} — the paper reads \"2, 1, 5\"\n",
                experiments::traces::fig6_implicit_queue_paper_numbering()
            );
        },
    ),
    ("tab6_1", "Chapter 6.1 upper bounds", true, || {
        println!("{}", experiments::upper_bound::run(13))
    }),
    (
        "tab6_2",
        "Chapter 6.2 average bound on the star",
        true,
        || {
            println!(
                "{}",
                experiments::average_bound::run(&[2, 4, 8, 16, 32, 64, 128])
            )
        },
    ),
    ("tab6_3", "Chapter 6.3 synchronization delay", true, || {
        println!("{}", experiments::sync_delay::run(13, 8))
    }),
    ("tab6_4", "Chapter 6.4 storage overhead", true, || {
        println!("{}", experiments::storage::run(16))
    }),
    ("fig8", "Figure 8 topology sweep", true, || {
        println!("{}", experiments::topology_sweep::run())
    }),
    ("ext_load", "extension: load sweep", true, || {
        println!(
            "{}",
            experiments::load_sweep::run(16, &[2000, 500, 100, 20, 5, 1], 12)
        )
    }),
    ("ext_scale", "extension: N scaling sweep", true, || {
        println!("{}", experiments::scaling::run(&[4, 8, 16, 32, 64], 3))
    }),
    ("ext_hub", "extension: weighted hub placement", true, || {
        println!(
            "{}",
            experiments::hub_placement::run(10, dmx_topology::NodeId(7), 0.6, 4_000)
        )
    }),
    ("ext_fair", "extension: per-node fairness", true, || {
        println!("{}", experiments::fairness::run(10, 6))
    }),
    (
        "ext_lock",
        "extension: lock-space scaling (keys × skew × n)",
        true,
        || {
            println!(
                "{}",
                experiments::lock_scaling::run(&[15, 127], &[1, 64, 4096], 12)
            )
        },
    ),
    (
        "ext_window",
        "extension: coalescing-window sweep (window × keys × n)",
        true,
        || {
            println!(
                "{}",
                experiments::lock_scaling::run_windows(&[15, 127], &[64, 4096], 12)
            )
        },
    ),
    (
        "ext_skew",
        "extension: leases × hub placement × skew vs a quorum baseline",
        true,
        || println!("{}", experiments::skew::run(127, &[64], 12)),
    ),
    (
        "ext_par",
        "extension: parallel tick-barrier scaling (shards × paced demand)",
        true,
        || println!("{}", experiments::parallel_scaling::run(127, 1024, 6)),
    ),
    (
        "ext_path",
        "extension: REQUEST path lengths vs Lavault's O(log n) bound",
        true,
        || println!("{}", experiments::path_length::run(&[15, 127, 1023], 64, 8)),
    ),
    (
        "ext_snap",
        "extension: live consistent cuts of a threaded cluster mid-storm",
        true,
        || println!("{}", experiments::snapshot_storm::run(15, 64, 2, 8)),
    ),
    // Explicit-only: the 1M-key × 10k-node acceptance run allocates
    // gigabytes and processes tens of millions of events.
    (
        "ext_mega",
        "1M keys × 10k nodes under the parallel runtime, digest-checked at two shard counts",
        false,
        || println!("{}", experiments::parallel_scaling::run_mega()),
    ),
];

fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.0 == id)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (id, description, ..) in EXPERIMENTS {
            println!("{id:10} {description}");
        }
        return;
    }
    let selected: Vec<&Experiment> = if args.is_empty() {
        EXPERIMENTS.iter().filter(|e| e.2).collect()
    } else {
        args.iter()
            .map(|id| {
                find(id).unwrap_or_else(|| {
                    eprintln!("unknown experiment id: {id} (try --list)");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    for (.., run) in selected {
        run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_id_dispatches_to_its_own_entry() {
        assert_eq!(EXPERIMENTS.len(), 18);
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            let found = find(e.0).expect("listed id resolves");
            assert!(
                std::ptr::eq(found, &EXPERIMENTS[i]),
                "{} is listed twice; only the first entry would ever run",
                e.0
            );
        }
        assert!(find("bench").is_none());
    }

    #[test]
    fn the_default_sweep_is_everything_but_the_mega_run() {
        let explicit: Vec<&str> = EXPERIMENTS.iter().filter(|e| !e.2).map(|e| e.0).collect();
        assert_eq!(explicit, ["ext_mega"]);
    }
}
