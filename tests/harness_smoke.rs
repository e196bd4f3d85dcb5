//! End-to-end smoke tests for every experiment driver: each table
//! regenerates with the right shape and reproduces the paper's key cells
//! at reduced sizes (`repro` prints the full-size outputs).

use dagmutex::harness::experiments;

#[test]
fn tab6_1_reproduces_headline_bounds() {
    let t = experiments::upper_bound::run(13);
    assert_eq!(t.len(), 10);
    assert_eq!(t.find_row("dag (this paper)").unwrap()[3], "3");
    assert_eq!(t.find_row("raymond").unwrap()[3], "4");
    assert_eq!(t.find_row("centralized").unwrap()[3], "3");
    assert_eq!(t.find_row("suzuki-kasami").unwrap()[3], "13");
    assert_eq!(t.find_row("lamport").unwrap()[3], "36");
    assert_eq!(t.find_row("ricart-agrawala").unwrap()[3], "24");
}

#[test]
fn tab6_2_matches_closed_forms() {
    let t = experiments::average_bound::run(&[4, 16]);
    assert_eq!(t.len(), 2);
    for row in 0..2 {
        let paper: f64 = t.cell(row, 1).parse().unwrap();
        let measured: f64 = t.cell(row, 2).parse().unwrap();
        assert!((paper - measured).abs() < 1e-3, "row {row}");
    }
}

#[test]
fn tab6_3_sync_delays() {
    let t = experiments::sync_delay::run(9, 6);
    assert_eq!(t.find_row("dag (this paper)").unwrap()[2], "1");
    assert_eq!(t.find_row("dag (this paper)").unwrap()[3], "1");
    assert_eq!(t.find_row("centralized").unwrap()[2], "2");
    assert_eq!(t.find_row("raymond").unwrap()[3], "5"); // D on line(6)
}

#[test]
fn tab6_4_storage() {
    let t = experiments::storage::run(8);
    assert_eq!(t.find_row("dag (this paper)").unwrap()[2], "3");
    assert_eq!(t.find_row("dag (this paper)").unwrap()[3], "8");
}

#[test]
fn fig8_star_is_first_and_best() {
    let t = experiments::topology_sweep::run();
    assert!(t.cell(0, 0).starts_with("star"));
    let star_worst: u64 = t.cell(0, 2).parse().unwrap();
    assert_eq!(star_worst, 3);
    for row in 1..t.len() {
        let worst: u64 = t.cell(row, 2).parse().unwrap();
        assert!(worst >= star_worst);
    }
}

#[test]
fn figure_walkthroughs_replay() {
    assert_eq!(experiments::traces::fig2().len(), 5);
    assert_eq!(experiments::traces::fig6().len(), 11);
    assert_eq!(
        experiments::traces::fig6_implicit_queue_paper_numbering(),
        vec![2, 1, 5]
    );
}

#[test]
fn extension_sweeps_have_expected_shapes() {
    let load = experiments::load_sweep::run(8, &[200, 2], 6);
    assert_eq!(load.len(), 2);
    // Saturated suzuki-kasami row costs more than dag.
    let dag: f64 = load.cell(1, 1).parse().unwrap();
    let sk: f64 = load.cell(1, 4).parse().unwrap();
    assert!(dag < sk);

    let scale = experiments::scaling::run(&[4, 16], 2);
    assert_eq!(scale.len(), 2);
    // Lamport's cost grows with N; dag's does not (columns: 1 = dag, 7 = lamport).
    let dag_small: f64 = scale.cell(0, 1).parse().unwrap();
    let dag_large: f64 = scale.cell(1, 1).parse().unwrap();
    let lam_small: f64 = scale.cell(0, 7).parse().unwrap();
    let lam_large: f64 = scale.cell(1, 7).parse().unwrap();
    assert!((dag_small - dag_large).abs() < 1.0);
    assert!(lam_large > 2.0 * lam_small);
}
