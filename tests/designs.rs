//! The checked-in `designs/` inputs stay loadable, schedulable and in
//! sync with the generators, and the CLI round-trips them.

use tcms::cli::{run, Command};
use tcms::ir::display::to_dfg;
use tcms::ir::generators::paper_system;
use tcms::ir::parse::parse_system;
use tcms::serve::ScheduleOptions;

fn design_path(name: &str) -> String {
    format!("{}/designs/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn checked_in_table1_matches_generator() {
    let text = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let parsed = parse_system(&text).unwrap();
    let (generated, _) = paper_system().unwrap();
    assert_eq!(
        to_dfg(&parsed),
        to_dfg(&generated),
        "regenerate with gen_designs"
    );
}

#[test]
fn cli_schedules_checked_in_dfg() {
    let out = run(&Command::Schedule {
        input: design_path("paper_table1.dfg"),
        opts: ScheduleOptions {
            all_global: Some(5),
            verify: 3,
            ..ScheduleOptions::default()
        },
        save: None,
        trace: None,
        metrics: false,
        timeline: None,
        threads: None,
        cache_dir: None,
    })
    .unwrap();
    assert!(out.contains("conflict-free"), "{out}");
    assert!(out.contains("total area: 14"), "{out}");
}

#[test]
fn cli_schedules_checked_in_behavioral() {
    let out = run(&Command::Schedule {
        input: design_path("diffeq_pair.hls"),
        opts: ScheduleOptions {
            all_global: Some(5),
            verify: 3,
            ..ScheduleOptions::default()
        },
        save: None,
        trace: None,
        metrics: false,
        timeline: None,
        threads: None,
        cache_dir: None,
    })
    .unwrap();
    // Two diffeq solvers share a single multiplier pool.
    assert!(out.contains("mul"), "{out}");
    assert!(out.contains("conflict-free"), "{out}");
}

#[test]
fn cli_emits_vhdl_for_checked_in_design() {
    let out = run(&Command::Vhdl {
        input: design_path("diffeq_pair.hls"),
        all_global: Some(5),
        globals: vec![],
        width: 12,
    })
    .unwrap();
    assert!(out.contains("entity tcms_top is"));
    assert!(out.contains("unsigned(11 downto 0)"));
    assert!(out.contains("(slot_cnt mod 5)"));
}
