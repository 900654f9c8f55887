//! End-to-end acceptance of the graceful-degradation ladder: an
//! over-constrained paper spec fails the plain scheduler with a typed
//! `Infeasible` verdict, the ladder rescues it with a verified feasible
//! schedule that names the winning rung, and already-feasible specs are
//! bit-identical with and without the orchestrator.

use tcms::cli::{run, CliError, Command};
use tcms::fds::FdsConfig;
use tcms::ir::generators::paper_system;
use tcms::modulo::{
    check_execution, compute_report, random_activations, schedule_with_degradation, LadderConfig,
    ModuloScheduler, Rung, ScheduleError, SharingSpec,
};
use tcms::serve::{ScheduleOptions, SimulateOptions};

fn design_path(name: &str) -> String {
    format!("{}/designs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// All-global spec with the multiplier period bumped to 7: the grid
/// spacing becomes lcm(5, 7) = 35, past the EWF spacing budget of 30.
fn over_constrained() -> (tcms::ir::System, SharingSpec) {
    let (system, types) = paper_system().unwrap();
    let mut spec = SharingSpec::all_global(&system, 5);
    spec.set_period(types.mul, 7);
    (system, spec)
}

#[test]
fn plain_run_rejects_over_constrained_spec_with_infeasible() {
    let (system, spec) = over_constrained();
    let err = ModuloScheduler::new(&system, spec)
        .unwrap()
        .run()
        .unwrap_err();
    match err {
        ScheduleError::Infeasible {
            slack,
            binding_resource,
            ..
        } => {
            assert!(slack < 0, "slack must report the deficit, got {slack}");
            assert_eq!(binding_resource, "mul");
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
}

#[test]
fn ladder_rescues_over_constrained_spec_with_verified_schedule() {
    let (system, spec) = over_constrained();
    let outcome = schedule_with_degradation(
        &system,
        &spec,
        &FdsConfig::default(),
        &LadderConfig::default(),
    )
    .unwrap();
    assert_ne!(outcome.rung, Rung::Direct);
    assert!(outcome.attempts.len() >= 2, "{:?}", outcome.attempts);
    assert!(outcome.summary().contains(outcome.rung.name()));

    // Independently re-verify the emitted schedule: structurally valid
    // and conflict-free under randomized grid-aligned activations.
    let final_system = outcome.system.as_ref().unwrap_or(&system);
    outcome.schedule.verify(final_system).unwrap();
    let report = compute_report(final_system, &outcome.spec, &outcome.schedule);
    for seed in 0..3 {
        let acts = random_activations(final_system, &outcome.spec, &outcome.schedule, 3, seed);
        check_execution(
            final_system,
            &outcome.spec,
            &outcome.schedule,
            &report,
            &acts,
        )
        .unwrap();
    }
}

#[test]
fn feasible_spec_is_bit_identical_with_and_without_the_ladder() {
    let (system, _) = paper_system().unwrap();
    let spec = SharingSpec::all_global(&system, 5);
    let plain = ModuloScheduler::new(&system, spec.clone())
        .unwrap()
        .run()
        .unwrap();
    let laddered = schedule_with_degradation(
        &system,
        &spec,
        &FdsConfig::default(),
        &LadderConfig::default(),
    )
    .unwrap();
    assert_eq!(laddered.rung, Rung::Direct);
    assert_eq!(laddered.schedule, plain.schedule);
    assert_eq!(laddered.iterations, plain.iterations);
}

#[test]
fn cli_without_degrade_exits_infeasible_and_with_degrade_recovers() {
    let cmd = |degrade: bool| Command::Schedule {
        input: design_path("paper_table1.dfg"),
        opts: ScheduleOptions {
            all_global: Some(5),
            globals: vec![("mul".into(), 7)],
            verify: 3,
            degrade,
            ..ScheduleOptions::default()
        },
        save: None,
        trace: None,
        metrics: false,
        timeline: None,
        threads: None,
        cache_dir: None,
    };
    let err = run(&cmd(false)).unwrap_err();
    assert!(matches!(
        err,
        CliError::Schedule(ScheduleError::Infeasible { .. })
    ));
    assert_eq!(err.exit_code(), 6);

    let out = run(&cmd(true)).unwrap();
    assert!(out.contains("degradation: degraded to rung"), "{out}");
    assert!(out.contains("relax-periods"), "{out}");
    assert!(out.contains("conflict-free"), "{out}");
}

#[test]
fn cli_fault_simulation_is_deterministic_per_seed() {
    let cmd = Command::Simulate {
        input: design_path("paper_table1.dfg"),
        opts: SimulateOptions {
            all_global: Some(5),
            horizon: 2_000,
            seed: 1,
            mean_gap: 40,
            ..SimulateOptions::default()
        },
        faults: Some(tcms::sim::FaultPlan::moderate(7)),
        threads: None,
    };
    let out = run(&cmd).unwrap();
    assert!(out.contains("fault injection (seed 7)"), "{out}");
    assert!(out.contains("missed deadlines"), "{out}");
    assert!(out.contains("dropped slots"), "{out}");
    assert_eq!(
        out,
        run(&cmd).unwrap(),
        "same seeds must reproduce bit-identically"
    );
}
