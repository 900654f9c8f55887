//! Cross-thread-count determinism suite.
//!
//! The scheduler, the shared-incumbent period search and the partition
//! shards all promise *bit-identical* results at every worker-thread
//! count. These tests pin that promise end to end
//! on randomized systems: anything the CLI can print — schedules,
//! reports, exploration winners — must not change when the thread count
//! does.
//!
//! The thread override is process-global, so every test serializes on
//! one mutex and restores the automatic setting before releasing it.

use std::sync::{Mutex, MutexGuard};

use tcms::fds::threads;
use tcms::ir::generators::{random_system, RandomSystemConfig};
use tcms::ir::System;
use tcms::modulo::explore::{auto_assign, pruned_best_period_assignment};
use tcms::modulo::{ModuloScheduler, ScheduleReport, SharingSpec};

static THREADS: Mutex<()> = Mutex::new(());

fn threads_lock() -> MutexGuard<'static, ()> {
    THREADS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The thread counts every result is pinned across. 1 is the sequential
/// reference; the others exercise the parallel paths (oversubscribed on
/// small machines, which is exactly the point — determinism must not
/// depend on the hardware).
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn test_systems() -> Vec<(u64, System)> {
    let cfg = RandomSystemConfig {
        processes: 3,
        blocks_per_process: 1,
        layers: 4,
        ops_per_layer: (1, 3),
        edge_prob: 0.4,
        slack: 2.5,
        type_weights: [2, 1, 2],
    };
    (0..6)
        .map(|seed| (seed, random_system(&cfg, seed).unwrap().0))
        .collect()
}

/// Schedules under the first feasible spec of a small candidate ladder,
/// so every random seed contributes a run instead of being skipped.
fn schedule_any(sys: &System) -> (Vec<Option<u32>>, u64, ScheduleReport) {
    for period in [2u32, 3, 4] {
        let spec = SharingSpec::all_global(sys, period);
        if let Ok(out) = ModuloScheduler::new(sys, spec).unwrap().run() {
            let report = out.report();
            return (out.schedule.starts().to_vec(), out.iterations, report);
        }
    }
    let out = ModuloScheduler::new(sys, SharingSpec::all_local(sys))
        .unwrap()
        .run()
        .unwrap();
    let report = out.report();
    (out.schedule.starts().to_vec(), out.iterations, report)
}

#[test]
fn coupled_schedules_are_bit_identical_across_thread_counts() {
    let _guard = threads_lock();
    for (seed, sys) in test_systems() {
        threads::set(1);
        let reference = schedule_any(&sys);
        for n in THREAD_COUNTS {
            threads::set(n);
            let run = schedule_any(&sys);
            assert_eq!(
                reference.0, run.0,
                "seed {seed}, threads {n}: start times must be bit-identical"
            );
            assert_eq!(
                reference.1, run.1,
                "seed {seed}, threads {n}: iteration counts must match"
            );
            assert_eq!(
                reference.2.total_area(),
                run.2.total_area(),
                "seed {seed}, threads {n}: reported area must match"
            );
        }
    }
    threads::set(0);
}

/// The batched candidate sweep (`run`, which scores placements through
/// `ForceEvaluator::force_batch` and the candidate cache) must match the
/// scalar, cache-free reference run (`run_naive`) bit-identically at
/// every thread count — pinning batching, caching and parallelism in one
/// comparison.
#[test]
fn batched_runs_match_scalar_reference_across_thread_counts() {
    let _guard = threads_lock();
    for (seed, sys) in test_systems().into_iter().take(3) {
        threads::set(1);
        let Some(reference) = run_naive_any(&sys) else {
            continue;
        };
        for n in THREAD_COUNTS {
            threads::set(n);
            let run = schedule_any(&sys);
            assert_eq!(
                reference.0, run.0,
                "seed {seed}, threads {n}: batched starts must equal the scalar reference"
            );
            assert_eq!(
                reference.1, run.1,
                "seed {seed}, threads {n}: iteration counts must match the scalar reference"
            );
        }
    }
    threads::set(0);
}

/// `schedule_any`'s ladder, but through the scalar cache-free oracle so
/// both paths pick the same spec.
fn run_naive_any(sys: &System) -> Option<(Vec<Option<u32>>, u64)> {
    for period in [2u32, 3, 4] {
        let spec = SharingSpec::all_global(sys, period);
        if let Ok(out) = ModuloScheduler::new(sys, spec).unwrap().run_naive() {
            return Some((out.schedule.starts().to_vec(), out.iterations));
        }
    }
    let out = ModuloScheduler::new(sys, SharingSpec::all_local(sys))
        .unwrap()
        .run_naive()
        .ok()?;
    Some((out.schedule.starts().to_vec(), out.iterations))
}

#[test]
fn explore_winners_are_bit_identical_across_thread_counts() {
    let _guard = threads_lock();
    let fds = tcms::fds::FdsConfig::default();
    for (seed, sys) in test_systems() {
        let base = SharingSpec::all_global(&sys, 2);
        if base.global_types(&sys).is_empty() {
            continue; // no shareable type: nothing to explore
        }
        threads::set(1);
        let reference = pruned_best_period_assignment(&sys, &base, &fds).unwrap();
        for n in THREAD_COUNTS {
            threads::set(n);
            let run = pruned_best_period_assignment(&sys, &base, &fds).unwrap();
            match (&reference, &run) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(
                        a.0, b.0,
                        "seed {seed}, threads {n}: winning spec must be identical"
                    );
                    assert_eq!(
                        a.1.total_area(),
                        b.1.total_area(),
                        "seed {seed}, threads {n}: winning area must be identical"
                    );
                }
                _ => panic!("seed {seed}, threads {n}: feasibility must not depend on threads"),
            }
        }
    }
    threads::set(0);
}

#[test]
fn auto_assign_is_bit_identical_across_thread_counts() {
    let _guard = threads_lock();
    let fds = tcms::fds::FdsConfig::default();
    for (seed, sys) in test_systems().into_iter().take(3) {
        threads::set(1);
        let reference = auto_assign(&sys, 2, &fds).unwrap();
        for n in THREAD_COUNTS {
            threads::set(n);
            let run = auto_assign(&sys, 2, &fds).unwrap();
            assert_eq!(
                reference.0, run.0,
                "seed {seed}, threads {n}: auto-assigned spec must be identical"
            );
            assert_eq!(
                reference.1.total_area(),
                run.1.total_area(),
                "seed {seed}, threads {n}: auto-assign area must be identical"
            );
        }
    }
    threads::set(0);
}
