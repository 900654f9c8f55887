//! Thread-scaling study: wall time of the Table-1 coupled global run at
//! 1/2/4/8 worker threads, asserting that every schedule is bit-identical
//! to the sequential reference; then the coupled run's wall time as the
//! system grows from 2 to 8 processes.
//!
//! Each row reports the best-of-N wall time (minimum is the right
//! statistic for a determinism-preserving speedup study — noise only
//! adds time). On machines with fewer cores than the requested thread
//! count the rows flatten or regress; the identity assertions still
//! hold, which is the point of the deterministic design.

use std::time::{Duration, Instant};

use tcms_bench::{paper_spec, Cli, Flag};
use tcms_core::{ModuloScheduler, SharingSpec};
use tcms_ir::generators::{paper_system, random_system, RandomSystemConfig};

const CLI: Cli = Cli::new(
    "Table 1 per thread count; coupled run time vs. process count",
    &[
        Flag::value("--repeats", "N", "best-of-N timing").or("3"),
        Flag::value("--threads-list", "N,N,...", "thread counts, with 1").or("1,2,4,8"),
    ],
);

fn main() {
    let args = CLI.parse_env();
    let repeats: usize = args.get("--repeats");
    let thread_list: Vec<usize> = args.list("--threads-list");
    if repeats == 0 {
        args.fail("--repeats must be positive");
    }
    if !thread_list.contains(&1) {
        args.fail("--threads-list must include 1 (the sequential reference)");
    }

    println!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    // Table-1 coupled global run at every thread count.
    let (system, _) = paper_system().expect("paper system builds");
    let spec = paper_spec(&system);
    rayon::set_num_threads(1);
    let reference = ModuloScheduler::new(&system, spec.clone())
        .expect("valid spec")
        .run()
        .expect("feasible");
    println!("\ncoupled table1 global run ({} ops):", system.num_ops());
    let mut base = Duration::ZERO;
    for &n in &thread_list {
        rayon::set_num_threads(n);
        let mut best = Duration::MAX;
        for _ in 0..repeats {
            let started = Instant::now();
            let out = ModuloScheduler::new(&system, spec.clone())
                .expect("valid spec")
                .run()
                .expect("feasible");
            best = best.min(started.elapsed());
            assert_eq!(
                out.schedule, reference.schedule,
                "threads={n}: coupled schedule must be bit-identical"
            );
        }
        if n == 1 {
            base = best;
        }
        println!(
            "  threads={n}: best-of-{repeats} {best:?}  speedup {:.2}x  identical=yes",
            base.as_secs_f64() / best.as_secs_f64()
        );
    }

    rayon::set_num_threads(0);

    // Coupled run vs. system size: random systems of 2/4/8 processes
    // (the generator's default shape, seed 42), all types global with
    // period 4.
    println!("\ncoupled run vs. process count (default threads):");
    for processes in [2usize, 4, 8] {
        let cfg = RandomSystemConfig {
            processes,
            ..RandomSystemConfig::default()
        };
        let (system, _) = random_system(&cfg, 42).expect("feasible");
        let mut best = Duration::MAX;
        let mut iterations = 0;
        for _ in 0..repeats {
            let started = Instant::now();
            let out = ModuloScheduler::new(&system, SharingSpec::all_global(&system, 4))
                .expect("valid spec")
                .run()
                .expect("feasible");
            best = best.min(started.elapsed());
            iterations = out.iterations;
        }
        println!(
            "  processes={processes}: {} ops, {iterations} iterations, best-of-{repeats} {best:?}",
            system.num_ops()
        );
    }
}
