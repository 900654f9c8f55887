//! Partition-scaling study: feedback-guided subgraph decomposition
//! versus the monolithic scheduler on a large synthetic spec.
//!
//! For every thread count the study times both paths (best-of-N; the
//! minimum is the right statistic for a determinism-preserving study —
//! noise only adds time) and asserts two invariants the decomposition
//! design promises:
//!
//! * **thread invariance** — the merged partitioned schedule is
//!   bit-identical at every thread count (partition-level parallelism
//!   writes results by index; the auto partition count is a function of
//!   the spec, never of the machine),
//! * **bounded quality gap** — the merged schedule's authorized pools,
//!   costed under the *full* spec, stay within 5% of the monolithic
//!   run's total area.
//!
//! The summary — per-thread wall times and speedups, partition shape,
//! areas and the gap — lands in `BENCH_partition.json`. `--quick`
//! shrinks the spec for CI smoke runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tcms_bench::workload::scaling_config;
use tcms_bench::{Cli, Flag};
use tcms_core::{schedule_partitioned, ModuloScheduler, PartitionConfig, SharingSpec};
use tcms_fds::FdsConfig;
use tcms_ir::generators::random_system;
use tcms_obs::json::{self, JsonValue};

/// Acceptance bound on (partitioned − monolithic) / monolithic area.
const QUALITY_GAP_BOUND: f64 = 0.05;

const CLI: Cli = Cli::new(
    "partitioned vs. monolithic scheduling of a large synthetic spec",
    &[
        Flag::switch("--quick", "CI-sized spec: 320 ops unless --ops is given"),
        Flag::value("--ops", "N", "approximate operation count (default 600)"),
        Flag::value("--processes", "P", "processes").or("8"),
        Flag::value("--seed", "S", "generator seed").or("1"),
        Flag::value("--repeats", "N", "best-of-N timing").or("1"),
        Flag::value("--threads-list", "N,N,...", "thread counts to time").or("1,2,4"),
        Flag::value("--out", "FILE", "report path").or("BENCH_partition.json"),
    ],
);

fn main() {
    let args = CLI.parse_env();
    let quick = args.switch("--quick");
    let ops = args
        .value("--ops")
        .unwrap_or(if quick { 320usize } else { 600 });
    let processes: usize = args.get("--processes");
    let seed: u64 = args.get("--seed");
    let repeats: usize = args.get("--repeats");
    let thread_list: Vec<usize> = args.list("--threads-list");
    let out_path: String = args.get("--out");
    if ops == 0 || processes == 0 || repeats == 0 {
        args.fail("--ops, --processes and --repeats must be positive");
    }

    let (sys, _) = random_system(&scaling_config(ops, processes), seed).expect("system builds");
    let spec = SharingSpec::all_global(&sys, 4);
    let pcfg = PartitionConfig::default();
    println!(
        "partition scaling: {} ops, {} processes, seed {seed} \
         (available parallelism {})",
        sys.num_ops(),
        sys.num_processes(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    // Sequential references: every timed run below must reproduce these
    // bit-for-bit, whatever the thread count.
    rayon::set_num_threads(1);
    let mono_ref = ModuloScheduler::new(&sys, spec.clone())
        .expect("valid spec")
        .run()
        .expect("monolithic run feasible");
    let part_ref = schedule_partitioned(&sys, spec.clone(), &FdsConfig::default(), &pcfg)
        .expect("partitioned run feasible");
    println!(
        "decomposition: {} partitions, {} feedback rounds, {} cut edges",
        part_ref.partitions, part_ref.rounds, part_ref.cut_edges
    );

    // Quality gap, costed under the full spec for both schedules.
    let mono_area = mono_ref.report().total_area();
    let part_area = part_ref.report().total_area();
    #[allow(clippy::cast_precision_loss)]
    let gap = (part_area as f64 - mono_area as f64) / mono_area as f64;
    println!(
        "quality: monolithic area {mono_area}, partitioned area {part_area}, gap {:+.2}%",
        gap * 100.0
    );
    assert!(
        gap <= QUALITY_GAP_BOUND,
        "quality gap {:.2}% exceeds the {:.0}% bound",
        gap * 100.0,
        QUALITY_GAP_BOUND * 100.0
    );

    let mut rows = Vec::new();
    for &n in &thread_list {
        rayon::set_num_threads(n);
        let mut mono_best = Duration::MAX;
        let mut part_best = Duration::MAX;
        for _ in 0..repeats {
            let started = Instant::now();
            let mono = ModuloScheduler::new(&sys, spec.clone())
                .expect("valid spec")
                .run()
                .expect("monolithic run feasible");
            mono_best = mono_best.min(started.elapsed());
            assert_eq!(
                mono.schedule, mono_ref.schedule,
                "threads={n}: monolithic schedule must be bit-identical"
            );

            let started = Instant::now();
            let part = schedule_partitioned(&sys, spec.clone(), &FdsConfig::default(), &pcfg)
                .expect("partitioned run feasible");
            part_best = part_best.min(started.elapsed());
            assert_eq!(
                part.schedule.starts(),
                part_ref.schedule.starts(),
                "threads={n}: partitioned schedule must be bit-identical"
            );
        }
        let speedup = mono_best.as_secs_f64() / part_best.as_secs_f64();
        println!(
            "  threads={n}: monolithic {mono_best:?}, partitioned {part_best:?} \
             ({speedup:.2}x, best-of-{repeats}, identical=yes)"
        );
        #[allow(clippy::cast_precision_loss)]
        let mut row = BTreeMap::new();
        row.insert("threads".to_owned(), JsonValue::Number(n as f64));
        row.insert(
            "monolithic_wall_s".to_owned(),
            JsonValue::Number(mono_best.as_secs_f64()),
        );
        row.insert(
            "partitioned_wall_s".to_owned(),
            JsonValue::Number(part_best.as_secs_f64()),
        );
        row.insert("speedup".to_owned(), JsonValue::Number(speedup));
        rows.push(JsonValue::Object(row));
    }
    rayon::set_num_threads(0);

    #[allow(clippy::cast_precision_loss)]
    let count = |n: usize| JsonValue::Number(n as f64);
    #[allow(clippy::cast_precision_loss)]
    let area = |a: u64| JsonValue::Number(a as f64);
    let mut quality = BTreeMap::new();
    quality.insert("monolithic_area".to_owned(), area(mono_area));
    quality.insert("partitioned_area".to_owned(), area(part_area));
    quality.insert("gap".to_owned(), JsonValue::Number(gap));
    quality.insert("bound".to_owned(), JsonValue::Number(QUALITY_GAP_BOUND));

    let mut doc = BTreeMap::new();
    doc.insert(
        "benchmark".to_owned(),
        JsonValue::String("partition_scaling".to_owned()),
    );
    doc.insert("ops".to_owned(), count(sys.num_ops()));
    doc.insert("processes".to_owned(), count(sys.num_processes()));
    doc.insert("seed".to_owned(), count(usize::try_from(seed).unwrap_or(0)));
    doc.insert("partitions".to_owned(), count(part_ref.partitions));
    doc.insert("cut_edges".to_owned(), count(part_ref.cut_edges));
    doc.insert("rounds".to_owned(), count(part_ref.rounds));
    doc.insert("repeats".to_owned(), count(repeats));
    doc.insert("quality".to_owned(), JsonValue::Object(quality));
    doc.insert("thread_identical".to_owned(), JsonValue::Bool(true));
    doc.insert("runs".to_owned(), JsonValue::Array(rows));
    let rendered = format!("{}\n", json::to_string(&JsonValue::Object(doc)));
    json::parse(&rendered).expect("valid JSON report");
    std::fs::write(&out_path, rendered).expect("write report");
    println!("report written to {out_path}");
}
