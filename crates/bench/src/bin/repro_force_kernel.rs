//! Force-kernel microbenchmark: the slab fold/force paths against the
//! seed's jagged per-candidate implementation and the from-scratch
//! oracle, on the Table-1 design; then whole coupled runs with the
//! candidate cache against the cache-free reference loop and with
//! recording off against recording on.
//!
//! Four ways of scoring the same candidate set are timed:
//!
//! * **legacy** — `ModuloEvaluator::force_legacy`, the pre-slab
//!   incremental path kept behind the `naive-oracle` feature: fresh delta
//!   buffers per candidate, a distribution copy and per-sibling fold
//!   `Vec`s per key.
//! * **scalar** — `ModuloEvaluator::force`, the slab kernels with
//!   per-call scratch.
//! * **batched** — `ModuloEvaluator::force_batch`, the slab kernels with
//!   scratch and sibling profiles shared across the whole candidate set.
//! * **naive** — `ModuloEvaluator::force_naive`, the reference oracle:
//!   the modulo field is rebuilt from scratch for every candidate.
//!
//! Every pair of scores is asserted bit-identical before anything is
//! timed — a fast-but-wrong kernel fails loudly. The kernel summary lands
//! in `BENCH_kernel.json` (per-force ns, folds/s, speedups).
//!
//! The full-run section schedules 5-process EWF and diffeq systems
//! (staggered time ranges, all types global, period 5) four ways and
//! asserts every schedule bit-identical to `run()`:
//!
//! * `run()` — the engine with its candidate-force cache,
//! * `run_naive()` — the cache-free reference loop,
//! * `run_recorded(&NoopRecorder)` — the disabled-recording path,
//! * `run_recorded(&TraceRecorder)` — everything recorded, plus rendering
//!   the JSONL and Chrome-trace sinks.

use std::collections::BTreeMap;
use std::time::Instant;

use tcms_bench::{paper_spec, Cli, Flag, TextTable};
use tcms_core::{ModuloEvaluator, ModuloScheduler, SharingSpec};
use tcms_fds::{FdsConfig, ForceEvaluator, Schedule};
use tcms_ir::generators::{add_diffeq_process, add_ewf_process, paper_library, paper_system};
use tcms_ir::{FrameTable, OpId, System, SystemBuilder, TimeFrame};
use tcms_obs::json::{self, JsonValue};
use tcms_obs::{sink, NoopRecorder, TraceRecorder};

const CLI: Cli = Cli::new(
    "slab/legacy/naive force kernels; cached/naive/recorded full runs",
    &[
        Flag::value("--rounds", "N", "best-of sweeps (full runs: min(N, 5))").or("200"),
        Flag::value("--out", "FILE", "report path").or("BENCH_kernel.json"),
    ],
);

fn main() {
    let args = CLI.parse_env();
    let rounds: usize = args.get("--rounds");
    let out_path: String = args.get("--out");
    if rounds == 0 {
        args.fail("--rounds must be positive");
    }

    let (system, _) = paper_system().expect("paper system builds");
    let spec = paper_spec(&system);
    let frames = FrameTable::initial(&system);
    let eval = ModuloEvaluator::new(&system, spec, FdsConfig::default(), &frames);

    // The candidate set of one full engine sweep: every feasible start
    // slot of every operation — the batch shape the engine's candidate
    // scoring and the exact-search bounds evaluate.
    let mut candidates: Vec<Vec<(OpId, TimeFrame)>> = Vec::new();
    for o in system.op_ids() {
        let fr = frames.get(o);
        for t in fr.asap..=fr.alap {
            candidates.push(vec![(o, TimeFrame::new(t, t))]);
        }
    }
    let views: Vec<&[(OpId, TimeFrame)]> = candidates.iter().map(|c| c.as_slice()).collect();

    // Correctness before speed: all four paths must agree bitwise.
    let batched_scores = eval.force_batch(&frames, &views);
    for (i, cand) in views.iter().enumerate() {
        let scalar = eval.force(&frames, cand);
        let legacy = eval.force_legacy(&frames, cand);
        let naive = eval.force_naive(&frames, cand);
        assert_eq!(
            batched_scores[i].to_bits(),
            scalar.to_bits(),
            "candidate {i}: batched vs scalar"
        );
        assert_eq!(
            scalar.to_bits(),
            legacy.to_bits(),
            "candidate {i}: scalar vs legacy"
        );
        assert_eq!(
            scalar.to_bits(),
            naive.to_bits(),
            "candidate {i}: scalar vs naive"
        );
    }

    // Each path scores `rounds` full sweeps; best-of-rounds per-force
    // time (minimum is the right statistic — noise only adds time).
    let mut sink = 0.0f64;
    let time_sweep = |f: &mut dyn FnMut() -> f64| -> f64 {
        let mut best = f64::INFINITY;
        let mut acc = 0.0;
        for _ in 0..rounds {
            let started = Instant::now();
            acc += f();
            best = best.min(started.elapsed().as_secs_f64());
        }
        sink_guard(acc);
        best
    };

    let n = views.len() as f64;
    let legacy_sweep = time_sweep(&mut || {
        views
            .iter()
            .map(|c| eval.force_legacy(&frames, c))
            .sum::<f64>()
    });
    let scalar_sweep = time_sweep(&mut || views.iter().map(|c| eval.force(&frames, c)).sum());
    let batched_sweep = time_sweep(&mut || eval.force_batch(&frames, &views).iter().sum());
    let naive_sweep = time_sweep(&mut || {
        views
            .iter()
            .map(|c| eval.force_naive(&frames, c))
            .sum::<f64>()
    });
    sink += legacy_sweep;

    let legacy_ns = legacy_sweep * 1e9 / n;
    let scalar_ns = scalar_sweep * 1e9 / n;
    let batched_ns = batched_sweep * 1e9 / n;
    let naive_ns = naive_sweep * 1e9 / n;
    // One modified-force candidate performs one fused modulo fold per
    // touched (block, type) pair; single-op candidates touch exactly one.
    let folds_per_s = n / batched_sweep;
    let speedup_vs_legacy = legacy_ns / batched_ns;
    let batched_vs_scalar = scalar_ns / batched_ns;

    println!(
        "force kernel on table1 design ({} ops, {} candidates, best of {rounds} sweeps):",
        system.num_ops(),
        views.len()
    );
    println!("  legacy  (jagged, per-candidate): {legacy_ns:9.1} ns/force");
    println!("  scalar  (slab,   per-candidate): {scalar_ns:9.1} ns/force");
    println!("  batched (slab,   shared sweep) : {batched_ns:9.1} ns/force");
    println!("  naive   (field rebuilt)        : {naive_ns:9.1} ns/force");
    println!("  fused folds: {folds_per_s:.0}/s");
    println!(
        "  batched vs legacy: {speedup_vs_legacy:.2}x   batched vs scalar: {batched_vs_scalar:.2}x"
    );

    assert!(
        batched_vs_scalar > 1.0,
        "batched evaluation must beat per-candidate scalar evaluation \
         ({batched_ns:.1} ns vs {scalar_ns:.1} ns)"
    );

    let num = |v: f64| JsonValue::Number(v);
    let mut doc = BTreeMap::new();
    doc.insert(
        "benchmark".to_owned(),
        JsonValue::String("force_kernel".to_owned()),
    );
    doc.insert(
        "design".to_owned(),
        JsonValue::String("table1_paper_system".to_owned()),
    );
    #[allow(clippy::cast_precision_loss)]
    doc.insert("ops".to_owned(), num(system.num_ops() as f64));
    doc.insert("candidates".to_owned(), num(n));
    #[allow(clippy::cast_precision_loss)]
    doc.insert("rounds".to_owned(), num(rounds as f64));
    doc.insert("legacy_ns_per_force".to_owned(), num(legacy_ns));
    doc.insert("scalar_ns_per_force".to_owned(), num(scalar_ns));
    doc.insert("batched_ns_per_force".to_owned(), num(batched_ns));
    doc.insert("folds_per_s".to_owned(), num(folds_per_s));
    doc.insert(
        "speedup_batched_vs_legacy".to_owned(),
        num(speedup_vs_legacy),
    );
    doc.insert("ratio_batched_vs_scalar".to_owned(), num(batched_vs_scalar));
    doc.insert("bit_identical".to_owned(), JsonValue::Bool(true));
    let rendered = format!("{}\n", json::to_string(&JsonValue::Object(doc)));
    json::parse(&rendered).expect("valid JSON report");
    std::fs::write(&out_path, rendered).expect("write report");
    println!("report written to {out_path}");
    let _ = sink;

    full_runs(rounds.min(5));
}

/// `n` elliptical wave filter processes, staggered time ranges.
fn ewf_system(n: u32) -> System {
    let (lib, types) = paper_library();
    let mut b = SystemBuilder::new(lib);
    for i in 0..n {
        add_ewf_process(&mut b, &format!("P{i}"), 20 + 2 * i, types).expect("ewf process");
    }
    b.build().expect("valid system")
}

/// `n` differential equation solver processes, staggered time ranges.
fn diffeq_system(n: u32) -> System {
    let (lib, types) = paper_library();
    let mut b = SystemBuilder::new(lib);
    for i in 0..n {
        add_diffeq_process(&mut b, &format!("P{i}"), 12 + i, types).expect("diffeq process");
    }
    b.build().expect("valid system")
}

/// Times full coupled runs best-of-`repeats`: cached vs. cache-free
/// (`run_naive`) and plain vs. recording, every schedule bit-identical.
fn full_runs(repeats: usize) {
    let mut t = TextTable::new();
    t.row([
        "system",
        "ops",
        "run",
        "run_naive",
        "naive/run",
        "noop",
        "recording",
        "recording/run",
    ]);
    t.sep();
    for (name, system) in [("ewf5", ewf_system(5)), ("diffeq5", diffeq_system(5))] {
        let scheduler = || ModuloScheduler::new(&system, SharingSpec::all_global(&system, 5));
        let reference = scheduler()
            .expect("valid")
            .run()
            .expect("feasible")
            .schedule;
        let best_of = |f: &dyn Fn() -> Schedule| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..repeats {
                let started = Instant::now();
                let schedule = f();
                best = best.min(started.elapsed().as_secs_f64());
                assert_eq!(
                    schedule, reference,
                    "{name}: schedules must be bit-identical"
                );
            }
            best * 1e3
        };
        let run = best_of(&|| {
            scheduler()
                .expect("valid")
                .run()
                .expect("feasible")
                .schedule
        });
        let naive = best_of(&|| {
            scheduler()
                .expect("valid")
                .run_naive()
                .expect("feasible")
                .schedule
        });
        let noop = best_of(&|| {
            scheduler()
                .expect("valid")
                .run_recorded(&NoopRecorder)
                .expect("feasible")
                .schedule
        });
        let recording = best_of(&|| {
            let rec = TraceRecorder::new();
            let out = scheduler()
                .expect("valid")
                .run_recorded(&rec)
                .expect("feasible");
            let data = rec.finish();
            std::hint::black_box((sink::to_jsonl(&data), sink::to_chrome_trace(&data)));
            out.schedule
        });
        t.row([
            name.to_owned(),
            system.num_ops().to_string(),
            format!("{run:.1} ms"),
            format!("{naive:.1} ms"),
            format!("{:.2}x", naive / run),
            format!("{noop:.1} ms"),
            format!("{recording:.1} ms"),
            format!("{:.2}x", recording / run),
        ]);
    }
    println!("\nfull coupled runs (all types global, period 5, best of {repeats}, schedules bit-identical):");
    print!("{}", t.render());
}

/// Keeps the summed forces observable so the optimizer cannot delete the
/// timed work.
#[inline(never)]
fn sink_guard(v: f64) {
    assert!(v.is_finite(), "forces must stay finite");
}
