//! Process-merging baseline (paper §1.1).
//!
//! When every process is triggered simultaneously and deterministically,
//! the classical answer is to merge them into one process and schedule the
//! union with a plain single-process scheduler. The paper's contribution
//! matters because merging is *impossible* for reactive systems; this
//! baseline quantifies both sides:
//!
//! * merged scheduling gets the unrestricted interleaving (and here even
//!   relaxed deadlines — see `tcms_ir::transform`), so its area is a lower
//!   bound for what any sharing scheme can reach,
//! * modulo sharing approaches that area **while keeping the processes
//!   independent**, which merging cannot.
//!
//! The merged flow runs a plain single-process scheduler, so the binary
//! also times the two single-block baselines against each other: the
//! original force-directed scheduling (Paulin/Knight) against the
//! improved, gradual-reduction IFDS every flow here builds on, on one
//! elliptical wave filter at three time ranges.

use std::time::Instant;

use tcms_bench::{Cli, ObsSession, TextTable};
use tcms_core::{ModuloScheduler, SharingSpec};
use tcms_fds::fds::schedule_block_fds;
use tcms_fds::{schedule_block_ifds, schedule_system_local, FdsConfig, IfdsOutcome, Schedule};
use tcms_ir::generators::{add_ewf_process, paper_library, paper_system};
use tcms_ir::transform::merge_processes;
use tcms_ir::{BlockId, System, SystemBuilder};

/// Best-of count of the FDS-vs-IFDS timings.
const FDS_REPEATS: usize = 10;

const CLI: Cli = Cli::new("process merging baseline; plain FDS vs. IFDS", &[]).with_obs();

/// Area of one block's schedule: its peak usage of every type, priced.
fn block_area(system: &System, block: BlockId, schedule: &Schedule) -> u64 {
    system
        .library()
        .iter()
        .map(|(k, rt)| u64::from(schedule.peak_usage(system, block, k)) * rt.area())
        .sum()
}

/// Times the original FDS against IFDS on one EWF process per time range.
fn fds_vs_ifds() {
    let mut t = TextTable::new();
    t.row([
        "T",
        "FDS iterations",
        "FDS area",
        "FDS time",
        "IFDS iterations",
        "IFDS area",
        "IFDS time",
    ]);
    t.sep();
    for time in [17u32, 20, 25] {
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, blk) = add_ewf_process(&mut b, "P", time, types).expect("builds");
        let sys = b.build().expect("valid");
        let best_of = |run: &dyn Fn() -> IfdsOutcome| {
            let mut best = f64::INFINITY;
            let mut out = None;
            for _ in 0..FDS_REPEATS {
                let started = Instant::now();
                let o = run();
                best = best.min(started.elapsed().as_secs_f64());
                o.schedule.verify(&sys).expect("valid schedule");
                out = Some(o);
            }
            (out.expect("at least one run"), best * 1e3)
        };
        let (fds, fds_ms) = best_of(&|| schedule_block_fds(&sys, blk, &FdsConfig::default()));
        let (ifds, ifds_ms) =
            best_of(&|| schedule_block_ifds(&sys, blk, &FdsConfig::default()).expect("feasible"));
        t.row([
            time.to_string(),
            fds.iterations.to_string(),
            block_area(&sys, blk, &fds.schedule).to_string(),
            format!("{fds_ms:.2} ms"),
            ifds.iterations.to_string(),
            block_area(&sys, blk, &ifds.schedule).to_string(),
            format!("{ifds_ms:.2} ms"),
        ]);
    }
    println!("\nOriginal FDS vs. IFDS on one elliptical wave filter (best of {FDS_REPEATS}):\n");
    print!("{}", t.render());
    println!("\nIFDS pays for its gradual one-step frame reductions with more, cheaper");
    println!("iterations; it is motivated by schedule quality, not speed.");
}

fn main() {
    let obs = ObsSession::new(&CLI.parse_env());
    let (system, types) = paper_system().expect("paper system builds");

    // 1. Traditional per-process scheduling (one pool per process).
    let local = ModuloScheduler::new(&system, SharingSpec::all_local(&system))
        .expect("valid")
        .run_recorded(obs.recorder())
        .expect("paper specs are feasible under an unlimited budget")
        .report();

    // 2. The paper's modulo-global sharing (processes stay independent).
    let global = ModuloScheduler::new(&system, SharingSpec::all_global(&system, 5))
        .expect("valid")
        .run_recorded(obs.recorder())
        .expect("paper specs are feasible under an unlimited budget")
        .report();

    // 3. Merged baseline: one fused process, classical IFDS.
    let merged_sys = merge_processes(&system).expect("merge succeeds");
    let merged_out = schedule_system_local(&merged_sys, &FdsConfig::default())
        .expect("unlimited budget cannot trip");
    merged_out
        .schedule
        .verify(&merged_sys)
        .expect("valid schedule");
    let blk = merged_sys.block_ids().next().expect("one block");
    let peak = |k| merged_out.schedule.peak_usage(&merged_sys, blk, k);
    let merged_area = block_area(&merged_sys, blk, &merged_out.schedule);

    let mut t = TextTable::new();
    t.row(["flow", "independent?", "add", "sub", "mul", "area"]);
    t.sep();
    t.row([
        "local (traditional)".to_owned(),
        "yes".to_owned(),
        local.instances(types.add).to_string(),
        local.instances(types.sub).to_string(),
        local.instances(types.mul).to_string(),
        local.total_area().to_string(),
    ]);
    t.row([
        "modulo global (paper)".to_owned(),
        "yes".to_owned(),
        global.instances(types.add).to_string(),
        global.instances(types.sub).to_string(),
        global.instances(types.mul).to_string(),
        global.total_area().to_string(),
    ]);
    t.row([
        "merged (when possible)".to_owned(),
        "no".to_owned(),
        peak(types.add).to_string(),
        peak(types.sub).to_string(),
        peak(types.mul).to_string(),
        merged_area.to_string(),
    ]);
    println!("Process-merging baseline on the Table-1 system:\n");
    print!("{}", t.render());
    println!("\nMerging is the cheapest when it applies, but it forces every process onto");
    println!("one common, slowest invocation rate (here all deadlines stretch to T=50 —");
    println!("the 'latency adaption' restriction of paper ref. [5]) and requires");
    println!("deterministic simultaneous triggers. Modulo sharing closes most of the");
    println!("local-to-merged gap while every process keeps its own rate and reacts");
    println!("independently to spontaneous events.");
    fds_vs_ifds();
    obs.finish();
}
