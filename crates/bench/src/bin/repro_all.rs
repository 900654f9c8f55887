//! Runs every reproduction binary in sequence — the one-shot harness that
//! regenerates all tables, figures and ablations of EXPERIMENTS.md.
//!
//! The observability flags are forwarded to every child that takes them
//! (see `tcms_bench::obs`), `--stats` to the children that print engine
//! instrumentation. The file arguments of `--trace`/`--timeline` are
//! prefixed with the child's name (`trace.json` →
//! `repro_table1.trace.json`) so the children do not overwrite each
//! other's sink files. The harness-style binaries (`repro_force_kernel`,
//! `repro_replay`, `repro_chaos`, `repro_partition_scaling`) take their
//! own flag sets, so they get only the defaults listed in `EXTRA_ARGS`.

use std::path::Path;
use std::process::Command;

use tcms_bench::{Args, Cli, Flag};

const CLI: Cli = Cli::new(
    "runs every reproduction target in sequence",
    &[Flag::switch("--stats", "forwarded where taken")],
)
.with_obs();

const TARGETS: &[&str] = &[
    "repro_table1",
    "repro_figure1",
    "repro_figure2",
    "repro_period_sweep",
    "repro_scope_ablation",
    "repro_budget_sensitivity",
    "repro_merging_baseline",
    "repro_alu_ablation",
    "repro_mixed_periods",
    "repro_fault_sweep",
    "repro_optimality_gap",
    "repro_force_kernel",
    "repro_replay",
    "repro_chaos",
    "repro_partition_scaling",
];

/// Targets that take `--stats`.
const STATS_TARGETS: &[&str] = &["repro_table1", "repro_period_sweep"];

/// Targets with their own flag vocabulary: observability flags are not
/// forwarded to them (an unknown flag is a usage error in every child).
const RAW_TARGETS: &[&str] = &[
    "repro_force_kernel",
    "repro_replay",
    "repro_chaos",
    "repro_partition_scaling",
];

/// Default arguments appended to raw targets so the full harness stays
/// one-shot-sized (each binary still runs its full study standalone).
const EXTRA_ARGS: &[(&str, &[&str])] = &[("repro_partition_scaling", &["--quick"])];

/// Prefixes the file name of an observability sink path with the target
/// name, keeping any directory components.
fn per_target_path(target: &str, path: &str) -> String {
    let p = Path::new(path);
    let file = p
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_owned());
    match p.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir
            .join(format!("{target}.{file}"))
            .to_string_lossy()
            .into_owned(),
        _ => format!("{target}.{file}"),
    }
}

/// The arguments for one child: the forwarded flags it takes, with
/// per-target sink paths; raw targets get only their `EXTRA_ARGS`.
fn args_for(target: &str, args: &Args) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    if RAW_TARGETS.contains(&target) {
        if let Some((_, extra)) = EXTRA_ARGS.iter().find(|(t, _)| *t == target) {
            out.extend(extra.iter().map(|a| (*a).to_owned()));
        }
        return out;
    }
    if args.switch("--stats") && STATS_TARGETS.contains(&target) {
        out.push("--stats".to_owned());
    }
    for flag in ["--trace", "--timeline"] {
        if let Some(path) = args.value::<String>(flag) {
            out.extend([flag.to_owned(), per_target_path(target, &path)]);
        }
    }
    if args.switch("--metrics") {
        out.push("--metrics".to_owned());
    }
    if let Some(n) = args.value::<usize>("--threads") {
        out.extend(["--threads".to_owned(), n.to_string()]);
    }
    out
}

fn main() {
    let args = CLI.parse_env();
    // Built up front, so a bad forwarded value stops the run before it starts.
    let child_args: Vec<Vec<String>> = TARGETS.iter().map(|t| args_for(t, &args)).collect();
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let mut failures = 0;
    for (target, child_args) in TARGETS.iter().zip(child_args) {
        println!("==================== {target} ====================");
        let status = Command::new(exe_dir.join(target))
            .args(child_args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {target}: {e}"));
        if !status.success() {
            eprintln!("{target} FAILED ({status})");
            failures += 1;
        }
        println!();
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!("all {} reproduction targets completed", TARGETS.len());
}
