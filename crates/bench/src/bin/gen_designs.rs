//! Regenerates the checked-in `designs/` inputs from the generators.
//!
//! Without flags, rewrites `designs/paper_table1.dfg` from the paper
//! generator — the historical behavior. With any sizing flag, emits a
//! seeded synthetic multi-process design of roughly `N` operations
//! spread over `P` processes (the inputs the partition-scaling study
//! consumes). The same flags always produce the same bytes.

use tcms_bench::workload::scaling_config;
use tcms_bench::{Cli, Flag};
use tcms_ir::generators::random_system;

const CLI: Cli = Cli::new(
    "regenerates designs/paper_table1.dfg, or a synthetic design with --ops",
    &[
        Flag::value("--ops", "N", "emit a synthetic design of about N ops"),
        Flag::value("--processes", "P", "processes of the synthetic design").or("8"),
        Flag::value("--seed", "S", "generator seed").or("1"),
        Flag::value("--out", "FILE", "output path"),
    ],
);

fn main() {
    let args = CLI.parse_env();
    let ops: Option<usize> = args.value("--ops");
    let processes: usize = args.get("--processes");
    let seed: u64 = args.get("--seed");
    let out: Option<String> = args.value("--out");

    if let Some(ops) = ops {
        if ops == 0 || processes == 0 {
            args.fail("--ops and --processes must be positive");
        }
        let cfg = scaling_config(ops, processes);
        let (sys, _) = random_system(&cfg, seed).expect("synthetic system builds");
        let path =
            out.unwrap_or_else(|| format!("designs/synth_{ops}ops_{processes}p_seed{seed}.dfg"));
        if let Some(dir) = std::path::Path::new(&path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create output dir");
            }
        }
        std::fs::write(&path, tcms_ir::display::to_dfg(&sys)).expect("write design");
        println!(
            "wrote {path} ({} ops, {} processes, seed {seed})",
            sys.num_ops(),
            sys.num_processes()
        );
        return;
    }

    let (sys, _) = tcms_ir::generators::paper_system().expect("paper system builds");
    let path = out.unwrap_or_else(|| "designs/paper_table1.dfg".to_owned());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create designs dir");
        }
    }
    std::fs::write(&path, tcms_ir::display::to_dfg(&sys)).expect("write design");
    println!("wrote {path}");
}
