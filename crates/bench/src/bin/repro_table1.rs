//! Regenerates Table 1 of the paper: scheduling results of the
//! multi-process example (3 elliptical wave filters + 2 diffeq solvers),
//! modulo-global vs. traditional pure-local assignment.

use tcms_bench::{Cli, Flag, ObsSession};

const CLI: Cli = Cli::new(
    "Table 1: modulo-global vs. pure-local assignment",
    &[Flag::switch("--stats", "print engine stats")],
)
.with_obs();

fn main() {
    let args = CLI.parse_env();
    let obs = ObsSession::new(&args);
    let results = tcms_bench::run_table1_recorded(obs.recorder());
    print!("{}", tcms_bench::render_table1(&results));
    if args.switch("--stats") {
        println!("\nengine instrumentation:");
        for run in [&results.global, &results.local] {
            print!("  {}", tcms_bench::render_stats(run.label, &run.stats));
        }
    }
    obs.finish();
}
