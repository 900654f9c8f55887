//! Sweeps the uniform access period over the Table-1 system — the §3.2
//! trade-off: larger periods enable more sharing but stretch the
//! invocation grid of reactive processes.
//!
//! Candidate periods are scheduled in parallel (the runs are independent;
//! output order and results are deterministic).

use tcms_bench::{render_stats, Cli, Flag, ObsSession, TextTable};
use tcms_core::explore::sweep_uniform_periods_recorded;
use tcms_fds::FdsConfig;
use tcms_ir::generators::paper_system;

const CLI: Cli = Cli::new(
    "the section 3.2 uniform-period trade-off on the Table-1 system",
    &[Flag::switch("--stats", "print per-period engine stats")],
)
.with_obs();

fn main() {
    let args = CLI.parse_env();
    let obs = ObsSession::new(&args);
    let (system, types) = paper_system().expect("paper system builds");
    let points =
        sweep_uniform_periods_recorded(&system, 1..=15, &FdsConfig::default(), obs.recorder())
            .expect("sweep runs");
    let mut t = TextTable::new();
    t.row([
        "period",
        "spacing",
        "add",
        "sub",
        "mul",
        "area",
        "iterations",
    ]);
    t.sep();
    for p in &points {
        t.row([
            p.period.to_string(),
            p.spacing.to_string(),
            p.report.instances(types.add).to_string(),
            p.report.instances(types.sub).to_string(),
            p.report.instances(types.mul).to_string(),
            p.report.total_area().to_string(),
            p.iterations.to_string(),
        ]);
    }
    println!("Period sweep over the Table-1 system (global {{+,-,*}}):\n");
    print!("{}", t.render());
    println!("\nLarger periods widen the sharing window but also the block start grid");
    println!("(spacing column) — the twofold impact discussed in section 3.2.");
    if args.switch("--stats") {
        println!("\nengine instrumentation:");
        for p in &points {
            print!(
                "  {}",
                render_stats(&format!("period {:>2}", p.period), &p.stats)
            );
        }
    }
    obs.finish();
}
