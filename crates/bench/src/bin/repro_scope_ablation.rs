//! Ablation of step (S1): every local/global combination of the three
//! resource types on the Table-1 system.

use tcms_bench::{Cli, ObsSession, TextTable};
use tcms_core::{ModuloScheduler, SharingSpec};
use tcms_ir::generators::paper_system;

const CLI: Cli = Cli::new("every local/global split of the three types (S1)", &[]).with_obs();

fn main() {
    let obs = ObsSession::new(&CLI.parse_env());
    let (system, types) = paper_system().expect("paper system builds");
    let mut t = TextTable::new();
    t.row(["add", "sub", "mul", "#add", "#sub", "#mul", "area"]);
    t.sep();
    for mask in 0..8u32 {
        let mut spec = SharingSpec::all_local(&system);
        let mut labels = ["local"; 3];
        for (i, &k) in [types.add, types.sub, types.mul].iter().enumerate() {
            if mask & (1 << i) != 0 {
                spec.set_global(k, system.users_of_type(k), 5);
                labels[i] = "global";
            }
        }
        let report = ModuloScheduler::new(&system, spec)
            .expect("valid spec")
            .run_recorded(obs.recorder())
            .expect("paper specs are feasible under an unlimited budget")
            .report();
        t.row([
            labels[0].to_owned(),
            labels[1].to_owned(),
            labels[2].to_owned(),
            report.instances(types.add).to_string(),
            report.instances(types.sub).to_string(),
            report.instances(types.mul).to_string(),
            report.total_area().to_string(),
        ]);
    }
    println!("Scope ablation (S1) on the Table-1 system, ρ = 5:\n");
    print!("{}", t.render());
    println!("\nSharing the multiplier alone recovers most of the area saving;");
    println!("the paper shares all types to demonstrate many concurrent global sharings.");
    obs.finish();
}
