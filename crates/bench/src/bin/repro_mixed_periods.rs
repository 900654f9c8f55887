//! Non-uniform period assignments (equations 2–3): harmonic period sets
//! keep the block-start grid fine, while incommensurate periods blow the
//! lcm up — the paper notes that only combinations complying with the
//! grid spacings survive the equation-3 filter.

use tcms_bench::{Cli, ObsSession, TextTable};
use tcms_core::period::{combined_spacing, is_harmonic, spacing_feasible};
use tcms_core::{ModuloScheduler, SharingSpec};
use tcms_ir::generators::paper_system;

const CLI: Cli = Cli::new("non-uniform period assignments (equations 2-3)", &[]).with_obs();

fn main() {
    let obs = ObsSession::new(&CLI.parse_env());
    let (system, types) = paper_system().expect("paper system builds");
    let mut t = TextTable::new();
    t.row([
        "rho(add)", "rho(sub)", "rho(mul)", "harmonic", "spacing", "area",
    ]);
    t.sep();
    for (pa, ps, pm) in [
        (5u32, 5u32, 5u32),
        (2, 2, 4),
        (3, 3, 6),
        (2, 4, 8),
        (5, 5, 15),
        (3, 5, 5),
        (2, 3, 5),
        (4, 6, 8),
    ] {
        let mut spec = SharingSpec::all_local(&system);
        spec.set_global(types.add, system.users_of_type(types.add), pa);
        spec.set_global(types.sub, system.users_of_type(types.sub), ps);
        spec.set_global(types.mul, system.users_of_type(types.mul), pm);
        let harmonic = is_harmonic(vec![pa, ps, pm]);
        let spacing = combined_spacing(&[pa, ps, pm]);
        if !spacing_feasible(&system, &spec) {
            t.row([
                pa.to_string(),
                ps.to_string(),
                pm.to_string(),
                if harmonic { "yes" } else { "no" }.to_owned(),
                spacing.to_string(),
                "filtered (eq. 3)".to_owned(),
            ]);
            continue;
        }
        let report = ModuloScheduler::new(&system, spec)
            .expect("valid")
            .run_recorded(obs.recorder())
            .expect("paper specs are feasible under an unlimited budget")
            .report();
        t.row([
            pa.to_string(),
            ps.to_string(),
            pm.to_string(),
            if harmonic { "yes" } else { "no" }.to_owned(),
            spacing.to_string(),
            report.total_area().to_string(),
        ]);
    }
    println!("Mixed period assignments on the Table-1 system:\n");
    print!("{}", t.render());
    println!("\nHarmonic sets keep the grid equal to the largest period; incommensurate");
    println!("sets multiply the spacing and are filtered once it exceeds the diffeq");
    println!("processes' budget of 15 steps (equation 3).");
    obs.finish();
}
