//! Optimality-gap study: the coupled force-directed heuristic vs. the
//! exact branch-and-bound optimum on small random systems.
//!
//! The paper gives no optimality evidence (FDS is a heuristic); this
//! study quantifies the gap where exhaustive search is tractable.
//! Systems whose exact search does not finish under the node cap are
//! skipped. CI runs a small-cap smoke configuration.

use tcms_bench::{Cli, Flag, ObsSession, TextTable};
use tcms_core::exact::exact_schedule;
use tcms_core::{ModuloScheduler, SharingSpec};
use tcms_ir::generators::{random_system, RandomSystemConfig};

const CLI: Cli = Cli::new(
    "coupled heuristic vs. exact optimum on tiny random systems",
    &[
        Flag::value("--node-cap", "N", "exact-search node budget per system").or("5000000"),
        Flag::value("--seeds", "N", "random systems to try").or("20"),
    ],
)
.with_obs();

fn main() {
    let args = CLI.parse_env();
    let obs = ObsSession::new(&args);
    let node_cap: u64 = args.get("--node-cap");
    let seeds: u64 = args.get("--seeds");
    let cfg = RandomSystemConfig {
        processes: 2,
        blocks_per_process: 1,
        layers: 3,
        ops_per_layer: (1, 2),
        edge_prob: 0.5,
        slack: 2.0,
        type_weights: [2, 1, 2],
    };
    let mut t = TextTable::new();
    t.row(["seed", "ops", "heuristic", "optimum", "nodes", "gap"]);
    t.sep();
    let (mut total_h, mut total_e, mut solved) = (0u64, 0u64, 0u32);
    for seed in 0..seeds {
        let (sys, _) = random_system(&cfg, seed).expect("feasible");
        let spec = SharingSpec::all_global(&sys, 2);
        if !tcms_core::period::spacing_feasible(&sys, &spec) {
            continue;
        }
        let Some(exact) = exact_schedule(&sys, &spec, node_cap).expect("valid spec") else {
            continue;
        };
        if !exact.complete {
            continue;
        }
        let heuristic = ModuloScheduler::new(&sys, spec)
            .expect("valid")
            .run_recorded(obs.recorder())
            .expect("random specs that pass eq. 3 are feasible");
        let h = heuristic.report().total_area();
        total_h += h;
        total_e += exact.area;
        solved += 1;
        t.row([
            seed.to_string(),
            sys.num_ops().to_string(),
            h.to_string(),
            exact.area.to_string(),
            exact.nodes.to_string(),
            format!("{:.2}", h as f64 / exact.area as f64),
        ]);
    }
    println!("Heuristic vs. proven optimum on tiny 2-process systems (ρ = 2):\n");
    print!("{}", t.render());
    println!(
        "\naggregate: heuristic {total_h} vs optimum {total_e} over {solved} systems — ratio {:.3}",
        total_h as f64 / total_e as f64
    );
    obs.finish();
}
