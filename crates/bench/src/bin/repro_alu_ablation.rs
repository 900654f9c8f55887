//! Multi-function-unit ablation: merging the adder and subtracter into a
//! single ALU type (a classic minimum-area HLS move) on top of global
//! sharing.
//!
//! Because the IR keys operations by resource type, an ALU is simply one
//! type used by both the addition and subtraction operations — the
//! scheduler and the authorization machinery need no changes.

use tcms_bench::{Cli, ObsSession, TextTable};
use tcms_core::{ModuloScheduler, SharingSpec};
use tcms_ir::generators::{add_diffeq_process, add_ewf_process, PaperTypes};
use tcms_ir::{ResourceLibrary, ResourceType, SystemBuilder};

fn alu_system() -> (tcms_ir::System, PaperTypes) {
    let mut lib = ResourceLibrary::new();
    // One ALU covers additions and subtractions; slightly costlier than a
    // bare adder.
    let alu = lib
        .add(ResourceType::new("alu", 1).with_area(2))
        .expect("fresh library");
    let mul = lib
        .add(ResourceType::new("mul", 2).pipelined().with_area(4))
        .expect("fresh library");
    let types = PaperTypes {
        add: alu,
        sub: alu,
        mul,
    };
    let mut b = SystemBuilder::new(lib);
    add_ewf_process(&mut b, "P1", 30, types).expect("builds");
    add_ewf_process(&mut b, "P2", 30, types).expect("builds");
    add_ewf_process(&mut b, "P3", 50, types).expect("builds");
    add_diffeq_process(&mut b, "P4", 15, types).expect("builds");
    add_diffeq_process(&mut b, "P5", 15, types).expect("builds");
    (b.build().expect("feasible"), types)
}

const CLI: Cli = Cli::new("merged add/sub ALU library under global sharing", &[]).with_obs();

fn main() {
    let obs = ObsSession::new(&CLI.parse_env());
    let (split_sys, split_types) = tcms_ir::generators::paper_system().expect("builds");
    let (alu_sys, alu_types) = alu_system();

    let run = |sys: &tcms_ir::System, spec: SharingSpec| {
        ModuloScheduler::new(sys, spec)
            .expect("valid")
            .run_recorded(obs.recorder())
            .expect("paper specs are feasible under an unlimited budget")
            .report()
    };

    let split_global = run(&split_sys, SharingSpec::all_global(&split_sys, 5));
    let split_local = run(&split_sys, SharingSpec::all_local(&split_sys));
    let alu_global = run(&alu_sys, SharingSpec::all_global(&alu_sys, 5));
    let alu_local = run(&alu_sys, SharingSpec::all_local(&alu_sys));

    let mut t = TextTable::new();
    t.row(["library", "scope", "add/sub units", "mul", "area"]);
    t.sep();
    t.row([
        "add+sub".to_owned(),
        "local".to_owned(),
        format!(
            "{}+{}",
            split_local.instances(split_types.add),
            split_local.instances(split_types.sub)
        ),
        split_local.instances(split_types.mul).to_string(),
        split_local.total_area().to_string(),
    ]);
    t.row([
        "add+sub".to_owned(),
        "global".to_owned(),
        format!(
            "{}+{}",
            split_global.instances(split_types.add),
            split_global.instances(split_types.sub)
        ),
        split_global.instances(split_types.mul).to_string(),
        split_global.total_area().to_string(),
    ]);
    t.row([
        "ALU".to_owned(),
        "local".to_owned(),
        alu_local.instances(alu_types.add).to_string(),
        alu_local.instances(alu_types.mul).to_string(),
        alu_local.total_area().to_string(),
    ]);
    t.row([
        "ALU".to_owned(),
        "global".to_owned(),
        alu_global.instances(alu_types.add).to_string(),
        alu_global.instances(alu_types.mul).to_string(),
        alu_global.total_area().to_string(),
    ]);
    println!("Multi-function-unit ablation on the Table-1 system (ρ = 5, ALU area 2):\n");
    print!("{}", t.render());
    println!("\nThe ALU merge composes mechanically with global sharing (one pool serves");
    println!("both operation kinds), but does not pay off on this workload: subtraction");
    println!("usage is tiny, so pricing every adder as a 2-area ALU costs more than the");
    println!("two dedicated subtracters it replaces.");
    obs.finish();
}
