#![warn(missing_docs)]
//! Benchmark harness reproducing every table and figure of the paper.
//!
//! * [`experiments`] — reusable runners for Table 1, Figure 1 and Figure 2
//!   plus the render functions the `repro_*` binaries print,
//! * [`table`] — fixed-width text tables,
//! * [`workload`] — seeded synthetic request streams (LCG + Zipf) shared
//!   by the serve-facing benchmarks,
//! * [`cli`] — the one flag parser every binary declares its flags with
//!   (`--help`, one-line usage errors with exit 2),
//! * [`obs`] — the observability flags and their sinks.
//!
//! Binaries (run with `cargo run --release -p tcms-bench --bin <name>`;
//! each answers `--help`):
//!
//! | binary | reproduces / measures |
//! |--------|-----------------------|
//! | `repro_all` | every table and figure below, in one run |
//! | `repro_table1` | Table 1: global vs. pure-local resource counts, area and run time |
//! | `repro_figure1` | Figure 1: periodic access-authorization mapping |
//! | `repro_figure2` | Figure 2: unmodified vs. modified force ratings |
//! | `repro_period_sweep` | §3.2 period trade-off curve (`--stats`: per-period engine time) |
//! | `repro_scope_ablation` | per-type local/global ablation of step (S1) |
//! | `repro_budget_sensitivity` | Table 1 under every plausible reading of the time budgets |
//! | `repro_merging_baseline` | §1.1 process-merging baseline; plain FDS vs. IFDS run time |
//! | `repro_alu_ablation` | merged add/sub ALU library |
//! | `repro_mixed_periods` | non-uniform period sets (equations 2–3) |
//! | `repro_optimality_gap` | heuristic vs. exact branch-and-bound optimum |
//! | `repro_exact_throughput` | exact-search node throughput vs. system size |
//! | `repro_thread_scaling` | Table 1 at 1/2/4/8 threads; coupled run time vs. process count |
//! | `repro_force_kernel` | slab/legacy/naive force kernels; cached vs. naive and recorded vs. plain full runs |
//! | `repro_fault_sweep` | fault-injection sweep of the Table-1 system |
//! | `repro_partition_scaling` | partitioned vs. monolithic scheduling (DESIGN §13) |
//! | `repro_serve_load` | concurrent load on the `tcms serve` daemon |
//! | `repro_replay` | journal capture and bit-identical replay |
//! | `repro_chaos` | the daemon behind a fault-injecting proxy |
//! | `repro_fleet` | the three-node fleet as one logical cache |
//! | `gen_designs` | regenerates the checked-in `designs/` inputs |

pub mod cli;
pub mod experiments;
pub mod obs;
pub mod table;
pub mod workload;

pub use cli::{Args, Cli, Flag};
pub use experiments::{
    paper_spec, render_stats, render_table1, run_figure1, run_figure1_recorded, run_figure2,
    run_figure2_recorded, run_table1, run_table1_recorded, Figure1Data, Figure2Data, Table1Results,
    Table1Run,
};
pub use obs::ObsSession;
pub use table::{float_profile, profile, TextTable};
pub use workload::{make_design, percentile, scaling_config, synthetic_requests, zipf_cdf};
