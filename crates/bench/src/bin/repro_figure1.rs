//! Regenerates Figure 1 of the paper: the periodic access-authorization
//! mapping of one process onto a globally shared resource type.

use tcms_bench::{Cli, ObsSession};

const CLI: Cli = Cli::new("Figure 1: periodic access-authorization mapping", &[]).with_obs();

fn main() {
    let obs = ObsSession::new(&CLI.parse_env());
    let fig = tcms_bench::run_figure1_recorded(obs.recorder());
    print!("{}", fig.rendered);
    obs.finish();
}
