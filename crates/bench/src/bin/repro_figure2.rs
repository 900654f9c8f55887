//! Regenerates Figure 2 of the paper: per-placement forces of the
//! unmodified and the first-part-modified IFDS algorithm on the
//! two-operation block, showing the periodic-alignment preference.

use tcms_bench::{Cli, ObsSession};

const CLI: Cli = Cli::new("Figure 2: unmodified vs. modified force ratings", &[]).with_obs();

fn main() {
    let obs = ObsSession::new(&CLI.parse_env());
    let fig = tcms_bench::run_figure2_recorded(obs.recorder());
    print!("{}", fig.rendered);
    obs.finish();
}
