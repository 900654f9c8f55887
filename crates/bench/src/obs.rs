//! Observability plumbing shared by the `repro_*` binaries.
//!
//! The binaries declared with [`crate::Cli::with_obs`] — `repro_table1`,
//! `repro_figure1`, `repro_figure2`, `repro_period_sweep`,
//! `repro_scope_ablation`, `repro_budget_sensitivity`,
//! `repro_merging_baseline`, `repro_alu_ablation`,
//! `repro_mixed_periods`, `repro_fault_sweep`, `repro_optimality_gap`
//! and `repro_all`, which forwards them — accept the same flags as
//! `tcms schedule`:
//!
//! * `--trace <file.json>` — Chrome `trace_event` output
//!   (Perfetto / about:tracing),
//! * `--timeline <file.jsonl>` — the JSONL span/event/timeline stream,
//! * `--metrics` — print the metrics-registry summary table,
//! * `--threads <N>` — worker threads for partition shards and the
//!   period search (0 = auto; results are bit-identical at every thread
//!   count).
//!
//! A binary builds one [`ObsSession`] from its parsed arguments, threads
//! [`ObsSession::recorder`] through the `*_recorded` runners and calls
//! [`ObsSession::finish`] before exiting. Without any of the flags the
//! recorder is the no-op recorder and nothing is collected.

use tcms_obs::{NoopRecorder, Recorder, TraceRecorder};

use crate::cli::{Args, Flag};

/// The observability flags, appended to a declaration by
/// [`crate::Cli::with_obs`].
pub(crate) const OBS_FLAGS: &[Flag] = &[
    Flag::value("--trace", "FILE", "write a Chrome trace_event file"),
    Flag::value("--timeline", "FILE", "write the JSONL span/event stream"),
    Flag::switch("--metrics", "print the metrics-registry summary"),
    Flag::value("--threads", "N", "worker threads, 0 = auto"),
];

/// Per-invocation observability state of a `repro_*` binary.
#[derive(Debug, Default)]
pub struct ObsSession {
    recorder: Option<TraceRecorder>,
    trace: Option<String>,
    timeline: Option<String>,
    metrics: bool,
}

impl ObsSession {
    /// Reads the observability flags from `args` (parsed by a
    /// [`crate::Cli::with_obs`] declaration). `--threads` applies the
    /// global worker-thread override immediately (see `tcms_fds::threads`).
    pub fn new(args: &Args) -> Self {
        if let Some(n) = args.value::<usize>("--threads") {
            tcms_fds::threads::set(n);
        }
        let mut s = ObsSession {
            recorder: None,
            trace: args.value("--trace"),
            timeline: args.value("--timeline"),
            metrics: args.switch("--metrics"),
        };
        if s.trace.is_some() || s.timeline.is_some() || s.metrics {
            s.recorder = Some(TraceRecorder::new());
        }
        s
    }

    /// The recorder to thread through `*_recorded` runners: a live
    /// [`TraceRecorder`] when any flag was given, the no-op otherwise.
    pub fn recorder(&self) -> &dyn Recorder {
        match &self.recorder {
            Some(r) => r,
            None => &NoopRecorder,
        }
    }

    /// Whether any observability output was requested.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Writes the requested sink files and prints the metrics summary.
    ///
    /// # Panics
    ///
    /// Panics when an output file cannot be written.
    pub fn finish(self) {
        let Some(recorder) = self.recorder else {
            return;
        };
        let data = recorder.finish();
        if let Some(path) = &self.trace {
            std::fs::write(path, tcms_obs::sink::to_chrome_trace(&data))
                .unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
            println!("chrome trace written to {path}");
        }
        if let Some(path) = &self.timeline {
            std::fs::write(path, tcms_obs::sink::to_jsonl(&data))
                .unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
            println!("timeline written to {path}");
        }
        if self.metrics {
            println!("\n{}", data.metrics.render_summary());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cli;

    const CLI: Cli = Cli::new("test", &[Flag::switch("--stats", "stats")]).with_obs();

    fn session(v: &[&str]) -> ObsSession {
        let argv: Vec<String> = ["repro_test"]
            .iter()
            .chain(v)
            .map(|s| (*s).to_owned())
            .collect();
        ObsSession::new(&CLI.parse(&argv).unwrap())
    }

    #[test]
    fn no_flags_is_noop() {
        let s = session(&["--stats"]);
        assert!(!s.enabled());
        assert!(!s.recorder().enabled());
        s.finish(); // writes nothing
    }

    #[test]
    fn flags_arm_the_recorder() {
        let s = session(&["--metrics"]);
        assert!(s.enabled());
        assert!(s.recorder().enabled());
        let s = session(&["--trace", "t.json", "--stats"]);
        assert!(s.enabled());
        assert_eq!(s.trace.as_deref(), Some("t.json"));
        let s = session(&["--timeline", "t.jsonl"]);
        assert_eq!(s.timeline.as_deref(), Some("t.jsonl"));
    }

    #[test]
    fn finish_writes_requested_files() {
        let dir = std::env::temp_dir().join("tcms_bench_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.json").to_string_lossy().into_owned();
        let timeline = dir.join("t.jsonl").to_string_lossy().into_owned();
        let s = session(&["--trace", &trace, "--timeline", &timeline]);
        {
            let rec = s.recorder();
            let _span = tcms_obs::span!(rec, "test.span", n = 1u64);
            rec.counter_add("test.counter", 2);
        }
        s.finish();
        let chrome = std::fs::read_to_string(&trace).unwrap();
        assert!(tcms_obs::sink::validate_chrome_trace(&chrome).unwrap() > 0);
        let jsonl = std::fs::read_to_string(&timeline).unwrap();
        assert!(tcms_obs::sink::validate_jsonl(&jsonl).unwrap() > 0);
    }
}
