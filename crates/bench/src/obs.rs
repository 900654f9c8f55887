//! Observability plumbing shared by the `repro_*` binaries.
//!
//! Every reproduction binary accepts the same flags as
//! `tcms schedule`:
//!
//! * `--trace <file.json>` — Chrome `trace_event` output
//!   (Perfetto / about:tracing),
//! * `--timeline <file.jsonl>` — the JSONL span/event/timeline stream,
//! * `--metrics` — print the metrics-registry summary table,
//! * `--threads <N>` — worker threads for partition shards, the period
//!   search and the exact search (0 = auto; results are bit-identical at
//!   every thread count).
//!
//! A binary constructs one [`ObsSession`] from its arguments, threads
//! [`ObsSession::recorder`] through the `*_recorded` runners and calls
//! [`ObsSession::finish`] before exiting. Without any of the flags the
//! recorder is the no-op recorder and nothing is collected.

use tcms_obs::{NoopRecorder, Recorder, TraceRecorder};

/// Per-invocation observability state of a `repro_*` binary.
#[derive(Debug, Default)]
pub struct ObsSession {
    recorder: Option<TraceRecorder>,
    trace: Option<String>,
    timeline: Option<String>,
    metrics: bool,
}

impl ObsSession {
    /// Parses `--trace`, `--timeline`, `--metrics` and `--threads` from
    /// the process arguments. Unknown flags are left for the binary's own
    /// parsing. `--threads` applies the global worker-thread override
    /// immediately (see `tcms_fds::threads`).
    ///
    /// # Panics
    ///
    /// Panics when `--trace`/`--timeline` is passed without a path or
    /// `--threads` without a valid count.
    pub fn from_env_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args)
    }

    /// [`ObsSession::from_env_args`] on an explicit argument list.
    ///
    /// # Panics
    ///
    /// Panics when `--trace`/`--timeline` is passed without a path or
    /// `--threads` without a valid count.
    pub fn from_args(args: &[String]) -> Self {
        let mut s = ObsSession::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--trace" => s.trace = Some(it.next().expect("--trace needs a path").clone()),
                "--timeline" => {
                    s.timeline = Some(it.next().expect("--timeline needs a path").clone());
                }
                "--metrics" => s.metrics = true,
                "--threads" => {
                    let n: usize = it
                        .next()
                        .expect("--threads needs a count")
                        .parse()
                        .expect("--threads needs a numeric count");
                    tcms_fds::threads::set(n);
                }
                _ => {}
            }
        }
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

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn no_flags_is_noop() {
        let s = ObsSession::from_args(&args(&["--stats", "other"]));
        assert!(!s.enabled());
        assert!(!s.recorder().enabled());
        s.finish(); // writes nothing
    }

    #[test]
    fn flags_arm_the_recorder() {
        let s = ObsSession::from_args(&args(&["--metrics"]));
        assert!(s.enabled());
        assert!(s.recorder().enabled());
        let s = ObsSession::from_args(&args(&["--trace", "t.json", "--stats"]));
        assert!(s.enabled());
        assert_eq!(s.trace.as_deref(), Some("t.json"));
        let s = ObsSession::from_args(&args(&["--timeline", "t.jsonl"]));
        assert_eq!(s.timeline.as_deref(), Some("t.jsonl"));
    }

    #[test]
    fn finish_writes_requested_files() {
        let dir = std::env::temp_dir().join("tcms_bench_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.json").to_string_lossy().into_owned();
        let timeline = dir.join("t.jsonl").to_string_lossy().into_owned();
        let s = ObsSession::from_args(&args(&["--trace", &trace, "--timeline", &timeline]));
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
