//! Metric bookkeeping, sample statistics, the machine block and the
//! result document.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

use tcms_obs::json::{self, JsonValue};

/// Named metric values, in name order. Units live with the metric lists
/// of `main.rs`, which mirror `BENCHMARK.json`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets `name` to `value`. A non-finite value (a ratio over an empty
    /// sample) is stored as 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_owned(), value);
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for the listed metrics;
    /// a metric the workload has no use for reads 0.
    #[must_use]
    pub fn to_json(&self, listed: &[(&str, &str)]) -> JsonValue {
        let mut out = BTreeMap::new();
        for (name, unit) in listed {
            let mut m = BTreeMap::new();
            m.insert(
                "value".to_owned(),
                JsonValue::Number(self.get(name).unwrap_or(0.0)),
            );
            m.insert("unit".to_owned(), JsonValue::String((*unit).to_owned()));
            out.insert((*name).to_owned(), JsonValue::Object(m));
        }
        JsonValue::Object(out)
    }

    /// One aligned `name value unit` line per listed metric.
    #[must_use]
    pub fn render(&self, listed: &[(&str, &str)]) -> String {
        listed
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!("  {name:<26} {value:>14.4} {unit}\n")
            })
            .collect()
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample; 0
/// when empty.
#[must_use]
pub fn percentile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a sample, averaging the middle pair; 0 when empty.
#[must_use]
pub fn median(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
#[must_use]
pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = sample.len() as f64;
    sample.iter().sum::<f64>() / n
}

/// `VmHWM` of this process in MiB (the daemons run in-process, so this
/// includes them); 0 where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used on all its threads, live and exited:
/// `utime + stime` of `/proc/self/stat`, in the kernel's fixed 100 Hz
/// user ticks. `None` where `/proc` is unavailable.
#[must_use]
pub fn process_cpu() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2, the command name, may hold spaces; field 3 follows its
    // closing parenthesis, so utime (14) and stime (15) are the 12th and
    // 13th fields after it.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 10))
}

/// Milliseconds of process CPU time per request between two
/// [`process_cpu`] readings; 0 when either is missing.
#[must_use]
pub fn cpu_ms_per_request(
    before: Option<Duration>,
    after: Option<Duration>,
    requests: usize,
) -> f64 {
    match (before, after) {
        #[allow(clippy::cast_precision_loss)]
        (Some(b), Some(a)) => a.saturating_sub(b).as_secs_f64() * 1e3 / requests as f64,
        _ => 0.0,
    }
}

/// The `total area: N` line of a schedule report.
#[must_use]
pub fn report_area(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("total area: "))
        .and_then(|v| v.trim().parse().ok())
}

/// What a result depends on besides the code: cores, the scheduler's
/// thread count, the commit and the compiler.
#[must_use]
pub fn machine() -> JsonValue {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    // Read the commit only from a repository rooted here, so the lookup
    // never walks out of the working directory.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .env("GIT_DIR", ".git")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        })
        .flatten()
        .unwrap_or_else(|| "unknown".to_owned());
    let mut m = BTreeMap::new();
    #[allow(clippy::cast_precision_loss)]
    {
        m.insert("cores".to_owned(), JsonValue::Number(cores as f64));
        m.insert(
            "scheduler_threads".to_owned(),
            JsonValue::Number(rayon::current_num_threads() as f64),
        );
    }
    m.insert("commit".to_owned(), JsonValue::String(commit));
    m.insert(
        "rustc".to_owned(),
        JsonValue::String(env!("PERFBENCH_RUSTC").to_owned()),
    );
    JsonValue::Object(m)
}

/// The result line the benchmark prints last.
#[must_use]
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    listed: &[(&str, &str)],
) -> String {
    let mut m = BTreeMap::new();
    m.insert("correct".to_owned(), JsonValue::Bool(true));
    #[allow(clippy::cast_precision_loss)]
    {
        m.insert("attempted".to_owned(), JsonValue::Number(attempted as f64));
        m.insert("failed".to_owned(), JsonValue::Number(failed as f64));
    }
    m.insert("metrics".to_owned(), metrics.to_json(listed));
    json::to_string(&JsonValue::Object(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_take_the_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(median(&s), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.set("latency_p50_ms", 1.25);
        m.set("extra", 2.0);
        let line = result_line(10, 0, &m, &[("latency_p50_ms", "ms")]);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("latency_p50_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
    }

    #[test]
    fn process_cpu_counts_work_done() {
        let before = process_cpu().expect("/proc/self/stat is readable");
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(100) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = process_cpu().unwrap();
        assert!(
            after - before >= Duration::from_millis(50),
            "{before:?} → {after:?}"
        );
        let per = cpu_ms_per_request(Some(before), Some(after), 2);
        assert!(per >= 25.0, "{per}");
        assert_eq!(cpu_ms_per_request(None, Some(after), 2), 0.0);
    }

    #[test]
    fn report_area_reads_the_total() {
        assert_eq!(report_area("x\ntotal area: 14\n"), Some(14));
        assert_eq!(report_area("nothing"), None);
    }
}
