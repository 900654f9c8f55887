//! The benchmark of the four north-star paths.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1_oneshot|serve_zipf|fleet_zipf|partition_318> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from the repository root, checks every answer, and
//! prints the metrics by name and unit. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). A wrong answer exits with status 1 and prints no
//! result. The full result, with the machine block, is written to
//! `perfbench/out/`, and a traced run's spans next to it.

mod inputs;
mod layers;
mod oneshot;
mod report;
mod served;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tcms_obs::json::{self, JsonValue};
use tcms_obs::sink::{to_chrome_trace, to_jsonl};
use tcms_obs::TraceData;

use report::{machine, peak_rss_mb, result_line, Metrics};
use served::Topology;

/// The end-to-end metrics, with units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("area_total", "area"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, with units, as `BENCHMARK.json` lists them. A
/// metric a workload does not exercise reads 0 there.
const PER_LAYER: [(&str, &str); 56] = [
    ("throughput_rps", "1/s"),
    ("ir.parse_us", "us"),
    ("ir.canon_us", "us"),
    ("core.spec_us", "us"),
    ("core.fingerprint_us", "us"),
    ("core.schedule_us", "us"),
    ("core.replay_us", "us"),
    ("core.partition_rounds", "count"),
    ("core.partition_cut_edges", "count"),
    ("fds.iterations", "count"),
    ("fds.evals", "count"),
    ("fds.eval_us", "us"),
    ("fds.commit_us", "us"),
    ("fds.cand_hit_rate", "ratio"),
    ("fds.ns_per_eval", "ns"),
    ("fds.verify_us", "us"),
    ("serve.cache_us", "us"),
    ("serve.render_us", "us"),
    ("serve.rtt_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.exec_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.hit_rate", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.journal_recorded", "count"),
    ("serve.journal_dropped", "count"),
    ("fleet.route_key_us", "us"),
    ("fleet.proxied", "count"),
    ("fleet.peer_rtt_us", "us"),
    ("fleet.proxy_failures", "count"),
    ("fleet.pushed", "count"),
    ("fleet.sync_rounds", "count"),
    ("hit_p50_ms", "ms"),
    ("hit_p90_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_p90_ms", "ms"),
    ("proxied_hit_p50_ms", "ms"),
    ("proxied_hit_p90_ms", "ms"),
    ("fail.overloaded", "count"),
    ("fail.typed", "count"),
    ("fail.transport", "count"),
    ("ir.self_us", "us"),
    ("ir.share", "ratio"),
    ("core.self_us", "us"),
    ("core.share", "ratio"),
    ("fds.self_us", "us"),
    ("fds.share", "ratio"),
    ("serve.self_us", "us"),
    ("serve.share", "ratio"),
    ("fleet.self_us", "us"),
    ("fleet.share", "ratio"),
    ("unattributed_us", "us"),
    ("unattributed.share", "ratio"),
    ("trace_overhead_us", "us"),
    ("trace_overhead.share", "ratio"),
    ("largest_layer.share", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "table1_oneshot",
    "serve_zipf",
    "fleet_zipf",
    "partition_318",
];

/// What one run measured.
pub struct RunOutcome {
    /// Requests answered correctly in the measured window.
    pub answered: u64,
    /// Failed, refused or lost requests by class (`overloaded`, a typed
    /// error class, `transport`).
    pub failures: BTreeMap<String, u64>,
    /// Every metric the run produced.
    pub metrics: Metrics,
    /// Human-readable lines printed above the metrics.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub trace: Option<TraceData>,
}

impl RunOutcome {
    fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    fn attempted(&self) -> u64 {
        self.answered + self.failed()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Whether a workload pins the scheduler to one thread. On a host that
/// lends the benchmark a few shared cores, the force sweep's
/// per-iteration fork-join waits on whichever core a neighbour holds:
/// Table 1 calls read 419–989 ms at two threads against 602–620 ms at
/// one. The served daemons already run requests on concurrent workers,
/// where a second scheduler thread per request only oversubscribes the
/// cores. `partition_318` keeps the default, because its parallel
/// subgraph runs are what it measures.
fn single_threaded(workload: &str) -> bool {
    workload != "partition_318"
}

fn run(args: &Args, scratch: &Path) -> Result<RunOutcome, String> {
    if single_threaded(&args.workload) {
        tcms_fds::threads::set(1);
    }
    match args.workload.as_str() {
        "table1_oneshot" => oneshot::run(&oneshot::TABLE1, args.seconds, args.trace),
        "partition_318" => oneshot::run(&oneshot::PARTITION_318, args.seconds, args.trace),
        "serve_zipf" => served::run(
            Topology::Single,
            args.seed,
            args.seconds,
            args.trace,
            scratch,
        ),
        "fleet_zipf" => served::run(
            Topology::Fleet,
            args.seed,
            args.seconds,
            args.trace,
            scratch,
        ),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Writes the full result (and a traced run's spans) under `out`.
fn write_outputs(
    args: &Args,
    outcome: &RunOutcome,
    machine: &JsonValue,
    out: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(out)?;
    let stem = format!(
        "{}-seed{}{}",
        args.workload,
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    let mut doc = BTreeMap::new();
    doc.insert(
        "workload".to_owned(),
        JsonValue::String(args.workload.clone()),
    );
    #[allow(clippy::cast_precision_loss)]
    {
        doc.insert("seed".to_owned(), JsonValue::Number(args.seed as f64));
        doc.insert(
            "attempted".to_owned(),
            JsonValue::Number(outcome.attempted() as f64),
        );
        doc.insert(
            "failed".to_owned(),
            JsonValue::Number(outcome.failed() as f64),
        );
        doc.insert(
            "failures".to_owned(),
            JsonValue::Object(
                outcome
                    .failures
                    .iter()
                    .map(|(k, v)| (k.clone(), JsonValue::Number(*v as f64)))
                    .collect(),
            ),
        );
    }
    doc.insert("seconds".to_owned(), JsonValue::Number(args.seconds));
    doc.insert("machine".to_owned(), machine.clone());
    doc.insert(
        "end_to_end".to_owned(),
        outcome.metrics.to_json(&END_TO_END),
    );
    if args.trace {
        doc.insert("per_layer".to_owned(), outcome.metrics.to_json(&PER_LAYER));
    }
    let result = out.join(format!("{stem}.json"));
    std::fs::write(&result, json::to_string(&JsonValue::Object(doc)) + "\n")?;
    let mut written = vec![result];
    if let Some(data) = &outcome.trace {
        let jsonl = out.join(format!("{stem}.jsonl"));
        std::fs::write(&jsonl, to_jsonl(data))?;
        let chrome = out.join(format!("{stem}.chrome.json"));
        std::fs::write(&chrome, to_chrome_trace(data))?;
        written.extend([jsonl, chrome]);
    }
    Ok(written)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    let outcome = run(&args, &scratch);
    // The daemons' journals are gone with the run.
    let _ = std::fs::remove_dir_all(&scratch);
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    outcome.metrics.set("peak_rss_mb", peak_rss_mb());

    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let machine = machine();
    println!("machine: {}", json::to_string(&machine));
    println!(
        "workload {} seed {} ({}):",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    if !outcome.failures.is_empty() {
        println!("  failures by class: {:?}", outcome.failures);
    }
    print!("{}", outcome.metrics.render(listed));
    match write_outputs(&args, &outcome, &machine, &out) {
        Ok(paths) => {
            for p in paths {
                println!("  wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("perfbench: writing results: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        result_line(
            outcome.attempted(),
            outcome.failed(),
            &outcome.metrics,
            listed
        )
    );
    ExitCode::SUCCESS
}
