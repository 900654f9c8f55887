//! Chaos study of the `tcms serve` daemon: retrying clients drive an
//! in-process daemon **through a seeded fault proxy** (connection
//! resets, latency spikes, mid-line truncation, kills after complete
//! writes) while a fraction of the workload carries the deliberate
//! panic marker that exercises worker supervision. The run is
//! summarized into `BENCH_chaos.json`.
//!
//! The harness asserts the failure model's core claims at every seed:
//!
//! * **zero wrong answers** — every completed schedule response is
//!   bit-identical to the one-shot pipeline's output for that design,
//! * **typed errors only** — the daemon never answers with anything
//!   outside the stable error taxonomy (marked designs come back as
//!   `internal`/500, never as garbage or silence),
//! * **bounded retries** — the retry budget is respected,
//! * **clean recovery** — once the proxy stops, a direct request
//!   schedules correctly and the panic counters are visible in `stats`.
//!
//! A violated claim panics the run — a chaos harness that "mostly
//! passes" does not produce a report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tcms_bench::{Cli, Flag};
use tcms_obs::json::{self, JsonValue};
use tcms_serve::{
    pipeline, render_stats, Client, ExecContext, RetryPolicy, ScheduleOptions, ServeClient,
    ServeConfig, Server, PANIC_MARKER,
};
use tcms_sim::NetFaultPlan;

/// A small synthetic design: `stages` multiply-accumulate chains across
/// two processes (the same family the serve-load study uses).
fn make_design(stages: usize) -> String {
    let time = 6 + 3 * stages;
    let mut out =
        String::from("resource add delay=1 area=1\nresource mul delay=2 area=4 pipelined\n");
    for pname in ["P", "Q"] {
        out.push_str(&format!("process {pname}\nblock body time={time}\n"));
        for s in 0..stages {
            out.push_str(&format!("op m{s} mul\nop a{s} add\n"));
        }
        for s in 0..stages {
            out.push_str(&format!("edge m{s} a{s}\n"));
            if s > 0 {
                out.push_str(&format!("edge a{} m{s}\n", s - 1));
            }
        }
    }
    out
}

fn opts() -> ScheduleOptions {
    ScheduleOptions {
        all_global: Some(4),
        ..ScheduleOptions::default()
    }
}

/// The one-shot pipeline's output for `design` — the ground truth every
/// completed daemon response must reproduce bit-for-bit.
fn one_shot(design: &str) -> String {
    let ctx = ExecContext::default();
    pipeline::schedule_request(design, &opts(), &ctx)
        .expect("ground-truth schedule succeeds")
        .text
}

/// Wire error classes a chaos run is allowed to surface. Anything else
/// is a harness failure.
const ALLOWED_CLASSES: &[&str] = &[
    "internal",
    "overloaded",
    "deadline-expired",
    "shutting-down",
];

#[derive(Default)]
struct Tally {
    completed: u64,
    wrong: u64,
    internal_errors: u64,
    other_typed_errors: u64,
    transport_failures: u64,
    retries: u64,
}

fn run_seed(seed: u64, requests_per_client: usize) -> (Tally, BTreeMap<String, JsonValue>) {
    const CLIENTS: u64 = 3;
    let server = Server::start(ServeConfig {
        workers: 2,
        fault_marker: true,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let upstream = server.local_addr();
    let proxy =
        tcms_serve::ChaosProxy::start(upstream, NetFaultPlan::moderate(seed)).expect("proxy");
    let proxy_addr = proxy.local_addr();

    // Workload: two clean designs plus one carrying the panic marker
    // (a `#` comment, so it parses — and canonicalizes identically to
    // its clean twin, which is exactly why the daemon checks the marker
    // before the cache).
    let clean_a = make_design(2);
    let clean_b = make_design(3);
    let marked = format!("{clean_a}{PANIC_MARKER}\n");
    let truth_a = one_shot(&clean_a);
    let truth_b = one_shot(&clean_b);

    let policy = |client: u64| RetryPolicy {
        max_retries: 10,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        seed: seed * 1000 + client,
        ..RetryPolicy::default()
    };
    let max_retries = policy(0).max_retries;

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let designs = [
                (clean_a.clone(), Some(truth_a.clone())),
                (clean_b.clone(), Some(truth_b.clone())),
                (marked.clone(), None),
            ];
            let policy = policy(c);
            std::thread::spawn(move || {
                let mut client = ServeClient::new(proxy_addr.to_string(), policy);
                let mut t = Tally::default();
                for r in 0..requests_per_client {
                    let (design, truth) = &designs[r % designs.len()];
                    let line = tcms_serve::client::schedule_request_line(
                        &format!("s{seed}c{c}r{r}"),
                        design,
                        &opts(),
                        None,
                    );
                    match client.request(&line) {
                        Ok(resp) => {
                            if let Some((class, code, _)) = &resp.error {
                                assert!(
                                    ALLOWED_CLASSES.contains(&class.as_str()),
                                    "unexpected error class {class}/{code} under chaos"
                                );
                                if class == "internal" {
                                    assert!(truth.is_none(), "clean design answered 500");
                                    t.internal_errors += 1;
                                } else {
                                    t.other_typed_errors += 1;
                                }
                            } else {
                                let output = resp.output().unwrap_or_default();
                                match truth {
                                    Some(want) if output == want => t.completed += 1,
                                    Some(_) => t.wrong += 1,
                                    // A marked design must never complete.
                                    None => t.wrong += 1,
                                }
                            }
                        }
                        Err(_) => t.transport_failures += 1,
                    }
                }
                t.retries = client.retries();
                t
            })
        })
        .collect();

    let mut tally = Tally::default();
    for h in handles {
        let t = h.join().expect("client thread");
        tally.completed += t.completed;
        tally.wrong += t.wrong;
        tally.internal_errors += t.internal_errors;
        tally.other_typed_errors += t.other_typed_errors;
        tally.transport_failures += t.transport_failures;
        tally.retries += t.retries;
    }
    let chaos = proxy.stats();
    drop(proxy);

    // The failure-model claims, per seed.
    assert_eq!(tally.wrong, 0, "seed {seed}: a completed answer was wrong");
    let total_requests = CLIENTS * requests_per_client as u64;
    assert!(
        tally.retries <= total_requests * max_retries as u64,
        "seed {seed}: retry budget exceeded ({} retries)",
        tally.retries
    );
    assert!(
        chaos.faults() > 0,
        "seed {seed}: the plan injected no faults — the run proves nothing"
    );

    // Clean recovery: chaos is gone, the daemon must answer a direct
    // request correctly and expose its panic counters.
    let mut direct = Client::connect(upstream).expect("direct connect");
    let resp = direct
        .request(&tcms_serve::client::schedule_request_line(
            "recovery",
            &clean_a,
            &opts(),
            None,
        ))
        .expect("post-chaos request");
    assert!(resp.is_ok(), "post-chaos request failed: {:?}", resp.error);
    assert_eq!(
        resp.output(),
        Some(truth_a.as_str()),
        "seed {seed}: post-chaos answer diverged from the one-shot pipeline"
    );
    let worker_panics = server.counter("serve.worker.panics");
    assert!(
        worker_panics >= 1,
        "seed {seed}: the marked workload never tripped the supervisor"
    );
    let stats = direct
        .request(&tcms_serve::client::control_request_line("st", "stats"))
        .expect("stats request");
    let body = stats.body.as_object().expect("stats body").clone();
    let rendered = render_stats(&body);
    assert!(
        rendered.contains("worker panics"),
        "stats rendering lost the panic counter"
    );
    server.shutdown();
    server.wait().expect("clean shutdown");

    #[allow(clippy::cast_precision_loss)]
    let count = |n: u64| JsonValue::Number(n as f64);
    let mut doc = BTreeMap::new();
    doc.insert("seed".to_owned(), count(seed));
    doc.insert("requests".to_owned(), count(total_requests));
    doc.insert("completed".to_owned(), count(tally.completed));
    doc.insert("wrong_answers".to_owned(), count(tally.wrong));
    doc.insert("internal_errors".to_owned(), count(tally.internal_errors));
    doc.insert(
        "other_typed_errors".to_owned(),
        count(tally.other_typed_errors),
    );
    doc.insert(
        "transport_failures".to_owned(),
        count(tally.transport_failures),
    );
    doc.insert("retries".to_owned(), count(tally.retries));
    doc.insert("worker_panics".to_owned(), count(worker_panics));
    let mut faults = BTreeMap::new();
    faults.insert("connections".to_owned(), count(chaos.connections));
    faults.insert("chunks".to_owned(), count(chaos.chunks));
    faults.insert("delays".to_owned(), count(chaos.delays));
    faults.insert("truncations".to_owned(), count(chaos.truncations));
    faults.insert("resets".to_owned(), count(chaos.resets));
    faults.insert("kills".to_owned(), count(chaos.kills));
    doc.insert("faults".to_owned(), JsonValue::Object(faults));
    (tally, doc)
}

const CLI: Cli = Cli::new(
    "the serve daemon behind a seeded fault proxy, with deliberate worker panics",
    &[
        Flag::value("--seeds", "N", "fault-proxy seeds to run").or("3"),
        Flag::value("--requests", "N", "requests per client per seed").or("9"),
        Flag::value("--out", "FILE", "report path").or("BENCH_chaos.json"),
    ],
);

fn main() {
    let args = CLI.parse_env();
    let seeds: u64 = args.get("--seeds");
    let requests: usize = args.get("--requests");
    let out_path: String = args.get("--out");
    if seeds == 0 || requests == 0 {
        args.fail("--seeds and --requests must be positive");
    }

    // The marked workload panics *on purpose*, many times per run; keep
    // the default hook for everything else so a real bug still prints.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        let deliberate = message.is_some_and(|m| m.contains("chaos: deliberate panic marker"));
        if !deliberate {
            default_hook(info);
        }
    }));

    let started = Instant::now();
    let mut per_seed = Vec::new();
    let mut total = Tally::default();
    for seed in 1..=seeds {
        let (tally, doc) = run_seed(seed, requests);
        println!(
            "seed {seed}: {} completed, {} internal, {} transport failures, {} retries — ok",
            tally.completed, tally.internal_errors, tally.transport_failures, tally.retries
        );
        total.completed += tally.completed;
        total.internal_errors += tally.internal_errors;
        total.transport_failures += tally.transport_failures;
        total.retries += tally.retries;
        per_seed.push(JsonValue::Object(doc));
    }
    assert!(
        total.completed > 0,
        "no request completed at any seed — the chaos plan is too hot to prove anything"
    );
    assert!(
        total.internal_errors > 0,
        "no marked request surfaced a typed 500 at any seed"
    );
    let wall = started.elapsed();
    println!(
        "{} seeds in {:.2}s: {} completed (all bit-identical), {} typed 500s, {} retries",
        seeds,
        wall.as_secs_f64(),
        total.completed,
        total.internal_errors,
        total.retries
    );

    #[allow(clippy::cast_precision_loss)]
    let count = |n: u64| JsonValue::Number(n as f64);
    let mut doc = BTreeMap::new();
    doc.insert(
        "benchmark".to_owned(),
        JsonValue::String("serve_chaos".to_owned()),
    );
    doc.insert("seeds".to_owned(), count(seeds));
    #[allow(clippy::cast_precision_loss)]
    doc.insert("wall_ms".to_owned(), {
        JsonValue::Number(wall.as_micros() as f64 / 1000.0)
    });
    doc.insert("completed".to_owned(), count(total.completed));
    doc.insert("wrong_answers".to_owned(), count(0));
    doc.insert("internal_errors".to_owned(), count(total.internal_errors));
    doc.insert(
        "transport_failures".to_owned(),
        count(total.transport_failures),
    );
    doc.insert("retries".to_owned(), count(total.retries));
    doc.insert("per_seed".to_owned(), JsonValue::Array(per_seed));
    let rendered = format!("{}\n", json::to_string(&JsonValue::Object(doc)));
    // Self-check: the report must parse back.
    json::parse(&rendered).expect("valid JSON report");
    std::fs::write(&out_path, rendered).expect("write report");
    println!("report written to {out_path}");
}
