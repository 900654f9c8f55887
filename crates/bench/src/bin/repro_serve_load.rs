//! Concurrent-load study of the `tcms serve` daemon: N closed-loop
//! clients hammer an in-process daemon over loopback TCP and the run is
//! summarized into `BENCH_serve.json` (throughput, latency percentiles,
//! cache hit rate).
//!
//! `--journal-dir` turns on workload-journal capture during the run —
//! the A/B against a capture-less run measures the journal's hot-path
//! overhead, and the captured file feeds `repro_replay --journal`.
//!
//! Each client keeps exactly one request in flight, so `--clients 100`
//! (the default) holds 100 concurrent in-flight requests for the whole
//! run. Clients draw from a small pool of generated designs; half the
//! clients send declaration-permuted variants, which must hit the same
//! cache entries through canonicalization. The run asserts zero lost
//! responses and zero protocol errors — a deadlocked or shedding daemon
//! fails loudly, it does not produce a report.

use std::collections::BTreeMap;
use std::time::Instant;

use tcms_bench::{Cli, Flag};
use tcms_obs::json::{self, JsonValue};
use tcms_serve::{Client, ServeConfig, Server};

/// A small synthetic design: `stages` multiply-accumulate chains across
/// two processes. `permuted` emits the same design with every
/// declaration order reversed — canonically identical, textually not.
fn make_design(stages: usize, permuted: bool) -> String {
    let mut resources = [
        "resource add delay=1 area=1".to_owned(),
        "resource mul delay=2 area=4 pipelined".to_owned(),
    ];
    let time = 6 + 3 * stages;
    let mut processes = Vec::new();
    for pname in ["P", "Q"] {
        let mut lines = vec![
            format!("process {pname}"),
            format!("block body time={time}"),
        ];
        let mut ops = Vec::new();
        let mut edges = Vec::new();
        for s in 0..stages {
            ops.push(format!("op m{s} mul"));
            ops.push(format!("op a{s} add"));
            edges.push(format!("edge m{s} a{s}"));
            if s > 0 {
                edges.push(format!("edge a{} m{s}", s - 1));
            }
        }
        if permuted {
            ops.reverse();
            edges.reverse();
        }
        lines.extend(ops);
        lines.extend(edges);
        processes.push(lines.join("\n"));
    }
    if permuted {
        resources.reverse();
        processes.reverse();
    }
    format!("{}\n{}\n", resources.join("\n"), processes.join("\n"))
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let idx = (((sorted_ms.len() - 1) as f64) * q).round() as usize;
    sorted_ms[idx]
}

const CLI: Cli = Cli::new(
    "closed-loop concurrent clients against an in-process serve daemon",
    &[
        Flag::value("--clients", "N", "clients, one request in flight each").or("100"),
        Flag::value("--requests", "N", "requests per client").or("5"),
        Flag::value("--workers", "N", "daemon workers, 0 = auto").or("0"),
        Flag::value("--out", "FILE", "report path").or("BENCH_serve.json"),
        Flag::value("--journal-dir", "DIR", "capture a workload journal"),
    ],
);

fn main() {
    let args = CLI.parse_env();
    let clients: usize = args.get("--clients");
    let requests: usize = args.get("--requests");
    let workers: usize = args.get("--workers");
    let out_path: String = args.get("--out");
    let journal_dir: Option<String> = args.value("--journal-dir");
    if clients == 0 || requests == 0 {
        args.fail("--clients and --requests must be positive");
    }

    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers,
        // Every client keeps one request in flight; leave headroom so
        // the run measures service, not shedding.
        queue_capacity: clients + 16,
        journal_dir: journal_dir.as_deref().map(std::path::PathBuf::from),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.local_addr();
    println!("daemon on {addr}: {clients} clients x {requests} requests");

    // 4 base designs x plain/permuted. Permuted variants must share
    // cache entries with their plain twins through canonicalization.
    let designs: Vec<String> = (0..4)
        .flat_map(|stages| {
            [
                make_design(2 + stages, false),
                make_design(2 + stages, true),
            ]
        })
        .collect();

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let design = designs[c % designs.len()].clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut latencies_ms = Vec::with_capacity(requests);
                let mut errors = 0usize;
                for r in 0..requests {
                    let line = tcms_serve::client::schedule_request_line(
                        &format!("c{c}-r{r}"),
                        &design,
                        &tcms_serve::ScheduleOptions {
                            all_global: Some(4),
                            ..tcms_serve::ScheduleOptions::default()
                        },
                        None,
                    );
                    let sent = Instant::now();
                    match client.request(&line) {
                        Ok(resp) => {
                            #[allow(clippy::cast_precision_loss)]
                            latencies_ms.push(sent.elapsed().as_micros() as f64 / 1000.0);
                            if !resp.is_ok() {
                                errors += 1;
                            }
                        }
                        Err(_) => errors += 1,
                    }
                }
                (latencies_ms, errors)
            })
        })
        .collect();

    let mut latencies_ms = Vec::with_capacity(clients * requests);
    let mut errors = 0usize;
    for h in handles {
        let (lat, err) = h.join().expect("client thread");
        latencies_ms.extend(lat);
        errors += err;
    }
    let wall = started.elapsed();

    let total = clients * requests;
    let lost = total - latencies_ms.len() - errors;
    assert_eq!(lost, 0, "every request must receive a response");
    assert_eq!(errors, 0, "no request may fail under plain load");

    let stats = server.cache().stats();
    let scheduler_runs = server.counter("serve.scheduler.runs");
    let journal_stats = server.journal_stats();
    server.shutdown();
    server.wait().expect("clean shutdown");

    latencies_ms.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let throughput = total as f64 / wall.as_secs_f64();
    let p50 = percentile(&latencies_ms, 0.50);
    let p90 = percentile(&latencies_ms, 0.90);
    let p99 = percentile(&latencies_ms, 0.99);
    println!(
        "{total} responses in {:.2}s: {throughput:.0} req/s, p50 {p50:.2} ms, p99 {p99:.2} ms",
        wall.as_secs_f64()
    );
    println!(
        "cache: {} hits, {} misses, {} coalesced (hit rate {:.3}); {scheduler_runs} scheduler runs",
        stats.hits,
        stats.misses,
        stats.coalesced,
        stats.hit_rate()
    );

    let num = |n: f64| JsonValue::Number(n);
    #[allow(clippy::cast_precision_loss)]
    let count = |n: u64| JsonValue::Number(n as f64);
    let mut latency = BTreeMap::new();
    latency.insert("p50_ms".to_owned(), num(p50));
    latency.insert("p90_ms".to_owned(), num(p90));
    latency.insert("p99_ms".to_owned(), num(p99));
    latency.insert(
        "max_ms".to_owned(),
        num(latencies_ms.last().copied().unwrap_or(0.0)),
    );
    let mut cache = BTreeMap::new();
    cache.insert("hits".to_owned(), count(stats.hits));
    cache.insert("misses".to_owned(), count(stats.misses));
    cache.insert("coalesced".to_owned(), count(stats.coalesced));
    cache.insert("hit_rate".to_owned(), num(stats.hit_rate()));
    let mut doc = BTreeMap::new();
    doc.insert(
        "benchmark".to_owned(),
        JsonValue::String("serve_load".to_owned()),
    );
    doc.insert("clients".to_owned(), count(clients as u64));
    doc.insert("requests_per_client".to_owned(), count(requests as u64));
    doc.insert("total_requests".to_owned(), count(total as u64));
    #[allow(clippy::cast_precision_loss)]
    doc.insert("wall_ms".to_owned(), num(wall.as_micros() as f64 / 1000.0));
    doc.insert("throughput_rps".to_owned(), num(throughput));
    doc.insert("latency".to_owned(), JsonValue::Object(latency));
    doc.insert("cache".to_owned(), JsonValue::Object(cache));
    doc.insert("scheduler_runs".to_owned(), count(scheduler_runs));
    doc.insert("errors".to_owned(), count(errors as u64));
    doc.insert("lost_responses".to_owned(), count(lost as u64));
    if let Some(j) = journal_stats {
        let mut journal = BTreeMap::new();
        journal.insert("recorded".to_owned(), count(j.recorded));
        journal.insert("dropped".to_owned(), count(j.dropped));
        doc.insert("journal".to_owned(), JsonValue::Object(journal));
        println!("journal: {} recorded, {} dropped", j.recorded, j.dropped);
    }
    let rendered = format!("{}\n", json::to_string(&JsonValue::Object(doc)));
    // Self-check: the report must parse back.
    json::parse(&rendered).expect("valid JSON report");
    std::fs::write(&out_path, rendered).expect("write report");
    println!("report written to {out_path}");
}
