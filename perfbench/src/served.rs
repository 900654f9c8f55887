//! `serve_zipf` and `fleet_zipf`: in-process daemons driven over TCP by
//! two closed-loop NDJSON connections (each waits for its reply before
//! sending the next request) with a Zipf stream over seeded designs.
//!
//! Clients are plain [`Client`]s, not the retrying `ServeClient`, so an
//! overloaded, typed-error or transport failure is counted, never hidden.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tcms_obs::json::JsonValue;
use tcms_obs::{MetricsRegistry, TraceRecorder};
use tcms_serve::client::control_request_line;
use tcms_serve::fleet::DEFAULT_REPLICAS;
use tcms_serve::{
    request_cache_key, schedule_request, CacheKey, Client, ExecContext, FleetConfig, HashRing,
    SchedCache, ServeConfig, Server, DEFAULT_AUTO_PARTITION_OPS,
};

use crate::inputs::{served_options, warmup_design, ServedInputs, POOLS, POOL_DESIGNS};
use crate::layers::{layer_metrics, traced_request, SchedCounters, TracedPhase};
use crate::report::{
    cpu_ms_per_request, mean, median, percentile, process_cpu, report_area, Metrics,
};
use crate::RunOutcome;

/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Set-up (input generation, daemon start, connect, warm-up) is
/// repeated this often before the measured window, whose deployment is
/// the last one, and this often after it; the median is reported. The
/// same set-up reads 0.1–0.35 s within one run on a shared host, in
/// phases of seconds, so trials on both sides of the window see more of
/// them than trials in one burst.
const SETUP_TRIALS: usize = 8;
/// Bound on a reply, so a stuck daemon fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// The daemon's default cache geometry, for the in-process replay.
const CACHE_CAPACITY: usize = 1024;
const CACHE_SHARDS: usize = 8;
/// Requests per alternating chunk of the in-process replay.
const REPLAY_CHUNK: usize = 50;

/// Which deployment serves the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One daemon with default `ServeConfig` and the journal on.
    Single,
    /// Three daemons configured by `FleetConfig::new`; client `c` enters
    /// at node `c`.
    Fleet,
}

/// Running daemons.
struct Deployment {
    servers: Vec<Server>,
    addrs: Vec<String>,
}

/// Nodes of the fleet.
const FLEET_NODES: usize = 3;
/// With 2 replicas of every key on 3 nodes, a third of the stream
/// arrives at a node outside its key's replica set. Ports are drawn until
/// the ring gives that share within this tolerance, so every run has the
/// same mix; with random ports the proxied share of replies varied
/// between runs, and so did throughput.
const FLEET_PROXIED_SHARE: f64 = 1.0 / 3.0;
const FLEET_SHARE_TOLERANCE: f64 = 0.01;
const FLEET_PORT_DRAWS: usize = 500;

/// Distinct free loopback addresses, found by binding port 0.
fn free_addrs(n: usize) -> Result<Vec<String>, String> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    listeners
        .iter()
        .map(|l| Ok(l.local_addr().map_err(|e| e.to_string())?.to_string()))
        .collect()
}

/// The stream's popularity-weighted share that enters at a node outside
/// its key's replica set, when client `c` enters at `addrs[c]`.
fn proxied_share(addrs: &[String], inputs: &ServedInputs, keys: &[CacheKey]) -> f64 {
    let ring = HashRing::new(addrs, DEFAULT_REPLICAS);
    let mut share = 0.0;
    for c in 0..CLIENTS {
        for (d, key) in keys.iter().enumerate() {
            if !ring.is_replica(key, &addrs[c % addrs.len()]) {
                share += inputs.popularity(d);
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let clients = CLIENTS as f64;
    share / clients
}

/// The fleet's addresses; see [`FLEET_PROXIED_SHARE`].
fn fleet_addrs(inputs: &ServedInputs, keys: &[CacheKey]) -> Result<Vec<String>, String> {
    for _ in 0..FLEET_PORT_DRAWS {
        let addrs = free_addrs(FLEET_NODES)?;
        if (proxied_share(&addrs, inputs, keys) - FLEET_PROXIED_SHARE).abs()
            <= FLEET_SHARE_TOLERANCE
        {
            return Ok(addrs);
        }
    }
    Err("no port draw gave the fleet a third of the stream to proxy".into())
}

impl Deployment {
    /// Starts one daemon with the journal in `journal_dir` when `peers`
    /// is empty, else one fleet node per peer address.
    fn start(peers: &[String], journal_dir: &Path) -> Result<Deployment, String> {
        let configs = if peers.is_empty() {
            vec![ServeConfig {
                journal_dir: Some(journal_dir.to_path_buf()),
                ..ServeConfig::default()
            }]
        } else {
            peers
                .iter()
                .map(|addr| ServeConfig {
                    listen: addr.clone(),
                    fleet: Some(FleetConfig::new(addr.clone(), peers.to_vec())),
                    ..ServeConfig::default()
                })
                .collect()
        };
        let mut deployment = Deployment {
            servers: Vec::new(),
            addrs: Vec::new(),
        };
        for config in configs {
            match Server::start(config) {
                Ok(server) => {
                    deployment.addrs.push(server.local_addr().to_string());
                    deployment.servers.push(server);
                }
                Err(e) => {
                    deployment.stop();
                    return Err(format!("daemon start: {e}"));
                }
            }
        }
        Ok(deployment)
    }

    /// Shuts every daemon down and joins its threads.
    fn stop(self) {
        for server in &self.servers {
            server.shutdown();
        }
        for server in self.servers {
            if let Err(e) = server.wait() {
                eprintln!("daemon shutdown: {e}");
            }
        }
    }

    fn entry(&self, client: usize) -> &str {
        &self.addrs[client % self.addrs.len()]
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_with(addr, Some(CONNECT_TIMEOUT), Some(READ_TIMEOUT))
        .map_err(|e| format!("connect {addr}: {e}"))
}

/// The daemons' own counters, summed over nodes. Histogram means come
/// from their exact sums and counts.
#[derive(Debug, Default, Clone, Copy)]
struct DaemonStats {
    queue_sum: f64,
    queue_count: f64,
    exec_sum: f64,
    exec_count: f64,
    peer_rtt_sum: f64,
    peer_rtt_count: f64,
    journal_recorded: f64,
    journal_dropped: f64,
    proxied: f64,
    proxy_failures: f64,
    pushed: f64,
    sync_rounds: f64,
}

impl DaemonStats {
    fn read(addrs: &[String]) -> Result<DaemonStats, String> {
        let mut total = DaemonStats::default();
        for addr in addrs {
            let resp = connect(addr)?
                .request(&control_request_line("stats", "stats"))
                .map_err(|e| format!("stats from {addr}: {e}"))?;
            let body = &resp.body;
            let registry =
                MetricsRegistry::from_json(body.get("metrics").ok_or("stats lack metrics")?)?;
            #[allow(clippy::cast_precision_loss)]
            let hist = |name: &str| {
                registry
                    .histogram(name)
                    .map_or((0.0, 0.0), |h| (h.sum(), h.count() as f64))
            };
            let num = |path: &[&str]| {
                let mut v = Some(body);
                for key in path {
                    v = v.and_then(|v| v.get(key));
                }
                v.and_then(JsonValue::as_f64).unwrap_or(0.0)
            };
            let (s, c) = hist("serve.queue_wait_us");
            total.queue_sum += s;
            total.queue_count += c;
            for d in ["hit", "miss", "coalesced", "error"] {
                let (s, c) = hist(&format!("serve.exec_us.{d}"));
                total.exec_sum += s;
                total.exec_count += c;
            }
            let (s, c) = hist("serve.fleet.peer.rtt_us");
            total.peer_rtt_sum += s;
            total.peer_rtt_count += c;
            total.journal_recorded += num(&["journal", "recorded"]);
            total.journal_dropped += num(&["journal", "dropped"]);
            total.proxied += num(&["fleet", "proxied"]);
            total.proxy_failures += num(&["fleet", "proxy_failures"]);
            total.pushed += num(&["fleet", "pushed"]);
            total.sync_rounds += num(&["fleet", "sync", "rounds"]);
        }
        Ok(total)
    }

    fn since(self, before: DaemonStats) -> DaemonStats {
        DaemonStats {
            queue_sum: self.queue_sum - before.queue_sum,
            queue_count: self.queue_count - before.queue_count,
            exec_sum: self.exec_sum - before.exec_sum,
            exec_count: self.exec_count - before.exec_count,
            peer_rtt_sum: self.peer_rtt_sum - before.peer_rtt_sum,
            peer_rtt_count: self.peer_rtt_count - before.peer_rtt_count,
            journal_recorded: self.journal_recorded - before.journal_recorded,
            journal_dropped: self.journal_dropped - before.journal_dropped,
            proxied: self.proxied - before.proxied,
            proxy_failures: self.proxy_failures - before.proxy_failures,
            pushed: self.pushed - before.pushed,
            sync_rounds: self.sync_rounds - before.sync_rounds,
        }
    }
}

/// The cache-less one-shot answer of every design, and its routing key.
/// Computed before set-up, outside every timed window.
struct References {
    texts: Vec<String>,
    keys: Vec<CacheKey>,
}

impl References {
    fn compute(inputs: &ServedInputs) -> Result<References, String> {
        let opts = served_options();
        let n = inputs.designs.len();
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let chunk = n.div_ceil(threads);
        let parts: Vec<Result<Vec<(String, CacheKey)>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = inputs
                .designs
                .chunks(chunk)
                .map(|designs| {
                    s.spawn(|| {
                        designs
                            .iter()
                            .map(|design| {
                                let text = schedule_request(design, &opts, &ExecContext::default())
                                    .map_err(|e| format!("reference answer: {e}"))?
                                    .text;
                                let key =
                                    request_cache_key(design, &opts, DEFAULT_AUTO_PARTITION_OPS)
                                        .map_err(|e| e.to_string())?
                                        .ok_or("served requests are routable")?;
                                Ok((text, key))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("reference thread panicked".into()))
                })
                .collect()
        });
        let mut refs = References {
            texts: Vec::with_capacity(n),
            keys: Vec::with_capacity(n),
        };
        for part in parts {
            for (text, key) in part? {
                refs.texts.push(text);
                refs.keys.push(key);
            }
        }
        Ok(refs)
    }
}

/// How a response was obtained, from its `cache` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Coalesced,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    class: Class,
    /// Sent to a node outside the key's replica set.
    proxied: bool,
    rtt_ms: f64,
}

/// What the client connections saw in one window.
#[derive(Debug, Default)]
struct Window {
    samples: Vec<Sample>,
    failures: BTreeMap<String, u64>,
    /// Requests `0..sent` of the stream were sent.
    sent: usize,
    wall: Duration,
}

/// What became of one request.
enum Reply {
    /// A correct answer.
    Answer(Class, Duration),
    /// A typed error response (counted by class).
    Refused,
    /// The connection failed (counted as `transport`).
    Lost,
}

/// Sends one request and checks the answer against its reference.
/// `Err` is a wrong answer.
fn exchange(
    client: &mut Client,
    line: &str,
    expected: &str,
    failures: &mut BTreeMap<String, u64>,
) -> Result<Reply, String> {
    let t = Instant::now();
    let Ok(resp) = client.request(line) else {
        *failures.entry("transport".into()).or_default() += 1;
        return Ok(Reply::Lost);
    };
    let rtt = t.elapsed();
    if let Some((class, _, _)) = &resp.error {
        *failures.entry(class.clone()).or_default() += 1;
        return Ok(Reply::Refused);
    }
    if resp.output() != Some(expected) {
        return Err(format!(
            "response {:?} differs from the one-shot answer",
            resp.id
        ));
    }
    let class = match resp.cache() {
        Some("hit") => Class::Hit,
        Some("miss") => Class::Miss,
        Some("coalesced") => Class::Coalesced,
        other => return Err(format!("response {:?} has cache field {other:?}", resp.id)),
    };
    Ok(Reply::Answer(class, rtt))
}

/// Drives the stream from request `0` over `clients` until `budget`
/// has passed. `proxied[c][d]`: design `d` sent by client `c` leaves
/// its entry node.
fn drive(
    clients: Vec<Client>,
    addrs: &[String],
    inputs: &ServedInputs,
    refs: &References,
    proxied: &[Vec<bool>],
    budget: Duration,
) -> Result<Window, String> {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let per_client: Vec<Result<Window, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (next, stop) = (&next, &stop);
                s.spawn(move || {
                    let mut w = Window::default();
                    while !stop.load(Ordering::SeqCst) && start.elapsed() < budget {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let d = inputs.request(i);
                        match exchange(
                            &mut client,
                            &inputs.lines[d],
                            &refs.texts[d],
                            &mut w.failures,
                        ) {
                            Ok(Reply::Answer(class, rtt)) => w.samples.push(Sample {
                                class,
                                proxied: proxied[c][d],
                                rtt_ms: rtt.as_secs_f64() * 1e3,
                            }),
                            Ok(Reply::Lost) => {
                                // The connection is gone; a plain client
                                // does not retry, it reconnects.
                                match connect(&addrs[c % addrs.len()]) {
                                    Ok(fresh) => client = fresh,
                                    Err(e) => {
                                        stop.store(true, Ordering::SeqCst);
                                        return Err(e);
                                    }
                                }
                            }
                            Ok(Reply::Refused) => {}
                            Err(e) => {
                                stop.store(true, Ordering::SeqCst);
                                return Err(e);
                            }
                        }
                    }
                    Ok(w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut window = Window {
        wall: start.elapsed(),
        sent: next.load(Ordering::SeqCst),
        ..Window::default()
    };
    for w in per_client {
        let w = w?;
        window.samples.extend(w.samples);
        for (class, n) in w.failures {
            *window.failures.entry(class).or_default() += n;
        }
    }
    Ok(window)
}

/// One set-up: start the daemons, connect, and warm every connection
/// with a ping and one request of its warm-up design.
fn set_up(
    peers: &[String],
    journal_dir: &Path,
    inputs: &ServedInputs,
    refs: &References,
) -> Result<(Deployment, Vec<Client>), String> {
    let deployment = Deployment::start(peers, journal_dir)?;
    let warm = || -> Result<Vec<Client>, String> {
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let mut client = connect(deployment.entry(c))?;
            client
                .request(&control_request_line("ping", "ping"))
                .map_err(|e| format!("ping: {e}"))?;
            let d = warmup_design(c);
            let mut failures = BTreeMap::new();
            if !matches!(
                exchange(&mut client, &inputs.lines[d], &refs.texts[d], &mut failures)?,
                Reply::Answer(..)
            ) {
                return Err(format!("warm-up request failed: {failures:?}"));
            }
            clients.push(client);
        }
        Ok(clients)
    };
    match warm() {
        Ok(clients) => Ok((deployment, clients)),
        Err(e) => {
            deployment.stop();
            Err(e)
        }
    }
}

fn class_latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.rtt_ms)
        .collect()
}

/// Runs a served workload for `seconds`; with `trace`, the first half is
/// the untraced stream and the rest an in-process replay of it.
///
/// # Errors
///
/// A wrong answer, a daemon that fails to start, or a lost connection
/// that cannot be re-established.
pub fn run(
    topology: Topology,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<RunOutcome, String> {
    let inputs = ServedInputs::generate(seed);
    let refs = References::compute(&inputs)?;
    let peers = match topology {
        Topology::Single => Vec::new(),
        Topology::Fleet => fleet_addrs(&inputs, &refs.keys[..POOLS * POOL_DESIGNS])?,
    };

    let mut setup_times = Vec::new();
    let mut trial = |k: usize| -> Result<(Deployment, Vec<Client>), String> {
        let journal_dir: PathBuf = scratch.join(format!("journal-{k}"));
        let t = Instant::now();
        let generated = ServedInputs::generate(seed);
        let (deployment, clients) = set_up(&peers, &journal_dir, &generated, &refs)?;
        setup_times.push(t.elapsed().as_secs_f64());
        if generated != inputs {
            deployment.stop();
            return Err("input generation is not deterministic".into());
        }
        Ok((deployment, clients))
    };
    for k in 1..SETUP_TRIALS {
        trial(k)?.0.stop();
    }
    let (deployment, clients) = trial(SETUP_TRIALS)?;

    // Classify every (entry node, design) pair before sending.
    let ring = HashRing::new(&deployment.addrs, DEFAULT_REPLICAS);
    let proxied: Vec<Vec<bool>> = (0..CLIENTS)
        .map(|c| {
            let entry = deployment.entry(c);
            refs.keys
                .iter()
                .map(|key| topology == Topology::Fleet && !ring.is_replica(key, entry))
                .collect()
        })
        .collect();

    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let before = DaemonStats::read(&deployment.addrs);
    let cpu_before = process_cpu();
    let window = drive(clients, &deployment.addrs, &inputs, &refs, &proxied, budget);
    let cpu_after = process_cpu();
    let after = DaemonStats::read(&deployment.addrs);
    deployment.stop();
    let window = window?;
    let daemon = after?.since(before?);
    for k in 1..=SETUP_TRIALS {
        trial(SETUP_TRIALS + k)?.0.stop();
    }
    let setup_s = median(&setup_times);

    // The latency of the workload's own path: every reply of the single
    // daemon (~81% hits, so the median is a hit), but only the
    // proxied hits of the fleet. Over all fleet replies the median would
    // sit on the cliff between local hits (~54%) and the rest.
    let path = match topology {
        Topology::Single => class_latencies(&window.samples, |_| true),
        Topology::Fleet => class_latencies(&window.samples, |x| x.class == Class::Hit && x.proxied),
    };
    let mut m = Metrics::default();
    m.set("latency_p50_ms", median(&path));
    m.set(
        "cpu_ms_per_req",
        cpu_ms_per_request(cpu_before, cpu_after, window.samples.len()),
    );
    #[allow(clippy::cast_precision_loss)]
    m.set(
        "throughput_rps",
        window.samples.len() as f64 / window.wall.as_secs_f64(),
    );
    #[allow(clippy::cast_precision_loss)]
    let areas: Vec<f64> = refs.texts[..POOLS * POOL_DESIGNS]
        .iter()
        .map(|t| report_area(t).unwrap_or(0) as f64)
        .collect();
    m.set("area_total", mean(&areas));
    m.set("setup_s", setup_s);
    split_metrics(&window, &daemon, &mut m);

    let count = |class| window.samples.iter().filter(|s| s.class == class).count();
    let mut outcome = RunOutcome {
        answered: window.samples.len() as u64,
        failures: window.failures.clone(),
        metrics: m,
        notes: vec![format!(
            "{} requests in {:.2} s: {} hit ({} proxied), {} miss, {} coalesced; every answer \
             byte-identical to its one-shot reference",
            window.samples.len(),
            window.wall.as_secs_f64(),
            count(Class::Hit),
            window
                .samples
                .iter()
                .filter(|s| s.class == Class::Hit && s.proxied)
                .count(),
            count(Class::Miss),
            count(Class::Coalesced),
        )],
        trace: None,
    };
    if trace {
        let phase = replay(topology, &inputs, &refs, window.sent, budget)?;
        let (largest, share) = layer_metrics(&phase, &mut outcome.metrics)?;
        outcome.notes.push(format!(
            "replayed {} requests in-process, traced; largest layer: {largest} ({:.1}% of \
             traced wall time)",
            phase.requests,
            share * 100.0
        ));
        outcome.trace = Some(phase.data);
    }
    Ok(outcome)
}

/// The hit/miss/proxied split and the daemons' queue, wire and fleet
/// counters of one window.
fn split_metrics(window: &Window, daemon: &DaemonStats, m: &mut Metrics) {
    let s = &window.samples;
    let hits = class_latencies(s, |x| x.class == Class::Hit);
    let misses = class_latencies(s, |x| x.class == Class::Miss);
    let proxied_hits = class_latencies(s, |x| x.class == Class::Hit && x.proxied);
    for (name, sample) in [
        ("hit", &hits),
        ("miss", &misses),
        ("proxied_hit", &proxied_hits),
    ] {
        m.set(&format!("{name}_p50_ms"), median(sample));
        m.set(&format!("{name}_p90_ms"), percentile(sample, 0.9));
    }
    #[allow(clippy::cast_precision_loss)]
    {
        m.set("serve.hit_rate", hits.len() as f64 / s.len() as f64);
        m.set(
            "serve.coalesced",
            s.iter().filter(|x| x.class == Class::Coalesced).count() as f64,
        );
        for class in ["overloaded", "transport"] {
            m.set(
                &format!("fail.{class}"),
                window.failures.get(class).copied().unwrap_or(0) as f64,
            );
        }
        let typed: u64 = window
            .failures
            .iter()
            .filter(|(c, _)| !matches!(c.as_str(), "overloaded" | "transport"))
            .map(|(_, n)| n)
            .sum();
        m.set("fail.typed", typed as f64);
    }
    let rtt_us = mean(&class_latencies(s, |_| true)) * 1e3;
    let queue_us = daemon.queue_sum / daemon.queue_count;
    let exec_us = daemon.exec_sum / daemon.exec_count;
    m.set("serve.rtt_us", rtt_us);
    m.set("serve.queue_wait_us", queue_us);
    m.set("serve.exec_us", exec_us);
    m.set("serve.wire_us", rtt_us - queue_us - exec_us);
    m.set("serve.journal_recorded", daemon.journal_recorded);
    m.set("serve.journal_dropped", daemon.journal_dropped);
    m.set("fleet.proxied", daemon.proxied);
    m.set(
        "fleet.peer_rtt_us",
        daemon.peer_rtt_sum / daemon.peer_rtt_count,
    );
    m.set("fleet.proxy_failures", daemon.proxy_failures);
    m.set("fleet.pushed", daemon.pushed);
    m.set("fleet.sync_rounds", daemon.sync_rounds);
}

/// Replays requests `0..sent` of the stream in-process on one thread,
/// for at most `budget`, with the daemon's cache geometry. Chunks of
/// untraced requests alternate with the same chunks traced (each path
/// with its own cache), so a drift in machine speed falls on both alike.
/// Every answer is compared with the one-shot reference the daemon's
/// answers matched.
fn replay(
    topology: Topology,
    inputs: &ServedInputs,
    refs: &References,
    sent: usize,
    budget: Duration,
) -> Result<TracedPhase, String> {
    let opts = served_options();
    let plain_cache = SchedCache::new(CACHE_CAPACITY, CACHE_SHARDS);
    let ctx = ExecContext {
        cache: Some(&plain_cache),
        ..ExecContext::default()
    };
    let traced_cache = SchedCache::new(CACHE_CAPACITY, CACHE_SHARDS);
    let rec = TraceRecorder::new();
    let counters = SchedCounters::default();
    let route = topology == Topology::Fleet;
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    let mut n = 0;
    while n < sent.max(1) && (n == 0 || start.elapsed() < budget) {
        let chunk = n..(n + REPLAY_CHUNK).min(sent.max(1));
        let t = Instant::now();
        for i in chunk.clone() {
            let d = inputs.request(i);
            let arts =
                schedule_request(&inputs.designs[d], &opts, &ctx).map_err(|e| e.to_string())?;
            if arts.text != refs.texts[d] {
                return Err(format!(
                    "in-process request {i} differs from the daemon's answer"
                ));
            }
        }
        untraced += t.elapsed();
        let t = Instant::now();
        for i in chunk.clone() {
            let d = inputs.request(i);
            let (text, _) = traced_request(
                &rec,
                &counters,
                i as u64,
                &inputs.designs[d],
                &opts,
                Some(&traced_cache),
                route,
            )?;
            if text != refs.texts[d] {
                return Err(format!(
                    "traced request {i} differs from the daemon's answer"
                ));
            }
        }
        traced += t.elapsed();
        n = chunk.end;
    }
    #[allow(clippy::cast_precision_loss)]
    let untraced_per_request_us = untraced.as_secs_f64() * 1e6 / n as f64;
    Ok(TracedPhase {
        requests: n as u64,
        wall_us: traced.as_secs_f64() * 1e6,
        untraced_per_request_us,
        data: rec.finish(),
        counters,
    })
}
