//! The daemon: one connection core, a bounded job queue, a worker pool.
//!
//! # Request lifecycle
//!
//! 1. **Accept.** Every listener (NDJSON, and HTTP when enabled) runs
//!    the same blocking accept loop, one detached thread per
//!    connection. Nothing polls: shutdown sets the flag and then
//!    self-connects to each listener, so a parked `accept` returns at
//!    once and the loop exits.
//! 2. **Read.** Both front-ends read through one framed reader — an
//!    NDJSON line, or an HTTP head and body — which caps every frame at
//!    `max_request_bytes` (a typed `too-large` 413, then close) and
//!    turns invalid UTF-8 into a typed `bad-request`. Its 100 ms read
//!    timeout is the daemon's only poll: it is how a detached
//!    connection thread notices shutdown.
//! 3. **Admit.** Both front-ends hand the request line to one admission
//!    path: parse, count, answer control and sync actions (`ping`,
//!    `stats`, `shutdown`, `sync_*`) inline, else push the work onto the
//!    bounded queue. A full queue **sheds immediately** with a typed
//!    `overloaded` (429) error — backpressure is explicit, the daemon
//!    never buffers unboundedly. HTTP adds only its route table, the
//!    `/schedule` default action and the status mapping.
//! 4. **Execute.** A worker pops the job. If its deadline already
//!    expired in the queue it answers `deadline` (408) without
//!    scheduling; otherwise the remaining time becomes the scheduler's
//!    [`RunBudget`] wall-clock watchdog, so a deadline also bounds the
//!    IFDS run itself. The worker runs the shared
//!    [`pipeline`](crate::pipeline) through the content-addressed cache
//!    and sends the response line back through the request's responder.
//!    NDJSON responses arrive in completion order; the echoed `id`
//!    correlates them.
//!
//! Every failure a queued request can meet — expired in the queue, an
//! execute error, a failed proxy hop, a refused enqueue — is counted,
//! journaled and answered by one helper, so the journal sees them all
//! the same way.
//!
//! Scheduling work itself fans out onto the vendored rayon pool, which
//! is safe to enter from several worker threads at once (a contended
//! parallel region degrades to inline sequential execution with
//! bit-identical results).
//!
//! # Fleet mode
//!
//! With a [`FleetConfig`], this daemon becomes one node of a
//! distributed fleet (see [`crate::fleet`]): work requests are routed
//! by consistent hash of their content address (non-owners proxy the
//! raw line to the owner over a [`Client`] and relay the response
//! verbatim, so any node answers byte-identically), fresh results are
//! pushed to the key's replica set, and a background anti-entropy loop
//! keeps peer caches convergent. An optional HTTP/1.1 listener
//! (`http_listen`) serves the same objects over `POST /schedule`,
//! `GET /stats` and `GET /healthz`.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead as _, BufReader, ErrorKind, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tcms_fds::RunBudget;
use tcms_obs::json::JsonValue;
use tcms_obs::{MetricsRegistry, NoopRecorder};

use crate::cache::{CacheKey, Disposition, SchedCache};
use crate::client::Client;
use crate::error::ServeError;
use crate::fleet::{http, sync, Fleet, FleetConfig, RouteMode};
use crate::journal::{JournalEntry, JournalStats, JournalWriter, DEFAULT_JOURNAL_BUFFER};
use crate::persist;
use crate::pipeline::{
    request_cache_key, schedule_request, simulate_request, ExecContext, ScheduleOptions,
};
use crate::protocol::{
    error_line, output_body, parse_request, parse_response, success_line, Action, Request,
    RequestId, Response,
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7733` (`:0` picks a free port).
    pub listen: String,
    /// Worker threads (0 = automatic).
    pub workers: usize,
    /// Bounded job-queue capacity; beyond it requests are shed.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Cache shard count (lock granularity).
    pub cache_shards: usize,
    /// Directory for the persistent cache snapshot (`--cache-dir`).
    pub cache_dir: Option<PathBuf>,
    /// Deadline applied to requests that carry none, in milliseconds.
    pub default_deadline_ms: Option<u64>,
    /// Directory for the workload journal (`--journal-dir`); `None`
    /// disables capture.
    pub journal_dir: Option<PathBuf>,
    /// Bounded worker→journal channel capacity; when full, entries are
    /// dropped (and counted), never queued.
    pub journal_buffer: usize,
    /// Live-journal rotation threshold in bytes (0 disables rotation).
    pub journal_rotate_bytes: u64,
    /// Request-line size cap in bytes: a longer line is answered with a
    /// typed `too-large` (413) error and the connection is closed, so a
    /// misbehaving client can never grow a read buffer unboundedly.
    pub max_request_bytes: usize,
    /// Honour the chaos panic marker
    /// ([`PANIC_MARKER`](crate::pipeline::PANIC_MARKER)) in design text —
    /// test/bench harness support, never enabled in production serving.
    pub fault_marker: bool,
    /// Route designs with at least this many operations through the
    /// feedback-guided partitioner (0 disables automatic routing; an
    /// explicit `partition` request field always wins). Defaults to
    /// [`crate::pipeline::DEFAULT_AUTO_PARTITION_OPS`], matching the
    /// one-shot CLI so responses stay bit-identical.
    pub auto_partition_ops: usize,
    /// Fleet membership (`--peers`); `None` runs a standalone daemon.
    pub fleet: Option<FleetConfig>,
    /// HTTP/1.1 listen address (`--http`); `None` disables the HTTP
    /// front-end.
    pub http_listen: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 256,
            cache_capacity: 1024,
            cache_shards: 8,
            cache_dir: None,
            default_deadline_ms: None,
            journal_dir: None,
            journal_buffer: DEFAULT_JOURNAL_BUFFER,
            journal_rotate_bytes: 0,
            max_request_bytes: 1 << 20,
            fault_marker: false,
            auto_partition_ops: crate::pipeline::DEFAULT_AUTO_PARTITION_OPS,
            fleet: None,
            http_listen: None,
        }
    }
}

/// One queued work item.
struct Job {
    id: RequestId,
    action: Action,
    enqueued: Instant,
    deadline: Option<Duration>,
    conn: Responder,
    /// The raw request line, kept when journaling is on (the journal
    /// replays verbatim bytes, not a re-serialisation) or when fleet
    /// proxying may forward it verbatim to the owner.
    raw: Option<String>,
}

/// Where a request's response line goes: straight onto the write half
/// of an NDJSON connection (shared by its in-flight jobs), or through a
/// channel to an HTTP thread waiting synchronously.
#[derive(Clone)]
enum Responder {
    /// The NDJSON connection the request arrived on.
    Conn(Arc<Mutex<TcpStream>>),
    /// A rendezvous channel whose receiver blocks for the line.
    Channel(mpsc::SyncSender<String>),
}

impl Responder {
    /// Delivers one response line. Errors are swallowed in both arms: a
    /// vanished client must not take a worker down.
    fn send(&self, line: &str) {
        match self {
            Responder::Conn(stream) => {
                let mut stream = stream.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = stream.write_all(line.as_bytes());
                let _ = stream.write_all(b"\n");
                let _ = stream.flush();
            }
            Responder::Channel(tx) => {
                let _ = tx.try_send(line.to_owned());
            }
        }
    }
}

struct Shared {
    config: ServeConfig,
    cache: SchedCache,
    metrics: Mutex<MetricsRegistry>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    journal: Option<JournalWriter>,
    inflight: AtomicU64,
    /// Fleet routing/sync state, when this daemon is a fleet node.
    fleet: Option<Fleet>,
    /// When the last fully successful anti-entropy exchange finished
    /// (drives the `sync.lag_ms` stats field).
    last_sync: Mutex<Option<Instant>>,
    /// Every bound listener, dialled once by [`Shared::begin_shutdown`]
    /// to wake its blocking accept.
    listen_addrs: Vec<SocketAddr>,
    /// The anti-entropy loop waits out its interval on this channel;
    /// dropping the sender ends the wait at once.
    sync_stop: Mutex<Option<mpsc::Sender<()>>>,
}

impl Shared {
    fn lock_metrics(&self) -> std::sync::MutexGuard<'_, MetricsRegistry> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Starts shutdown: sets the flag, wakes every idle worker and the
    /// anti-entropy loop, and self-connects to every listener so each
    /// blocking accept returns and its loop exits. Idempotent.
    fn begin_shutdown(&self) {
        // Set under the queue lock: a worker checks the flag under that
        // lock before it waits, so it cannot miss the notify below.
        let already = {
            let _queue = self.lock_queue();
            self.shutdown.swap(true, Ordering::SeqCst)
        };
        if already {
            return;
        }
        self.queue_cv.notify_all();
        drop(
            self.sync_stop
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
        for addr in &self.listen_addrs {
            wake(*addr);
        }
    }

    /// Pushes a job, or refuses it — shed when the bounded queue is
    /// full, or shutting down — and answers it with the typed reason.
    fn enqueue(&self, job: Job) {
        let mut queue = self.lock_queue();
        // Checked under the lock: after shutdown begins, idle workers may
        // already have exited, and a job queued then would never be
        // answered.
        let refused = if self.shutting_down() {
            ServeError::ShuttingDown
        } else if queue.len() >= self.config.queue_capacity {
            ServeError::Overloaded {
                capacity: self.config.queue_capacity,
            }
        } else {
            queue.push_back(job);
            let depth = queue.len();
            drop(queue);
            self.queue_cv.notify_one();
            #[allow(clippy::cast_precision_loss)]
            self.lock_metrics()
                .gauge_set("serve.queue.depth", depth as f64);
            return;
        };
        drop(queue);
        if matches!(refused, ServeError::Overloaded { .. }) {
            self.lock_metrics().counter_add("serve.shed", 1);
        }
        self.fail(job, &refused, None, 0, 0, 0);
    }

    /// Pops the next job, blocking until one arrives or shutdown drains
    /// the queue empty.
    fn dequeue(&self) -> Option<Job> {
        let mut queue = self.lock_queue();
        loop {
            if let Some(job) = queue.pop_front() {
                let depth = queue.len();
                drop(queue);
                #[allow(clippy::cast_precision_loss)]
                self.lock_metrics()
                    .gauge_set("serve.queue.depth", depth as f64);
                return Some(job);
            }
            if self.shutting_down() {
                return None;
            }
            queue = self
                .queue_cv
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Hands one finished (or shed) request to the journal writer, when
    /// journaling is on. `admit` keeps `raw` only when journaling or in a
    /// fleet, so either `None` means "capture disabled".
    fn journal_record(&self, raw: Option<String>, entry: impl FnOnce(String) -> JournalEntry) {
        let (Some(journal), Some(request)) = (&self.journal, raw) else {
            return;
        };
        journal.record(entry(request));
    }

    /// Counts one typed error and sends it.
    fn reject(&self, to: &Responder, id: &RequestId, err: &ServeError) {
        self.lock_metrics().counter_add("serve.errors", 1);
        to.send(&error_line(id, err));
    }

    /// Answers a job with a typed error. Every way a queued request can
    /// fail ends here: its deadline expired in the queue, it failed to
    /// execute, its proxy hop failed, or the queue refused it. Each is
    /// journaled before the response goes out: a client that has seen
    /// the response may read `journal_stats` at once, and a replay that
    /// omitted failures would understate the offered load.
    fn fail(
        &self,
        job: Job,
        err: &ServeError,
        key: Option<CacheKey>,
        queue_us: u64,
        exec_us: u64,
        total_us: u64,
    ) {
        self.journal_record(job.raw, |request| JournalEntry {
            action: action_label(&job.action),
            key,
            disposition: None,
            outcome: err.class(),
            code: err.code(),
            queue_us,
            exec_us,
            total_us,
            request,
        });
        self.reject(&job.conn, &job.id, err);
    }

    /// Runs one job end to end and writes its response.
    fn execute(&self, job: Job) {
        let waited = job.enqueued.elapsed();
        let queue_us = dur_us(waited);
        let action = action_label(&job.action);
        #[allow(clippy::cast_precision_loss)]
        self.lock_metrics()
            .histogram_record("serve.queue_wait_us", queue_us as f64);
        let budget = match job.deadline {
            Some(deadline) => {
                let Some(remaining) = deadline.checked_sub(waited) else {
                    let waited_ms = u64::try_from(waited.as_millis()).unwrap_or(u64::MAX);
                    let err = ServeError::DeadlineExpired { waited_ms };
                    return self.fail(job, &err, None, queue_us, 0, queue_us);
                };
                RunBudget {
                    wall_deadline: Some(remaining),
                    ..RunBudget::UNLIMITED
                }
            }
            None => RunBudget::UNLIMITED,
        };
        let cache = (self.config.cache_capacity > 0).then_some(&self.cache);
        let ctx = ExecContext {
            cache,
            budget,
            rec: &NoopRecorder,
            fault_marker: self.config.fault_marker,
            auto_partition_ops: self.config.auto_partition_ops,
        };
        // Only work actions reach the queue; everything else is inline.
        if !matches!(
            job.action,
            Action::Schedule { .. } | Action::Simulate { .. }
        ) {
            return;
        }
        // Fleet routing: a non-owner in proxy mode forwards the raw line
        // to the key's owner and relays the answer verbatim, so the whole
        // fleet shares one logical cache with byte-identical responses.
        let Some(job) = self.route_remote(job, action, queue_us, budget.wall_deadline) else {
            return;
        };
        let inflight = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        #[allow(clippy::cast_precision_loss)]
        self.lock_metrics()
            .gauge_set("serve.inflight", inflight as f64);
        let exec_start = Instant::now();
        // Supervision: a panicking scheduler job becomes a typed 500 for
        // the one request that caused it — the worker, the daemon and the
        // connection all survive. (The cache's own drop guard has already
        // resolved any in-flight slot during the unwind, so waiters are
        // never wedged.) This is the single place a panic is counted.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &job.action {
                Action::Schedule { design, opts } => schedule_request(design, opts, &ctx)
                    .map(|a| (a.text, a.disposition, a.fresh_iterations, a.cache_key)),
                Action::Simulate { design, opts } => simulate_request(design, opts, &ctx)
                    .map(|a| (a.text, a.disposition, a.fresh_iterations, a.cache_key)),
                _ => unreachable!("non-work actions never reach the queue"),
            }))
            .unwrap_or_else(|payload| {
                self.lock_metrics().counter_add("serve.worker.panics", 1);
                Err(ServeError::from_panic(payload.as_ref()))
            });
        let exec_us = dur_us(exec_start.elapsed());
        let inflight = self.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        let total_us = dur_us(job.enqueued.elapsed());
        let disposition = outcome.as_ref().ok().map(|(_, d, _, _)| *d);
        {
            let mut m = self.lock_metrics();
            #[allow(clippy::cast_precision_loss)]
            {
                m.gauge_set("serve.inflight", inflight as f64);
                m.histogram_record(exec_metric(disposition), exec_us as f64);
                m.histogram_record(total_metric(disposition), total_us as f64);
                m.histogram_record("serve.latency_ms", total_us as f64 / 1_000.0);
            }
        }
        match outcome {
            Ok((output, disposition, fresh_iterations, key)) => {
                {
                    let mut m = self.lock_metrics();
                    m.counter_add(disposition_metric(disposition), 1);
                    if disposition == Disposition::Miss {
                        m.counter_add("serve.scheduler.runs", 1);
                    }
                    m.counter_add("serve.ifds.iterations", fresh_iterations);
                }
                // Journal before responding (non-blocking `try_send`): a
                // client that has seen the response may immediately read
                // `journal_stats`, which must already count this request.
                self.journal_record(job.raw, |request| JournalEntry {
                    action,
                    key,
                    disposition: Some(disposition),
                    outcome: "ok",
                    code: 0,
                    queue_us,
                    exec_us,
                    total_us,
                    request,
                });
                // The rendered report's iteration count mirrors the run
                // that produced the cache entry; `fresh_iterations` in
                // the metrics counts only *new* IFDS work.
                job.conn.send(&success_line(
                    &job.id,
                    output_body(&output, disposition, fresh_iterations),
                ));
                // Replicate a freshly computed entry to the key's other
                // replicas — after the response, never on the hot path.
                if disposition == Disposition::Miss {
                    if let Some(key) = key {
                        self.replicate_fresh(key);
                    }
                }
            }
            Err(e) => self.fail(job, &e, None, queue_us, exec_us, total_us),
        }
    }

    /// The content address a work request would execute under, when the
    /// request is routable: cache enabled, not degrade-laddered, and the
    /// design parses. Mirrors the executed key exactly (see
    /// [`request_cache_key`]), which is what makes routing safe — a
    /// mismatch would only cost a proxy hop, never a wrong answer.
    fn work_cache_key(&self, action: &Action) -> Option<CacheKey> {
        if self.config.cache_capacity == 0 {
            return None;
        }
        let (design, opts) = match action {
            Action::Schedule { design, opts } => (design, opts.clone()),
            // Simulation caches only its embedded *schedule*; the key is
            // built from the schedule-shaped slice of the options.
            Action::Simulate { design, opts } => (
                design,
                ScheduleOptions {
                    all_global: opts.all_global,
                    globals: opts.globals.clone(),
                    ..ScheduleOptions::default()
                },
            ),
            _ => return None,
        };
        request_cache_key(design, &opts, self.config.auto_partition_ops)
            .ok()
            .flatten()
    }

    /// Proxies a job to its owner when this node is not in the key's
    /// replica set, and answers it: the owner's bytes verbatim, or a
    /// typed `peer-unavailable` error. Hands the job back to execute
    /// locally instead — standalone daemon, local route mode, owned key,
    /// unroutable request, or a dead owner (health gates effort, never
    /// placement).
    fn route_remote(
        &self,
        job: Job,
        action: &'static str,
        queue_us: u64,
        remaining: Option<Duration>,
    ) -> Option<Job> {
        let Some(fleet) = self
            .fleet
            .as_ref()
            .filter(|f| f.config.route == RouteMode::Proxy)
        else {
            return Some(job);
        };
        let (Some(raw), Some(key)) = (job.raw.as_deref(), self.work_cache_key(&job.action)) else {
            return Some(job);
        };
        if fleet.is_local(&key) {
            return Some(job);
        }
        let owner = fleet.owner(&key).to_owned();
        if !fleet.membership.is_alive(&owner) {
            // Dead owner: compute locally rather than fail the client —
            // bit-identical by construction, just duplicated work that
            // anti-entropy will reconcile.
            self.lock_metrics()
                .counter_add("serve.fleet.local_fallback", 1);
            return Some(job);
        }
        let read_timeout = remaining.map_or(PROXY_READ_TIMEOUT, |r| r.min(PROXY_READ_TIMEOUT));
        let start = Instant::now();
        let relayed = dial_peer(&owner, read_timeout).and_then(|mut peer| {
            peer.send_line(raw)?;
            peer.recv_line()
        });
        match relayed {
            Ok(line) => {
                let rtt = dur_us(start.elapsed());
                fleet.membership.record_ok(&owner, rtt);
                {
                    let mut m = self.lock_metrics();
                    m.counter_add("serve.fleet.proxied", 1);
                    #[allow(clippy::cast_precision_loss)]
                    m.histogram_record("serve.fleet.peer.rtt_us", rtt as f64);
                }
                self.journal_record(job.raw, |request| JournalEntry {
                    action,
                    key: Some(key),
                    disposition: None,
                    outcome: "proxied",
                    code: 0,
                    queue_us,
                    exec_us: rtt,
                    total_us: dur_us(job.enqueued.elapsed()),
                    request,
                });
                job.conn.send(&line);
            }
            Err(_) => {
                fleet.membership.record_failure(&owner);
                self.lock_metrics()
                    .counter_add("serve.fleet.proxy_failures", 1);
                let exec_us = dur_us(start.elapsed());
                let total_us = dur_us(job.enqueued.elapsed());
                let err = ServeError::PeerUnavailable { peer: owner };
                self.fail(job, &err, Some(key), queue_us, exec_us, total_us);
            }
        }
        None
    }

    /// Pushes one freshly computed entry to the key's other replicas.
    /// Best effort: a failed push is counted and left to anti-entropy.
    fn replicate_fresh(&self, key: CacheKey) {
        let Some(fleet) = &self.fleet else { return };
        let Some(value) = self.cache.peek(&key) else {
            return;
        };
        let entry = [(key, value)];
        let line = sync::push_request_line("repl", &entry);
        for peer in fleet.replica_peers(&key) {
            if !fleet.membership.is_alive(peer) {
                continue; // sync catches the peer up when it rejoins
            }
            let start = Instant::now();
            match dial_peer(peer, SYNC_READ_TIMEOUT).and_then(|mut c| c.request(&line)) {
                Ok(_) => {
                    fleet.membership.record_ok(peer, dur_us(start.elapsed()));
                    self.lock_metrics().counter_add("serve.fleet.pushed", 1);
                }
                Err(_) => {
                    fleet.membership.record_failure(peer);
                    self.lock_metrics()
                        .counter_add("serve.fleet.push_failures", 1);
                }
            }
        }
    }

    /// One anti-entropy exchange with one peer: digest comparison, then
    /// a pull of every diverging shard over the same connection.
    fn sync_with_peer(&self, peer: &str) -> std::io::Result<sync::SyncOutcome> {
        let mut conn = dial_peer(peer, SYNC_READ_TIMEOUT)?;
        let digests = conn.request(&sync::digest_request_line("sync-digest"))?;
        let theirs = sync::parse_digests(&peer_body(digests)?)
            .ok_or_else(|| invalid_peer("malformed digest response"))?;
        sync::pull_round(&self.cache, &theirs, |shard| {
            let pulled = conn.request(&sync::pull_shard_request_line("sync-pull", shard))?;
            let (entries, rejected) = sync::parse_entries(&peer_body(pulled)?)
                .ok_or_else(|| invalid_peer("malformed entries response"))?;
            if rejected > 0 {
                self.lock_metrics()
                    .counter_add("serve.fleet.sync.rejected", rejected as u64);
            }
            Ok(entries)
        })
    }

    /// One full anti-entropy round against every peer. Doubles as the
    /// failure detector: successful exchanges resurrect dead peers,
    /// failed ones advance their death counters.
    fn sync_all_peers(&self) {
        let Some(fleet) = &self.fleet else { return };
        let peers: Vec<String> = fleet.membership.addrs().map(str::to_owned).collect();
        let mut all_ok = !peers.is_empty();
        for peer in &peers {
            if self.shutting_down() {
                return;
            }
            let start = Instant::now();
            match self.sync_with_peer(peer) {
                Ok(outcome) => {
                    let rtt = dur_us(start.elapsed());
                    fleet.membership.record_ok(peer, rtt);
                    let mut m = self.lock_metrics();
                    m.counter_add("serve.fleet.sync.rounds", 1);
                    m.counter_add(
                        "serve.fleet.sync.shards_pulled",
                        outcome.shards_pulled as u64,
                    );
                    m.counter_add("serve.fleet.sync.entries_applied", outcome.applied as u64);
                    #[allow(clippy::cast_precision_loss)]
                    m.histogram_record("serve.fleet.peer.rtt_us", rtt as f64);
                }
                Err(_) => {
                    all_ok = false;
                    fleet.membership.record_failure(peer);
                    self.lock_metrics()
                        .counter_add("serve.fleet.sync.failures", 1);
                }
            }
        }
        if all_ok {
            *self
                .last_sync
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(Instant::now());
        }
    }

    /// The daemon-statistics response body.
    fn stats_body(&self) -> BTreeMap<String, JsonValue> {
        let cache = self.cache.stats();
        let metrics = self.lock_metrics();
        let num = |n: u64| {
            #[allow(clippy::cast_precision_loss)]
            JsonValue::Number(n as f64)
        };
        let mut body = BTreeMap::new();
        body.insert("cache_entries".into(), num(self.cache.len() as u64));
        body.insert("cache_hits".into(), num(cache.hits));
        body.insert("cache_misses".into(), num(cache.misses));
        body.insert("cache_coalesced".into(), num(cache.coalesced));
        body.insert("cache_evictions".into(), num(cache.evictions));
        body.insert("cache_hit_rate".into(), JsonValue::Number(cache.hit_rate()));
        body.insert("requests".into(), num(metrics.counter("serve.requests")));
        body.insert(
            "scheduler_runs".into(),
            num(metrics.counter("serve.scheduler.runs")),
        );
        body.insert(
            "ifds_iterations".into(),
            num(metrics.counter("serve.ifds.iterations")),
        );
        body.insert("errors".into(), num(metrics.counter("serve.errors")));
        body.insert(
            "worker_panics".into(),
            num(metrics.counter("serve.worker.panics")),
        );
        body.insert(
            "worker_restarts".into(),
            num(metrics.counter("serve.worker.restarts")),
        );
        body.insert(
            "queue_depth".into(),
            JsonValue::Number(metrics.gauge("serve.queue.depth").unwrap_or(0.0)),
        );
        body.insert(
            "inflight".into(),
            JsonValue::Number(metrics.gauge("serve.inflight").unwrap_or(0.0)),
        );
        body.insert("workers".into(), num(self.config.workers as u64));
        // Per-shard cache occupancy/evictions: lock-granularity hot
        // spots show up here long before the global hit rate moves.
        body.insert(
            "cache_shards".into(),
            JsonValue::Array(
                cache
                    .shards
                    .iter()
                    .map(|s| {
                        let mut m = BTreeMap::new();
                        m.insert("occupancy".into(), num(s.occupancy as u64));
                        m.insert("capacity".into(), num(s.capacity as u64));
                        m.insert("evictions".into(), num(s.evictions));
                        JsonValue::Object(m)
                    })
                    .collect(),
            ),
        );
        // The full registry in wire form: `tcms stats` reconstructs a
        // MetricsRegistry from this and renders the standard summary.
        body.insert("metrics".into(), metrics.to_json());
        let mut journal = BTreeMap::new();
        match &self.journal {
            Some(w) => {
                let stats = w.stats();
                journal.insert("enabled".into(), JsonValue::Bool(true));
                journal.insert("recorded".into(), num(stats.recorded));
                journal.insert("dropped".into(), num(stats.dropped));
                journal.insert("rotated".into(), num(stats.rotated));
                journal.insert(
                    "path".into(),
                    JsonValue::String(w.path().display().to_string()),
                );
            }
            None => {
                journal.insert("enabled".into(), JsonValue::Bool(false));
            }
        }
        body.insert("journal".into(), JsonValue::Object(journal));
        let mut fleet = BTreeMap::new();
        match &self.fleet {
            Some(f) => {
                fleet.insert("enabled".into(), JsonValue::Bool(true));
                fleet.insert("self".into(), JsonValue::String(f.config.self_addr.clone()));
                fleet.insert(
                    "route".into(),
                    JsonValue::String(f.config.route.as_str().into()),
                );
                fleet.insert("replicas".into(), num(f.ring.replicas() as u64));
                for (field, counter) in [
                    ("proxied", "serve.fleet.proxied"),
                    ("proxy_failures", "serve.fleet.proxy_failures"),
                    ("local_fallback", "serve.fleet.local_fallback"),
                    ("pushed", "serve.fleet.pushed"),
                    ("push_failures", "serve.fleet.push_failures"),
                ] {
                    fleet.insert(field.into(), num(metrics.counter(counter)));
                }
                let mut sync = BTreeMap::new();
                for (field, counter) in [
                    ("rounds", "serve.fleet.sync.rounds"),
                    ("shards_pulled", "serve.fleet.sync.shards_pulled"),
                    ("entries_applied", "serve.fleet.sync.entries_applied"),
                    ("failures", "serve.fleet.sync.failures"),
                    ("push_applied", "serve.fleet.sync.push_applied"),
                    ("push_rejected", "serve.fleet.sync.push_rejected"),
                ] {
                    sync.insert(field.into(), num(metrics.counter(counter)));
                }
                let lag = self
                    .last_sync
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .map(|at| {
                        #[allow(clippy::cast_precision_loss)]
                        let ms = at.elapsed().as_millis() as f64;
                        JsonValue::Number(ms)
                    });
                sync.insert("lag_ms".into(), lag.unwrap_or(JsonValue::Null));
                fleet.insert("sync".into(), JsonValue::Object(sync));
                fleet.insert(
                    "peers".into(),
                    JsonValue::Array(
                        f.membership
                            .snapshot()
                            .into_iter()
                            .map(|(addr, health)| {
                                let mut p = BTreeMap::new();
                                p.insert("addr".into(), JsonValue::String(addr));
                                p.insert("alive".into(), JsonValue::Bool(health.is_alive()));
                                p.insert("ok".into(), num(health.ok_count));
                                p.insert("failures".into(), num(health.failure_count));
                                p.insert(
                                    "consecutive_failures".into(),
                                    num(u64::from(health.consecutive_failures)),
                                );
                                p.insert(
                                    "last_rtt_us".into(),
                                    health.last_rtt_us.map_or(JsonValue::Null, num),
                                );
                                JsonValue::Object(p)
                            })
                            .collect(),
                    ),
                );
            }
            None => {
                fleet.insert("enabled".into(), JsonValue::Bool(false));
            }
        }
        body.insert("fleet".into(), JsonValue::Object(fleet));
        body
    }
}

fn dur_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Connect timeout for any peer dial.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Read timeout for sync/push exchanges (bounded, off the hot path).
const SYNC_READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Read-timeout ceiling for proxied work (the request's own deadline
/// tightens it further).
const PROXY_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Dials a fleet peer: the peer connect timeout, and `io` as both the
/// read and the write timeout.
fn dial_peer(addr: &str, io: Duration) -> std::io::Result<Client> {
    let peer = Client::connect_with(addr, Some(PEER_CONNECT_TIMEOUT), Some(io))?;
    peer.set_write_timeout(Some(io))?;
    Ok(peer)
}

fn invalid_peer(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

/// Extracts a peer response's body, converting a typed error into an
/// I/O error (the sync loop treats every failure mode uniformly: count
/// it, mark the peer, move on).
fn peer_body(resp: Response) -> std::io::Result<JsonValue> {
    if let Some((class, code, msg)) = resp.error {
        return Err(invalid_peer(&format!("peer error {class} ({code}): {msg}")));
    }
    Ok(resp.body)
}

fn action_label(action: &Action) -> &'static str {
    match action {
        Action::Schedule { .. } => "schedule",
        Action::Simulate { .. } => "simulate",
        Action::Stats => "stats",
        Action::Ping => "ping",
        Action::Shutdown => "shutdown",
        Action::SyncDigest => "sync_digest",
        Action::SyncPull { .. } => "sync_pull",
        Action::SyncPush { .. } => "sync_push",
    }
}

fn request_metric(action: &Action) -> &'static str {
    match action {
        Action::Schedule { .. } => "serve.requests.schedule",
        Action::Simulate { .. } => "serve.requests.simulate",
        Action::Stats => "serve.requests.stats",
        Action::Ping => "serve.requests.ping",
        Action::Shutdown => "serve.requests.shutdown",
        Action::SyncDigest => "serve.requests.sync_digest",
        Action::SyncPull { .. } => "serve.requests.sync_pull",
        Action::SyncPush { .. } => "serve.requests.sync_push",
    }
}

fn disposition_metric(d: Disposition) -> &'static str {
    match d {
        Disposition::Hit => "serve.cache.hit",
        Disposition::Miss => "serve.cache.miss",
        Disposition::Coalesced => "serve.cache.coalesced",
    }
}

/// Execution-time histogram, split by cache disposition (`None` = the
/// request errored): a hit's ~µs lookup and a miss's ~ms scheduler run
/// must not share buckets.
fn exec_metric(d: Option<Disposition>) -> &'static str {
    match d {
        Some(Disposition::Hit) => "serve.exec_us.hit",
        Some(Disposition::Miss) => "serve.exec_us.miss",
        Some(Disposition::Coalesced) => "serve.exec_us.coalesced",
        None => "serve.exec_us.error",
    }
}

/// Arrival-to-response histogram, split like [`exec_metric`].
fn total_metric(d: Option<Disposition>) -> &'static str {
    match d {
        Some(Disposition::Hit) => "serve.total_us.hit",
        Some(Disposition::Miss) => "serve.total_us.miss",
        Some(Disposition::Coalesced) => "serve.total_us.coalesced",
        None => "serve.total_us.error",
    }
}

/// Answers every non-work action inline (control and sync actions never
/// touch the job queue — a full queue must not stall health checks or
/// anti-entropy). Returns `Err(action)` to hand work actions back to the
/// caller for queueing.
fn inline_response(shared: &Shared, id: &RequestId, action: Action) -> Result<String, Action> {
    match action {
        Action::Ping => {
            let mut body = BTreeMap::new();
            body.insert("pong".into(), JsonValue::Bool(true));
            Ok(success_line(id, body))
        }
        Action::Stats => Ok(success_line(id, shared.stats_body())),
        // `admit` begins the shutdown once this acknowledgement is sent.
        Action::Shutdown => Ok(success_line(id, BTreeMap::new())),
        Action::SyncDigest => Ok(success_line(
            id,
            sync::digest_body(&sync::digests(&shared.cache)),
        )),
        Action::SyncPull { shard, key } => {
            let entries = match (shard, key) {
                (Some(s), _) => {
                    if s >= sync::SYNC_SHARDS {
                        let err = ServeError::BadRequest(format!(
                            "`shard` must be below {}",
                            sync::SYNC_SHARDS
                        ));
                        return Ok(error_line(id, &err));
                    }
                    sync::shard_entries(&shared.cache, s)
                }
                (None, Some(k)) => shared
                    .cache
                    .peek(&k)
                    .map(|v| vec![(k, v)])
                    .unwrap_or_default(),
                // The parser enforces exactly one selector.
                (None, None) => Vec::new(),
            };
            Ok(success_line(id, sync::entries_body(&entries)))
        }
        Action::SyncPush { entries, rejected } => {
            let applied = sync::apply_entries(&shared.cache, entries);
            {
                let mut m = shared.lock_metrics();
                m.counter_add("serve.fleet.sync.push_applied", applied as u64);
                m.counter_add("serve.fleet.sync.push_rejected", rejected as u64);
            }
            let mut body = BTreeMap::new();
            #[allow(clippy::cast_precision_loss)]
            body.insert("applied".into(), JsonValue::Number(applied as f64));
            #[allow(clippy::cast_precision_loss)]
            body.insert("rejected".into(), JsonValue::Number(rejected as f64));
            Ok(success_line(id, body))
        }
        work @ (Action::Schedule { .. } | Action::Simulate { .. }) => Err(work),
    }
}

/// How long a connection read blocks before it re-checks the shutdown
/// flag: the daemon's only poll (see [`FrameReader::fill`]).
const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

/// Why a [`FrameReader`] read produced no frame.
enum ReadError {
    /// EOF, an I/O error, or shutdown: close without answering.
    Closed,
    /// Answer with this typed error; `close` when no trustworthy frame
    /// boundary follows it.
    Reject { error: ServeError, close: bool },
}

/// The one framed reader under both front-ends: NDJSON lines, HTTP
/// heads and bodies. Every frame is capped at `max_request_bytes` (a
/// longer one is a typed 413 and the connection closes: discarding up
/// to the next boundary would itself be unbounded work on
/// attacker-controlled input), partial reads across timeout polls are
/// never lost, and invalid UTF-8 is a typed error, not a dead
/// connection.
struct FrameReader<'a> {
    inner: BufReader<TcpStream>,
    cap: usize,
    shutdown: &'a AtomicBool,
}

impl<'a> FrameReader<'a> {
    /// Splits an accepted socket into its reader and its write half.
    fn open(shared: &'a Shared, stream: TcpStream) -> Option<(FrameReader<'a>, TcpStream)> {
        // Nagle is off: a one-line response must not wait out the
        // client's delayed ACK (a ~40 ms floor on every request).
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(SHUTDOWN_POLL));
        let writer = stream.try_clone().ok()?;
        let reader = FrameReader {
            inner: BufReader::new(stream),
            cap: shared.config.max_request_bytes.max(1),
            shutdown: &shared.shutdown,
        };
        Some((reader, writer))
    }

    /// The buffered bytes, refilled when empty. A read that times out
    /// re-checks the shutdown flag and retries: this is how a detached
    /// connection thread notices shutdown.
    fn fill(&mut self) -> Result<&[u8], ReadError> {
        loop {
            match self.inner.fill_buf() {
                Ok([]) => return Err(ReadError::Closed),
                Ok(_) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) && !self.shutdown.load(Ordering::SeqCst) => {}
                Err(_) => return Err(ReadError::Closed),
            }
        }
        Ok(self.inner.buffer())
    }

    /// Appends bytes through the next `\n` to `out`, which may hold at
    /// most `cap` bytes besides that newline.
    fn read_through_newline(&mut self, out: &mut Vec<u8>) -> Result<(), ReadError> {
        let cap = self.cap;
        loop {
            let buf = self.fill()?;
            let newline = buf.iter().position(|&b| b == b'\n');
            let body = newline.unwrap_or(buf.len());
            if out.len() + body > cap {
                let error = ServeError::TooLarge { limit: cap };
                return Err(ReadError::Reject { error, close: true });
            }
            let used = newline.map_or(body, |i| i + 1);
            out.extend_from_slice(&buf[..used]);
            self.inner.consume(used);
            if newline.is_some() {
                return Ok(());
            }
        }
    }

    /// One NDJSON request line, without its `\n`.
    fn line(&mut self) -> Result<String, ReadError> {
        let mut line = Vec::new();
        self.read_through_newline(&mut line)?;
        line.pop();
        utf8(line, "line")
    }

    /// One HTTP request head, through the blank line that ends it; body
    /// bytes stay buffered. A non-UTF-8 head comes back empty, which
    /// the head parser rejects as malformed.
    fn head(&mut self) -> Result<String, ReadError> {
        let mut head = Vec::new();
        while !(head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n")) {
            self.read_through_newline(&mut head)?;
        }
        Ok(String::from_utf8(head).unwrap_or_default())
    }

    /// Exactly `len` HTTP body bytes.
    fn body(&mut self, len: usize) -> Result<String, ReadError> {
        if len > self.cap {
            let error = ServeError::TooLarge { limit: self.cap };
            return Err(ReadError::Reject { error, close: true });
        }
        let mut body = Vec::with_capacity(len);
        while body.len() < len {
            let buf = self.fill()?;
            let take = buf.len().min(len - body.len());
            body.extend_from_slice(&buf[..take]);
            self.inner.consume(take);
        }
        utf8(body, "body")
    }
}

/// Decodes a complete frame; its boundary is intact, so a decoding
/// failure leaves the connection usable.
fn utf8(frame: Vec<u8>, what: &str) -> Result<String, ReadError> {
    String::from_utf8(frame).map_err(|_| ReadError::Reject {
        error: ServeError::BadRequest(format!("request {what} is not valid UTF-8")),
        close: false,
    })
}

/// The one admission path both front-ends share: parse, count, answer
/// control and sync actions inline, else queue the work. Exactly one
/// response line reaches `to`: now, from [`Shared::enqueue`] when the
/// queue refuses the job, or from a worker.
fn admit(shared: &Shared, line: &str, to: Responder) {
    let Request {
        id,
        action,
        deadline_ms,
    } = match parse_request(line) {
        Ok(request) => request,
        Err((id, e)) => return shared.reject(&to, &id, &e),
    };
    shared
        .lock_metrics()
        .counter_add(request_metric(&action), 1);
    let shutdown = matches!(action, Action::Shutdown);
    let work = match inline_response(shared, &id, action) {
        Ok(resp) => {
            to.send(&resp);
            // Only after the acknowledgement: shutdown completes at once,
            // and a daemon process exits as soon as `wait` returns.
            if shutdown {
                shared.begin_shutdown();
            }
            return;
        }
        Err(work) => work,
    };
    let job = Job {
        id,
        action: work,
        enqueued: Instant::now(),
        deadline: deadline_ms
            .or(shared.config.default_deadline_ms)
            .map(Duration::from_millis),
        conn: to,
        // Keep the raw bytes when journaling (the journal replays the
        // request verbatim, not a re-serialisation) or in a fleet
        // (proxying forwards the owner the same bytes).
        raw: (shared.journal.is_some() || shared.fleet.is_some()).then(|| line.to_owned()),
    };
    shared.enqueue(job);
}

/// Serves one NDJSON connection: every non-blank line is a request.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let Some((mut reader, writer)) = FrameReader::open(shared, stream) else {
        return;
    };
    let to = Responder::Conn(Arc::new(Mutex::new(writer)));
    loop {
        let line = match reader.line() {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => line,
            Err(ReadError::Closed) => return,
            Err(ReadError::Reject { error, close }) => {
                shared.lock_metrics().counter_add("serve.requests", 1);
                shared.reject(&to, &JsonValue::Null, &error);
                if close {
                    return;
                }
                continue;
            }
        };
        shared.lock_metrics().counter_add("serve.requests", 1);
        admit(shared, line.trim_end(), to.clone());
    }
}

/// The `/schedule` route implies `"action":"schedule"` when the body
/// omits it; anything else (including an unparseable body) passes
/// through untouched and produces its typed error downstream.
fn inject_default_action(line: &str) -> String {
    let Ok(JsonValue::Object(mut map)) = tcms_obs::json::parse(line) else {
        return line.to_owned();
    };
    map.entry("action".to_owned())
        .or_insert_with(|| JsonValue::String("schedule".into()));
    tcms_obs::json::to_string(&JsonValue::Object(map))
}

/// Runs one HTTP work request through [`admit`] — behind the same
/// bounded queue as NDJSON work — and maps the NDJSON response line
/// onto an HTTP status. The body IS the NDJSON line: the fleet's
/// bit-identicality guarantee carries over to HTTP verbatim.
fn http_work(shared: &Shared, body: &str) -> (u16, String) {
    // NDJSON wants one line; JSON newlines only ever separate tokens,
    // where a space is equivalent.
    let line = inject_default_action(body.replace(['\r', '\n'], " ").trim());
    // Rendezvous channel: `admit` answers exactly once, inline or from
    // a worker (shutdown drains the queue through `execute`), so `recv`
    // cannot wedge.
    let (tx, rx) = mpsc::sync_channel(1);
    admit(shared, &line, Responder::Channel(tx));
    let resp = rx.recv().unwrap_or_else(|_| {
        let err = ServeError::Internal("worker dropped the response".into());
        error_line(&JsonValue::Null, &err)
    });
    (http_status_of_line(&resp), resp + "\n")
}

/// The HTTP status an NDJSON response line maps onto: 200 for `ok`,
/// otherwise the error's own HTTP-shaped code (see
/// [`http::status_of`]).
fn http_status_of_line(line: &str) -> u16 {
    match parse_response(line) {
        Ok(resp) => resp
            .error
            .map_or(200, |(_, code, _)| http::status_of_code(code)),
        Err(_) => 200,
    }
}

/// Counts one HTTP-level typed error and renders it.
fn http_error(shared: &Shared, status: u16, err: &ServeError) -> (u16, String) {
    shared.lock_metrics().counter_add("serve.errors", 1);
    (status, error_line(&JsonValue::Null, err) + "\n")
}

/// Routes one parsed HTTP request. `body` is consumed only by
/// `/schedule`, so a bad body never masks a 404 or 405.
fn http_route(
    shared: &Shared,
    head: &http::RequestHead,
    body: Result<String, ServeError>,
) -> (u16, String) {
    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/healthz") if shared.shutting_down() => {
            http_error(shared, 503, &ServeError::ShuttingDown)
        }
        ("GET", "/healthz") => (200, success_line(&JsonValue::Null, BTreeMap::new()) + "\n"),
        ("GET", "/stats") => {
            shared.lock_metrics().counter_add("serve.requests.stats", 1);
            (
                200,
                success_line(&JsonValue::Null, shared.stats_body()) + "\n",
            )
        }
        ("POST", "/schedule") => match body {
            Ok(body) => http_work(shared, &body),
            Err(e) => http_error(shared, http::status_of(&e), &e),
        },
        (_, "/healthz" | "/stats" | "/schedule") => {
            let err = ServeError::BadRequest(format!(
                "method {} not allowed on {}",
                head.method, head.path
            ));
            http_error(shared, 405, &err)
        }
        (_, path) => http_error(shared, 404, &ServeError::UnknownAction(path.to_owned())),
    }
}

/// Reads and answers one HTTP request: `(status, body, keep-alive)`, or
/// `None` once the client has gone. Like an NDJSON line, every request
/// counts `serve.requests`, and every typed error counts `serve.errors`.
fn http_exchange(shared: &Shared, reader: &mut FrameReader<'_>) -> Option<(u16, String, bool)> {
    let head = match reader.head() {
        Err(ReadError::Closed) => return None,
        head => head,
    };
    {
        let mut m = shared.lock_metrics();
        m.counter_add("serve.requests", 1);
        m.counter_add("serve.fleet.http.requests", 1);
    }
    let head = head.and_then(|text| {
        http::parse_request_head(&text).map_err(|msg| ReadError::Reject {
            error: ServeError::BadRequest(format!("malformed HTTP request: {msg}")),
            close: true,
        })
    });
    let head = match head {
        Ok(head) => head,
        Err(e) => return http_close(shared, e),
    };
    let body = match reader.body(head.content_length) {
        Ok(body) => Ok(body),
        Err(ReadError::Reject {
            error,
            close: false,
        }) => Err(error),
        Err(e) => return http_close(shared, e),
    };
    let (status, line) = http_route(shared, &head, body);
    Some((status, line, head.keep_alive))
}

/// The last answer on a connection that cannot continue, or `None` when
/// the client has already gone.
fn http_close(shared: &Shared, e: ReadError) -> Option<(u16, String, bool)> {
    let ReadError::Reject { error, .. } = e else {
        return None;
    };
    let (status, body) = http_error(shared, http::status_of(&error), &error);
    Some((status, body, false))
}

/// Serves one HTTP connection: request after request while keep-alive
/// holds. Pure parsing/rendering lives in [`crate::fleet::http`].
fn serve_http_connection(shared: &Shared, stream: TcpStream) {
    let Some((mut reader, mut writer)) = FrameReader::open(shared, stream) else {
        return;
    };
    while let Some((status, body, keep_alive)) = http_exchange(shared, &mut reader) {
        let _ = writer.write_all(&http::response_bytes(status, &body, keep_alive));
        let _ = writer.flush();
        if !keep_alive {
            return;
        }
    }
}

/// A running daemon. Dropping it without [`Server::wait`] leaves threads
/// running; call [`Server::shutdown`] then [`Server::wait`] (or let a
/// client's `shutdown` request trigger it) for a clean exit that also
/// persists the cache snapshot.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    /// Workers, accept loops and the anti-entropy loop: each exits on
    /// its own once shutdown begins.
    threads: Vec<JoinHandle<()>>,
}

/// Pause after a failed `accept`. Errors such as fd exhaustion persist
/// until some connection closes, so retrying at once would spin a core.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// The one accept loop, under the daemon's listeners and the chaos
/// proxy: blocks in `accept`, hands each connection to `on_conn`, and
/// exits on the first accept after `stopped()` turns true — which
/// [`wake`] supplies.
pub(crate) fn spawn_accept_loop(
    listener: TcpListener,
    name: String,
    stopped: impl Fn() -> bool + Send + 'static,
    mut on_conn: impl FnMut(TcpStream) + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(move || {
        for stream in listener.incoming() {
            if stopped() {
                return;
            }
            match stream {
                Ok(stream) => on_conn(stream),
                Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
            }
        }
    })
}

/// Wakes an accept loop parked on the listener at `addr` by connecting
/// to it once. An unspecified bind address (`0.0.0.0`, `::`) is dialled
/// on loopback.
pub(crate) fn wake(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, PEER_CONNECT_TIMEOUT);
}

/// Serves `listener` until shutdown, one detached thread per connection
/// (connection threads exit on client EOF, or notice shutdown through
/// their reader's read timeout).
fn serve_listener(
    shared: &Arc<Shared>,
    listener: TcpListener,
    name: &str,
    handler: fn(&Shared, TcpStream),
) -> std::io::Result<JoinHandle<()>> {
    let flag = Arc::clone(shared);
    let shared = Arc::clone(shared);
    let conn_name = format!("{name}-conn");
    spawn_accept_loop(
        listener,
        format!("{name}-accept"),
        move || flag.shutting_down(),
        move |stream| {
            let shared = Arc::clone(&shared);
            let _ = std::thread::Builder::new()
                .name(conn_name.clone())
                .spawn(move || handler(&shared, stream));
        },
    )
}

impl Server {
    /// Binds the listener, loads the cache snapshot (when a cache
    /// directory is configured) and spawns the accept loop and worker
    /// pool.
    ///
    /// # Errors
    ///
    /// Propagates bind and snapshot I/O failures.
    pub fn start(mut config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let http_listener = match &config.http_listen {
            Some(http) => Some(TcpListener::bind(http)?),
            None => None,
        };
        let http_addr = match &http_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        if config.workers == 0 {
            config.workers = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .clamp(2, 8);
        }
        let cache = SchedCache::new(config.cache_capacity.max(1), config.cache_shards.max(1));
        let mut metrics = MetricsRegistry::default();
        if let Some(dir) = &config.cache_dir {
            let report = persist::load_snapshot(dir, &cache)?;
            metrics.counter_add("serve.snapshot.loaded", report.loaded as u64);
            metrics.counter_add("serve.snapshot.skipped", report.skipped as u64);
            metrics.counter_add("serve.snapshot.quarantined", u64::from(report.quarantined));
        }
        let journal = match &config.journal_dir {
            Some(dir) => Some(JournalWriter::open_with(
                dir,
                config.journal_buffer,
                config.journal_rotate_bytes,
            )?),
            None => None,
        };
        let fleet = config.fleet.clone().map(Fleet::new);
        let (sync_stop, sync_wait) = mpsc::channel::<()>();
        let shared = Arc::new(Shared {
            config,
            cache,
            metrics: Mutex::new(metrics),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            journal,
            inflight: AtomicU64::new(0),
            fleet,
            last_sync: Mutex::new(None),
            listen_addrs: std::iter::once(addr).chain(http_addr).collect(),
            sync_stop: Mutex::new(Some(sync_stop)),
        });
        let mut threads: Vec<_> = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tcms-serve-worker-{i}"))
                    .spawn(move || loop {
                        // Outer supervision ring: `execute` already
                        // converts job panics into typed 500s, so this
                        // only trips on a panic outside the job path
                        // (queue accounting, journaling). The loop *is*
                        // the restart — same thread, fresh iteration —
                        // so a worker slot is never permanently lost.
                        let drained =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                while let Some(job) = shared.dequeue() {
                                    shared.execute(job);
                                }
                            }));
                        match drained {
                            Ok(()) => return,
                            Err(_) => {
                                shared
                                    .lock_metrics()
                                    .counter_add("serve.worker.restarts", 1);
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        threads.push(serve_listener(
            &shared,
            listener,
            "tcms-serve",
            serve_connection,
        )?);
        if let Some(l) = http_listener {
            threads.push(serve_listener(
                &shared,
                l,
                "tcms-serve-http",
                serve_http_connection,
            )?);
        }
        // The anti-entropy loop: wait out the interval on the stop
        // channel (shutdown drops its sender, ending the wait at once),
        // then exchange digests with every peer.
        if let Some(interval) = shared.fleet.as_ref().and_then(|f| f.config.sync_interval) {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("tcms-serve-sync".into())
                    .spawn(move || {
                        while sync_wait.recv_timeout(interval)
                            == Err(mpsc::RecvTimeoutError::Timeout)
                        {
                            shared.sync_all_peers();
                        }
                    })?,
            );
        }
        Ok(Server {
            shared,
            addr,
            http_addr,
            threads,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP address, when the HTTP front-end is enabled.
    #[must_use]
    pub fn local_http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Runs one synchronous anti-entropy round against every peer.
    /// Tests and the bench harness drive convergence deterministically
    /// with this instead of waiting out the background interval.
    pub fn sync_now(&self) {
        self.shared.sync_all_peers();
    }

    /// Signals shutdown: stop accepting, drain the queue, then exit.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether a shutdown has been requested (by [`Server::shutdown`] or
    /// a client's `shutdown` action).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Blocks until the daemon has shut down, then persists the cache
    /// snapshot when a cache directory is configured.
    ///
    /// # Errors
    ///
    /// Propagates snapshot write failures.
    pub fn wait(self) -> std::io::Result<()> {
        for h in self.threads {
            let _ = h.join();
        }
        // Close the journal after the workers: every executed request
        // reaches the writer before the file is flushed and joined.
        if let Some(journal) = &self.shared.journal {
            journal.close();
        }
        if let Some(dir) = &self.shared.config.cache_dir {
            persist::save_snapshot(dir, &self.shared.cache.entries())?;
        }
        Ok(())
    }

    /// Reads one observability counter (test and stats support).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.shared.lock_metrics().counter(name)
    }

    /// Journal counters, when capture is enabled, once the writer has
    /// handled every request answered so far (rotations included).
    #[must_use]
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.shared.journal.as_ref().map(|journal| {
            journal.settle();
            journal.stats()
        })
    }

    /// The result cache (test and stats support).
    #[must_use]
    pub fn cache(&self) -> &SchedCache {
        &self.shared.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::HashRing;
    use std::io::Read as _;

    const SAMPLE: &str = "resource add delay=1 area=1\nresource mul delay=2 area=4 pipelined\n\
        process A\nblock body time=8\nop m0 mul\nop a0 add\nedge m0 a0\n\
        process B\nblock body time=8\nop m0 mul\nop a0 add\nedge m0 a0\n";

    fn start() -> (Server, SocketAddr) {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        (server, addr)
    }

    fn roundtrip(addr: SocketAddr, request: &str) -> crate::protocol::Response {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        parse_response(line.trim_end()).unwrap()
    }

    fn schedule_req(id: &str) -> String {
        let design = SAMPLE.replace('\n', "\\n");
        format!(r#"{{"id":"{id}","action":"schedule","design":"{design}","all_global":4}}"#)
    }

    #[test]
    fn ping_and_stats_answer_inline() {
        let (server, addr) = start();
        let pong = roundtrip(addr, r#"{"id":1,"action":"ping"}"#);
        assert!(pong.is_ok());
        assert_eq!(pong.body.get("pong"), Some(&JsonValue::Bool(true)));
        let stats = roundtrip(addr, r#"{"id":2,"action":"stats"}"#);
        assert!(stats.is_ok());
        assert!(stats.body.get("cache_entries").is_some());
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn schedule_misses_then_hits() {
        let (server, addr) = start();
        let first = roundtrip(addr, &schedule_req("m"));
        assert!(first.is_ok(), "{:?}", first.error);
        assert_eq!(first.cache(), Some("miss"));
        let second = roundtrip(addr, &schedule_req("h"));
        assert!(second.is_ok());
        assert_eq!(second.cache(), Some("hit"));
        assert_eq!(first.output(), second.output());
        assert_eq!(server.counter("serve.scheduler.runs"), 1);
        assert_eq!(server.counter("serve.cache.hit"), 1);
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn malformed_design_gets_typed_error() {
        let (server, addr) = start();
        let resp = roundtrip(
            addr,
            r#"{"id":"x","action":"schedule","design":"resource add delay=zero"}"#,
        );
        let (class, code, _) = resp.error.unwrap();
        assert_eq!((class.as_str(), code), ("malformed", 4));
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn zero_deadline_expires_in_queue() {
        let (server, addr) = start();
        let design = SAMPLE.replace('\n', "\\n");
        let resp = roundtrip(
            addr,
            &format!(r#"{{"id":"d","action":"schedule","design":"{design}","deadline_ms":0}}"#),
        );
        let (class, code, _) = resp.error.unwrap();
        assert_eq!((class.as_str(), code), ("deadline", 408));
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn client_shutdown_request_stops_the_daemon() {
        let (server, addr) = start();
        let resp = roundtrip(addr, r#"{"id":"bye","action":"shutdown"}"#);
        assert!(resp.is_ok());
        server.wait().unwrap();
    }

    #[test]
    fn oversized_request_line_gets_typed_413_then_close() {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_request_bytes: 256,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let huge = format!(
            r#"{{"id":"big","action":"schedule","design":"{}"}}"#,
            "x".repeat(4096)
        );
        stream.write_all(huge.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = parse_response(line.trim_end()).unwrap();
        let (class, code, _) = resp.error.unwrap();
        assert_eq!((class.as_str(), code), ("too-large", 413));
        // The connection is closed after the rejection: there is no
        // trustworthy record boundary to resynchronise on.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        // The daemon itself is fine.
        let pong = roundtrip(addr, r#"{"id":"p","action":"ping"}"#);
        assert!(pong.is_ok());
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn invalid_utf8_gets_typed_error_and_the_connection_survives() {
        let (server, addr) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"\xff\xfe{\"id\":1}\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = parse_response(line.trim_end()).unwrap();
        let (class, code, msg) = resp.error.unwrap();
        assert_eq!((class.as_str(), code), ("bad-request", 2));
        assert!(msg.contains("UTF-8"), "{msg}");
        // Same connection keeps working.
        stream
            .write_all(b"{\"id\":\"p\",\"action\":\"ping\"}\n")
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(parse_response(line.trim_end()).unwrap().is_ok());
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn worker_panic_becomes_typed_500_and_daemon_survives() {
        let server = Server::start(ServeConfig {
            workers: 2,
            fault_marker: true,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let marked = format!("{SAMPLE}{}\n", crate::pipeline::PANIC_MARKER).replace('\n', "\\n");
        let req =
            format!(r#"{{"id":"boom","action":"schedule","design":"{marked}","all_global":4}}"#);
        let resp = roundtrip(addr, &req);
        let (class, code, _) = resp
            .error
            .clone()
            .unwrap_or_else(|| panic!("expected a typed error, got body {:?}", resp.body));
        assert_eq!((class.as_str(), code), ("internal", 500));
        assert_eq!(server.counter("serve.worker.panics"), 1);
        // The panic neither killed the daemon nor wedged the
        // single-flight slot: an unmarked request schedules fine.
        let ok = roundtrip(addr, &schedule_req("after"));
        assert!(ok.is_ok(), "{:?}", ok.error);
        // A retry of the marked design panics again (the failure was
        // not cached) and is again survivable.
        let again = roundtrip(addr, &req);
        assert_eq!(again.error.unwrap().1, 500);
        assert_eq!(server.counter("serve.worker.panics"), 2);
        let stats = roundtrip(addr, r#"{"id":"st","action":"stats"}"#);
        assert_eq!(
            stats.body.get("worker_panics").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn journal_captures_work_requests_with_dispositions() {
        let dir = std::env::temp_dir().join(format!("tcms_serve_jnl_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig {
            workers: 2,
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        assert!(roundtrip(addr, &schedule_req("a")).is_ok());
        assert!(roundtrip(addr, &schedule_req("b")).is_ok());
        let bad = roundtrip(
            addr,
            r#"{"id":"x","action":"schedule","design":"resource add delay=zero"}"#,
        );
        assert!(!bad.is_ok());
        // Control actions stay out of the journal.
        assert!(roundtrip(addr, r#"{"id":"p","action":"ping"}"#).is_ok());
        let stats = server.journal_stats().unwrap();
        assert_eq!((stats.recorded, stats.dropped), (3, 0));
        server.shutdown();
        server.wait().unwrap();

        let (records, report) =
            crate::journal::load_journal(&crate::journal::journal_path(&dir)).unwrap();
        assert_eq!(report.loaded, 3);
        assert!(!report.torn_tail);
        let outcomes: Vec<_> = records
            .iter()
            .map(|r| (r.outcome.as_str(), r.disposition.as_deref(), r.code))
            .collect();
        assert_eq!(
            outcomes,
            vec![
                ("ok", Some("miss"), 0),
                ("ok", Some("hit"), 0),
                ("malformed", None, 4),
            ]
        );
        // Successful records carry the content address; the raw request
        // line rides along verbatim for replay.
        assert!(records[0].spec.is_some() && records[0].config.is_some());
        assert_eq!(records[0].spec, records[1].spec);
        assert_eq!(records[0].request, schedule_req("a"));
        assert!(records[2].spec.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_body_exposes_shards_metrics_and_journal() {
        let (server, addr) = start();
        assert!(roundtrip(addr, &schedule_req("s")).is_ok());
        let stats = roundtrip(addr, r#"{"id":"st","action":"stats"}"#);
        assert!(stats.is_ok());
        let shards = stats.body.get("cache_shards").unwrap().as_array().unwrap();
        assert_eq!(shards.len(), ServeConfig::default().cache_shards);
        let occupied: f64 = shards
            .iter()
            .map(|s| s.get("occupancy").unwrap().as_f64().unwrap())
            .sum();
        assert_eq!(occupied, 1.0, "one entry lives in exactly one shard");
        let metrics = stats.body.get("metrics").unwrap();
        let registry = MetricsRegistry::from_json(metrics).unwrap();
        assert_eq!(registry.counter("serve.requests.schedule"), 1);
        assert_eq!(registry.counter("serve.cache.miss"), 1);
        assert!(registry
            .histograms()
            .any(|(name, _)| name == "serve.exec_us.miss"));
        let journal = stats.body.get("journal").unwrap();
        assert_eq!(journal.get("enabled"), Some(&JsonValue::Bool(false)));
        server.shutdown();
        server.wait().unwrap();
    }

    /// Reserves `n` distinct loopback ports by bind-and-drop: fleet
    /// members must know every peer's address before any of them start.
    fn reserve_ports(n: usize) -> Vec<String> {
        (0..n)
            .map(|_| {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap();
                drop(listener);
                format!("127.0.0.1:{}", addr.port())
            })
            .collect()
    }

    fn start_fleet(n: usize, replicas: usize) -> (Vec<Server>, Vec<String>) {
        let peers = reserve_ports(n);
        let servers = peers
            .iter()
            .map(|addr| {
                Server::start(ServeConfig {
                    listen: addr.clone(),
                    workers: 2,
                    fleet: Some(FleetConfig {
                        replicas,
                        sync_interval: None, // tests drive sync_now()
                        ..FleetConfig::new(addr.clone(), peers.clone())
                    }),
                    ..ServeConfig::default()
                })
                .unwrap()
            })
            .collect();
        (servers, peers)
    }

    fn sample_key() -> CacheKey {
        request_cache_key(
            SAMPLE,
            &ScheduleOptions {
                all_global: Some(4),
                ..ScheduleOptions::default()
            },
            crate::pipeline::DEFAULT_AUTO_PARTITION_OPS,
        )
        .unwrap()
        .unwrap()
    }

    #[test]
    fn fleet_proxies_to_the_owner_and_every_node_answers_identically() {
        let (servers, peers) = start_fleet(3, 2);
        let key = sample_key();
        let ring = HashRing::new(&peers, 2);
        let owner_idx = peers.iter().position(|p| p == ring.owner(&key)).unwrap();
        let non_owner_idx = (0..3)
            .find(|i| !ring.is_replica(&key, &peers[*i]))
            .expect("3 nodes, R=2: exactly one non-replica");
        // A request to a NON-owner is proxied: the owner computes and
        // caches, the non-owner relays verbatim.
        let first = roundtrip(servers[non_owner_idx].local_addr(), &schedule_req("f"));
        assert!(first.is_ok(), "{:?}", first.error);
        assert_eq!(first.cache(), Some("miss"));
        assert_eq!(servers[non_owner_idx].counter("serve.fleet.proxied"), 1);
        assert_eq!(servers[non_owner_idx].counter("serve.scheduler.runs"), 0);
        assert_eq!(servers[owner_idx].counter("serve.scheduler.runs"), 1);
        assert_eq!(servers[owner_idx].cache().len(), 1);
        assert_eq!(servers[non_owner_idx].cache().len(), 0);
        // Replication runs after the response; wait for the fresh entry
        // to land on the backup replica before asserting fleet-wide hits.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            let replicated = servers
                .iter()
                .filter(|s| s.cache().peek(&key).is_some())
                .count();
            if replicated == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Every node now answers the same request with identical bytes,
        // and nothing schedules again anywhere.
        for server in &servers {
            let resp = roundtrip(server.local_addr(), &schedule_req("f"));
            assert_eq!(resp.cache(), Some("hit"), "{:?}", resp.error);
            assert_eq!(resp.output(), first.output());
        }
        let runs: u64 = servers
            .iter()
            .map(|s| s.counter("serve.scheduler.runs"))
            .sum();
        assert_eq!(runs, 1, "one IFDS run serves the whole fleet");
        // The fresh miss was pushed to the other replica (R=2).
        let replicated = servers
            .iter()
            .filter(|s| s.cache().peek(&key).is_some())
            .count();
        assert_eq!(replicated, 2, "owner + one backup hold the entry");
        for server in servers {
            server.shutdown();
            server.wait().unwrap();
        }
    }

    #[test]
    fn sync_now_converges_peers_without_proxying() {
        // R=1: the entry lives only on its owner until anti-entropy runs.
        let (servers, peers) = start_fleet(3, 1);
        let key = sample_key();
        let ring = HashRing::new(&peers, 1);
        let owner_idx = peers.iter().position(|p| p == ring.owner(&key)).unwrap();
        let resp = roundtrip(servers[owner_idx].local_addr(), &schedule_req("s"));
        assert_eq!(resp.cache(), Some("miss"), "{:?}", resp.error);
        let other = (owner_idx + 1) % 3;
        assert_eq!(servers[other].cache().len(), 0);
        servers[other].sync_now();
        assert_eq!(servers[other].cache().len(), 1, "digest pull shipped it");
        assert!(servers[other].counter("serve.fleet.sync.entries_applied") >= 1);
        assert_eq!(servers[other].counter("serve.fleet.sync.rounds"), 2);
        // A second round pulls nothing: digests already agree.
        servers[other].sync_now();
        assert_eq!(
            servers[other].counter("serve.fleet.sync.entries_applied"),
            1
        );
        // And the synced copy answers bit-identically.
        let hit = roundtrip(servers[other].local_addr(), &schedule_req("s2"));
        assert_eq!(hit.cache(), Some("hit"));
        assert_eq!(hit.output(), resp.output());
        for server in servers {
            server.shutdown();
            server.wait().unwrap();
        }
    }

    #[test]
    fn dead_owner_falls_back_to_local_compute_after_detection() {
        let (mut servers, peers) = start_fleet(2, 1);
        let key = sample_key();
        let ring = HashRing::new(&peers, 1);
        let owner_idx = peers.iter().position(|p| p == ring.owner(&key)).unwrap();
        let other = 1 - owner_idx;
        // Kill the owner.
        let owner = servers.remove(owner_idx);
        owner.shutdown();
        owner.wait().unwrap();
        let survivor = servers.pop().unwrap();
        assert_eq!(survivor.local_addr().to_string(), peers[other].clone());
        // Until the death threshold trips, proxy attempts fail typed.
        for _ in 0..crate::fleet::DEATH_THRESHOLD {
            let resp = roundtrip(survivor.local_addr(), &schedule_req("x"));
            let (class, code, _) = resp.error.expect("owner is down");
            assert_eq!((class.as_str(), code), ("peer-unavailable", 503));
        }
        // Now the owner is considered dead: compute locally instead.
        let resp = roundtrip(survivor.local_addr(), &schedule_req("y"));
        assert!(resp.is_ok(), "{:?}", resp.error);
        assert_eq!(resp.cache(), Some("miss"));
        assert_eq!(survivor.counter("serve.fleet.local_fallback"), 1);
        assert_eq!(
            survivor.counter("serve.fleet.proxy_failures"),
            u64::from(crate::fleet::DEATH_THRESHOLD)
        );
        survivor.shutdown();
        survivor.wait().unwrap();
    }

    /// Minimal HTTP/1.1 client: one request, returns (status, body).
    fn http_roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8(raw).unwrap();
        let (head, payload) = text.split_once("\r\n\r\n").unwrap();
        let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        (status, payload.to_owned())
    }

    #[test]
    fn http_front_end_serves_schedule_stats_and_healthz() {
        let server = Server::start(ServeConfig {
            workers: 2,
            http_listen: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        })
        .unwrap();
        let http = server.local_http_addr().unwrap();
        let (status, body) = http_roundtrip(http, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(parse_response(body.trim_end()).unwrap().is_ok());
        // POST /schedule implies the action; the body is the NDJSON line.
        let design = SAMPLE.replace('\n', "\\n");
        let req = format!(r#"{{"id":"h","design":"{design}","all_global":4}}"#);
        let (status, body) = http_roundtrip(http, "POST", "/schedule", &req);
        assert_eq!(status, 200, "{body}");
        let resp = parse_response(body.trim_end()).unwrap();
        assert_eq!(resp.cache(), Some("miss"));
        // The same request over NDJSON is a cache hit with identical
        // output: one protocol, two framings.
        let tcp = roundtrip(server.local_addr(), &schedule_req("h"));
        assert_eq!(tcp.cache(), Some("hit"));
        assert_eq!(tcp.output(), resp.output());
        // Typed errors map onto HTTP statuses.
        let (status, body) = http_roundtrip(
            http,
            "POST",
            "/schedule",
            r#"{"id":"b","design":"resource add delay=zero"}"#,
        );
        assert_eq!(status, 400, "{body}");
        let (status, _) = http_roundtrip(http, "GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _) = http_roundtrip(http, "DELETE", "/stats", "");
        assert_eq!(status, 405);
        let (status, body) = http_roundtrip(http, "GET", "/stats", "");
        assert_eq!(status, 200);
        let stats = parse_response(body.trim_end()).unwrap();
        assert!(stats.body.get("fleet").is_some());
        assert_eq!(
            stats.body.get("fleet").unwrap().get("enabled"),
            Some(&JsonValue::Bool(false))
        );
        server.shutdown();
        server.wait().unwrap();
    }

    /// Sends raw bytes to an HTTP listener and returns the status.
    fn http_status(addr: SocketAddr, raw: &str) -> u16 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        text.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    #[test]
    fn http_errors_count_requests_and_errors_like_ndjson() {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_request_bytes: 256,
            http_listen: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        })
        .unwrap();
        let http = server.local_http_addr().unwrap();
        let oversized = format!("GET /stats HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "x".repeat(1024));
        assert_eq!(http_status(http, &oversized), 413);
        assert_eq!(http_status(http, "NONSENSE\r\n\r\n"), 400);
        let (status, _) = http_roundtrip(http, "GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _) = http_roundtrip(http, "DELETE", "/stats", "");
        assert_eq!(status, 405);
        let (status, body) = http_roundtrip(http, "GET", "/stats", "");
        assert_eq!(status, 200);
        let stats = parse_response(body.trim_end()).unwrap();
        let field = |name: &str| stats.body.get(name).and_then(JsonValue::as_f64);
        // Four typed errors plus the stats request itself.
        assert_eq!(field("requests"), Some(5.0));
        assert_eq!(field("errors"), Some(4.0));
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn shutdown_request_wakes_every_thread_and_closes_both_ports() {
        let listen = reserve_ports(1).remove(0);
        let server = Server::start(ServeConfig {
            listen: listen.clone(),
            workers: 2,
            http_listen: Some("127.0.0.1:0".into()),
            fleet: Some(FleetConfig {
                // Far longer than the test: the loop must be woken, not
                // wait out its interval.
                sync_interval: Some(Duration::from_secs(3600)),
                ..FleetConfig::new(listen.clone(), vec![listen])
            }),
            ..ServeConfig::default()
        })
        .unwrap();
        let (addr, http) = (server.local_addr(), server.local_http_addr().unwrap());
        assert!(roundtrip(addr, r#"{"id":"bye","action":"shutdown"}"#).is_ok());
        // A watchdog thread waits, so a hang fails the test instead of
        // hanging the suite.
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || done.send(server.wait().is_ok()));
        assert_eq!(
            finished.recv_timeout(Duration::from_secs(2)),
            Ok(true),
            "wait() did not return within 2 s of the shutdown request"
        );
        assert!(TcpStream::connect(addr).is_err(), "NDJSON port still open");
        assert!(TcpStream::connect(http).is_err(), "HTTP port still open");
    }

    #[test]
    fn stats_expose_the_fleet_block() {
        let (servers, _) = start_fleet(2, 2);
        let stats = roundtrip(servers[0].local_addr(), r#"{"id":"st","action":"stats"}"#);
        let fleet = stats.body.get("fleet").unwrap();
        assert_eq!(fleet.get("enabled"), Some(&JsonValue::Bool(true)));
        assert_eq!(fleet.get("route"), Some(&JsonValue::String("proxy".into())));
        assert_eq!(fleet.get("replicas").and_then(JsonValue::as_f64), Some(2.0));
        let peers_arr = fleet.get("peers").unwrap().as_array().unwrap();
        assert_eq!(peers_arr.len(), 1, "membership excludes self");
        assert_eq!(peers_arr[0].get("alive"), Some(&JsonValue::Bool(true)));
        let sync = fleet.get("sync").unwrap();
        assert_eq!(sync.get("lag_ms"), Some(&JsonValue::Null), "never synced");
        // The wire document must satisfy the CI validator
        // (`trace_check --stats`) — this pins the two schemas together.
        let rendered = tcms_obs::json::to_string(&stats.body);
        tcms_obs::sink::validate_stats(&rendered).expect("fleet stats schema");
        for server in servers {
            server.shutdown();
            server.wait().unwrap();
        }
    }

    #[test]
    fn snapshot_round_trips_through_restart() {
        let dir = std::env::temp_dir().join(format!("tcms_serve_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            workers: 2,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let server = Server::start(config.clone()).unwrap();
        let addr = server.local_addr();
        assert_eq!(roundtrip(addr, &schedule_req("a")).cache(), Some("miss"));
        server.shutdown();
        server.wait().unwrap();

        let server = Server::start(config).unwrap();
        let addr = server.local_addr();
        // Warm from the snapshot: the very first request is a hit.
        assert_eq!(roundtrip(addr, &schedule_req("b")).cache(), Some("hit"));
        assert_eq!(server.counter("serve.scheduler.runs"), 0);
        server.shutdown();
        server.wait().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
