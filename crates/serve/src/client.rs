//! A blocking NDJSON client for the daemon.
//!
//! Supports pipelining: send any number of requests, then collect
//! responses and match them by id (the daemon answers in completion
//! order).
//!
//! Two layers:
//!
//! - [`Client`] is the bare transport: one connection, no retries.
//!   `connect` applies a 5-second connect timeout by default so a
//!   black-holed address can never block a caller indefinitely.
//! - [`ServeClient`] wraps it with a [`RetryPolicy`]: bounded,
//!   seed-deterministic jittered-backoff retries of queue-full (429)
//!   responses, `peer-unavailable` (503) fleet errors and transient
//!   transport failures, reconnecting as needed. Retrying is **safe**
//!   because work requests are idempotent: a schedule request is
//!   content-addressed by its `SpecHash` + config fingerprint, so
//!   re-sending it can only re-read (or re-create) the same cache
//!   entry — never double-apply anything. Typed request errors (bad
//!   request, malformed design, infeasible, …) are real answers and are
//!   never retried; neither is a `shutting-down` 503, since that daemon
//!   is going away. The two 503s share a code and are told apart by
//!   their wire *class*.
//!
//! [`ServeClient`] accepts several addresses ([`ServeClient::with_addrs`])
//! and rotates to the next one on a connect failure, transport error or
//! `peer-unavailable` answer — against a fleet, any healthy node can
//! serve any request (bit-identically), so failover is free. Queue-full
//! backpressure stays on the same node: every fleet member shares one
//! logical cache, so a full queue is load, not damage.

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use tcms_obs::json::{self, JsonValue};

use crate::pipeline::{ScheduleOptions, SimulateOptions};
use crate::protocol::{parse_response, Response};
use tcms_core::PartitionCount;

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Renders a schedule request line.
#[must_use]
pub fn schedule_request_line(
    id: &str,
    design: &str,
    opts: &ScheduleOptions,
    deadline_ms: Option<u64>,
) -> String {
    let mut map = common_fields(id, design, opts.all_global, &opts.globals, deadline_ms);
    map.insert("action".into(), JsonValue::String("schedule".into()));
    map.insert("gantt".into(), JsonValue::Bool(opts.gantt));
    map.insert("degrade".into(), JsonValue::Bool(opts.degrade));
    #[allow(clippy::cast_precision_loss)]
    map.insert("verify".into(), JsonValue::Number(opts.verify as f64));
    match opts.partition {
        None => {}
        Some(PartitionCount::Auto) => {
            map.insert("partition".into(), JsonValue::String("auto".into()));
        }
        #[allow(clippy::cast_precision_loss)]
        Some(PartitionCount::Fixed(k)) => {
            map.insert("partition".into(), JsonValue::Number(k as f64));
        }
    }
    json::to_string(&JsonValue::Object(map))
}

/// Renders a simulate request line.
#[must_use]
pub fn simulate_request_line(
    id: &str,
    design: &str,
    opts: &SimulateOptions,
    deadline_ms: Option<u64>,
) -> String {
    let mut map = common_fields(id, design, opts.all_global, &opts.globals, deadline_ms);
    map.insert("action".into(), JsonValue::String("simulate".into()));
    #[allow(clippy::cast_precision_loss)]
    {
        map.insert("horizon".into(), JsonValue::Number(opts.horizon as f64));
        map.insert("seed".into(), JsonValue::Number(opts.seed as f64));
        map.insert("mean_gap".into(), JsonValue::Number(opts.mean_gap as f64));
    }
    json::to_string(&JsonValue::Object(map))
}

/// Renders a bare control-action request line (`ping`, `stats`,
/// `shutdown`).
#[must_use]
pub fn control_request_line(id: &str, action: &str) -> String {
    let mut map = BTreeMap::new();
    map.insert("id".into(), JsonValue::String(id.to_owned()));
    map.insert("action".into(), JsonValue::String(action.to_owned()));
    json::to_string(&JsonValue::Object(map))
}

fn common_fields(
    id: &str,
    design: &str,
    all_global: Option<u32>,
    globals: &[(String, u32)],
    deadline_ms: Option<u64>,
) -> BTreeMap<String, JsonValue> {
    let mut map = BTreeMap::new();
    map.insert("id".into(), JsonValue::String(id.to_owned()));
    map.insert("design".into(), JsonValue::String(design.to_owned()));
    if let Some(period) = all_global {
        map.insert("all_global".into(), JsonValue::Number(f64::from(period)));
    }
    if !globals.is_empty() {
        let pairs = globals
            .iter()
            .map(|(name, period)| {
                JsonValue::Array(vec![
                    JsonValue::String(name.clone()),
                    JsonValue::Number(f64::from(*period)),
                ])
            })
            .collect();
        map.insert("globals".into(), JsonValue::Array(pairs));
    }
    if let Some(ms) = deadline_ms {
        #[allow(clippy::cast_precision_loss)]
        map.insert("deadline_ms".into(), JsonValue::Number(ms as f64));
    }
    map
}

/// Default connect timeout of [`Client::connect`]: long enough for any
/// sane network, short enough that a black-holed address fails instead
/// of hanging the CLI forever.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

impl Client {
    /// Connects to a daemon with the default connect timeout
    /// ([`DEFAULT_CONNECT_TIMEOUT`]) and no read timeout.
    ///
    /// # Errors
    ///
    /// Propagates connection failures, including the timeout.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        Self::connect_with(addr, Some(DEFAULT_CONNECT_TIMEOUT), None)
    }

    /// Connects with explicit connect/read timeouts (`None` = block
    /// forever). Each resolved address is tried in turn under the
    /// connect timeout.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; when every resolved address
    /// fails, the last failure is returned.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        connect_timeout: Option<Duration>,
        read_timeout: Option<Duration>,
    ) -> std::io::Result<Client> {
        let writer = match connect_timeout {
            Some(t) => {
                let mut last: Option<std::io::Error> = None;
                let mut stream = None;
                for sa in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sa, t) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(last.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to no socket addresses",
                            )
                        }))
                    }
                }
            }
            None => TcpStream::connect(addr)?,
        };
        writer.set_nodelay(true).ok();
        writer.set_read_timeout(read_timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sets a receive timeout (None = block forever).
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sets a send timeout (None = block forever).
    pub(crate) fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_write_timeout(timeout)
    }

    /// Sends one raw request line (pipelined; pair with [`Client::recv`]).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Receives the next non-blank response line verbatim, without its
    /// line terminator — what a fleet proxy relays to its own client.
    ///
    /// # Errors
    ///
    /// Fails on a closed connection.
    pub fn recv_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            if !line.trim().is_empty() {
                line.truncate(line.trim_end_matches(['\r', '\n']).len());
                return Ok(line);
            }
        }
    }

    /// Receives and parses the next response line.
    ///
    /// # Errors
    ///
    /// Fails on a closed connection or an unparseable response.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        parse_response(self.recv_line()?.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; protocol-level errors come back in
    /// [`Response::error`].
    pub fn request(&mut self, line: &str) -> std::io::Result<Response> {
        self.send_line(line)?;
        self.recv()
    }
}

/// When and how [`ServeClient`] retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-attempt connect timeout (`None` = OS default, may block).
    pub connect_timeout: Option<Duration>,
    /// Receive timeout (`None` = wait as long as the schedule takes).
    pub read_timeout: Option<Duration>,
    /// Retries after the first attempt (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Jitter seed: the same seed yields the same backoff sequence, so
    /// chaos runs are reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            connect_timeout: Some(DEFAULT_CONNECT_TIMEOUT),
            read_timeout: None,
            max_retries: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based): exponential
    /// from `base_backoff`, capped at `max_backoff`, scaled into
    /// `[0.5, 1.0)` by `jitter` so synchronized clients desynchronize.
    #[must_use]
    pub fn backoff(&self, attempt: u32, jitter: f64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_backoff);
        exp.mul_f64(0.5 + jitter.clamp(0.0, 1.0) / 2.0)
    }
}

/// Whether a typed wire code is worth retrying *on the same node*: only
/// queue-full (429) backpressure — the daemon explicitly asked for a
/// later attempt. Real answers (typed request errors) are final. 503 is
/// ambiguous by code alone (see [`retryable_error`]), so it is not
/// retryable from just the number.
#[must_use]
pub fn retryable_code(code: u16) -> bool {
    code == 429
}

/// Whether a typed wire error is worth retrying, by class and code:
///
/// * `429` queue-full — retry the same node after backoff;
/// * `peer-unavailable` (503) — a fleet node failed to reach the key's
///   owner; retrying (ideally on the next address) can succeed because
///   any node answers any request;
/// * `shutting-down` (503) — final: that daemon is going away.
///
/// Both 503s share a code, so the *class* string is what distinguishes
/// a retryable fleet hiccup from a final shutdown notice.
#[must_use]
pub fn retryable_error(class: &str, code: u16) -> bool {
    retryable_code(code) || class == "peer-unavailable"
}

/// Whether a typed wire error should also rotate [`ServeClient`] to its
/// next address: fleet-reachability errors are per-node, backpressure
/// is fleet-wide load (every node shares one logical cache and queue
/// pressure follows the workload, not the node).
fn rotates(class: &str) -> bool {
    class == "peer-unavailable"
}

/// A retrying daemon client: a [`Client`] plus a [`RetryPolicy`] over
/// one or more addresses.
///
/// Transport failures (connect errors, resets, truncation, timeouts),
/// 429 backpressure and `peer-unavailable` fleet errors are retried
/// with deterministic jittered backoff, reconnecting — and rotating to
/// the next address — as needed; every other response is returned
/// as-is. See the module docs for why retrying is safe.
pub struct ServeClient {
    addrs: Vec<String>,
    current: usize,
    policy: RetryPolicy,
    conn: Option<Client>,
    retries: u64,
    failovers: u64,
    rng: u64,
}

impl ServeClient {
    /// Creates a retrying client for one `addr` (connections are opened
    /// lazily, so this cannot fail).
    #[must_use]
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> ServeClient {
        Self::with_addrs(vec![addr.into()], policy)
    }

    /// Creates a retrying client over an address list — typically a
    /// fleet's `--peers`. The first address is tried first; transport
    /// failures and `peer-unavailable` answers rotate to the next.
    ///
    /// # Panics
    ///
    /// Panics on an empty list: a client with nowhere to connect is a
    /// caller bug, not a runtime condition.
    #[must_use]
    pub fn with_addrs(addrs: Vec<String>, policy: RetryPolicy) -> ServeClient {
        assert!(!addrs.is_empty(), "ServeClient needs at least one address");
        let seed = policy.seed ^ 0x9E37_79B9_7F4A_7C15;
        ServeClient {
            addrs,
            current: 0,
            policy,
            conn: None,
            retries: 0,
            failovers: 0,
            rng: seed.max(1), // xorshift must not start at zero
        }
    }

    /// Retries performed so far (across all requests).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Address rotations performed so far (across all requests).
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// The address the next request will be sent to.
    #[must_use]
    pub fn current_addr(&self) -> &str {
        &self.addrs[self.current]
    }

    /// Drops the current connection and advances to the next address
    /// (a no-op rotation with a single address, but the reconnect still
    /// buys a fresh socket).
    fn rotate(&mut self) {
        self.conn = None;
        self.current = (self.current + 1) % self.addrs.len();
        self.failovers += 1;
    }

    /// Deterministic xorshift64 jitter in `[0, 1)`.
    fn next_jitter(&mut self) -> f64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        #[allow(clippy::cast_precision_loss)]
        let unit = (self.rng >> 11) as f64 / (1u64 << 53) as f64;
        unit
    }

    fn connected(&mut self) -> std::io::Result<&mut Client> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect_with(
                self.addrs[self.current].as_str(),
                self.policy.connect_timeout,
                self.policy.read_timeout,
            )?);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Sends `line` and waits for its response, retrying per the
    /// policy — rotating to the next address on transport failures and
    /// `peer-unavailable` answers. When retries run out, the last
    /// outcome is returned — a final 429 response comes back as a
    /// normal typed response, not a transport error.
    ///
    /// # Errors
    ///
    /// The last transport failure once retries are exhausted.
    pub fn request(&mut self, line: &str) -> std::io::Result<Response> {
        let mut attempt = 0u32;
        loop {
            let outcome = match self.connected() {
                Ok(conn) => conn.request(line),
                Err(e) => Err(e),
            };
            let (retry_this, rotate_this) = match &outcome {
                Ok(resp) => match &resp.error {
                    Some((class, code, _)) => {
                        (retryable_error(class, *code), rotates(class.as_str()))
                    }
                    None => (false, false),
                },
                // Any transport failure is worth one more try — on the
                // next address; the current node may be half-dead.
                Err(_) => (true, true),
            };
            if !retry_this || attempt >= self.policy.max_retries {
                return outcome;
            }
            if rotate_this {
                self.rotate();
            }
            let jitter = self.next_jitter();
            std::thread::sleep(self.policy.backoff(attempt, jitter));
            attempt += 1;
            self.retries += 1;
        }
    }

    /// Convenience `ping` round trip.
    ///
    /// # Errors
    ///
    /// Same as [`ServeClient::request`].
    pub fn ping(&mut self) -> std::io::Result<Response> {
        self.request(&control_request_line("ping", "ping"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Action};

    #[test]
    fn request_lines_parse_back() {
        let opts = ScheduleOptions {
            all_global: Some(4),
            globals: vec![("mul".into(), 2)],
            gantt: true,
            verify: 3,
            degrade: false,
            partition: Some(tcms_core::PartitionCount::Fixed(2)),
        };
        let line = schedule_request_line("req-1", "design text", &opts, Some(500));
        let req = parse_request(&line).unwrap();
        assert_eq!(req.deadline_ms, Some(500));
        match req.action {
            Action::Schedule {
                design,
                opts: parsed,
            } => {
                assert_eq!(design, "design text");
                assert_eq!(parsed, opts);
            }
            other => panic!("unexpected action {other:?}"),
        }

        let sim = SimulateOptions {
            all_global: Some(3),
            horizon: 800,
            ..SimulateOptions::default()
        };
        let line = simulate_request_line("req-2", "d", &sim, None);
        match parse_request(&line).unwrap().action {
            Action::Simulate { opts: parsed, .. } => assert_eq!(parsed, sim),
            other => panic!("unexpected action {other:?}"),
        }

        for action in ["ping", "stats", "shutdown"] {
            let line = control_request_line("c", action);
            assert!(parse_request(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn connect_fails_fast_instead_of_blocking() {
        // A port nothing listens on: with a connect timeout the call
        // returns an error promptly instead of hanging.
        let start = std::time::Instant::now();
        let result = Client::connect_with("127.0.0.1:1", Some(Duration::from_millis(500)), None);
        assert!(result.is_err());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "bounded by the timeout, not the OS default"
        );
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        // Monotone growth up to the cap, at fixed jitter.
        let b = |a| policy.backoff(a, 1.0);
        assert_eq!(b(0), Duration::from_millis(10));
        assert_eq!(b(1), Duration::from_millis(20));
        assert_eq!(b(4), Duration::from_millis(100), "capped");
        assert_eq!(b(63), Duration::from_millis(100), "shift overflow capped");
        // Jitter scales into [0.5, 1.0).
        assert_eq!(policy.backoff(0, 0.0), Duration::from_millis(5));
        // The jitter stream is a pure function of the seed.
        let mut a = ServeClient::new(
            "unused:0",
            RetryPolicy {
                seed: 7,
                ..RetryPolicy::default()
            },
        );
        let mut b = ServeClient::new(
            "unused:0",
            RetryPolicy {
                seed: 7,
                ..RetryPolicy::default()
            },
        );
        let sa: Vec<f64> = (0..8).map(|_| a.next_jitter()).collect();
        let sb: Vec<f64> = (0..8).map(|_| b.next_jitter()).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().all(|j| (0.0..1.0).contains(j)));
    }

    #[test]
    fn only_backpressure_codes_are_retryable() {
        assert!(retryable_code(429));
        for code in [2, 4, 5, 6, 7, 8, 9, 404, 408, 413, 500, 503] {
            assert!(!retryable_code(code), "{code} alone is a final answer");
        }
    }

    #[test]
    fn retryability_distinguishes_the_two_503_classes() {
        // Same code, opposite fates: the class decides.
        assert!(retryable_error("peer-unavailable", 503), "fleet hiccup");
        assert!(!retryable_error("shutting-down", 503), "daemon is leaving");
        assert!(retryable_error("overloaded", 429));
        for (class, code) in [
            ("bad-request", 2),
            ("malformed", 4),
            ("infeasible", 6),
            ("deadline", 408),
            ("internal", 500),
        ] {
            assert!(!retryable_error(class, code), "{class} is a real answer");
        }
        // Only reachability errors rotate; backpressure stays put.
        assert!(rotates("peer-unavailable"));
        assert!(!rotates("overloaded"));
        assert!(!rotates("shutting-down"));
    }

    #[test]
    fn failover_rotates_from_a_dead_address_to_a_live_one() {
        let server = crate::Server::start(crate::ServeConfig {
            workers: 1,
            ..crate::ServeConfig::default()
        })
        .unwrap();
        // First address is dead (reserved then dropped), second is live.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = l.local_addr().unwrap();
            drop(l);
            addr.to_string()
        };
        let mut client = ServeClient::with_addrs(
            vec![dead.clone(), server.local_addr().to_string()],
            RetryPolicy {
                connect_timeout: Some(Duration::from_millis(500)),
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                ..RetryPolicy::default()
            },
        );
        assert_eq!(client.current_addr(), dead);
        let pong = client.ping().unwrap();
        assert!(pong.is_ok());
        assert_eq!(client.failovers(), 1, "one rotation to the live node");
        assert_eq!(client.current_addr(), server.local_addr().to_string());
        // Later requests stay on the healthy node.
        assert!(client.ping().unwrap().is_ok());
        assert_eq!(client.failovers(), 1);
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn serve_client_round_trips_without_retries_on_a_healthy_daemon() {
        let server = crate::Server::start(crate::ServeConfig {
            workers: 1,
            ..crate::ServeConfig::default()
        })
        .unwrap();
        let mut client = ServeClient::new(server.local_addr().to_string(), RetryPolicy::default());
        let pong = client.ping().unwrap();
        assert!(pong.is_ok());
        assert_eq!(client.retries(), 0, "no faults, no retries");
        server.shutdown();
        server.wait().unwrap();
    }
}
