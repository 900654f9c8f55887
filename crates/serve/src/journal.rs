//! The persistent workload journal (`--journal-dir`): an append-only
//! JSONL capture of every work request the daemon executed.
//!
//! # Why a journal
//!
//! The force-directed search and the sharded cache are only tunable
//! against *real* traffic. The journal records, per request: the raw
//! request line (so replay needs no reconstruction), the canonical
//! [`CacheKey`] (spec hash + config fingerprint), the cache
//! [`Disposition`], the outcome class and wire code, and queue/exec
//! timings — enough to re-drive the exact workload through a fresh
//! daemon (`repro_replay`) or feed an offline tuner.
//!
//! # Off the hot path
//!
//! Workers never touch the file. They hand a [`JournalEntry`] to a
//! bounded [`std::sync::mpsc::sync_channel`] with a **non-blocking**
//! `try_send`; a dedicated writer thread drains the channel, assigns the
//! **monotone sequence number** (single-writer ⇒ strictly increasing
//! on-disk order, no cross-thread reordering) and appends one line per
//! record. When the channel is full the entry is *dropped, not queued*:
//! an [`AtomicU64`] counts the drops and every subsequent record carries
//! the cumulative count, so a replay knows exactly how many requests are
//! missing and a worker is never stalled by a slow disk.
//!
//! # Crash tolerance
//!
//! The file starts with a magic header line (like
//! [`persist`](crate::persist) snapshots). A crash mid-append leaves a
//! torn final line; [`load_journal`] skips it (and any corrupt line)
//! with a count rather than an error, and [`JournalWriter::open`]
//! truncates a torn tail before appending so recovery never glues new
//! records onto half-written ones. Sequence numbers continue from the
//! last valid record. A live file whose header never made it to disk
//! (empty, or an unparseable first line) is **quarantined** — renamed to
//! `journal.jsonl.corrupt` — and a fresh journal is started; a *foreign*
//! file (valid header, wrong magic) is still refused, never renamed.
//! The `trace_check --journal` validator in `tcms-obs` enforces the same
//! schema strictly (torn tails allowed at the tail only); a test keeps
//! the two in sync.
//!
//! # Rotation
//!
//! With [`JournalWriter::open_with`] and a nonzero `rotate_bytes`, a
//! live file that grows past the threshold is **sealed** — a checksum
//! trailer line covering every preceding byte is appended and fsynced —
//! then atomically renamed to `journal.<n>.jsonl` (followed by a
//! directory fsync) and a fresh live file is started. Sequence numbers
//! run across segments, so [`load_journal_dir`] reassembles the full
//! history in order. A crash between sealing and renaming leaves a
//! sealed live file; the next open completes the rotation.

use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use tcms_ir::canon::fnv64;
use tcms_ir::SpecHash;
use tcms_obs::json::{self, JsonValue};

use crate::cache::{CacheKey, Disposition};
use crate::persist::sync_dir;

/// Magic header value of a journal file. Must match
/// [`tcms_obs::JOURNAL_MAGIC`] — the obs validator lints what this
/// writer emits.
pub const JOURNAL_MAGIC: &str = "tcms-serve-journal";
/// Schema version written to the header.
pub const JOURNAL_VERSION: f64 = 1.0;
/// File name inside the `--journal-dir` directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";
/// Where a corrupt live journal is moved when the opener quarantines it.
pub const JOURNAL_CORRUPT: &str = "journal.jsonl.corrupt";
/// Default bounded-channel capacity between workers and the writer.
pub const DEFAULT_JOURNAL_BUFFER: usize = 1024;

/// What a worker hands to the writer thread: everything about one
/// executed (or shed) request except the fields the writer itself
/// assigns (`seq`, `ts_us`, cumulative `dropped`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The work action: `"schedule"` or `"simulate"`.
    pub action: &'static str,
    /// Content-address of the result, when the pipeline computed one.
    pub key: Option<CacheKey>,
    /// Cache disposition, `None` when the request failed before lookup.
    pub disposition: Option<Disposition>,
    /// `"ok"` or the [`ServeError`](crate::ServeError) class.
    pub outcome: &'static str,
    /// 0 on success, the stable wire code otherwise.
    pub code: u16,
    /// Time spent queued, in microseconds.
    pub queue_us: u64,
    /// Time spent executing the pipeline, in microseconds.
    pub exec_us: u64,
    /// Total time from arrival to response, in microseconds.
    pub total_us: u64,
    /// The raw request line, verbatim — what a replay re-sends.
    pub request: String,
}

/// One record loaded back from a journal file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Writer-assigned sequence number, strictly increasing in file
    /// order.
    pub seq: u64,
    /// Microseconds since the writer (re)opened the journal.
    pub ts_us: u64,
    /// The work action name.
    pub action: String,
    /// Canonical spec hash, when captured.
    pub spec: Option<SpecHash>,
    /// Config fingerprint, when captured.
    pub config: Option<u64>,
    /// Cache disposition string (`hit`/`miss`/`coalesced`).
    pub disposition: Option<String>,
    /// `"ok"` or the error class.
    pub outcome: String,
    /// Wire code (0 on success).
    pub code: u16,
    /// Queue wait in microseconds.
    pub queue_us: u64,
    /// Execution time in microseconds.
    pub exec_us: u64,
    /// Arrival-to-response time in microseconds.
    pub total_us: u64,
    /// Cumulative dropped-entry count at write time.
    pub dropped: u64,
    /// The raw request line.
    pub request: String,
}

/// Counters of a live [`JournalWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Entries accepted onto the channel (≥ records on disk until the
    /// writer catches up).
    pub recorded: u64,
    /// Entries dropped because the channel was full.
    pub dropped: u64,
    /// Completed size-based rotations since open.
    pub rotated: u64,
}

/// Outcome of loading a journal file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalLoadReport {
    /// Valid records loaded.
    pub loaded: usize,
    /// Invalid lines skipped (each one a warning, not an error).
    pub skipped: usize,
    /// Whether the final line was torn (partial append before a crash).
    pub torn_tail: bool,
    /// Whether the file ends with a valid checksum trailer — a rotated
    /// (or rotation-pending) segment rather than a live journal.
    pub sealed: bool,
}

enum Msg {
    Record(JournalEntry),
    /// Answered once every message before it has been handled.
    Barrier(SyncSender<()>),
    Shutdown,
}

/// The off-hot-path journal writer: bounded channel in, JSONL out.
pub struct JournalWriter {
    tx: SyncSender<Msg>,
    recorded: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
    rotated: Arc<AtomicU64>,
    handle: Mutex<Option<JoinHandle<()>>>,
    path: PathBuf,
}

impl std::fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalWriter")
            .field("path", &self.path)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Path of the journal file inside a journal directory.
#[must_use]
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

impl JournalWriter {
    /// Opens (or creates) the journal in `dir` and spawns the writer
    /// thread. An existing journal is continued: sequence numbers resume
    /// after the last valid record and a torn tail is truncated away
    /// first. `buffer` bounds the worker→writer channel (clamped to at
    /// least 1).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, and refuses (with `InvalidData`) to
    /// append to a file whose header is not a journal header — the
    /// daemon must not grow records onto a foreign file.
    pub fn open(dir: &Path, buffer: usize) -> io::Result<JournalWriter> {
        Self::open_with(dir, buffer, 0)
    }

    /// Like [`JournalWriter::open`], with size-based rotation: once the
    /// live file reaches `rotate_bytes` (0 disables rotation), it is
    /// sealed with a checksum trailer, fsynced, atomically renamed to
    /// `journal.<n>.jsonl`, and a fresh live file is started. Sequence
    /// numbers continue across segments and restarts.
    ///
    /// # Errors
    ///
    /// Same as [`JournalWriter::open`]. A live file that is empty or has
    /// an unparseable header is quarantined to `journal.jsonl.corrupt`
    /// (not an error); a foreign header is refused.
    pub fn open_with(dir: &Path, buffer: usize, rotate_bytes: u64) -> io::Result<JournalWriter> {
        fs::create_dir_all(dir)?;
        let path = journal_path(dir);
        let mut next_seq = 0;
        let mut valid_len = 0u64;
        let mut fresh = !path.exists();
        if !fresh {
            // Non-UTF-8 bytes are as much "our own torn creation" as a
            // garbage first line — read raw and fall through to the
            // quarantine path instead of erroring.
            let content = String::from_utf8(fs::read(&path)?).unwrap_or_default();
            let header_parses = content
                .lines()
                .next()
                .is_some_and(|l| json::parse(l).is_ok());
            if !header_parses {
                // An empty file or garbage first line is our own torn
                // creation: quarantine it (the bytes stay inspectable)
                // and start fresh. A *foreign* file — a valid JSON
                // header with the wrong magic — is refused below, never
                // renamed.
                fs::rename(&path, dir.join(JOURNAL_CORRUPT))?;
                sync_dir(dir)?;
                fresh = true;
            } else {
                let scan = scan_journal(&content).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}: {e}", path.display()),
                    )
                })?;
                // A header-only live file (fresh after a rotation)
                // carries no seqs of its own — continue from the
                // newest rotated segment instead of restarting at 0.
                next_seq = scan
                    .records
                    .last()
                    .map_or_else(|| next_seq_after_rotated(dir), |r| r.seq + 1);
                if scan.report.sealed {
                    // A crash between sealing and renaming left a sealed
                    // live file: complete the rotation now.
                    fs::rename(&path, rotated_path(dir, next_rotated_index(dir)))?;
                    sync_dir(dir)?;
                    fresh = true;
                } else {
                    valid_len = scan.valid_len;
                }
            }
        }
        if fresh {
            if next_seq == 0 {
                // Continue the sequence across rotation + restart: the
                // newest rotated segment knows the last assigned seq.
                next_seq = next_seq_after_rotated(dir);
            }
            let header = journal_header();
            valid_len = header.len() as u64;
            fs::write(&path, header.as_bytes())?;
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        // Drop a torn tail (and any trailing garbage) so recovery never
        // appends onto a half-written line.
        file.set_len(valid_len)?;

        let (tx, rx) = sync_channel(buffer.max(1));
        let recorded = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let rotated = Arc::new(AtomicU64::new(0));
        let ctx = WriterCtx {
            dir: dir.to_path_buf(),
            path: path.clone(),
            rotate_bytes,
            dropped: Arc::clone(&dropped),
            rotated: Arc::clone(&rotated),
        };
        let handle = std::thread::Builder::new()
            .name("tcms-serve-journal".into())
            .spawn(move || writer_loop(&rx, file, next_seq, valid_len, &ctx))
            .map_err(|e| io::Error::other(format!("spawn journal writer: {e}")))?;
        Ok(JournalWriter {
            tx,
            recorded,
            dropped,
            rotated,
            handle: Mutex::new(Some(handle)),
            path,
        })
    }

    /// Hands one entry to the writer thread **without blocking**: when
    /// the channel is full (or the writer is gone) the entry is dropped
    /// and counted, never queued — a slow disk costs records, not
    /// request latency.
    pub fn record(&self, entry: JournalEntry) {
        match self.tx.try_send(Msg::Record(entry)) {
            Ok(()) => {
                self.recorded.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drains the channel, flushes the file and joins the writer thread.
    /// Idempotent; entries recorded after close are counted as dropped.
    pub fn close(&self) {
        let handle = {
            let mut guard = self.handle.lock().unwrap_or_else(PoisonError::into_inner);
            guard.take()
        };
        if let Some(handle) = handle {
            // A blocking send is fine here: the writer is draining, so
            // the channel empties; everything queued before the sentinel
            // reaches the disk.
            let _ = self.tx.send(Msg::Shutdown);
            let _ = handle.join();
        }
    }

    /// Blocks until the writer has handled every record accepted before
    /// the call, rotations included, so [`JournalWriter::stats`] counts
    /// their effects too. Returns at once after [`JournalWriter::close`].
    pub fn settle(&self) {
        let (done, settled) = sync_channel(1);
        if self.tx.send(Msg::Barrier(done)).is_ok() {
            let _ = settled.recv();
        }
    }

    /// Point-in-time accepted/dropped counters.
    #[must_use]
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            recorded: self.recorded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            rotated: self.rotated.load(Ordering::Relaxed),
        }
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        self.close();
    }
}

struct WriterCtx {
    dir: PathBuf,
    path: PathBuf,
    rotate_bytes: u64,
    dropped: Arc<AtomicU64>,
    rotated: Arc<AtomicU64>,
}

fn journal_header() -> String {
    format!("{{\"magic\":\"{JOURNAL_MAGIC}\",\"version\":{JOURNAL_VERSION}}}\n")
}

fn writer_loop(
    rx: &Receiver<Msg>,
    file: fs::File,
    mut next_seq: u64,
    mut bytes: u64,
    ctx: &WriterCtx,
) {
    let start = Instant::now();
    let mut out = io::BufWriter::new(file);
    loop {
        let entry = match rx.recv() {
            Ok(Msg::Record(entry)) => entry,
            Ok(Msg::Barrier(done)) => {
                let _ = done.send(());
                continue;
            }
            Ok(Msg::Shutdown) | Err(_) => break,
        };
        let ts_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let line = record_line(&entry, next_seq, ts_us, ctx.dropped.load(Ordering::Relaxed));
        next_seq += 1;
        // Line + newline in one write, then flush: a crash tears at most
        // the final line, which loaders skip.
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
        let _ = out.flush();
        bytes += line.len() as u64 + 1;
        if ctx.rotate_bytes > 0 && bytes >= ctx.rotate_bytes {
            // On rotation failure, keep appending to the current file —
            // losing rotation is better than losing records.
            if let Ok(fresh_len) = rotate_live(&mut out, ctx) {
                bytes = fresh_len;
                ctx.rotated.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let _ = out.flush();
}

/// Seals the live file (trailer + fsync), renames it to the next
/// `journal.<n>.jsonl`, fsyncs the directory and starts a fresh live
/// file, swapping it into `out`. Returns the fresh file's length.
fn rotate_live(out: &mut io::BufWriter<fs::File>, ctx: &WriterCtx) -> io::Result<u64> {
    out.flush()?;
    out.get_ref().sync_all()?;
    let content = fs::read_to_string(&ctx.path)?;
    let trailer = seal_line(&content);
    out.write_all(trailer.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()?;
    // The seal must be durable before the rename publishes the segment
    // under its rotated name.
    out.get_ref().sync_all()?;
    fs::rename(
        &ctx.path,
        rotated_path(&ctx.dir, next_rotated_index(&ctx.dir)),
    )?;
    sync_dir(&ctx.dir)?;
    let header = journal_header();
    fs::write(&ctx.path, header.as_bytes())?;
    *out = io::BufWriter::new(OpenOptions::new().append(true).open(&ctx.path)?);
    Ok(header.len() as u64)
}

fn seal_line(content: &str) -> String {
    let records = content.lines().count().saturating_sub(1);
    format!(
        "{{\"sealed\":true,\"records\":{records},\"check\":\"{:016x}\"}}",
        fnv64(content.as_bytes())
    )
}

/// Whether `line` is a valid seal trailer for the `prefix` bytes before
/// it, covering exactly the `loaded` records scanned so far.
fn seal_matches(line: &str, prefix: &str, loaded: usize) -> bool {
    let Ok(v) = json::parse(line) else {
        return false;
    };
    if v.get("sealed") != Some(&JsonValue::Bool(true)) {
        return false;
    }
    #[allow(clippy::cast_precision_loss)]
    let records_ok = v.get("records").and_then(JsonValue::as_f64) == Some(loaded as f64);
    let check_ok = v
        .get("check")
        .and_then(JsonValue::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        == Some(fnv64(prefix.as_bytes()));
    records_ok && check_ok
}

/// Path of rotated journal segment `n` (`journal.<n>.jsonl`).
#[must_use]
pub fn rotated_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("journal.{n}.jsonl"))
}

fn rotated_indices(dir: &Path) -> Vec<u64> {
    let mut out = Vec::new();
    if let Ok(rd) = fs::read_dir(dir) {
        for e in rd.flatten() {
            let name = e.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(mid) = name
                .strip_prefix("journal.")
                .and_then(|s| s.strip_suffix(".jsonl"))
            {
                if let Ok(n) = mid.parse::<u64>() {
                    out.push(n);
                }
            }
        }
    }
    out.sort_unstable();
    out
}

fn next_rotated_index(dir: &Path) -> u64 {
    rotated_indices(dir).last().map_or(1, |n| n + 1)
}

/// The sequence number a fresh live file should start at, continuing
/// after the newest readable rotated segment (0 when there is none).
fn next_seq_after_rotated(dir: &Path) -> u64 {
    for n in rotated_indices(dir).into_iter().rev() {
        if let Ok((records, _)) = load_journal(&rotated_path(dir, n)) {
            if let Some(r) = records.last() {
                return r.seq + 1;
            }
        }
    }
    0
}

fn record_line(entry: &JournalEntry, seq: u64, ts_us: u64, dropped: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let num = |n: u64| JsonValue::Number(n as f64);
    let mut map = std::collections::BTreeMap::new();
    map.insert("seq".to_string(), num(seq));
    map.insert("ts_us".to_string(), num(ts_us));
    map.insert(
        "action".to_string(),
        JsonValue::String(entry.action.to_owned()),
    );
    map.insert(
        "spec".to_string(),
        match entry.key {
            Some(k) => JsonValue::String(k.spec.to_string()),
            None => JsonValue::Null,
        },
    );
    map.insert(
        "config".to_string(),
        match entry.key {
            // Hex string: a u64 fingerprint does not survive f64.
            Some(k) => JsonValue::String(format!("{:016x}", k.config)),
            None => JsonValue::Null,
        },
    );
    map.insert(
        "disposition".to_string(),
        match entry.disposition {
            Some(d) => JsonValue::String(d.as_str().to_owned()),
            None => JsonValue::Null,
        },
    );
    map.insert(
        "outcome".to_string(),
        JsonValue::String(entry.outcome.to_owned()),
    );
    map.insert("code".to_string(), num(u64::from(entry.code)));
    map.insert("queue_us".to_string(), num(entry.queue_us));
    map.insert("exec_us".to_string(), num(entry.exec_us));
    map.insert("total_us".to_string(), num(entry.total_us));
    map.insert("dropped".to_string(), num(dropped));
    map.insert(
        "request".to_string(),
        JsonValue::String(entry.request.clone()),
    );
    json::to_string(&JsonValue::Object(map))
}

fn to_u64(v: Option<&JsonValue>) -> Result<u64, String> {
    let n = v
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| "missing numeric field".to_string())?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    if n >= 0.0 && n.fract() == 0.0 {
        Ok(n as u64)
    } else {
        Err(format!("non-integer numeric field {n}"))
    }
}

fn opt_str(v: Option<&JsonValue>) -> Result<Option<String>, String> {
    match v {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err("field must be a string or null".into()),
    }
}

fn parse_record(line: &str) -> Result<JournalRecord, String> {
    let v = json::parse(line)?;
    let req = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string `{key}`"))
    };
    let num = |key: &str| to_u64(v.get(key)).map_err(|e| format!("`{key}`: {e}"));
    let spec = match opt_str(v.get("spec"))? {
        Some(s) => Some(SpecHash::parse(&s)?),
        None => None,
    };
    let config = match opt_str(v.get("config"))? {
        Some(s) => Some(u64::from_str_radix(&s, 16).map_err(|e| format!("`config`: {e}"))?),
        None => None,
    };
    Ok(JournalRecord {
        seq: num("seq")?,
        ts_us: num("ts_us")?,
        action: req("action")?,
        spec,
        config,
        disposition: opt_str(v.get("disposition"))?,
        outcome: req("outcome")?,
        code: u16::try_from(num("code")?).map_err(|_| "`code` out of range".to_string())?,
        queue_us: num("queue_us")?,
        exec_us: num("exec_us")?,
        total_us: num("total_us")?,
        dropped: num("dropped")?,
        request: req("request")?,
    })
}

struct Scan {
    records: Vec<JournalRecord>,
    report: JournalLoadReport,
    /// Byte length of the valid prefix (header + every valid line,
    /// including the trailing newline) — what recovery truncates to.
    valid_len: u64,
}

/// Scans journal content. The header must be valid (a foreign file is an
/// error, not a skip); record lines are skipped when invalid, with the
/// final line classified as a torn tail.
fn scan_journal(content: &str) -> Result<Scan, String> {
    let mut offset = 0usize;
    let mut lines = Vec::new();
    // Manual split tracking byte offsets: `str::lines` hides whether the
    // final line was newline-terminated (a torn append is not).
    while offset < content.len() {
        let rest = &content[offset..];
        let (line, advance) = match rest.find('\n') {
            Some(i) => (&rest[..i], i + 1),
            None => (rest, rest.len()),
        };
        lines.push((line, offset, offset + advance));
        offset += advance;
    }
    let Some(&(header, _, header_end)) = lines.first() else {
        return Err("empty journal: missing header line".into());
    };
    let h = json::parse(header).map_err(|e| format!("bad header: {e}"))?;
    if h.get("magic").and_then(JsonValue::as_str) != Some(JOURNAL_MAGIC) {
        return Err(format!("header magic is not {JOURNAL_MAGIC:?}"));
    }
    if h.get("version").and_then(JsonValue::as_f64) != Some(JOURNAL_VERSION) {
        return Err("unsupported journal version".into());
    }
    let mut scan = Scan {
        records: Vec::new(),
        report: JournalLoadReport::default(),
        valid_len: header_end as u64,
    };
    let mut prev_seq = None;
    for (i, &(line, start, end)) in lines.iter().enumerate().skip(1) {
        let terminated = content.as_bytes().get(end - 1) == Some(&b'\n');
        let parsed = if terminated || !line.is_empty() {
            parse_record(line)
        } else {
            Err("empty line".into())
        };
        match parsed {
            Ok(rec) if terminated && prev_seq.is_none_or(|p| rec.seq > p) => {
                prev_seq = Some(rec.seq);
                scan.records.push(rec);
                scan.report.loaded += 1;
                scan.valid_len = end as u64;
            }
            // Invalid, unterminated or out-of-order: skip. Only the
            // final line counts as a torn tail — unless it is a valid
            // seal trailer, which marks a rotated segment.
            _ => {
                if terminated && seal_matches(line, &content[..start], scan.report.loaded) {
                    scan.report.sealed = true;
                    scan.valid_len = end as u64;
                    // Nothing after a seal is valid.
                    scan.report.skipped += lines.len() - i - 1;
                    break;
                }
                scan.report.skipped += 1;
                if i + 1 == lines.len() {
                    scan.report.torn_tail = true;
                }
            }
        }
    }
    Ok(scan)
}

/// Loads every valid record of a journal file, skipping corrupt lines
/// (reported, not fatal) and flagging a torn final line.
///
/// # Errors
///
/// Propagates I/O failures; returns `InvalidData` when the file is not a
/// journal (missing or foreign header).
pub fn load_journal(path: &Path) -> io::Result<(Vec<JournalRecord>, JournalLoadReport)> {
    let content = fs::read_to_string(path)?;
    let scan = scan_journal(&content).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })?;
    Ok((scan.records, scan.report))
}

/// Loads every record across rotated segments and the live journal of a
/// `--journal-dir`, in segment order — the full workload history.
/// `loaded`/`skipped` are summed; `torn_tail` and `sealed` reflect the
/// final file read.
///
/// # Errors
///
/// Propagates I/O and format errors from any segment.
pub fn load_journal_dir(dir: &Path) -> io::Result<(Vec<JournalRecord>, JournalLoadReport)> {
    let mut paths: Vec<PathBuf> = rotated_indices(dir)
        .into_iter()
        .map(|n| rotated_path(dir, n))
        .collect();
    let live = journal_path(dir);
    if live.exists() {
        paths.push(live);
    }
    let mut records = Vec::new();
    let mut report = JournalLoadReport::default();
    for path in paths {
        let (mut r, rep) = load_journal(&path)?;
        records.append(&mut r);
        report.loaded += rep.loaded;
        report.skipped += rep.skipped;
        report.torn_tail = rep.torn_tail;
        report.sealed = rep.sealed;
    }
    Ok((records, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcms_journal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry(action: &'static str, outcome: &'static str) -> JournalEntry {
        JournalEntry {
            action,
            key: Some(CacheKey {
                spec: SpecHash::of_text(action),
                config: 0xdead_beef_0042_0007,
            }),
            disposition: Some(Disposition::Miss),
            outcome,
            code: 0,
            queue_us: 3,
            exec_us: 250,
            total_us: 253,
            request: format!("{{\"action\":\"{action}\"}}"),
        }
    }

    #[test]
    fn write_load_round_trip_preserves_order_and_keys() {
        let dir = temp_dir("rt");
        let writer = JournalWriter::open(&dir, 64).unwrap();
        for i in 0..20 {
            let mut e = entry("schedule", "ok");
            e.request = format!("{{\"id\":{i}}}");
            writer.record(e);
        }
        writer.close();
        assert_eq!(writer.stats().recorded, 20);
        assert_eq!(writer.stats().dropped, 0);

        let (records, report) = load_journal(&journal_path(&dir)).unwrap();
        assert_eq!(report.loaded, 20);
        assert_eq!(report.skipped, 0);
        assert!(!report.torn_tail);
        assert_eq!(records.len(), 20);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "writer-assigned seq is contiguous");
            assert_eq!(r.request, format!("{{\"id\":{i}}}"));
            assert_eq!(r.config, Some(0xdead_beef_0042_0007));
            assert_eq!(r.spec, Some(SpecHash::of_text("schedule")));
            assert_eq!(r.disposition.as_deref(), Some("miss"));
            assert_eq!(r.outcome, "ok");
        }
        assert!(
            records.windows(2).all(|w| w[0].ts_us <= w[1].ts_us),
            "timestamps are monotone"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_sequence_and_truncates_torn_tail() {
        let dir = temp_dir("reopen");
        let writer = JournalWriter::open(&dir, 64).unwrap();
        writer.record(entry("schedule", "ok"));
        writer.record(entry("simulate", "ok"));
        writer.close();

        // Simulate a crash mid-append: a partial line with no newline.
        let path = journal_path(&dir);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"seq\":2,\"ts_us\":99,\"act").unwrap();
        drop(file);
        let (records, report) = load_journal(&path).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.skipped, 1);
        assert!(report.torn_tail, "partial append is a torn tail");
        assert_eq!(records.len(), 2);

        // Recovery: the torn tail is truncated, seq resumes at 2.
        let writer = JournalWriter::open(&dir, 64).unwrap();
        writer.record(entry("schedule", "ok"));
        writer.close();
        let (records, report) = load_journal(&path).unwrap();
        assert!(!report.torn_tail);
        assert_eq!(report.skipped, 0);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "sequence continues across restarts"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_channel_drops_with_accounting_instead_of_blocking() {
        let dir = temp_dir("drop");
        let writer = JournalWriter::open(&dir, 2).unwrap();
        // Saturate: far more entries than the channel holds, faster than
        // a flushing writer can drain. Some must drop; none may block.
        for _ in 0..5_000 {
            writer.record(entry("schedule", "ok"));
        }
        writer.close();
        let stats = writer.stats();
        assert_eq!(stats.recorded + stats.dropped, 5_000);
        let (records, report) = load_journal(&journal_path(&dir)).unwrap();
        assert_eq!(records.len() as u64, stats.recorded);
        assert!(!report.torn_tail);
        // The cumulative drop count rides along in the records.
        if stats.dropped > 0 {
            assert!(records.last().unwrap().dropped <= stats.dropped);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_is_refused_not_clobbered() {
        let dir = temp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir);
        fs::write(&path, "{\"magic\":\"something-else\",\"version\":1}\n").unwrap();
        let err = JournalWriter::open(&dir, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(load_journal(&path).is_err());
        // The foreign file is untouched.
        assert!(fs::read_to_string(&path)
            .unwrap()
            .contains("something-else"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_outcomes_round_trip_without_a_key() {
        let dir = temp_dir("err");
        let writer = JournalWriter::open(&dir, 8).unwrap();
        writer.record(JournalEntry {
            action: "schedule",
            key: None,
            disposition: None,
            outcome: "malformed",
            code: 4,
            queue_us: 1,
            exec_us: 2,
            total_us: 3,
            request: "{\"action\":\"schedule\",\"design\":\"bad\"}".into(),
        });
        writer.close();
        let (records, _) = load_journal(&journal_path(&dir)).unwrap();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.spec, None);
        assert_eq!(r.config, None);
        assert_eq!(r.disposition, None);
        assert_eq!((r.outcome.as_str(), r.code), ("malformed", 4));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_and_load_dir_reassembles_history() {
        let dir = temp_dir("rotate");
        // Each record line is a few hundred bytes; a 600-byte threshold
        // forces a rotation every couple of records.
        let writer = JournalWriter::open_with(&dir, 64, 600).unwrap();
        for i in 0..12 {
            let mut e = entry("schedule", "ok");
            e.request = format!("{{\"id\":{i}}}");
            writer.record(e);
        }
        writer.close();
        let stats = writer.stats();
        assert!(stats.rotated >= 2, "rotations happened: {stats:?}");

        let indices = rotated_indices(&dir);
        assert_eq!(indices.len() as u64, stats.rotated);
        for &n in &indices {
            let (_, report) = load_journal(&rotated_path(&dir, n)).unwrap();
            assert!(report.sealed, "segment {n} carries a valid seal");
            assert!(!report.torn_tail);
            assert_eq!(report.skipped, 0);
        }
        let (_, live_report) = load_journal(&journal_path(&dir)).unwrap();
        assert!(!live_report.sealed, "the live file is never sealed");

        let (records, report) = load_journal_dir(&dir).unwrap();
        assert_eq!(report.loaded, 12);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (0..12).collect::<Vec<u64>>(),
            "sequence runs unbroken across segments"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn settle_waits_for_pending_rotations() {
        let dir = temp_dir("settle");
        // A 1-byte threshold rotates after every record.
        let writer = JournalWriter::open_with(&dir, 64, 1).unwrap();
        for _ in 0..3 {
            writer.record(entry("schedule", "ok"));
        }
        writer.settle();
        assert_eq!(writer.stats().rotated, 3, "every rotation is counted");
        writer.close();
        writer.settle(); // returns at once on a closed writer
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_continues_after_rotation_and_restart() {
        let dir = temp_dir("rotseq");
        let writer = JournalWriter::open_with(&dir, 64, 400).unwrap();
        for _ in 0..4 {
            writer.record(entry("schedule", "ok"));
        }
        writer.close();
        let first = writer.stats();
        assert!(first.rotated >= 1);

        let writer = JournalWriter::open_with(&dir, 64, 400).unwrap();
        writer.record(entry("simulate", "ok"));
        writer.close();
        let (records, _) = load_journal_dir(&dir).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (0..5).collect::<Vec<u64>>(),
            "restart does not reuse or skip sequence numbers"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_live_file_completes_rotation_on_open() {
        // Simulate a crash between sealing and renaming: the live file
        // ends in a valid trailer. Opening must finish the rotation.
        let dir = temp_dir("sealcrash");
        let writer = JournalWriter::open(&dir, 8).unwrap();
        writer.record(entry("schedule", "ok"));
        writer.close();
        let path = journal_path(&dir);
        let content = fs::read_to_string(&path).unwrap();
        fs::write(&path, format!("{content}{}\n", seal_line(&content))).unwrap();

        let writer = JournalWriter::open(&dir, 8).unwrap();
        writer.record(entry("simulate", "ok"));
        writer.close();
        assert!(rotated_path(&dir, 1).exists(), "rotation was completed");
        let (records, _) = load_journal_dir(&dir).unwrap();
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_garbage_live_journal_is_quarantined_not_fatal() {
        for (tag, bytes) in [
            ("empty", "".as_bytes()),
            ("garbage", b"\x00\xffnot json".as_slice()),
        ] {
            let dir = temp_dir(&format!("quar_{tag}"));
            fs::create_dir_all(&dir).unwrap();
            fs::write(journal_path(&dir), bytes).unwrap();
            let writer = JournalWriter::open(&dir, 8).unwrap();
            writer.record(entry("schedule", "ok"));
            writer.close();
            assert!(dir.join(JOURNAL_CORRUPT).exists(), "{tag}: bytes kept");
            let (records, report) = load_journal(&journal_path(&dir)).unwrap();
            assert_eq!(records.len(), 1, "{tag}: fresh journal works");
            assert_eq!(report.skipped, 0, "{tag}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn emitted_journal_passes_the_obs_validator() {
        // The writer and the `trace_check --journal` validator live in
        // different crates; this is the test that keeps them in sync.
        assert_eq!(JOURNAL_MAGIC, tcms_obs::JOURNAL_MAGIC);
        assert_eq!(JOURNAL_VERSION, tcms_obs::JOURNAL_VERSION);
        let dir = temp_dir("obsval");
        let writer = JournalWriter::open(&dir, 8).unwrap();
        writer.record(entry("schedule", "ok"));
        writer.record(JournalEntry {
            disposition: Some(Disposition::Hit),
            ..entry("schedule", "ok")
        });
        writer.close();
        let content = fs::read_to_string(journal_path(&dir)).unwrap();
        let check = tcms_obs::validate_journal(&content).unwrap();
        assert_eq!(check.records, 2);
        assert!(!check.torn_tail);
        assert!(!check.sealed);
        // A sealed rotated segment also passes, flagged as sealed.
        let sealed = format!("{content}{}\n", seal_line(&content));
        let check = tcms_obs::validate_journal(&sealed).unwrap();
        assert_eq!(check.records, 2);
        assert!(check.sealed);
        let _ = fs::remove_dir_all(&dir);
    }
}
