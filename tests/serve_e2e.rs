//! End-to-end acceptance of the `tcms-serve` daemon over real loopback
//! TCP: malformed corpus inputs come back as typed wire errors, daemon
//! responses are bit-identical to the one-shot CLI on both cache miss
//! and hit, simultaneous identical requests coalesce into a single
//! scheduler run, warm hits perform zero IFDS iterations, and the
//! installed `tcms serve` / `tcms client` binaries round-trip.

use std::io::{BufRead, BufReader};
use std::process::{Command as Proc, Stdio};
use std::sync::{Arc, Barrier};

use tcms::cli::{run, Command};
use tcms::ir::display::to_dfg;
use tcms::ir::generators::{random_system, RandomSystemConfig};
use tcms::obs::json::JsonValue;
use tcms::serve::client::{control_request_line, schedule_request_line, simulate_request_line};
use tcms::serve::{
    simulate_request, Client, ExecContext, ScheduleOptions, ServeConfig, Server, SimulateOptions,
    DEFAULT_AUTO_PARTITION_OPS,
};

fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = format!("{}/tests/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
}

fn design_path(name: &str) -> String {
    format!("{}/designs/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn start_server() -> Server {
    Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("daemon starts on loopback")
}

/// Reads one numeric field out of a `stats` response.
fn stat(client: &mut Client, field: &str) -> u64 {
    let resp = client
        .request(&control_request_line("stats", "stats"))
        .expect("stats round-trip");
    assert!(resp.is_ok(), "{resp:?}");
    let v = resp
        .body
        .get(field)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("stats response lacks `{field}`: {resp:?}"));
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        v as u64
    }
}

/// Every malformed corpus file must come back as the same typed wire
/// error the one-shot CLI reports: class `malformed`, code 4 — never a
/// dropped connection, never a panic, never a success.
#[test]
fn corpus_replays_get_typed_malformed_errors() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };
    for path in corpus_files() {
        let design = std::fs::read_to_string(&path).unwrap();
        let id = path.file_name().unwrap().to_string_lossy().into_owned();
        let resp = client
            .request(&schedule_request_line(&id, &design, &opts, None))
            .expect("response arrives");
        let (class, code, message) = resp
            .error
            .clone()
            .unwrap_or_else(|| panic!("{id}: malformed input was accepted: {resp:?}"));
        assert_eq!(class, "malformed", "{id}: {message}");
        assert_eq!(code, 4, "{id}");
        assert!(!message.is_empty(), "{id}");
    }
    // The daemon survived twenty poison pills and still answers.
    assert!(client
        .request(&control_request_line("alive", "ping"))
        .expect("ping after corpus")
        .is_ok());
    server.shutdown();
    server.wait().unwrap();
}

/// The daemon's schedule and simulate outputs must match the one-shot
/// CLI byte for byte, on the cold-cache miss AND on the warm-cache hit.
#[test]
fn daemon_output_is_bit_identical_to_one_shot_cli() {
    let input = design_path("paper_table1.dfg");
    let opts = ScheduleOptions {
        all_global: Some(5),
        gantt: true,
        verify: 2,
        ..ScheduleOptions::default()
    };
    let sim_opts = SimulateOptions {
        all_global: Some(5),
        horizon: 2_000,
        ..SimulateOptions::default()
    };
    let schedule = run(&Command::Schedule {
        input: input.clone(),
        opts: opts.clone(),
        save: None,
        trace: None,
        metrics: false,
        timeline: None,
        threads: None,
        cache_dir: None,
    })
    .unwrap();
    let simulate = run(&Command::Simulate {
        input: input.clone(),
        opts: sim_opts.clone(),
        faults: None,
        threads: None,
    })
    .unwrap();

    let design = std::fs::read_to_string(&input).unwrap();
    let request = |kind: &str, id: &str| match kind {
        "schedule" => schedule_request_line(id, &design, &opts, None),
        _ => simulate_request_line(id, &design, &sim_opts, None),
    };
    // Both requests share one schedule cache key, so each gets its own
    // daemon to start cold.
    for (kind, one_shot) in [("schedule", &schedule), ("simulate", &simulate)] {
        let server = start_server();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (round, expected_cache) in [("cold", "miss"), ("warm", "hit")] {
            let resp = client
                .request(&request(kind, round))
                .expect("response arrives");
            assert!(resp.is_ok(), "{kind} {round}: {resp:?}");
            assert_eq!(resp.cache(), Some(expected_cache), "{kind} {round}");
            assert_eq!(resp.output(), Some(one_shot.as_str()), "{kind} {round}");
        }
        server.shutdown();
        server.wait().unwrap();
    }
}

/// On a design past the automatic partition threshold, one-shot
/// `tcms simulate` takes its schedule from the same pipeline as a
/// daemon's `simulate`, so the two render the same bytes.
#[test]
fn one_shot_simulate_of_a_partitioned_design_matches_the_pipeline() {
    let cfg = RandomSystemConfig {
        processes: 24,
        blocks_per_process: 1,
        layers: 6,
        ops_per_layer: (3, 5),
        edge_prob: 0.35,
        slack: 2.0,
        type_weights: [4, 1, 2],
    };
    let (system, _) = random_system(&cfg, 2).unwrap();
    assert!(system.num_ops() >= DEFAULT_AUTO_PARTITION_OPS);
    let design = to_dfg(&system);
    let path = std::env::temp_dir().join(format!("tcms_e2e_large_{}.dfg", std::process::id()));
    std::fs::write(&path, &design).unwrap();
    let opts = SimulateOptions {
        all_global: Some(4),
        horizon: 1_000,
        ..SimulateOptions::default()
    };
    let one_shot = run(&Command::Simulate {
        input: path.to_string_lossy().into_owned(),
        opts: opts.clone(),
        faults: None,
        threads: None,
    })
    .unwrap();
    let _ = std::fs::remove_file(&path);
    let piped = simulate_request(&design, &opts, &ExecContext::default()).unwrap();
    assert_eq!(one_shot, piped.text);
}

/// Two identical requests fired simultaneously must produce exactly one
/// scheduler run: the loser of the single-flight race waits for the
/// winner's result instead of recomputing it.
#[test]
fn simultaneous_identical_requests_run_the_scheduler_once() {
    let server = start_server();
    let addr = server.local_addr();
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let barrier = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let design = design.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let line = schedule_request_line(
                    &format!("race-{i}"),
                    &design,
                    &ScheduleOptions {
                        all_global: Some(5),
                        ..ScheduleOptions::default()
                    },
                    None,
                );
                barrier.wait();
                client.request(&line).expect("response arrives")
            })
        })
        .collect();
    let responses: Vec<_> = workers.into_iter().map(|h| h.join().unwrap()).collect();
    for resp in &responses {
        assert!(resp.is_ok(), "{resp:?}");
    }
    // Both answers carry the same bytes regardless of who computed them.
    assert_eq!(responses[0].output(), responses[1].output());

    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(
        stat(&mut client, "scheduler_runs"),
        1,
        "single-flight must collapse the race to one run"
    );
    server.shutdown();
    server.wait().unwrap();
}

/// A warm-cache hit must not touch the scheduler at all: the IFDS
/// iteration counter stays flat while the hit counter advances.
#[test]
fn warm_hit_performs_zero_ifds_iterations() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };

    let cold = client
        .request(&schedule_request_line("cold", &design, &opts, None))
        .expect("response arrives");
    assert!(cold.is_ok(), "{cold:?}");
    assert_eq!(cold.cache(), Some("miss"));
    let after_cold = stat(&mut client, "ifds_iterations");
    assert!(after_cold > 0, "a fresh run must report its iterations");

    let warm = client
        .request(&schedule_request_line("warm", &design, &opts, None))
        .expect("response arrives");
    assert!(warm.is_ok(), "{warm:?}");
    assert_eq!(warm.cache(), Some("hit"));
    assert_eq!(
        stat(&mut client, "ifds_iterations"),
        after_cold,
        "a warm hit must perform zero IFDS iterations"
    );
    assert_eq!(warm.output(), cold.output());
    server.shutdown();
    server.wait().unwrap();
}

/// The installed binaries round-trip: `tcms serve` boots and announces
/// its address, `tcms client schedule` gets the schedule, `tcms client
/// shutdown` stops the daemon cleanly.
#[test]
fn serve_and_client_binaries_round_trip() {
    let bin = env!("CARGO_BIN_EXE_tcms");
    let mut daemon = Proc::new(bin)
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let mut banner = String::new();
    // Keep the pipe alive until the daemon exits: its farewell line must
    // not hit a closed stdout.
    let mut daemon_stdout = BufReader::new(daemon.stdout.take().expect("piped stdout"));
    daemon_stdout
        .read_line(&mut banner)
        .expect("daemon announces itself");
    let addr = banner
        .trim()
        .strip_prefix("tcms-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_owned();

    let schedule = Proc::new(bin)
        .args([
            "client",
            &addr,
            "schedule",
            &design_path("paper_table1.dfg"),
            "--all-global",
            "5",
            "--verify",
            "2",
        ])
        .output()
        .expect("client runs");
    assert!(
        schedule.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&schedule.stderr)
    );
    let out = String::from_utf8_lossy(&schedule.stdout);
    assert!(out.contains("conflict-free"), "{out}");
    assert!(out.contains("total area: 14"), "{out}");

    let stop = Proc::new(bin)
        .args(["client", &addr, "shutdown"])
        .output()
        .expect("client runs");
    assert!(stop.status.success());
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit: {status:?}");
    let mut farewell = String::new();
    daemon_stdout.read_line(&mut farewell).expect("farewell");
    assert_eq!(farewell.trim(), "tcms-serve shut down");
}

/// A mixed hit/miss/error workload captured in the journal must (a)
/// record the exact disposition/outcome sequence, and (b) replay
/// bit-identically against a fresh daemon.
#[test]
fn journal_captures_mixed_workload_and_replays_bit_identically() {
    let dir = std::env::temp_dir().join(format!("tcms_e2e_journal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 2,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design_a = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let design_b = "resource add delay=1 area=1\nprocess P\nblock body time=4\nop a0 add\n";
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };
    // miss, hit, miss, hit, malformed — a single pipelined client keeps
    // the order deterministic.
    let mut originals = Vec::new();
    for (id, design) in [
        ("a1", design_a.as_str()),
        ("a2", design_a.as_str()),
        ("b1", design_b),
        ("b2", design_b),
        ("bad", "resource add delay=zero"),
    ] {
        let line = schedule_request_line(id, design, &opts, None);
        let resp = client.request(&line).expect("response arrives");
        originals.push((line, resp));
    }
    server.shutdown();
    server.wait().unwrap();

    let path = tcms::serve::journal::journal_path(&dir);
    let (records, report) = tcms::serve::load_journal(&path).expect("journal loads");
    assert_eq!((report.loaded, report.skipped), (5, 0));
    assert!(!report.torn_tail);
    let sequence: Vec<_> = records
        .iter()
        .map(|r| (r.outcome.as_str(), r.disposition.as_deref(), r.code))
        .collect();
    assert_eq!(
        sequence,
        vec![
            ("ok", Some("miss"), 0),
            ("ok", Some("hit"), 0),
            ("ok", Some("miss"), 0),
            ("ok", Some("hit"), 0),
            ("malformed", None, 4),
        ],
        "the journal records the exact disposition sequence"
    );
    // Both cached designs share config fingerprints but not spec hashes.
    assert_eq!(records[0].spec, records[1].spec);
    assert_ne!(records[0].spec, records[2].spec);
    assert!(records[4].spec.is_none());

    // Replay the journaled raw lines against a *fresh* daemon: every
    // response must be bit-identical to the original run.
    let replay_server = start_server();
    let mut replay_client = Client::connect(replay_server.local_addr()).expect("connect");
    for (record, (line, original)) in records.iter().zip(&originals) {
        assert_eq!(&record.request, line, "raw request preserved verbatim");
        let replayed = replay_client
            .request(&record.request)
            .expect("replay response arrives");
        assert_eq!(
            replayed.output(),
            original.output(),
            "replayed output is bit-identical"
        );
        match (&replayed.error, &original.error) {
            (None, None) => {}
            (Some((rc, rn, _)), Some((oc, on, _))) => {
                assert_eq!((rc, rn), (oc, on), "error class/code preserved");
            }
            other => panic!("replay outcome diverged: {other:?}"),
        }
    }
    replay_server.shutdown();
    replay_server.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn final line — the crash artifact — is skipped with a warning
/// flag by both the lenient loader and the strict validator, and a
/// reopened writer truncates it before appending.
#[test]
fn truncated_journal_tail_is_skipped_and_flagged() {
    let dir = std::env::temp_dir().join(format!("tcms_e2e_torn_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };
    for id in ["x1", "x2"] {
        assert!(client
            .request(&schedule_request_line(id, &design, &opts, None))
            .expect("response")
            .is_ok());
    }
    server.shutdown();
    server.wait().unwrap();

    // Simulate a crash mid-append.
    let path = tcms::serve::journal::journal_path(&dir);
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"seq\":2,\"ts_us\":1,\"acti").unwrap();
    }
    let content = std::fs::read_to_string(&path).unwrap();
    let check = tcms::obs::validate_journal(&content).expect("strict validator tolerates the tail");
    assert_eq!(check.records, 2);
    assert!(check.torn_tail, "validator flags the torn tail");
    let (records, report) = tcms::serve::load_journal(&path).expect("lenient loader");
    assert_eq!(records.len(), 2);
    assert_eq!((report.loaded, report.skipped), (2, 1));
    assert!(report.torn_tail, "loader flags the torn tail");

    // Recovery: a restarted daemon truncates the tear and continues the
    // sequence without gluing onto the half-written line.
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon restarts over torn journal");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(client
        .request(&schedule_request_line("x3", &design, &opts, None))
        .expect("response")
        .is_ok());
    server.shutdown();
    server.wait().unwrap();
    let (records, report) = tcms::serve::load_journal(&path).expect("journal loads clean");
    assert!(!report.torn_tail);
    assert_eq!(
        records.iter().map(|r| r.seq).collect::<Vec<_>>(),
        vec![0, 1, 2],
        "sequence continues across the recovered tear"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unknown action comes back as the typed `unknown-action`/404 wire
/// error — never a dropped connection — and the daemon keeps serving.
#[test]
fn unknown_action_gets_typed_404_and_daemon_survives() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client
        .request(r#"{"id":"f","action":"frobnicate"}"#)
        .expect("response arrives");
    let (class, code, message) = resp.error.clone().expect("typed error");
    assert_eq!((class.as_str(), code), ("unknown-action", 404));
    assert!(message.contains("frobnicate"), "{message}");
    assert!(client
        .request(&control_request_line("alive", "ping"))
        .expect("ping after rejection")
        .is_ok());
    server.shutdown();
    server.wait().unwrap();
}

/// `tcms stats` renders the live registry: headline counts, per-shard
/// cache occupancy and the metric summary lines all appear.
#[test]
fn stats_subcommand_renders_live_introspection() {
    let server = start_server();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };
    for id in ["s1", "s2"] {
        assert!(client
            .request(&schedule_request_line(id, &design, &opts, None))
            .expect("response")
            .is_ok());
    }
    // `--timeout-ms` bounds the stats round-trip; against a healthy
    // daemon it must not change the outcome.
    let rendered = run(&Command::Stats {
        addr,
        timeout_ms: Some(2_000),
    })
    .expect("stats renders");
    for needle in [
        "daemon:",
        "worker panics",
        "worker restarts",
        "cache:",
        "hit rate",
        "shard",
        "journal:",
        "serve.requests.schedule",
        "serve.cache.hit",
        "serve.exec_us.miss",
        "serve.queue_wait_us",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }
    server.shutdown();
    server.wait().unwrap();
}

/// Every way a cache snapshot can rot on disk — a flipped bit, a
/// truncated tail, a zero-length file — must be detected by the
/// checksum trailer, quarantined to `cache.jsonl.corrupt`, and survived
/// with a cold start: the restarted daemon recomputes (miss), re-saves,
/// and serves hits again.
#[test]
fn corrupt_snapshots_quarantine_and_daemon_starts_cold() {
    use tcms::serve::persist::{quarantine_path, snapshot_path};
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };
    type Corruptor = fn(&std::path::Path);
    let corruptions: [(&str, Corruptor); 3] = [
        ("bit-flip", |p| {
            let mut bytes = std::fs::read(p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(p, bytes).unwrap();
        }),
        ("truncate", |p| {
            let bytes = std::fs::read(p).unwrap();
            std::fs::write(p, &bytes[..bytes.len() * 2 / 3]).unwrap();
        }),
        ("zero-length", |p| {
            std::fs::write(p, b"").unwrap();
        }),
    ];
    for (tag, corrupt) in corruptions {
        let dir =
            std::env::temp_dir().join(format!("tcms_e2e_snapcorrupt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let boot = |workers| {
            Server::start(ServeConfig {
                listen: "127.0.0.1:0".into(),
                workers,
                cache_dir: Some(dir.clone()),
                ..ServeConfig::default()
            })
            .expect("daemon starts")
        };
        // Warm a snapshot.
        let server = boot(2);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let resp = client
            .request(&schedule_request_line("warmup", &design, &opts, None))
            .expect("response");
        assert_eq!(resp.cache(), Some("miss"), "{tag}");
        server.shutdown();
        server.wait().unwrap();
        assert!(snapshot_path(&dir).exists(), "{tag}: snapshot saved");

        corrupt(&snapshot_path(&dir));

        // Restart: the rot is caught, moved aside, and the daemon is
        // cold but alive.
        let server = boot(2);
        assert!(
            quarantine_path(&dir).exists(),
            "{tag}: corrupt snapshot quarantined, not deleted"
        );
        assert_eq!(server.counter("serve.snapshot.quarantined"), 1, "{tag}");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (id, expected) in [("cold", "miss"), ("rewarmed", "hit")] {
            let resp = client
                .request(&schedule_request_line(id, &design, &opts, None))
                .expect("response");
            assert!(resp.is_ok(), "{tag}/{id}: {resp:?}");
            assert_eq!(resp.cache(), Some(expected), "{tag}/{id}");
        }
        server.shutdown();
        server.wait().unwrap();

        // The re-saved snapshot is intact: one more boot loads it warm.
        let server = boot(1);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let resp = client
            .request(&schedule_request_line("reloaded", &design, &opts, None))
            .expect("response");
        assert_eq!(resp.cache(), Some("hit"), "{tag}: snapshot round-trips");
        server.shutdown();
        server.wait().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// With `--journal-rotate-bytes`, a busy daemon seals and rotates its
/// journal mid-run; every sealed segment passes the strict validator,
/// and the directory loader reassembles the full uninterrupted history.
#[test]
fn journal_rotation_seals_segments_under_live_load() {
    let dir = std::env::temp_dir().join(format!("tcms_e2e_rotate_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        journal_dir: Some(dir.clone()),
        journal_rotate_bytes: 2_048,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };
    let rounds = 12;
    for i in 0..rounds {
        assert!(client
            .request(&schedule_request_line(
                &format!("r{i}"),
                &design,
                &opts,
                None
            ))
            .expect("response")
            .is_ok());
    }
    let rotated = server.journal_stats().expect("journal enabled").rotated;
    assert!(rotated >= 1, "the workload crossed the rotation threshold");
    server.shutdown();
    server.wait().unwrap();

    for n in 1..=rotated {
        let content = std::fs::read_to_string(tcms::serve::journal::rotated_path(&dir, n)).unwrap();
        let check = tcms::obs::validate_journal(&content)
            .unwrap_or_else(|e| panic!("segment {n} fails validation: {e}"));
        assert!(check.sealed, "segment {n} carries its seal trailer");
        assert!(!check.torn_tail);
    }
    let (records, report) = tcms::serve::load_journal_dir(&dir).expect("directory loads");
    assert_eq!(report.loaded, rounds, "no record lost to rotation");
    assert_eq!(
        records.iter().map(|r| r.seq).collect::<Vec<_>>(),
        (0..rounds as u64).collect::<Vec<_>>(),
        "one gapless sequence across all segments"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero-length live journal — the classic crash-at-create artifact —
/// is quarantined on boot; the daemon starts with a fresh journal and
/// keeps recording.
#[test]
fn zero_length_journal_quarantines_and_daemon_boots() {
    let dir = std::env::temp_dir().join(format!("tcms_e2e_jnlzero_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(tcms::serve::journal::journal_path(&dir), b"").unwrap();
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon boots over the empty journal");
    assert!(
        dir.join(tcms::serve::journal::JOURNAL_CORRUPT).exists(),
        "empty journal moved aside, not deleted"
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    assert!(client
        .request(&schedule_request_line(
            "j0",
            &design,
            &ScheduleOptions {
                all_global: Some(5),
                ..ScheduleOptions::default()
            },
            None,
        ))
        .expect("response")
        .is_ok());
    server.shutdown();
    server.wait().unwrap();
    let (records, _) = tcms::serve::load_journal(&tcms::serve::journal::journal_path(&dir))
        .expect("fresh journal loads");
    assert_eq!(records.len(), 1, "recording resumed after quarantine");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `--timeout-ms` client flag fails fast against a black-hole
/// address instead of hanging the CLI (the original `connect` blocked
/// indefinitely on unroutable addresses).
#[test]
fn client_timeout_flag_fails_fast_on_dead_addresses() {
    let started = std::time::Instant::now();
    // Port 1 on loopback: nothing listens; connect errors immediately
    // or times out — either way the bound is the flag, not TCP defaults.
    let err = run(&Command::Stats {
        addr: "127.0.0.1:1".into(),
        timeout_ms: Some(300),
    })
    .expect_err("no daemon there");
    assert!(started.elapsed() < std::time::Duration::from_secs(5));
    assert_eq!(err.exit_code(), 3, "transport failures are I/O errors");
}

/// A persistent accept error must not spin a core. Under `ulimit -n 24`
/// the daemon runs out of descriptors while more connections wait in
/// the backlog, so every `accept` fails with EMFILE until one closes;
/// the accept loop backs off between attempts instead of retrying at
/// once.
#[cfg(target_os = "linux")]
#[test]
fn accept_errors_back_off_instead_of_spinning() {
    use std::net::TcpStream;
    use std::time::Duration;

    /// utime + stime of `pid` in clock ticks (fields 14 and 15 of
    /// `/proc/<pid>/stat`, counted after the parenthesised name).
    fn cpu_ticks(pid: u32) -> u64 {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("stat readable");
        let fields: Vec<&str> = stat[stat.rfind(')').expect("comm field") + 2..]
            .split(' ')
            .collect();
        fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
    }

    let bin = env!("CARGO_BIN_EXE_tcms");
    let mut daemon = Proc::new("sh")
        .args([
            "-c",
            &format!("ulimit -n 24; exec '{bin}' serve --listen 127.0.0.1:0 --workers 1"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let mut banner = String::new();
    BufReader::new(daemon.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("daemon announces itself");
    let addr = banner
        .trim()
        .strip_prefix("tcms-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_owned();
    // More connections than the daemon has descriptors for; the
    // surplus completes in the kernel backlog and stays unaccepted.
    let held: Vec<TcpStream> = (0..30)
        .map(|_| TcpStream::connect(&addr).expect("backlog accepts"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let before = cpu_ticks(daemon.id());
    std::thread::sleep(Duration::from_secs(1));
    let used = cpu_ticks(daemon.id()) - before;
    let _ = daemon.kill();
    let _ = daemon.wait();
    drop(held);
    // Linux reports these fields in USER_HZ = 100 ticks per second.
    assert!(
        used < 20,
        "daemon used {used} ticks of CPU in 1 s while out of descriptors"
    );
}
