//! `table1_oneshot` and `partition_318`: sequential, cache-less
//! `schedule_request` calls from one caller thread. No serve, cache or
//! wire layer runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tcms_core::{check_execution, compute_report, random_activations};
use tcms_obs::TraceRecorder;
use tcms_serve::pipeline::{build_spec, load_system};
use tcms_serve::{schedule_request, ExecContext, ScheduleArtifacts, ScheduleOptions};

use crate::inputs;
use crate::layers::{layer_metrics, traced_request, SchedCounters, TracedPhase};
use crate::report::{cpu_ms_per_request, median, process_cpu, report_area, Metrics};
use crate::RunOutcome;

/// A one-shot workload: a design, its options and its answer check.
pub struct OneShot {
    design: fn() -> String,
    options: fn() -> ScheduleOptions,
    check: fn(&ScheduleArtifacts) -> Result<(), String>,
}

/// `tcms schedule designs/paper_table1.dfg --all-global 5 --verify 5`.
pub const TABLE1: OneShot = OneShot {
    design: inputs::table1_design,
    options: inputs::table1_options,
    check: check_table1,
};

/// The 318-op spec with an explicit 2-way partition.
pub const PARTITION_318: OneShot = OneShot {
    design: inputs::partition_design,
    options: inputs::partition_options,
    check: check_partitioned,
};

/// The paper's Table 1 answer for the all-global system at period 5:
/// instances per shared pool and the total area.
const TABLE1_INSTANCES: [(&str, u32); 3] = [("add", 4), ("sub", 2), ("mul", 2)];
const TABLE1_AREA: u64 = 14;

fn check_table1(arts: &ScheduleArtifacts) -> Result<(), String> {
    let text = &arts.text;
    for (name, want) in TABLE1_INSTANCES {
        let got = text
            .lines()
            .find_map(|l| {
                let mut words = l.split_whitespace();
                (words.next() == Some(name)).then(|| words.next()?.parse::<u32>().ok())?
            })
            .ok_or_else(|| format!("report has no `{name}` line:\n{text}"))?;
        if got != want {
            return Err(format!("{name}: {got} instances, Table 1 has {want}"));
        }
    }
    match report_area(text) {
        Some(TABLE1_AREA) => {}
        other => return Err(format!("total area {other:?}, Table 1 has {TABLE1_AREA}")),
    }
    if !text.contains("verified 5 randomized grid-aligned executions: conflict-free") {
        return Err(format!("report lacks the verification line:\n{text}"));
    }
    Ok(())
}

/// The partitioned answer has no published reference value, so it is
/// checked independently of the scheduler: the reported area is the
/// area of the returned schedule, and random grid-aligned executions of
/// it are conflict-free.
fn check_partitioned(arts: &ScheduleArtifacts) -> Result<(), String> {
    if !arts.text.contains("partitioned: 2 subgraphs") {
        return Err(format!(
            "report does not name the 2-way split:\n{}",
            arts.text
        ));
    }
    let opts = inputs::partition_options();
    let spec =
        build_spec(&arts.system, opts.all_global, &opts.globals).map_err(|e| e.to_string())?;
    let report = compute_report(&arts.system, &spec, &arts.schedule);
    if report_area(&arts.text) != Some(report.total_area()) {
        return Err(format!(
            "reported area {:?} differs from the schedule's {}",
            report_area(&arts.text),
            report.total_area()
        ));
    }
    for seed in 0..3 {
        let acts = random_activations(&arts.system, &spec, &arts.schedule, 3, seed);
        check_execution(&arts.system, &spec, &arts.schedule, &report, &acts)
            .map_err(|e| format!("execution check {seed}: {e}"))?;
    }
    Ok(())
}

/// What a series of calls measured.
struct Calls {
    latencies_ms: Vec<f64>,
    wall: Duration,
    failures: BTreeMap<String, u64>,
    first: Option<ScheduleArtifacts>,
}

/// Calls `schedule_request` until `budget` has passed (at least once).
/// Every answer must equal the first byte for byte.
fn call_until(source: &str, opts: &ScheduleOptions, budget: Duration) -> Result<Calls, String> {
    let mut calls = Calls {
        latencies_ms: Vec::new(),
        wall: Duration::ZERO,
        failures: BTreeMap::new(),
        first: None,
    };
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let result = schedule_request(source, opts, &ExecContext::default());
        let elapsed = t.elapsed();
        match result {
            Ok(arts) => {
                calls.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                match &calls.first {
                    Some(first) if first.text != arts.text => {
                        return Err(format!(
                            "call {} answered differently from the first call",
                            calls.latencies_ms.len()
                        ));
                    }
                    Some(_) => {}
                    None => calls.first = Some(arts),
                }
            }
            Err(e) => *calls.failures.entry(e.class().to_owned()).or_default() += 1,
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    calls.wall = start.elapsed();
    Ok(calls)
}

/// Set-ups before the measured calls, and again after them; the median
/// of all is reported. A one-shot set-up takes about a millisecond, so
/// many repetitions keep the median off the first few, which run on a
/// cold cache and a cold core, and the two bursts see more of a shared
/// host's phases than one.
const SETUP_TRIALS: usize = 51;

/// Set-up of a one-shot run: build the input, parse it and build its
/// spec, then warm the pipeline with one small request. Repeated;
/// returns the times in seconds and the design.
fn setup(w: &OneShot) -> Result<(Vec<f64>, String), String> {
    let warmup_opts = ScheduleOptions {
        all_global: Some(4),
        ..ScheduleOptions::default()
    };
    let mut times = Vec::new();
    let mut source = String::new();
    for _ in 0..SETUP_TRIALS {
        let t = Instant::now();
        source = (w.design)();
        let opts = (w.options)();
        let system = load_system(&source).map_err(|e| e.to_string())?;
        build_spec(&system, opts.all_global, &opts.globals).map_err(|e| e.to_string())?;
        schedule_request(
            inputs::ONESHOT_WARMUP,
            &warmup_opts,
            &ExecContext::default(),
        )
        .map_err(|e| format!("warm-up request: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((times, source))
}

/// Runs a one-shot workload for `seconds`; with `trace`, the second half
/// of the time is a traced run of the same calls.
///
/// # Errors
///
/// A wrong answer or an answer that changes between calls.
pub fn run(w: &OneShot, seconds: f64, trace: bool) -> Result<RunOutcome, String> {
    let (mut setup_times, source) = setup(w)?;
    let opts = (w.options)();
    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let cpu_before = process_cpu();
    let calls = call_until(&source, &opts, budget)?;
    let cpu_after = process_cpu();
    setup_times.extend(setup(w)?.0);
    let first = calls
        .first
        .as_ref()
        .ok_or("every call failed; nothing to check")?;
    (w.check)(first)?;

    let mut m = Metrics::default();
    let lat = &calls.latencies_ms;
    m.set("latency_p50_ms", median(lat));
    m.set(
        "cpu_ms_per_req",
        cpu_ms_per_request(cpu_before, cpu_after, lat.len()),
    );
    #[allow(clippy::cast_precision_loss)]
    m.set(
        "throughput_rps",
        lat.len() as f64 / calls.wall.as_secs_f64(),
    );
    #[allow(clippy::cast_precision_loss)]
    m.set("area_total", report_area(&first.text).unwrap_or(0) as f64);
    m.set("setup_s", median(&setup_times));
    let mut outcome = RunOutcome {
        answered: lat.len() as u64,
        failures: calls.failures.clone(),
        metrics: m,
        notes: vec![format!(
            "{} calls in {:.2} s, answer checked ({} ops)",
            lat.len(),
            calls.wall.as_secs_f64(),
            first.system.num_ops()
        )],
        trace: None,
    };
    if trace {
        let phase = traced_calls(&source, &opts, &first.text, budget)?;
        let (largest, share) = layer_metrics(&phase, &mut outcome.metrics)?;
        outcome.notes.push(format!(
            "traced {} calls; largest layer: {largest} ({:.1}% of traced wall time)",
            phase.requests,
            share * 100.0
        ));
        outcome.trace = Some(phase.data);
    }
    Ok(outcome)
}

/// The traced half: untraced calls alternate with the same call through
/// [`traced_request`], so a drift in machine speed falls on both alike;
/// every answer is compared with the first untraced one.
fn traced_calls(
    source: &str,
    opts: &ScheduleOptions,
    expected: &str,
    budget: Duration,
) -> Result<TracedPhase, String> {
    let rec = TraceRecorder::new();
    let counters = SchedCounters::default();
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    let mut requests = 0u64;
    while requests == 0 || start.elapsed() < budget {
        // Which call of the pair runs first alternates, so neither always
        // pays for following the other.
        let order = if requests.is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        for traced_call in order {
            let t = Instant::now();
            let text = if traced_call {
                traced_request(&rec, &counters, requests, source, opts, None, false)?.0
            } else {
                schedule_request(source, opts, &ExecContext::default())
                    .map_err(|e| e.to_string())?
                    .text
            };
            if traced_call {
                traced += t.elapsed();
            } else {
                untraced += t.elapsed();
            }
            if text != expected {
                return Err(format!("call pair {requests} answered differently"));
            }
        }
        requests += 1;
    }
    #[allow(clippy::cast_precision_loss)]
    let untraced_per_request_us = untraced.as_secs_f64() * 1e6 / requests as f64;
    Ok(TracedPhase {
        requests,
        wall_us: traced.as_secs_f64() * 1e6,
        untraced_per_request_us,
        data: rec.finish(),
        counters,
    })
}
