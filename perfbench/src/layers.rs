//! The traced run's per-layer split.
//!
//! [`traced_request`] performs one schedule request through the same
//! public functions, in the same order, as `tcms_serve::schedule_request`
//! (and hence a daemon worker), opening one span around each call. Spans
//! are recorded in memory by a [`TraceRecorder`] and written out in the
//! `tcms_obs` JSONL and Chrome formats when the run ends. A layer is a
//! crate; its self time is the time its spans cover minus the time their
//! child spans cover.
//!
//! The scheduler itself gets a [`SchedCounters`] recorder, which keeps
//! only the counters and gauges that `IfdsStats` and the partition
//! driver already publish, so the span stream stays one entry per call
//! boundary.

use std::cell::RefCell;
use std::collections::BTreeMap;

use tcms_core::{
    config_fingerprint_with, schedule_partitioned_recorded, CacheableResult, ModuloScheduler,
    PartitionConfig, SharingSpec,
};
use tcms_fds::{FdsConfig, Schedule};
use tcms_ir::canon::Canonicalization;
use tcms_ir::System;
use tcms_obs::{span, MetricsRegistry, Recorder, TraceData, TraceEventKind, TraceRecorder};
use tcms_serve::pipeline::{build_spec, load_system, render_schedule_report};
use tcms_serve::{
    request_cache_key, CacheKey, Disposition, SchedCache, ScheduleOptions, ServeError,
    DEFAULT_AUTO_PARTITION_OPS,
};

use crate::report::Metrics;

/// The layers, named by crate, in report order.
pub const LAYERS: [&str; 5] = ["ir", "core", "fds", "serve", "fleet"];

/// A recorder that keeps the scheduler's published counters and gauges
/// and drops its spans, events and timeline samples.
#[derive(Debug, Default)]
pub struct SchedCounters(RefCell<MetricsRegistry>);

impl SchedCounters {
    fn counter(&self, name: &str) -> u64 {
        self.0.borrow().counter(name)
    }

    fn gauge(&self, name: &str) -> f64 {
        self.0.borrow().gauge(name).unwrap_or(0.0)
    }
}

impl Recorder for SchedCounters {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.0.borrow_mut().counter_add(name, delta);
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.0.borrow_mut().gauge_set(name, value);
    }
}

fn typed(e: ServeError) -> String {
    format!("{} ({}): {e}", e.class(), e.code())
}

/// Runs the scheduler the way a cache miss or cache-less request does,
/// then verifies: `(schedule, iterations, partition note)`.
fn compute(
    rec: &TraceRecorder,
    counters: &SchedCounters,
    system: &System,
    spec: &SharingSpec,
    pcfg: Option<&PartitionConfig>,
) -> Result<(Schedule, u64, Option<String>), ServeError> {
    let config = FdsConfig::default();
    let (schedule, iterations, note) = {
        let _span = span!(rec, "core.schedule");
        match pcfg {
            Some(pcfg) => {
                let out =
                    schedule_partitioned_recorded(system, spec.clone(), &config, pcfg, counters)?;
                let note = format!(
                    "partitioned: {} subgraphs, {} feedback rounds, {} cut edges",
                    out.partitions, out.rounds, out.cut_edges
                );
                let iterations = out.iterations();
                (out.schedule, iterations, Some(note))
            }
            None => {
                let out = ModuloScheduler::new(system, spec.clone())?
                    .with_config(config)
                    .run_recorded(counters)?;
                (out.schedule, out.iterations, None)
            }
        }
    };
    {
        let _span = span!(rec, "fds.verify");
        schedule
            .verify(system)
            .map_err(|e| ServeError::Verify(e.to_string()))?;
    }
    Ok((schedule, iterations, note))
}

/// One schedule request, split into spans at every call boundary of the
/// pipeline. With `cache` it takes the daemon's content-addressed path;
/// `route` adds the routing key an entry node of a fleet computes.
/// Returns the rendered report and the cache disposition.
///
/// # Errors
///
/// The typed error the pipeline would answer with, as text.
pub fn traced_request(
    rec: &TraceRecorder,
    counters: &SchedCounters,
    req: u64,
    source: &str,
    opts: &ScheduleOptions,
    cache: Option<&SchedCache>,
    route: bool,
) -> Result<(String, Disposition), String> {
    let _request = span!(rec, "request", req = req);
    if route {
        let _span = span!(rec, "fleet.route_key");
        request_cache_key(source, opts, DEFAULT_AUTO_PARTITION_OPS).map_err(typed)?;
    }
    let system = {
        let _span = span!(rec, "ir.parse");
        load_system(source).map_err(typed)?
    };
    let spec = {
        let _span = span!(rec, "core.spec");
        build_spec(&system, opts.all_global, &opts.globals).map_err(typed)?
    };
    let partition = opts.partition.or_else(|| {
        (system.num_ops() >= DEFAULT_AUTO_PARTITION_OPS).then_some(tcms_core::PartitionCount::Auto)
    });
    let pcfg = partition.map(|count| PartitionConfig {
        count,
        ..PartitionConfig::default()
    });
    let (schedule, iterations, note, disposition) = match cache {
        None => {
            let (schedule, iterations, note) =
                compute(rec, counters, &system, &spec, pcfg.as_ref()).map_err(typed)?;
            (schedule, iterations, note, Disposition::Miss)
        }
        Some(cache) => {
            let (canon, hash) = {
                let _span = span!(rec, "ir.canon");
                let canon = Canonicalization::of(&system);
                let hash = canon.hash();
                (canon, hash)
            };
            let fingerprint = {
                let _span = span!(rec, "core.fingerprint");
                config_fingerprint_with(
                    &system,
                    &canon,
                    &spec,
                    &FdsConfig::default(),
                    pcfg.as_ref(),
                )
            };
            let key = CacheKey {
                spec: hash,
                config: fingerprint,
            };
            let (cached, disposition) = {
                let _span = span!(rec, "serve.cache");
                cache.get_or_compute(key, || {
                    let (schedule, iterations, note) =
                        compute(rec, counters, &system, &spec, pcfg.as_ref())?;
                    let entry = CacheableResult::capture(&canon, &schedule, iterations);
                    Ok(match note {
                        Some(note) => entry.with_note(note),
                        None => entry,
                    })
                })
            };
            let cached = cached.map_err(typed)?;
            let schedule = {
                let _span = span!(rec, "core.replay");
                cached
                    .replay(&canon)
                    .map_err(|e| format!("cache replay failed: {e}"))?
            };
            {
                let _span = span!(rec, "fds.verify");
                schedule
                    .verify(&system)
                    .map_err(|e| format!("cached schedule invalid: {e}"))?;
            }
            (
                schedule,
                cached.iterations,
                cached.note.clone(),
                disposition,
            )
        }
    };
    let text = {
        let _span = span!(rec, "serve.render");
        render_schedule_report(
            &system,
            &spec,
            &schedule,
            iterations,
            note.as_deref(),
            opts.gantt,
            opts.verify,
        )
        .map_err(typed)?
    };
    Ok((text, disposition))
}

/// Time the spans of one name cover, in µs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed durations.
    pub total_us: u64,
    /// Summed durations minus the time child spans cover.
    pub self_us: u64,
}

/// Sums span durations and self times by span name.
///
/// # Errors
///
/// Describes an exit without a matching enter on top of the stack.
pub fn span_totals(data: &TraceData) -> Result<BTreeMap<&'static str, SpanTotals>, String> {
    struct Open {
        id: u64,
        name: &'static str,
        start: u64,
        children: u64,
    }
    let mut stack: Vec<Open> = Vec::new();
    let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for event in &data.events {
        match &event.kind {
            TraceEventKind::SpanEnter { id, name, .. } => stack.push(Open {
                id: id.0,
                name,
                start: event.ts_us,
                children: 0,
            }),
            TraceEventKind::SpanExit { id } => {
                let open = stack
                    .pop()
                    .filter(|o| o.id == id.0)
                    .ok_or_else(|| format!("span {} exits out of order", id.0))?;
                let duration = event.ts_us.saturating_sub(open.start);
                if let Some(parent) = stack.last_mut() {
                    parent.children += duration;
                }
                let t = totals.entry(open.name).or_default();
                t.count += 1;
                t.total_us += duration;
                t.self_us += duration.saturating_sub(open.children);
            }
            _ => {}
        }
    }
    Ok(totals)
}

/// The layer a span belongs to: the crate prefix of its name.
fn layer_of(name: &str) -> Option<&'static str> {
    let prefix = name.split('.').next()?;
    LAYERS.iter().copied().find(|l| *l == prefix)
}

/// What one traced phase measured.
pub struct TracedPhase {
    /// Requests traced.
    pub requests: u64,
    /// Wall time of the traced requests.
    pub wall_us: f64,
    /// Mean wall time of one of the same requests run untraced,
    /// alternating with the traced ones.
    pub untraced_per_request_us: f64,
    /// The spans.
    pub data: TraceData,
    /// What the scheduler published.
    pub counters: SchedCounters,
}

/// Per-layer metrics of a traced phase, keyed by the names of
/// `BENCHMARK.json`. Times are µs per request unless a name says
/// otherwise; scheduler counters are per scheduler run. Also returns the
/// largest layer and its share of the traced wall time.
///
/// # Errors
///
/// Propagates malformed span nesting.
pub fn layer_metrics(phase: &TracedPhase, m: &mut Metrics) -> Result<(&'static str, f64), String> {
    let totals = span_totals(&phase.data)?;
    #[allow(clippy::cast_precision_loss)]
    let per_req = |us: u64| us as f64 / phase.requests.max(1) as f64;
    let total = |name: &str| totals.get(name).map_or(0, |t| t.total_us);
    for (metric, span_name) in [
        ("ir.parse_us", "ir.parse"),
        ("ir.canon_us", "ir.canon"),
        ("core.spec_us", "core.spec"),
        ("core.fingerprint_us", "core.fingerprint"),
        ("core.schedule_us", "core.schedule"),
        ("core.replay_us", "core.replay"),
        ("fds.verify_us", "fds.verify"),
        ("serve.cache_us", "serve.cache"),
        ("serve.render_us", "serve.render"),
        ("fleet.route_key_us", "fleet.route_key"),
    ] {
        m.set(metric, per_req(total(span_name)));
    }

    let c = &phase.counters;
    let runs = totals.get("core.schedule").map_or(0, |t| t.count).max(1);
    #[allow(clippy::cast_precision_loss)]
    let per_run = |n: u64| n as f64 / runs as f64;
    let evals = c.counter("ifds.ops_evaluated");
    let eval_us = c.counter("ifds.eval_us");
    let commit_us = c.counter("ifds.commit_us");
    let (hits, misses) = (c.counter("ifds.cache_hits"), c.counter("ifds.cache_misses"));
    m.set("fds.iterations", per_run(c.counter("ifds.iterations")));
    m.set("fds.evals", per_run(evals));
    m.set("fds.eval_us", per_run(eval_us));
    m.set("fds.commit_us", per_run(commit_us));
    #[allow(clippy::cast_precision_loss)]
    {
        // A zero denominator gives a non-finite value, which `Metrics::set`
        // stores as 0.
        m.set("fds.cand_hit_rate", hits as f64 / (hits + misses) as f64);
        m.set("fds.ns_per_eval", eval_us as f64 * 1000.0 / evals as f64);
    }
    m.set(
        "core.partition_rounds",
        per_run(c.counter("partition.rounds")),
    );
    m.set("core.partition_cut_edges", c.gauge("partition.cut_edges"));

    // Self time by layer. The IFDS engine runs inside `core.schedule`;
    // the eval and commit time it publishes moves from core to fds.
    let mut layer_self: BTreeMap<&'static str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
    for (name, t) in &totals {
        if let Some(layer) = layer_of(name) {
            *layer_self.get_mut(layer).expect("every layer is listed") += t.self_us;
        }
    }
    let ifds = (eval_us + commit_us).min(layer_self["core"]);
    *layer_self.get_mut("core").expect("core is listed") -= ifds;
    *layer_self.get_mut("fds").expect("fds is listed") += ifds;

    #[allow(clippy::cast_precision_loss)]
    let traced_per_request = phase.wall_us / phase.requests.max(1) as f64;
    let mut largest = ("none", 0.0);
    let mut attributed = 0.0;
    for layer in LAYERS {
        let self_us = per_req(layer_self[layer]);
        let share = self_us / traced_per_request;
        attributed += self_us;
        m.set(&format!("{layer}.self_us"), self_us);
        m.set(&format!("{layer}.share"), share);
        if share > largest.1 {
            largest = (layer, share);
        }
    }
    let unattributed = traced_per_request - attributed;
    m.set("unattributed_us", unattributed);
    m.set("unattributed.share", unattributed / traced_per_request);
    let overhead = traced_per_request - phase.untraced_per_request_us;
    m.set("trace_overhead_us", overhead);
    m.set(
        "trace_overhead.share",
        overhead / phase.untraced_per_request_us,
    );
    m.set("largest_layer.share", largest.1);
    Ok(largest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcms_obs::sink::{to_chrome_trace, to_jsonl, validate_chrome_trace, validate_jsonl};
    use tcms_serve::{schedule_request, ExecContext};

    const SAMPLE: &str = "
resource add delay=1 area=1
resource mul delay=2 area=4 pipelined
process A
block body time=8
op m0 mul
op a0 add
edge m0 a0
process B
block body time=8
op m0 mul
op a0 add
edge m0 a0
";

    fn opts() -> ScheduleOptions {
        ScheduleOptions {
            all_global: Some(4),
            verify: 2,
            ..ScheduleOptions::default()
        }
    }

    #[test]
    fn traced_requests_render_the_pipeline_bytes() {
        let plain = schedule_request(SAMPLE, &opts(), &ExecContext::default()).unwrap();
        let rec = TraceRecorder::new();
        let counters = SchedCounters::default();
        let (text, d) = traced_request(&rec, &counters, 0, SAMPLE, &opts(), None, false).unwrap();
        assert_eq!(text, plain.text);
        assert_eq!(d, Disposition::Miss);
        let cache = SchedCache::new(16, 2);
        let (miss, d1) =
            traced_request(&rec, &counters, 1, SAMPLE, &opts(), Some(&cache), true).unwrap();
        let (hit, d2) =
            traced_request(&rec, &counters, 2, SAMPLE, &opts(), Some(&cache), true).unwrap();
        assert_eq!((d1, d2), (Disposition::Miss, Disposition::Hit));
        assert_eq!(miss, plain.text);
        assert_eq!(hit, plain.text);
        assert!(counters.counter("ifds.iterations") > 0);
    }

    #[test]
    fn spans_are_valid_tcms_obs_traces_and_add_up() {
        let rec = TraceRecorder::new();
        let counters = SchedCounters::default();
        let cache = SchedCache::new(16, 2);
        for req in 0..3 {
            traced_request(&rec, &counters, req, SAMPLE, &opts(), Some(&cache), false).unwrap();
        }
        let data = rec.finish();
        // The validators behind the `trace_check` binary.
        assert!(validate_jsonl(&to_jsonl(&data)).unwrap() > 0);
        assert!(validate_chrome_trace(&to_chrome_trace(&data)).unwrap() > 0);
        let totals = span_totals(&data).unwrap();
        assert_eq!(totals["request"].count, 3);
        assert_eq!(totals["core.schedule"].count, 1, "one miss, two hits");
        assert_eq!(totals["fds.verify"].count, 4, "miss verifies twice");
        let request = totals["request"];
        let children: u64 = totals
            .iter()
            .filter(|(n, _)| **n != "request")
            .map(|(_, t)| t.self_us)
            .sum();
        assert_eq!(request.total_us, request.self_us + children);
    }

    #[test]
    fn layer_metrics_name_every_layer() {
        let rec = TraceRecorder::new();
        let counters = SchedCounters::default();
        traced_request(&rec, &counters, 0, SAMPLE, &opts(), None, false).unwrap();
        let phase = TracedPhase {
            requests: 1,
            wall_us: 1000.0,
            untraced_per_request_us: 900.0,
            data: rec.finish(),
            counters,
        };
        let mut m = Metrics::default();
        let (largest, share) = layer_metrics(&phase, &mut m).unwrap();
        assert!(LAYERS.contains(&largest) || largest == "none");
        assert!(share >= 0.0);
        for layer in LAYERS {
            assert!(m.get(&format!("{layer}.self_us")).is_some());
        }
        assert!((m.get("trace_overhead_us").unwrap() - 100.0).abs() < 1e-9);
        assert!(m.get("fds.iterations").unwrap() > 0.0);
    }
}
