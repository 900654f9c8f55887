//! The shared request pipeline: load → spec → schedule (optionally
//! through the content-addressed cache) → render.
//!
//! Both the one-shot CLI (`tcms schedule` / `tcms simulate` /
//! `tcms vhdl`) and every daemon worker execute **this** code, so their
//! outputs are bit-identical by construction — the daemon does not
//! reimplement the report renderer, it shares it.
//!
//! # Cache semantics
//!
//! With a [`SchedCache`], the plain scheduling path becomes
//! content-addressed:
//!
//! 1. canonicalize the design ([`tcms_ir::canon`]) and fingerprint the
//!    configuration ([`tcms_core::fingerprint`]),
//! 2. single-flight `get_or_compute` on `(spec hash, fingerprint)`,
//! 3. replay the cached canonical starts onto *this* request's system
//!    and re-verify before rendering.
//!
//! On a miss the compute closure runs the exact scheduler invocation the
//! cache-less path runs; capturing and immediately replaying the result
//! is the identity mapping, so miss responses equal cache-less
//! responses byte for byte. On a hit the replayed schedule is the one
//! the original miss produced (same canonical form ⇒ same translation),
//! so hits render the same bytes too — with **zero** IFDS iterations of
//! new work. Partitioned runs are content-addressed like monolithic
//! ones: the partition knobs are part of the fingerprint and the
//! telemetry note is stored in the entry. The degradation ladder
//! rewrites the system itself, so `degrade` requests bypass the cache.

use std::fmt::Write as _;

use tcms_core::degrade::schedule_with_degradation_recorded;
use tcms_core::{
    check_execution, config_fingerprint_with, random_activations, schedule_partitioned_recorded,
    CacheableResult, LadderConfig, ModuloScheduler, PartitionConfig, PartitionCount, SharingSpec,
};
use tcms_fds::{gantt, FdsConfig, RunBudget, Schedule};
use tcms_ir::canon::Canonicalization;
use tcms_ir::generators::paper_library;
use tcms_ir::{display, frontend, parse, System};
use tcms_obs::{NoopRecorder, Recorder};
use tcms_sim::{FaultPlan, SimConfig, Simulator, Trigger};

use crate::cache::{CacheKey, Disposition, SchedCache};
use crate::error::ServeError;

/// Loads a system from either input language. A file whose first
/// non-comment keyword is `resource` is structural `.dfg` (so a `:=`
/// inside a comment cannot misroute it); otherwise the presence of `:=`
/// selects the behavioral compiler.
///
/// # Errors
///
/// Returns [`ServeError::Malformed`] when neither language accepts the
/// text.
pub fn load_system(source: &str) -> Result<System, ServeError> {
    let first_keyword = source
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .find(|l| !l.is_empty())
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("");
    let behavioral = first_keyword != "resource" && source.contains(":=");
    if behavioral {
        let (lib, _) = paper_library();
        frontend::compile(source, lib).map_err(|e| ServeError::Malformed(e.to_string()))
    } else {
        parse::parse_system(source).map_err(|e| ServeError::Malformed(e.to_string()))
    }
}

/// Builds and validates the sharing specification from the CLI-style
/// `--all-global` / `--global TYPE=ρ` arguments.
///
/// # Errors
///
/// Returns [`ServeError::Spec`] for unknown type names and invalid
/// specifications.
pub fn build_spec(
    system: &System,
    all_global: Option<u32>,
    globals: &[(String, u32)],
) -> Result<SharingSpec, ServeError> {
    let mut spec = match all_global {
        Some(period) => SharingSpec::all_global(system, period),
        None => SharingSpec::all_local(system),
    };
    for (name, period) in globals {
        let k = system
            .library()
            .by_name(name)
            .ok_or_else(|| ServeError::Spec(format!("unknown resource type `{name}`")))?;
        spec.set_global(k, system.users_of_type(k), *period);
    }
    spec.validate(system).map_err(ServeError::from)?;
    Ok(spec)
}

/// Options of a schedule request (the CLI's `schedule` flags).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleOptions {
    /// Uniform period for all shareable types (`--all-global`).
    pub all_global: Option<u32>,
    /// Per-type `TYPE=PERIOD` global assignments (`--global`).
    pub globals: Vec<(String, u32)>,
    /// Render ASCII Gantt charts (`--gantt`).
    pub gantt: bool,
    /// Number of randomized execution checks (`--verify N`).
    pub verify: usize,
    /// Retry failures through the degradation ladder (`--degrade`);
    /// bypasses the cache.
    pub degrade: bool,
    /// Feedback-guided subgraph decomposition (`--partition <K|auto>`).
    /// Partitioned runs are content-addressed like monolithic ones —
    /// the partition knobs are folded into the config fingerprint
    /// ([`tcms_core::config_fingerprint_with`]) and the telemetry note
    /// rides in the cache entry, so hits replay byte-identically.
    /// `None` follows the context's size threshold
    /// ([`ExecContext::auto_partition_ops`]).
    pub partition: Option<PartitionCount>,
}

/// Execution context of one pipeline run.
pub struct ExecContext<'a> {
    /// The content-addressed cache, if caching is enabled.
    pub cache: Option<&'a SchedCache>,
    /// Run budget applied to fresh scheduler runs (deadline enforcement).
    pub budget: RunBudget,
    /// Observability recorder threaded through the scheduler.
    pub rec: &'a dyn Recorder,
    /// Chaos/test hook, off by default: when set, a design containing
    /// the literal token [`PANIC_MARKER`] panics at pipeline entry —
    /// before the cache, because the marker lives in a comment that
    /// canonicalization strips, so a marked design would otherwise ride
    /// a cache hit from its unmarked twin. This is how the
    /// fault-injection harness exercises worker supervision without a
    /// real scheduler bug; production servers leave it disabled.
    pub fault_marker: bool,
    /// Specs with at least this many operations are routed through the
    /// feedback-guided partitioner even when the request does not ask
    /// for it (`0` disables the automatic routing). Requests that set
    /// [`ScheduleOptions::partition`] explicitly always win.
    pub auto_partition_ops: usize,
}

/// Default [`ExecContext::auto_partition_ops`]: specs of this size and
/// above decompose into parallel partitions (a pure function of the
/// design, so one-shot CLI runs and daemon responses stay identical).
pub const DEFAULT_AUTO_PARTITION_OPS: usize = 500;

/// The design token that [`ExecContext::fault_marker`] turns into a
/// deliberate panic (it lives in a `#` comment, so the design parses).
pub const PANIC_MARKER: &str = "#chaos:panic";

fn chaos_panic_check(fault_marker: bool, source: &str) {
    if fault_marker && source.contains(PANIC_MARKER) {
        panic!("chaos: deliberate panic marker in design");
    }
}

impl Default for ExecContext<'_> {
    fn default() -> Self {
        ExecContext {
            cache: None,
            budget: RunBudget::UNLIMITED,
            rec: &NoopRecorder,
            fault_marker: false,
            auto_partition_ops: DEFAULT_AUTO_PARTITION_OPS,
        }
    }
}

/// The partitioned run a request gets: an explicit `--partition` wins,
/// else specs of at least `auto_partition_ops` operations (`0` never)
/// decompose automatically; `None` is a monolithic run.
fn partition_config(
    opts: &ScheduleOptions,
    system: &System,
    auto_partition_ops: usize,
) -> Option<PartitionConfig> {
    opts.partition
        .or_else(|| {
            (auto_partition_ops > 0 && system.num_ops() >= auto_partition_ops)
                .then_some(PartitionCount::Auto)
        })
        .map(|count| PartitionConfig {
            count,
            ..PartitionConfig::default()
        })
}

/// The content address of scheduling `spec` on `system` under `config`
/// and the partition knobs, with the canonicalization it was taken on.
fn content_address(
    system: &System,
    spec: &SharingSpec,
    config: &FdsConfig,
    pcfg: Option<&PartitionConfig>,
) -> (Canonicalization, CacheKey) {
    let canon = Canonicalization::of(system);
    let key = CacheKey {
        spec: canon.hash(),
        config: config_fingerprint_with(system, &canon, spec, config, pcfg),
    };
    (canon, key)
}

/// Computes the content address a schedule request *would* use, without
/// scheduling anything: parse, build the spec, canonicalize,
/// fingerprint. This is what fleet routing keys on — every node derives
/// the same address from the same request bytes, so every node agrees
/// on the owner.
///
/// Returns `None` for requests that bypass the cache (`degrade`): those
/// are never routed, always computed where they land. The budget axes
/// that enter the fingerprint (`max_iterations`, `max_evals`) are
/// always unlimited in the daemon — a deadline only sets the wall
/// clock, which the fingerprint excludes — so the key computed here
/// matches the one [`schedule_request`] computes while executing.
///
/// # Errors
///
/// The same parse/spec classes as [`schedule_request`] — a malformed
/// design fails here exactly as it would fail executing, so callers can
/// simply handle such requests locally.
pub fn request_cache_key(
    source: &str,
    opts: &ScheduleOptions,
    auto_partition_ops: usize,
) -> Result<Option<CacheKey>, ServeError> {
    if opts.degrade {
        return Ok(None);
    }
    let system = load_system(source)?;
    let spec = build_spec(&system, opts.all_global, &opts.globals)?;
    let pcfg = partition_config(opts, &system, auto_partition_ops);
    let (_, key) = content_address(&system, &spec, &FdsConfig::default(), pcfg.as_ref());
    Ok(Some(key))
}

/// Everything a schedule request produced.
#[derive(Debug)]
pub struct ScheduleArtifacts {
    /// The rendered report (the response payload / CLI stdout).
    pub text: String,
    /// The loaded system (for `--save` and binding follow-ups); the
    /// degradation ladder's rewritten system on a `degrade` run.
    pub system: System,
    /// The sharing specification the schedule satisfies (the ladder's
    /// relaxed one on a `degrade` run).
    pub spec: SharingSpec,
    /// The finished schedule.
    pub schedule: Schedule,
    /// How the result was obtained; `Miss` for cache-less runs.
    pub disposition: Disposition,
    /// Frame-reduction iterations *executed by this request* — zero on a
    /// cache hit or coalesced wait (the rendered report still shows the
    /// original run's count).
    pub fresh_iterations: u64,
    /// The content-address of the result, when the cached path computed
    /// one (`None` for cache-less and degrade runs). The daemon's
    /// workload journal records it so replays can be correlated without
    /// re-canonicalizing.
    pub cache_key: Option<CacheKey>,
}

/// One fresh scheduler run — the partitioned driver under `pcfg`, else
/// the monolithic scheduler — verified against the full spec. Returns
/// `(schedule, iterations, partition note)`. A cache miss and a
/// cache-less request both run exactly this, so they render the same
/// bytes.
fn run_fresh(
    system: &System,
    spec: &SharingSpec,
    config: &FdsConfig,
    pcfg: Option<&PartitionConfig>,
    rec: &dyn Recorder,
) -> Result<(Schedule, u64, Option<String>), ServeError> {
    let (schedule, iterations, note) = match pcfg {
        Some(pcfg) => {
            let out = schedule_partitioned_recorded(system, spec.clone(), config, pcfg, rec)?;
            let note = format!(
                "partitioned: {} subgraphs, {} feedback rounds, {} cut edges",
                out.partitions, out.rounds, out.cut_edges
            );
            let iterations = out.iterations();
            (out.schedule, iterations, Some(note))
        }
        None => {
            let outcome = ModuloScheduler::new(system, spec.clone())?
                .with_config(config.clone())
                .run_recorded(rec)?;
            (outcome.schedule, outcome.iterations, None)
        }
    };
    schedule
        .verify(system)
        .map_err(|e| ServeError::Verify(e.to_string()))?;
    Ok((schedule, iterations, note))
}

/// Runs the full schedule pipeline on `source`.
///
/// # Errors
///
/// Returns the typed [`ServeError`] for parse, spec, scheduling and
/// verification failures.
pub fn schedule_request(
    source: &str,
    opts: &ScheduleOptions,
    ctx: &ExecContext<'_>,
) -> Result<ScheduleArtifacts, ServeError> {
    // The marker lives in a comment, which canonicalization strips — a
    // marked design content-addresses to the same cache key as its
    // unmarked twin. Check *before* the cache so an armed marked
    // request panics deterministically instead of riding a cache hit.
    chaos_panic_check(ctx.fault_marker, source);
    let system = load_system(source)?;
    let spec = build_spec(&system, opts.all_global, &opts.globals)?;
    let config = FdsConfig {
        budget: ctx.budget,
        ..FdsConfig::default()
    };
    let pcfg = partition_config(opts, &system, ctx.auto_partition_ops);

    let mut cache_key = None;
    let mut disposition = Disposition::Miss;
    let (system, spec, schedule, iterations, note) = if opts.degrade {
        // The ladder may rewrite the system (relaxed periods, widened
        // time ranges), so its results are not content-addressed by the
        // *input* design — bypass the cache.
        let outcome = schedule_with_degradation_recorded(
            &system,
            &spec,
            &config,
            &LadderConfig::default(),
            ctx.rec,
        )?;
        let note = format!("degradation: {}", outcome.summary());
        (
            outcome.system.unwrap_or(system),
            outcome.spec,
            outcome.schedule,
            outcome.iterations,
            Some(note),
        )
    } else if let Some(cache) = ctx.cache {
        // Monolithic and partitioned runs are both content-addressed:
        // the partition knobs separate the fingerprint, and the
        // partition telemetry note rides inside the cache entry so a
        // hit replays the original run byte for byte.
        let (canon, key) = content_address(&system, &spec, &config, pcfg.as_ref());
        cache_key = Some(key);
        let (result, how) = cache.get_or_compute(key, || {
            let (schedule, iterations, note) =
                run_fresh(&system, &spec, &config, pcfg.as_ref(), ctx.rec)?;
            Ok(CacheableResult {
                note,
                ..CacheableResult::capture(&canon, &schedule, iterations)
            })
        });
        disposition = how;
        let cached = result?;
        let schedule = cached
            .replay(&canon)
            .map_err(|e| ServeError::Verify(format!("cache replay failed: {e}")))?;
        // Replay is re-verified even on hits: a hash collision or
        // corrupt snapshot entry surfaces as a typed error, never as a
        // silently wrong response.
        schedule
            .verify(&system)
            .map_err(|e| ServeError::Verify(format!("cached schedule invalid: {e}")))?;
        (
            system,
            spec,
            schedule,
            cached.iterations,
            cached.note.clone(),
        )
    } else {
        // Cache-less: no canonicalization, the same run a miss makes.
        let (schedule, iterations, note) =
            run_fresh(&system, &spec, &config, pcfg.as_ref(), ctx.rec)?;
        (system, spec, schedule, iterations, note)
    };

    let text = render_schedule_report(
        &system,
        &spec,
        &schedule,
        iterations,
        note.as_deref(),
        opts.gantt,
        opts.verify,
    )?;
    Ok(ScheduleArtifacts {
        text,
        system,
        spec,
        schedule,
        disposition,
        fresh_iterations: if disposition == Disposition::Miss {
            iterations
        } else {
            0
        },
        cache_key,
    })
}

/// Renders the schedule report exactly as `tcms schedule` prints it.
/// `note` is an optional self-describing provenance line (degradation
/// summary, partition telemetry) printed verbatim below the summary.
///
/// # Errors
///
/// Returns [`ServeError::Verify`] when a `--verify` execution check
/// fails.
pub fn render_schedule_report(
    system: &System,
    spec: &SharingSpec,
    schedule: &Schedule,
    iterations: u64,
    note: Option<&str>,
    want_gantt: bool,
    verify: usize,
) -> Result<String, ServeError> {
    let report = tcms_core::compute_report(system, spec, schedule);
    let mut out = String::new();
    let _ = writeln!(out, "{}", display::summary(system));
    if let Some(note) = note {
        let _ = writeln!(out, "{note}");
    }
    let _ = writeln!(out, "iterations: {iterations}");
    for (k, rt) in system.library().iter() {
        let tr = report.of_type(k);
        let _ = write!(out, "{:<8} {:>3} instances", rt.name(), tr.instances());
        if let Some(auth) = &tr.authorization {
            let _ = write!(
                out,
                "  (shared pool {}, period {}",
                auth.pool(),
                auth.period()
            );
            let locals: u32 = tr.local_counts.iter().map(|&(_, c)| c).sum();
            if locals > 0 {
                let _ = write!(out, ", +{locals} local");
            }
            let _ = write!(out, ")");
        }
        out.push('\n');
    }
    let _ = writeln!(out, "total area: {}", report.total_area());

    if verify > 0 {
        for seed in 0..verify as u64 {
            let acts = random_activations(system, spec, schedule, 3, seed);
            check_execution(system, spec, schedule, &report, &acts)
                .map_err(|e| ServeError::Verify(e.to_string()))?;
        }
        let _ = writeln!(
            out,
            "verified {verify} randomized grid-aligned executions: conflict-free"
        );
    }
    if want_gantt {
        let _ = writeln!(out, "\n{}", gantt::render_system(system, schedule));
    }
    Ok(out)
}

/// Options of a simulate request (the CLI's `simulate` flags, without
/// fault injection — reactive-load simulation over the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulateOptions {
    /// Uniform period for all shareable types.
    pub all_global: Option<u32>,
    /// Per-type global assignments.
    pub globals: Vec<(String, u32)>,
    /// Simulated time steps.
    pub horizon: u64,
    /// Workload seed.
    pub seed: u64,
    /// Mean gap of the random triggers.
    pub mean_gap: u64,
}

impl Default for SimulateOptions {
    fn default() -> Self {
        SimulateOptions {
            all_global: None,
            globals: Vec::new(),
            horizon: 5_000,
            seed: 0,
            mean_gap: 50,
        }
    }
}

impl SimulateOptions {
    /// The schedule request a simulation runs on: the same sharing
    /// flags, no report extras.
    #[must_use]
    pub fn schedule_options(&self) -> ScheduleOptions {
        ScheduleOptions {
            all_global: self.all_global,
            globals: self.globals.clone(),
            ..ScheduleOptions::default()
        }
    }
}

/// Everything a simulate request produced.
#[derive(Debug)]
pub struct SimulateArtifacts {
    /// The rendered simulation report (the response payload).
    pub text: String,
    /// How the underlying *schedule* was obtained.
    pub disposition: Disposition,
    /// IFDS iterations executed by this request (zero on a warm hit).
    pub fresh_iterations: u64,
    /// The schedule's content-address, when the cached path computed one.
    pub cache_key: Option<CacheKey>,
}

/// Runs the simulate pipeline: schedule (through the cache when one is
/// given — the simulation itself is not cached) and simulate the
/// reactive workload, rendering exactly the CLI's `simulate` output.
///
/// # Errors
///
/// Same classes as [`schedule_request`].
pub fn simulate_request(
    source: &str,
    opts: &SimulateOptions,
    ctx: &ExecContext<'_>,
) -> Result<SimulateArtifacts, ServeError> {
    let arts = schedule_request(source, &opts.schedule_options(), ctx)?;
    Ok(SimulateArtifacts {
        text: simulate_schedule(&arts, opts, None),
        disposition: arts.disposition,
        fresh_iterations: arts.fresh_iterations,
        cache_key: arts.cache_key,
    })
}

/// Simulates `opts`' random reactive workload on a finished schedule
/// and renders the report exactly as `tcms simulate` prints it. With a
/// fault plan the run injects its faults and the fault metrics are
/// appended below the standard block.
#[must_use]
pub fn simulate_schedule(
    arts: &ScheduleArtifacts,
    opts: &SimulateOptions,
    faults: Option<&FaultPlan>,
) -> String {
    let (system, spec) = (&arts.system, &arts.spec);
    let sim = Simulator::new(system, spec, &arts.schedule);
    let workloads = vec![
        Trigger::Random {
            mean_gap: opts.mean_gap
        };
        system.num_processes()
    ];
    let config = SimConfig {
        horizon: opts.horizon,
        seed: opts.seed,
    };
    let (result, metrics) = match faults {
        Some(plan) => {
            let (result, metrics) = sim.run_with_faults(&workloads, &config, plan);
            (result, Some((plan, metrics)))
        }
        None => (sim.run(&workloads, &config), None),
    };
    let mut out = String::new();
    let _ = writeln!(out, "{}", display::summary(system));
    let _ = writeln!(
        out,
        "simulated {} steps (workload seed {}, mean gap {}): {} activations",
        opts.horizon, opts.seed, opts.mean_gap, result.activations
    );
    let _ = writeln!(
        out,
        "mean wait {:.2}, mean latency {:.2}",
        result.mean_wait, result.mean_latency
    );
    for k in system.library().ids() {
        if spec.is_global(k) {
            let _ = writeln!(
                out,
                "pool {:<8} utilization {:.2}  peak {}/{}",
                system.library().get(k).name(),
                result.utilization[k.index()],
                result.peak_usage[k.index()],
                sim.report().instances(k)
            );
        }
    }
    let _ = writeln!(out, "conflicts vs full pools: {}", result.conflicts.len());
    if let Some((plan, m)) = metrics {
        let _ = writeln!(
            out,
            "fault injection (seed {}): jitter<={} drop-prob={} outage-rate={} \
             repair={} slack={}",
            plan.seed,
            plan.trigger_jitter,
            plan.drop_slot_prob,
            plan.outage_rate,
            plan.repair_time,
            plan.deadline_slack
        );
        let _ = writeln!(out, "  jitter injected:          {}", m.jitter_injected);
        let _ = writeln!(out, "  dropped slots:            {}", m.dropped_slots);
        let _ = writeln!(
            out,
            "  outages:                  {} ({} instance-steps)",
            m.outages, m.outage_instance_steps
        );
        let _ = writeln!(
            out,
            "  authorization violations: {}",
            m.authorization_violations
        );
        let _ = writeln!(out, "  missed deadlines:         {}", m.missed_deadlines);
        let _ = writeln!(out, "  time to drain:            {}", m.time_to_drain);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The same design with every declaration order permuted.
    const SAMPLE_SHUFFLED: &str = "
resource mul delay=2 area=4 pipelined
resource add delay=1 area=1
process B
block body time=8
op a0 add
op m0 mul
edge m0 a0
process A
block body time=8
op a0 add
op m0 mul
edge m0 a0
";

    fn opts_global(period: u32) -> ScheduleOptions {
        ScheduleOptions {
            all_global: Some(period),
            ..ScheduleOptions::default()
        }
    }

    #[test]
    fn cacheless_and_miss_and_hit_render_identical_bytes() {
        let plain = schedule_request(SAMPLE, &opts_global(4), &ExecContext::default()).unwrap();
        assert_eq!(plain.disposition, Disposition::Miss);
        assert!(plain.fresh_iterations > 0);

        let cache = SchedCache::new(16, 2);
        let ctx = ExecContext {
            cache: Some(&cache),
            ..ExecContext::default()
        };
        let miss = schedule_request(SAMPLE, &opts_global(4), &ctx).unwrap();
        assert_eq!(miss.disposition, Disposition::Miss);
        assert_eq!(miss.text, plain.text);

        let hit = schedule_request(SAMPLE, &opts_global(4), &ctx).unwrap();
        assert_eq!(hit.disposition, Disposition::Hit);
        assert_eq!(hit.fresh_iterations, 0, "warm hits do zero IFDS work");
        assert_eq!(hit.text, plain.text);
    }

    #[test]
    fn permuted_design_hits_the_same_entry() {
        let cache = SchedCache::new(16, 2);
        let ctx = ExecContext {
            cache: Some(&cache),
            ..ExecContext::default()
        };
        let miss = schedule_request(SAMPLE, &opts_global(4), &ctx).unwrap();
        let hit = schedule_request(SAMPLE_SHUFFLED, &opts_global(4), &ctx).unwrap();
        assert_eq!(miss.disposition, Disposition::Miss);
        assert_eq!(hit.disposition, Disposition::Hit);
        assert_eq!(hit.fresh_iterations, 0);
        // Same design, same totals — rendered from the replayed schedule
        // against the permuted declaration.
        assert!(hit.text.contains("total area"));
        let area = |t: &str| {
            t.lines()
                .find(|l| l.starts_with("total area"))
                .map(str::to_owned)
        };
        assert_eq!(area(&hit.text), area(&miss.text));
    }

    #[test]
    fn different_config_is_a_different_entry() {
        let cache = SchedCache::new(16, 2);
        let ctx = ExecContext {
            cache: Some(&cache),
            ..ExecContext::default()
        };
        let a = schedule_request(SAMPLE, &opts_global(4), &ctx).unwrap();
        let b = schedule_request(SAMPLE, &opts_global(2), &ctx).unwrap();
        assert_eq!(a.disposition, Disposition::Miss);
        assert_eq!(b.disposition, Disposition::Miss);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn malformed_and_bad_spec_are_typed() {
        let err = schedule_request(
            "resource add delay=zero",
            &ScheduleOptions::default(),
            &ExecContext::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Malformed(_)), "{err:?}");
        let opts = ScheduleOptions {
            globals: vec![("div".into(), 2)],
            ..ScheduleOptions::default()
        };
        let err = schedule_request(SAMPLE, &opts, &ExecContext::default()).unwrap_err();
        assert!(matches!(err, ServeError::Spec(_)), "{err:?}");
        assert_eq!(err.code(), 5);
    }

    #[test]
    fn degrade_requests_bypass_the_cache() {
        let cache = SchedCache::new(16, 2);
        let ctx = ExecContext {
            cache: Some(&cache),
            ..ExecContext::default()
        };
        let opts = ScheduleOptions {
            degrade: true,
            ..opts_global(4)
        };
        let a = schedule_request(SAMPLE, &opts, &ctx).unwrap();
        assert!(cache.is_empty(), "degrade results are never cached");
        assert!(a.fresh_iterations > 0);
    }

    #[test]
    fn partition_requests_are_cached_with_their_note() {
        let cache = SchedCache::new(16, 2);
        let ctx = ExecContext {
            cache: Some(&cache),
            ..ExecContext::default()
        };
        let opts = ScheduleOptions {
            partition: Some(PartitionCount::Fixed(2)),
            ..opts_global(4)
        };
        let a = schedule_request(SAMPLE, &opts, &ctx).unwrap();
        assert_eq!(cache.len(), 1, "partitioned results are content-addressed");
        assert_eq!(a.disposition, Disposition::Miss);
        assert!(a.fresh_iterations > 0);
        assert!(
            a.text.contains("partitioned: 2 subgraphs"),
            "report names the split: {}",
            a.text
        );
        // The hit replays the stored note: identical bytes, zero work.
        let b = schedule_request(SAMPLE, &opts, &ctx).unwrap();
        assert_eq!(b.disposition, Disposition::Hit);
        assert_eq!(b.fresh_iterations, 0);
        assert_eq!(b.text, a.text, "partitioned hits are byte-identical");
        // A different K is a different content address, and the plain
        // (monolithic) run is a third one.
        let opts4 = ScheduleOptions {
            partition: Some(PartitionCount::Fixed(4)),
            ..opts_global(4)
        };
        let c = schedule_request(SAMPLE, &opts4, &ctx).unwrap();
        assert_eq!(c.disposition, Disposition::Miss);
        let plain = schedule_request(SAMPLE, &opts_global(4), &ctx).unwrap();
        assert_eq!(plain.disposition, Disposition::Miss);
        assert!(!plain.text.contains("partitioned:"));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn cacheless_and_cached_partition_runs_render_identical_bytes() {
        let opts = ScheduleOptions {
            partition: Some(PartitionCount::Fixed(2)),
            ..opts_global(4)
        };
        let plain = schedule_request(SAMPLE, &opts, &ExecContext::default()).unwrap();
        let cache = SchedCache::new(16, 2);
        let ctx = ExecContext {
            cache: Some(&cache),
            ..ExecContext::default()
        };
        let miss = schedule_request(SAMPLE, &opts, &ctx).unwrap();
        let hit = schedule_request(SAMPLE, &opts, &ctx).unwrap();
        assert_eq!(miss.text, plain.text);
        assert_eq!(hit.text, plain.text);
    }

    #[test]
    fn single_partition_renders_identical_bytes_to_monolithic() {
        let plain = schedule_request(SAMPLE, &opts_global(4), &ExecContext::default()).unwrap();
        let opts = ScheduleOptions {
            partition: Some(PartitionCount::Fixed(1)),
            ..opts_global(4)
        };
        let one = schedule_request(SAMPLE, &opts, &ExecContext::default()).unwrap();
        // K=1 delegates to the monolithic scheduler; only the note line
        // differs from a plain run.
        let strip = |t: &str| {
            t.lines()
                .filter(|l| !l.starts_with("partitioned:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&one.text), strip(&plain.text));
        assert!(one.text.contains("partitioned: 1 subgraphs"));
    }

    #[test]
    fn auto_partition_threshold_routes_large_specs() {
        // Threshold at/below the op count → auto-partitioned note; the
        // explicit field still wins over the context default.
        let ctx = ExecContext {
            auto_partition_ops: 4,
            ..ExecContext::default()
        };
        let auto = schedule_request(SAMPLE, &opts_global(4), &ctx).unwrap();
        assert!(auto.text.contains("partitioned:"), "{}", auto.text);
        let off = ExecContext {
            auto_partition_ops: 0,
            ..ExecContext::default()
        };
        let plain = schedule_request(SAMPLE, &opts_global(4), &off).unwrap();
        assert!(!plain.text.contains("partitioned:"));
    }

    #[test]
    fn request_cache_key_matches_the_executed_key() {
        let cache = SchedCache::new(16, 2);
        let ctx = ExecContext {
            cache: Some(&cache),
            ..ExecContext::default()
        };
        for opts in [
            opts_global(4),
            opts_global(2),
            ScheduleOptions {
                partition: Some(PartitionCount::Fixed(2)),
                ..opts_global(4)
            },
        ] {
            let routed = request_cache_key(SAMPLE, &opts, ctx.auto_partition_ops).unwrap();
            let executed = schedule_request(SAMPLE, &opts, &ctx).unwrap().cache_key;
            assert_eq!(routed, executed, "{opts:?}");
            assert!(routed.is_some());
        }
        // Isomorphic designs route to the same address.
        let a = request_cache_key(SAMPLE, &opts_global(4), 0).unwrap();
        let b = request_cache_key(SAMPLE_SHUFFLED, &opts_global(4), 0).unwrap();
        assert_eq!(a, b);
        // Degrade requests are never routed.
        let degrade = ScheduleOptions {
            degrade: true,
            ..opts_global(4)
        };
        assert_eq!(request_cache_key(SAMPLE, &degrade, 0).unwrap(), None);
        // The auto-partition threshold changes the address exactly as it
        // changes execution.
        let auto = request_cache_key(SAMPLE, &opts_global(4), 4).unwrap();
        assert_ne!(auto, a, "auto-partitioned specs address differently");
    }

    #[test]
    fn fault_marker_panics_only_when_armed() {
        let marked = format!("{SAMPLE}{PANIC_MARKER}\n");
        let armed = ExecContext {
            fault_marker: true,
            ..ExecContext::default()
        };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            schedule_request(&marked, &opts_global(4), &armed)
        }));
        assert!(panicked.is_err(), "marker + armed context panics");
        // Disarmed, the marker is an ordinary `#` comment: the design
        // schedules normally and renders the usual report.
        let ok = schedule_request(&marked, &opts_global(4), &ExecContext::default()).unwrap();
        assert!(ok.text.contains("total area"));
    }

    #[test]
    fn simulate_renders_and_uses_cache_for_scheduling() {
        let cache = SchedCache::new(16, 2);
        let ctx = ExecContext {
            cache: Some(&cache),
            ..ExecContext::default()
        };
        let opts = SimulateOptions {
            all_global: Some(4),
            horizon: 500,
            ..SimulateOptions::default()
        };
        let a = simulate_request(SAMPLE, &opts, &ctx).unwrap();
        let b = simulate_request(SAMPLE, &opts, &ctx).unwrap();
        assert_eq!(a.disposition, Disposition::Miss);
        assert_eq!(b.disposition, Disposition::Hit);
        assert!(a.fresh_iterations > 0);
        assert_eq!(b.fresh_iterations, 0);
        assert_eq!(a.cache_key, b.cache_key);
        assert!(a.cache_key.is_some(), "cached runs expose their key");
        assert_eq!(a.text, b.text, "simulation output is deterministic");
        assert!(a.text.contains("simulated 500 steps"));
    }
}
