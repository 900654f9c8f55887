//! The improved force-directed scheduling engine (Verhaegh et al.).
//!
//! The engine implements *gradual time-frame reduction*: per iteration it
//! evaluates, for every not-yet-fixed operation in scope, the force of the
//! two extreme placements (ASAP and ALAP end of the time frame), selects
//! the operation with the maximal force difference and shortens its frame
//! by one step on the side with the higher force. Implied frame reductions
//! of predecessors/successors are propagated and priced into the force.
//!
//! The force model itself is pluggable (see
//! [`ForceEvaluator`]); this hook is exactly what
//! the paper's modulo extension plugs into.
//!
//! # Incremental evaluation
//!
//! One reduction iteration touches the frames of a single block, yet the
//! classical loop re-evaluates the candidate forces of *every* unfixed
//! operation. [`IfdsEngine::run`] therefore keeps a per-operation cache of
//! the extreme-placement force pair `(f_lo, f_hi)`, keyed by
//!
//! * the frame generation of the operation's block (advanced by
//!   [`tcms_ir::FrameTable`] change tracking), and
//! * the evaluator's [`ForceEvaluator::context_stamp`] for that block.
//!
//! When both stamps are unchanged since the pair was computed, the force
//! would evaluate to bit-identical values, so the cached pair is reused.
//! [`IfdsEngine::run_naive`] runs the identical selection loop without the
//! cache and serves as the oracle: its outcome must match `run` exactly.
//!
//! # The candidate sweep
//!
//! One iteration runs three sequential passes in scope order: consult the
//! cache and collect the force pairs that must be computed, score every
//! extreme placement of those pairs in one [`ForceEvaluator::force_batch`]
//! call, then fold the selection. Pass 2 builds each placement's implied
//! changes cone-locally (see [`IfdsEngine::implied_changes`]) and appends
//! them back to back into one flat buffer that the run loop reuses across
//! iterations, so the sweep allocates nothing per candidate. The epsilon
//! tie-break of the selection (`diff > best + 1e-12`) is *non-associative*,
//! which is why pass 3 is an index-ordered fold. The engine never fans out
//! itself: parallelism lives at coarser grain (the partition shards and
//! the period search), and every engine run is
//! bit-identical at every thread count — the determinism suite and the
//! `run_naive` oracle pin this down.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use tcms_ir::frames::constrained_frames;
use tcms_ir::{BlockId, FrameTable, OpId, System, TimeFrame};
use tcms_obs::{span, NoopRecorder, Recorder, TimelinePoint};

use crate::config::RunBudget;
use crate::error::{BudgetAxis, EngineError};
use crate::evaluator::ForceEvaluator;
use crate::schedule::Schedule;

/// Instrumentation counters of one engine run (or several merged ones).
///
/// Wall-clock fields are measured with [`Instant`] and are inherently
/// non-deterministic; they are excluded from [`IfdsOutcome`] equality.
#[derive(Debug, Clone, Copy, Default)]
pub struct IfdsStats {
    /// Frame-reduction iterations performed.
    pub iterations: u64,
    /// Candidate force pairs `(f_lo, f_hi)` computed by the evaluator.
    pub ops_evaluated: u64,
    /// Candidate force pairs served from the incremental cache.
    pub cache_hits: u64,
    /// Candidate force pairs that had to be recomputed although the cache
    /// was enabled (stamp moved). `ops_evaluated - cache_misses` pairs were
    /// computed with caching unavailable or disabled.
    pub cache_misses: u64,
    /// Candidate force pairs evaluated through the evaluator's batched
    /// entry point ([`ForceEvaluator::force_batch`]) instead of one
    /// `force` call per placement. A subset of `ops_evaluated`.
    pub batched_evals: u64,
    /// Wall time spent in the candidate-evaluation phase.
    pub eval_time: Duration,
    /// Wall time spent committing changes (evaluator update + frames).
    pub commit_time: Duration,
    /// Total wall time of the run.
    pub total_time: Duration,
}

impl IfdsStats {
    /// Accumulates `other` into `self` (used when merging per-block runs).
    pub fn absorb(&mut self, other: &IfdsStats) {
        self.iterations += other.iterations;
        self.ops_evaluated += other.ops_evaluated;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.batched_evals += other.batched_evals;
        self.eval_time += other.eval_time;
        self.commit_time += other.commit_time;
        self.total_time += other.total_time;
    }

    /// Fraction of candidate pairs served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Folds these counters into a recorder's metrics registry, so legacy
    /// stats blocks and the new observability layer report one consistent
    /// set of numbers. Wall-clock phases land in `*_us` counters.
    pub fn publish(&self, rec: &dyn Recorder) {
        if !rec.enabled() {
            return;
        }
        rec.counter_add("ifds.iterations", self.iterations);
        rec.counter_add("ifds.ops_evaluated", self.ops_evaluated);
        rec.counter_add("ifds.cache_hits", self.cache_hits);
        rec.counter_add("ifds.cache_misses", self.cache_misses);
        rec.counter_add("ifds.batched_evals", self.batched_evals);
        rec.counter_add("ifds.eval_us", self.eval_time.as_micros() as u64);
        rec.counter_add("ifds.commit_us", self.commit_time.as_micros() as u64);
        rec.counter_add("ifds.total_us", self.total_time.as_micros() as u64);
        rec.gauge_set("ifds.hit_rate", self.hit_rate());
    }
}

/// Result of an engine run.
///
/// Equality compares the deterministic outcome only (schedule and
/// iteration count); the wall-clock instrumentation in
/// [`IfdsOutcome::stats`] is ignored.
#[derive(Debug, Clone)]
pub struct IfdsOutcome {
    /// The final schedule (covering the ops of the engine's scope).
    pub schedule: Schedule,
    /// Number of frame-reduction iterations performed.
    pub iterations: u64,
    /// Instrumentation of the run that produced the schedule.
    pub stats: IfdsStats,
}

impl PartialEq for IfdsOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.schedule == other.schedule && self.iterations == other.iterations
    }
}

impl Eq for IfdsOutcome {}

/// Where one candidate's force pair comes from in the current iteration:
/// the incremental cache, or pair `j` of the freshly evaluated batch.
#[derive(Clone, Copy)]
enum CandSource {
    Cached(f64, f64),
    Pending(usize),
}

/// One force pair awaiting evaluation: the op, its time frame, and the
/// cache write-back key `(block generation, context stamp)` when the
/// incremental cache is on.
type PendingEval = (OpId, TimeFrame, Option<(u64, u64)>);

/// Cone-local pin propagation: the block topological positions, computed
/// once per engine, plus scratch reused across every pin.
struct Cone {
    /// `topo_pos[o]`: position of `o` in its block's topological order.
    topo_pos: Vec<u32>,
    /// New bound of each op the current pin moves (the pinned op
    /// excluded): the raised ASAP downstream, the lowered ALAP upstream.
    /// `None` outside the cone; reset before [`Cone::pin_into`] returns.
    bound: Vec<Option<u32>>,
    /// Pending downstream members, popped in ascending topological order.
    forward: BinaryHeap<Reverse<u32>>,
    /// Pending upstream members, popped in descending topological order.
    backward: BinaryHeap<u32>,
}

impl Cone {
    fn new(system: &System) -> Self {
        let n = system.num_ops();
        let mut topo_pos = vec![0; n];
        for b in system.block_ids() {
            for (pos, &o) in system.topo_order(b).iter().enumerate() {
                topo_pos[o.index()] = u32::try_from(pos).expect("block size fits u32");
            }
        }
        Cone {
            topo_pos,
            bound: vec![None; n],
            forward: BinaryHeap::new(),
            backward: BinaryHeap::new(),
        }
    }

    /// Appends to `out` the frame changes implied by pinning `op` to
    /// `frame`, `op` itself included, in the block's topological order —
    /// exactly the changed entries of [`constrained_frames`], in its
    /// order (checked against it in debug builds).
    ///
    /// Only the affected cone is visited: raising the ASAP raises ASAPs
    /// along successor chains, lowering the ALAP lowers ALAPs along
    /// predecessor chains, and nothing else can move. That holds because
    /// `frames` is a fixpoint of [`constrained_frames`] (see
    /// [`IfdsEngine::implied_changes`]): every unchanged op already
    /// satisfies its precedence bounds. Upstream members precede `op` in
    /// topological order and downstream ones follow it, so emitting the
    /// upstream cone ascending, then `op`, then the downstream cone
    /// ascending reproduces the oracle's order.
    fn pin_into(
        &mut self,
        system: &System,
        frames: &FrameTable,
        op: OpId,
        frame: TimeFrame,
        out: &mut Vec<(OpId, TimeFrame)>,
    ) {
        let current = frames.get(op);
        assert!(
            current.intersect(frame) == Some(frame),
            "pinned frame must be within the current frame"
        );
        let order = system.topo_order(system.op(op).block());
        let start = out.len();
        if frame.alap < current.alap {
            self.lower_preds(system, frames, op, frame.alap);
            while let Some(pos) = self.backward.pop() {
                let q = order[pos as usize];
                let alap = self.bound[q.index()].expect("queued ops are bounded");
                self.lower_preds(system, frames, q, alap);
                out.push((q, TimeFrame::new(frames.get(q).asap, alap)));
            }
            out[start..].reverse();
        }
        if frame != current {
            out.push((op, frame));
        }
        if frame.asap > current.asap {
            self.raise_succs(system, frames, op, frame.asap);
            while let Some(Reverse(pos)) = self.forward.pop() {
                let q = order[pos as usize];
                let asap = self.bound[q.index()].expect("queued ops are bounded");
                self.raise_succs(system, frames, q, asap);
                out.push((q, TimeFrame::new(asap, frames.get(q).alap)));
            }
        }
        for &(q, _) in &out[start..] {
            self.bound[q.index()] = None;
        }
        debug_assert_eq!(
            &out[start..],
            solved_changes(system, frames, op, frame).as_slice(),
            "cone propagation diverged from constrained_frames"
        );
    }

    /// Lowers the ALAP of every predecessor of `q` that must start by
    /// `alap - delay` and queues the ones that moved.
    fn lower_preds(&mut self, system: &System, frames: &FrameTable, q: OpId, alap: u32) {
        for &p in system.preds(q) {
            let b = alap - system.delay(p);
            let slot = &mut self.bound[p.index()];
            if b < slot.unwrap_or(frames.get(p).alap) && slot.replace(b).is_none() {
                self.backward.push(self.topo_pos[p.index()]);
            }
        }
    }

    /// Raises the ASAP of every successor of `q`, which cannot start
    /// before `asap + delay(q)`, and queues the ones that moved.
    fn raise_succs(&mut self, system: &System, frames: &FrameTable, q: OpId, asap: u32) {
        let b = asap + system.delay(q);
        for &s in system.succs(q) {
            let slot = &mut self.bound[s.index()];
            if b > slot.unwrap_or(frames.get(s).asap) && slot.replace(b).is_none() {
                self.forward.push(Reverse(self.topo_pos[s.index()]));
            }
        }
    }
}

/// The reference for [`Cone::pin_into`]: re-solve `op`'s whole block with
/// [`constrained_frames`] and keep the frames that changed.
fn solved_changes(
    system: &System,
    frames: &FrameTable,
    op: OpId,
    frame: TimeFrame,
) -> Vec<(OpId, TimeFrame)> {
    let block = system.op(op).block();
    constrained_frames(
        system,
        block,
        |q| if q == op { frame } else { frames.get(q) },
    )
    .expect("pinning inside a consistent frame stays feasible")
    .into_iter()
    .filter(|&(q, f)| f != frames.get(q))
    .collect()
}

/// Improved-FDS scheduling engine over a set of blocks.
pub struct IfdsEngine<'a> {
    system: &'a System,
    scope_ops: Vec<OpId>,
    frames: FrameTable,
    budget: RunBudget,
    cone: RefCell<Cone>,
}

impl<'a> IfdsEngine<'a> {
    /// Creates an engine scheduling the blocks in `scope` simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `scope` is empty.
    pub fn new(system: &'a System, scope: Vec<BlockId>) -> Self {
        assert!(!scope.is_empty(), "empty scheduling scope");
        let scope_ops = scope
            .iter()
            .flat_map(|&b| system.block(b).ops().iter().copied())
            .collect();
        IfdsEngine {
            system,
            scope_ops,
            frames: FrameTable::initial(system),
            budget: RunBudget::UNLIMITED,
            cone: RefCell::new(Cone::new(system)),
        }
    }

    /// Replaces the engine's run budget (unlimited by default). The budget
    /// is enforced by the watchdog inside the reduction loop; tripping it
    /// aborts the run with [`EngineError::BudgetExhausted`].
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The current frame table (initial ASAP/ALAP before [`IfdsEngine::run`]).
    pub fn frames(&self) -> &FrameTable {
        &self.frames
    }

    /// Frame changes implied by constraining `op` to `frame`, including
    /// `op` itself. Only actually-changing frames are listed, in the
    /// topological order of `op`'s block.
    ///
    /// The result equals re-solving the block with [`constrained_frames`]
    /// and keeping the frames that changed, but only the affected cone is
    /// visited: predecessors when the ALAP drops, successors when the ASAP
    /// rises. Debug builds check every call against that oracle.
    ///
    /// Precondition: the frame table is a fixpoint of
    /// [`constrained_frames`], i.e. every frame already satisfies its
    /// precedence bounds. [`FrameTable::initial`] is one, and the engine
    /// only ever applies change sets produced here, which keep it one.
    /// Callers of [`IfdsEngine::apply`] must do the same.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a sub-range of `op`'s current frame (such a
    /// pin could be infeasible).
    pub fn implied_changes(&self, op: OpId, frame: TimeFrame) -> Vec<(OpId, TimeFrame)> {
        let mut out = Vec::new();
        self.cone
            .borrow_mut()
            .pin_into(self.system, &self.frames, op, frame, &mut out);
        out
    }

    /// Applies committed frame changes to the engine's table. Drivers that
    /// reuse the engine's propagation (like the original-FDS baseline) call
    /// this after [`ForceEvaluator::commit`], with a change set from
    /// [`IfdsEngine::implied_changes`].
    pub fn apply(&mut self, changes: &[(OpId, TimeFrame)]) {
        for &(q, f) in changes {
            self.frames.set(q, f);
        }
    }

    /// Force of tentatively placing `op` at start time `t`.
    pub fn placement_force<E: ForceEvaluator>(&self, eval: &E, op: OpId, t: u32) -> f64 {
        let changes = self.implied_changes(op, TimeFrame::new(t, t));
        eval.force(&self.frames, &changes)
    }

    /// Runs gradual time-frame reduction to completion and extracts the
    /// schedule, reusing cached candidate forces for operations whose block
    /// frames and evaluator context are untouched since the last iteration.
    ///
    /// Produces a schedule identical to [`IfdsEngine::run_naive`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BudgetExhausted`] if a budget installed with
    /// [`IfdsEngine::with_budget`] trips before every frame is fixed. With
    /// the default unlimited budget the run always succeeds.
    pub fn run<E: ForceEvaluator>(self, eval: &mut E) -> Result<IfdsOutcome, EngineError> {
        self.run_impl(eval, true, true, &NoopRecorder)
    }

    /// [`IfdsEngine::run`] with observability: spans, per-iteration
    /// convergence samples and final counters flow into `rec`. Recording
    /// is read-only observation — the outcome is bit-identical to
    /// [`IfdsEngine::run`] (the integration suite asserts this).
    ///
    /// # Errors
    ///
    /// Same as [`IfdsEngine::run`]. On a budget trip an
    /// `ifds.budget_exhausted` event carrying the partial-progress counters
    /// is emitted through `rec` before the error is returned.
    pub fn run_recorded<E: ForceEvaluator>(
        self,
        eval: &mut E,
        rec: &dyn Recorder,
    ) -> Result<IfdsOutcome, EngineError> {
        self.run_impl(eval, true, true, rec)
    }

    /// Reference run without the candidate-force cache and without batched
    /// evaluation: every candidate placement is re-evaluated with its own
    /// [`ForceEvaluator::force`] call each iteration, exactly like the
    /// pre-incremental engine. Kept as the equivalence oracle for tests
    /// and benches — matching it pins both the cache and the batched path.
    ///
    /// # Errors
    ///
    /// Same as [`IfdsEngine::run`].
    #[cfg(any(test, feature = "naive-oracle"))]
    pub fn run_naive<E: ForceEvaluator>(self, eval: &mut E) -> Result<IfdsOutcome, EngineError> {
        self.run_impl(eval, false, false, &NoopRecorder)
    }

    /// Returns the budget axis that is exhausted given the loop counters,
    /// if any. Iteration/eval limits are checked before the wall clock so
    /// deterministic axes win ties against the non-deterministic one.
    fn tripped_axis(&self, iterations: u64, evals: u64, started: Instant) -> Option<BudgetAxis> {
        let b = &self.budget;
        if b.max_iterations.is_some_and(|cap| iterations >= cap) {
            Some(BudgetAxis::Iterations)
        } else if b.max_evals.is_some_and(|cap| evals >= cap) {
            Some(BudgetAxis::Evaluations)
        } else if b.wall_deadline.is_some_and(|cap| started.elapsed() >= cap) {
            Some(BudgetAxis::WallClock)
        } else {
            None
        }
    }

    fn run_impl<E: ForceEvaluator>(
        mut self,
        eval: &mut E,
        use_cache: bool,
        use_batch: bool,
        rec: &dyn Recorder,
    ) -> Result<IfdsOutcome, EngineError> {
        let run_started = Instant::now();
        let _reduce_span = span!(rec, "ifds.reduce", ops = self.scope_ops.len());
        let mut stats = IfdsStats::default();
        // cache[op] = (block frame generation, evaluator context stamp,
        // f_lo, f_hi) at computation time. The sentinel generation
        // `u64::MAX` is unreachable (generations count frame mutations), so
        // fresh entries never match.
        let mut cache: Vec<(u64, u64, f64, f64)> = if use_cache {
            vec![(u64::MAX, u64::MAX, 0.0, 0.0); self.system.num_ops()]
        } else {
            Vec::new()
        };
        // Frame generation of the youngest change per block, mirrored off
        // the table's per-op stamps as commits are applied.
        let mut block_gen: Vec<u64> = vec![0; self.system.num_blocks()];
        // Per-iteration scratch, reused across iterations: every unfixed
        // candidate in scope order (`cands`), the subset whose force pair
        // must be computed this iteration (`to_eval`, with the cache
        // write-back key when the cache is on), and the implied changes of
        // every pending placement back to back in one flat buffer —
        // placement `i` is `changes[offsets[i]..offsets[i + 1]]`, pair `j`
        // owns placements `2j` (ASAP) and `2j + 1` (ALAP).
        let mut cands: Vec<(OpId, CandSource)> = Vec::new();
        let mut to_eval: Vec<PendingEval> = Vec::new();
        let mut changes: Vec<(OpId, TimeFrame)> = Vec::new();
        let mut offsets: Vec<usize> = Vec::new();
        let mut iterations = 0;
        let watchdog_armed = !self.budget.is_unlimited();
        loop {
            if watchdog_armed {
                if let Some(axis) = self.tripped_axis(iterations, stats.ops_evaluated, run_started)
                {
                    let unfixed_ops = self
                        .scope_ops
                        .iter()
                        .filter(|&&q| !self.frames.get(q).is_fixed())
                        .count();
                    if unfixed_ops == 0 {
                        // All frames are already fixed: the run is complete,
                        // not aborted — fall through to schedule extraction.
                        break;
                    }
                    let elapsed = run_started.elapsed();
                    stats.iterations = iterations;
                    stats.total_time = elapsed;
                    // Partial-progress report: the counters so far plus the
                    // trip event, so a tripped run is still observable.
                    if rec.enabled() {
                        rec.event(
                            "ifds.budget_exhausted",
                            &[
                                ("axis", format!("{axis}").into()),
                                ("iterations", iterations.into()),
                                ("evals", stats.ops_evaluated.into()),
                                ("unfixed_ops", unfixed_ops.into()),
                            ],
                        );
                    }
                    stats.publish(rec);
                    return Err(EngineError::BudgetExhausted {
                        axis,
                        iterations,
                        evals: stats.ops_evaluated,
                        unfixed_ops,
                        elapsed,
                    });
                }
            }
            let eval_started = Instant::now();
            // Pass 1 (sequential, scope order): consult the cache and
            // collect the force pairs that actually need computing.
            cands.clear();
            to_eval.clear();
            for &o in &self.scope_ops {
                let fr = self.frames.get(o);
                if fr.is_fixed() {
                    continue;
                }
                let src = if use_cache {
                    let block = self.system.op(o).block();
                    match eval.context_stamp(block) {
                        Some(ctx) => {
                            let gen = block_gen[block.index()];
                            let entry = cache[o.index()];
                            if entry.0 == gen && entry.1 == ctx {
                                stats.cache_hits += 1;
                                CandSource::Cached(entry.2, entry.3)
                            } else {
                                stats.cache_misses += 1;
                                stats.ops_evaluated += 1;
                                to_eval.push((o, fr, Some((gen, ctx))));
                                CandSource::Pending(to_eval.len() - 1)
                            }
                        }
                        None => {
                            stats.ops_evaluated += 1;
                            to_eval.push((o, fr, None));
                            CandSource::Pending(to_eval.len() - 1)
                        }
                    }
                } else {
                    stats.ops_evaluated += 1;
                    to_eval.push((o, fr, None));
                    CandSource::Pending(to_eval.len() - 1)
                };
                cands.push((o, src));
            }
            // Pass 2: build the implied changes of both extreme placements
            // of every pending pair, then score them all — in one
            // `force_batch` call, so the evaluator shares candidate-
            // independent intermediates across the whole sweep, or with one
            // `force` call per placement on the reference path.
            changes.clear();
            offsets.clear();
            offsets.push(0);
            {
                let mut cone = self.cone.borrow_mut();
                for &(o, fr, _) in &to_eval {
                    for t in [fr.asap, fr.alap] {
                        let pin = TimeFrame::new(t, t);
                        cone.pin_into(self.system, &self.frames, o, pin, &mut changes);
                        offsets.push(changes.len());
                    }
                }
            }
            let placements = offsets.windows(2).map(|w| &changes[w[0]..w[1]]);
            let forces: Vec<f64> = if use_batch {
                stats.batched_evals += to_eval.len() as u64;
                let views: Vec<&[(OpId, TimeFrame)]> = placements.collect();
                eval.force_batch(&self.frames, &views)
            } else {
                placements.map(|c| eval.force(&self.frames, c)).collect()
            };
            // Pass 3 (scope order): cache write-back and the selection fold.
            // The epsilon tie-break is non-associative, so this fold must
            // run in scope order.
            let mut best: Option<(f64, OpId, bool)> = None;
            for &(o, src) in &cands {
                let (f_lo, f_hi) = match src {
                    CandSource::Cached(f_lo, f_hi) => (f_lo, f_hi),
                    CandSource::Pending(j) => {
                        let (f_lo, f_hi) = (forces[2 * j], forces[2 * j + 1]);
                        if let Some((gen, ctx)) = to_eval[j].2 {
                            cache[o.index()] = (gen, ctx, f_lo, f_hi);
                        }
                        (f_lo, f_hi)
                    }
                };
                let diff = (f_lo - f_hi).abs();
                // Shorten at the side with the higher force; on a tie keep
                // the ASAP end (deterministic stand-in for the paper's
                // "arbitrarily selects").
                let cut_low = f_lo > f_hi;
                if best.as_ref().is_none_or(|b| diff > b.0 + 1e-12) {
                    best = Some((diff, o, cut_low));
                }
            }
            let eval_elapsed = eval_started.elapsed();
            stats.eval_time += eval_elapsed;
            let Some((best_diff, o, cut_low)) = best else {
                break;
            };
            let commit_started = Instant::now();
            let fr = self.frames.get(o);
            let nf = if cut_low {
                TimeFrame::new(fr.asap + 1, fr.alap)
            } else {
                TimeFrame::new(fr.asap, fr.alap - 1)
            };
            changes.clear();
            self.cone
                .get_mut()
                .pin_into(self.system, &self.frames, o, nf, &mut changes);
            eval.commit(&self.frames, &changes);
            for &(q, f) in &changes {
                self.frames.set(q, f);
            }
            if use_cache {
                for &(q, _) in &changes {
                    block_gen[self.system.op(q).block().index()] = self.frames.generation();
                }
            }
            let commit_elapsed = commit_started.elapsed();
            stats.commit_time += commit_elapsed;
            iterations += 1;
            // Observation only: everything below reads state, never writes
            // it, so the reduction sequence is identical with recording on.
            if rec.enabled() {
                let unfixed = self
                    .scope_ops
                    .iter()
                    .filter(|&&q| !self.frames.get(q).is_fixed())
                    .count();
                rec.histogram_record("ifds.iter_eval_us", eval_elapsed.as_micros() as f64);
                rec.histogram_record("ifds.iter_commit_us", commit_elapsed.as_micros() as f64);
                rec.event(
                    "ifds.cut",
                    &[
                        ("op", o.index().into()),
                        ("low_side", cut_low.into()),
                        ("force_diff", best_diff.into()),
                    ],
                );
                rec.timeline(TimelinePoint {
                    phase: "ifds",
                    iteration: iterations,
                    values: vec![
                        ("force_diff".into(), best_diff),
                        ("unfixed_ops".into(), unfixed as f64),
                    ],
                });
                eval.record_iteration(rec, iterations);
            }
        }
        let mut schedule = Schedule::new(self.system.num_ops());
        for &o in &self.scope_ops {
            schedule.set(o, self.frames.fixed_start(o));
        }
        stats.iterations = iterations;
        stats.total_time = run_started.elapsed();
        stats.publish(rec);
        Ok(IfdsOutcome {
            schedule,
            iterations,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FdsConfig, SpringWeights};
    use crate::evaluator::ClassicEvaluator;
    use tcms_ir::generators::{add_ewf_process, paper_library};
    use tcms_ir::{ResourceLibrary, ResourceType, SystemBuilder};

    fn two_adder_block() -> (System, BlockId, Vec<OpId>) {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let blk = b.add_block(p, "b", 2).unwrap();
        let x = b.add_op(blk, "x", add).unwrap();
        let y = b.add_op(blk, "y", add).unwrap();
        (b.build().unwrap(), blk, vec![x, y])
    }

    #[test]
    fn engine_balances_two_independent_adders() {
        let (sys, blk, ops) = two_adder_block();
        let cfg = FdsConfig {
            lookahead: 1.0 / 3.0,
            spring_weights: SpringWeights::Uniform,
            ..FdsConfig::default()
        };
        let mut eval = ClassicEvaluator::new(&sys, &[blk], cfg);
        let out = IfdsEngine::new(&sys, vec![blk]).run(&mut eval).unwrap();
        out.schedule.verify(&sys).unwrap();
        let s0 = out.schedule.expect_start(ops[0]);
        let s1 = out.schedule.expect_start(ops[1]);
        assert_ne!(s0, s1, "FDS must spread the two adders over both steps");
        let add = sys.library().by_name("add").unwrap();
        assert_eq!(out.schedule.peak_usage(&sys, blk, add), 1);
        assert!(out.iterations >= 1);
    }

    #[test]
    fn chain_is_scheduled_respecting_precedence() {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let mul = lib.add(ResourceType::new("mul", 2).pipelined()).unwrap();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let blk = b.add_block(p, "b", 8).unwrap();
        let a = b.add_op(blk, "a", add).unwrap();
        let m = b.add_op(blk, "m", mul).unwrap();
        let c = b.add_op(blk, "c", add).unwrap();
        b.add_dep(a, m).unwrap();
        b.add_dep(m, c).unwrap();
        let sys = b.build().unwrap();
        let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
        let out = IfdsEngine::new(&sys, vec![blk]).run(&mut eval).unwrap();
        out.schedule.verify(&sys).unwrap();
    }

    #[test]
    fn implied_changes_propagate() {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let blk = b.add_block(p, "b", 3).unwrap();
        let x = b.add_op(blk, "x", add).unwrap();
        let y = b.add_op(blk, "y", add).unwrap();
        b.add_dep(x, y).unwrap();
        let sys = b.build().unwrap();
        let eng = IfdsEngine::new(&sys, vec![blk]);
        // Pin x to 2 -> y is forced from [1,2] to [3,...]? No: range is 3,
        // y in [1,2]; x at [0,1]. Pin x to 1 -> y forced to 2.
        let ch = eng.implied_changes(x, TimeFrame::new(1, 1));
        assert!(ch.contains(&(x, TimeFrame::new(1, 1))));
        assert!(ch.contains(&(y, TimeFrame::new(2, 2))));
    }

    /// A chain `a -> b -> c -> d` plus a diamond `d -> {m, e} -> f` with a
    /// two-step multiplier: pins cascade over several levels in both
    /// directions and must reproduce the full-block re-solve exactly.
    #[test]
    fn implied_changes_cascade_over_several_levels() {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let mul = lib.add(ResourceType::new("mul", 2).pipelined()).unwrap();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let blk = b.add_block(p, "b", 10).unwrap();
        let ops: Vec<OpId> = ["a", "b", "c", "d", "m", "e", "f"]
            .iter()
            .map(|&n| b.add_op(blk, n, if n == "m" { mul } else { add }).unwrap())
            .collect();
        let [a, bb, c, d, m, e, f] = ops[..] else {
            unreachable!()
        };
        for (x, y) in [(a, bb), (bb, c), (c, d), (d, m), (d, e), (m, f), (e, f)] {
            b.add_dep(x, y).unwrap();
        }
        let sys = b.build().unwrap();
        let topo = sys.topo_order(blk);
        let in_topo_order = |mut v: Vec<(OpId, TimeFrame)>| {
            v.sort_by_key(|&(o, _)| topo.iter().position(|&q| q == o));
            v
        };
        let eng = IfdsEngine::new(&sys, vec![blk]);
        // Slack 3 everywhere on the critical path a-b-c-d-m-f.
        assert_eq!(eng.frames().get(a), TimeFrame::new(0, 3));
        assert_eq!(eng.frames().get(e), TimeFrame::new(4, 8));
        assert_eq!(eng.frames().get(f), TimeFrame::new(6, 9));
        // Pinning b late pushes c, d, both diamond arms and f up.
        assert_eq!(
            eng.implied_changes(bb, TimeFrame::new(4, 4)),
            in_topo_order(vec![
                (bb, TimeFrame::new(4, 4)),
                (c, TimeFrame::new(5, 5)),
                (d, TimeFrame::new(6, 6)),
                (m, TimeFrame::new(7, 7)),
                (e, TimeFrame::new(7, 8)),
                (f, TimeFrame::new(9, 9)),
            ])
        );
        // Pinning f early pulls the whole upstream cone to its ASAPs.
        assert_eq!(
            eng.implied_changes(f, TimeFrame::new(6, 6)),
            in_topo_order(vec![
                (a, TimeFrame::new(0, 0)),
                (bb, TimeFrame::new(1, 1)),
                (c, TimeFrame::new(2, 2)),
                (d, TimeFrame::new(3, 3)),
                (m, TimeFrame::new(4, 4)),
                (e, TimeFrame::new(4, 5)),
                (f, TimeFrame::new(6, 6)),
            ])
        );
    }

    #[test]
    fn implied_changes_of_a_slack_pin_is_the_op_alone() {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let mul = lib.add(ResourceType::new("mul", 2).pipelined()).unwrap();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let blk = b.add_block(p, "b", 8).unwrap();
        // y waits for the two-step z, so x has a step of slack before y.
        let x = b.add_op(blk, "x", add).unwrap();
        let z = b.add_op(blk, "z", mul).unwrap();
        let y = b.add_op(blk, "y", add).unwrap();
        let free = b.add_op(blk, "free", add).unwrap();
        b.add_dep(x, y).unwrap();
        b.add_dep(z, y).unwrap();
        let sys = b.build().unwrap();
        let eng = IfdsEngine::new(&sys, vec![blk]);
        assert_eq!(eng.frames().get(x), TimeFrame::new(0, 6));
        assert_eq!(eng.frames().get(y), TimeFrame::new(2, 7));
        assert_eq!(
            eng.implied_changes(x, TimeFrame::new(1, 6)),
            vec![(x, TimeFrame::new(1, 6))]
        );
        assert_eq!(
            eng.implied_changes(free, TimeFrame::new(3, 5)),
            vec![(free, TimeFrame::new(3, 5))]
        );
        // Pinning to the current frame changes nothing at all.
        assert!(eng.implied_changes(y, TimeFrame::new(2, 7)).is_empty());
    }

    #[test]
    #[should_panic(expected = "within the current frame")]
    fn pin_outside_frame_panics() {
        let (sys, blk, ops) = two_adder_block();
        let eng = IfdsEngine::new(&sys, vec![blk]);
        let _ = eng.implied_changes(ops[0], TimeFrame::new(5, 5));
    }

    #[test]
    fn deterministic_across_runs() {
        let (sys, blk, _) = two_adder_block();
        let run = || {
            let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
            IfdsEngine::new(&sys, vec![blk]).run(&mut eval).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cached_run_matches_naive_run_exactly() {
        // Two processes scheduled in one scope: a commit touches a single
        // block, so candidates of the *other* block stay cached. In a
        // single-block scope every commit invalidates everything and the
        // cache (correctly) never hits.
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, b1) = add_ewf_process(&mut b, "P1", 20, types).unwrap();
        let (_, b2) = add_ewf_process(&mut b, "P2", 22, types).unwrap();
        let sys = b.build().unwrap();
        let scope = vec![b1, b2];
        let cached = {
            let mut eval = ClassicEvaluator::new(&sys, &scope, FdsConfig::default());
            IfdsEngine::new(&sys, scope.clone()).run(&mut eval).unwrap()
        };
        let naive = {
            let mut eval = ClassicEvaluator::new(&sys, &scope, FdsConfig::default());
            IfdsEngine::new(&sys, scope.clone())
                .run_naive(&mut eval)
                .unwrap()
        };
        assert_eq!(cached, naive);
        assert_eq!(
            cached.schedule.starts(),
            naive.schedule.starts(),
            "start times must be bit-identical"
        );
        assert!(cached.stats.cache_hits > 0, "two-block run must hit");
        assert_eq!(naive.stats.cache_hits, 0);
        assert_eq!(naive.stats.cache_misses, 0);
        assert_eq!(
            naive.stats.batched_evals, 0,
            "the oracle run must stay on the scalar force path"
        );
        assert!(cached.stats.ops_evaluated < naive.stats.ops_evaluated);
    }

    #[test]
    fn recorded_run_is_bit_identical_and_captures_iterations() {
        use tcms_obs::TraceRecorder;
        let (sys, blk, _) = two_adder_block();
        let plain = {
            let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
            IfdsEngine::new(&sys, vec![blk]).run(&mut eval).unwrap()
        };
        let rec = TraceRecorder::new();
        let recorded = {
            let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
            IfdsEngine::new(&sys, vec![blk])
                .run_recorded(&mut eval, &rec)
                .unwrap()
        };
        assert_eq!(plain, recorded);
        assert_eq!(plain.schedule.starts(), recorded.schedule.starts());
        let data = rec.finish();
        assert_eq!(data.metrics.counter("ifds.iterations"), recorded.iterations);
        tcms_obs::sink::check_span_nesting(&data.events).unwrap();
        let points = data
            .events
            .iter()
            .filter(|e| matches!(e.kind, tcms_obs::TraceEventKind::Point(_)))
            .count();
        assert_eq!(points as u64, recorded.iterations);
    }

    #[test]
    fn stats_are_consistent() {
        let (sys, blk, _) = two_adder_block();
        let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
        let out = IfdsEngine::new(&sys, vec![blk]).run(&mut eval).unwrap();
        assert_eq!(out.stats.iterations, out.iterations);
        assert_eq!(
            out.stats.ops_evaluated, out.stats.cache_misses,
            "with caching on, every fresh evaluation is a miss"
        );
        assert_eq!(
            out.stats.ops_evaluated, out.stats.batched_evals,
            "run() scores every fresh pair through the batched entry point"
        );
        assert!(out.stats.total_time >= out.stats.eval_time);
        let mut merged = IfdsStats::default();
        merged.absorb(&out.stats);
        merged.absorb(&out.stats);
        assert_eq!(merged.iterations, 2 * out.stats.iterations);
        assert!(merged.hit_rate() >= 0.0 && merged.hit_rate() <= 1.0);
    }

    #[test]
    fn iteration_budget_trips_with_partial_progress() {
        use crate::config::RunBudget;
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, blk) = add_ewf_process(&mut b, "P1", 20, types).unwrap();
        let sys = b.build().unwrap();
        let budget = RunBudget {
            max_iterations: Some(1),
            ..RunBudget::default()
        };
        let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
        let err = IfdsEngine::new(&sys, vec![blk])
            .with_budget(budget)
            .run(&mut eval)
            .unwrap_err();
        match err {
            EngineError::BudgetExhausted {
                axis,
                iterations,
                evals,
                unfixed_ops,
                ..
            } => {
                assert_eq!(axis, BudgetAxis::Iterations);
                assert_eq!(iterations, 1);
                assert!(evals > 0, "one iteration must have evaluated");
                assert!(unfixed_ops > 0, "EWF cannot finish in one iteration");
            }
        }
    }

    #[test]
    fn eval_budget_trip_is_deterministic() {
        use crate::config::RunBudget;
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, blk) = add_ewf_process(&mut b, "P1", 20, types).unwrap();
        let sys = b.build().unwrap();
        let trip = || {
            let budget = RunBudget {
                max_evals: Some(50),
                ..RunBudget::default()
            };
            let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
            IfdsEngine::new(&sys, vec![blk])
                .with_budget(budget)
                .run(&mut eval)
                .unwrap_err()
        };
        let (a, b) = (trip(), trip());
        assert_eq!(a, b, "deterministic axes must trip identically");
        let EngineError::BudgetExhausted { axis, .. } = a;
        assert_eq!(axis, BudgetAxis::Evaluations);
    }

    #[test]
    fn generous_budget_matches_unbudgeted_run() {
        let (sys, blk, _) = two_adder_block();
        use crate::config::RunBudget;
        let plain = {
            let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
            IfdsEngine::new(&sys, vec![blk]).run(&mut eval).unwrap()
        };
        let budgeted = {
            let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
            IfdsEngine::new(&sys, vec![blk])
                .with_budget(RunBudget {
                    max_iterations: Some(1_000_000),
                    max_evals: Some(1_000_000),
                    ..RunBudget::default()
                })
                .run(&mut eval)
                .unwrap()
        };
        assert_eq!(plain, budgeted);
        assert_eq!(plain.schedule.starts(), budgeted.schedule.starts());
    }

    #[test]
    fn budget_trip_emits_recorder_event() {
        use crate::config::RunBudget;
        use tcms_obs::TraceRecorder;
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, blk) = add_ewf_process(&mut b, "P1", 20, types).unwrap();
        let sys = b.build().unwrap();
        let rec = TraceRecorder::new();
        let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
        let err = IfdsEngine::new(&sys, vec![blk])
            .with_budget(RunBudget {
                max_iterations: Some(2),
                ..RunBudget::default()
            })
            .run_recorded(&mut eval, &rec)
            .unwrap_err();
        assert!(matches!(err, EngineError::BudgetExhausted { .. }));
        let data = rec.finish();
        assert!(
            data.events.iter().any(|e| matches!(
                &e.kind,
                tcms_obs::TraceEventKind::Instant { name, .. } if *name == "ifds.budget_exhausted"
            )),
            "trip must be observable as an event"
        );
        assert_eq!(
            data.metrics.counter("ifds.iterations"),
            2,
            "partial-progress counters must still be published"
        );
    }
}
