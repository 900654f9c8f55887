//! The modified force model (paper §5, equation 10).
//!
//! The modification is two-part:
//!
//! 1. **Periodic alignment** (§5.1): for globally shared types the spring
//!    displacement is measured on the modulo-max-transformed profile, so
//!    changes hidden under the slot maximum are free and operations align
//!    to already-authorized slots.
//! 2. **Global balancing** (§5.2): the springs themselves are the
//!    group-summed profile `G_k`, so the force balances the requirement
//!    across all processes of the sharing group.
//!
//! Local types keep the classical per-block force, and precedence-implied
//! frame changes are priced exactly like in the unmodified algorithm.

use tcms_fds::{FdsConfig, ForceEvaluator};
use tcms_ir::{BlockId, FrameTable, OpId, ResourceTypeId, System, TimeFrame};
use tcms_obs::{Recorder, TimelinePoint};

use crate::assign::SharingSpec;
use crate::field::{ExternalOccupancy, ModuloField};

/// Force evaluator implementing the two-part modification of the IFDS
/// algorithm. Plugs into [`tcms_fds::IfdsEngine`].
///
/// # Context stamps
///
/// The evaluator supports the engine's candidate-force cache through
/// [`ForceEvaluator::context_stamp`], maintained at three granularities
/// mirroring the field's layers:
///
/// * per block — the classical distribution `D_{b,k}` moved,
/// * per process — some block's modulo-max `D̂` moved, which sibling
///   blocks of the same process read through `M_p`,
/// * per type — the group profile `G_k` moved, which every process of the
///   sharing group reads.
///
/// Commits hidden under the slot maximum (the modulo-hiding effect) stop
/// at the block or process level, so cached forces of the *other*
/// processes in the group survive — the main source of incremental reuse
/// under all-global sharing.
#[derive(Debug, Clone)]
pub struct ModuloEvaluator<'a> {
    system: &'a System,
    config: FdsConfig,
    field: ModuloField<'a>,
    /// Monotone counter the stamps below are drawn from.
    counter: u64,
    /// Last mutation of a block's distribution `D_{b,·}`.
    block_epoch: Vec<u64>,
    /// Last mutation of any `D̂` profile of the process's blocks.
    proc_epoch: Vec<u64>,
    /// Last mutation of the group profile `G_k`.
    type_epoch: Vec<u64>,
    /// `proc_global_types[p]`: global types process `p` shares in.
    proc_global_types: Vec<Vec<ResourceTypeId>>,
    /// Per-op `(block, type, occupancy, block time range)` resolved once
    /// at construction — the delta path reads one flat entry per change
    /// instead of chasing the op, block and library tables per candidate.
    op_meta: Vec<(BlockId, ResourceTypeId, u32, u32)>,
}

impl<'a> ModuloEvaluator<'a> {
    /// Builds the evaluator; `frames` must be the engine's initial table.
    pub fn new(
        system: &'a System,
        spec: SharingSpec,
        config: FdsConfig,
        frames: &FrameTable,
    ) -> Self {
        let external = ExternalOccupancy::empty(system.library().len());
        Self::with_external(system, spec, config, frames, external)
    }

    /// Builds the evaluator with frozen cross-partition baselines seeding
    /// the group profiles (see [`ExternalOccupancy`]); an empty occupancy
    /// reproduces [`ModuloEvaluator::new`] bit-for-bit.
    pub fn with_external(
        system: &'a System,
        spec: SharingSpec,
        config: FdsConfig,
        frames: &FrameTable,
        external: ExternalOccupancy,
    ) -> Self {
        let proc_global_types = system
            .process_ids()
            .map(|p| {
                system
                    .library()
                    .ids()
                    .filter(|&k| spec.is_global_for(k, p))
                    .collect()
            })
            .collect();
        let op_meta = system
            .op_ids()
            .map(|o| {
                let op = system.op(o);
                let len = system.block(op.block()).time_range();
                (op.block(), op.resource_type(), system.occupancy(o), len)
            })
            .collect();
        ModuloEvaluator {
            system,
            config,
            field: ModuloField::with_external(system, spec, frames, external),
            counter: 0,
            block_epoch: vec![0; system.num_blocks()],
            proc_epoch: vec![0; system.num_processes()],
            type_epoch: vec![0; system.library().len()],
            proc_global_types,
            op_meta,
        }
    }

    /// Read access to the maintained field (used by reports and tests).
    pub fn field(&self) -> &ModuloField<'a> {
        &self.field
    }

    /// Reference force computed against a field rebuilt from scratch out
    /// of `frames` — the oracle the incremental path is property-tested
    /// against. Slow by design; only compiled for tests and the
    /// `naive-oracle` feature.
    #[cfg(any(test, feature = "naive-oracle"))]
    pub fn force_naive(&self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) -> f64 {
        let rebuilt = ModuloField::with_external(
            self.system,
            self.field.spec().clone(),
            frames,
            self.field.external().clone(),
        );
        self.force_with_field(&rebuilt, frames, changed)
    }

    /// The seed's incremental force path, kept verbatim (per-candidate
    /// jagged-era allocations: fresh delta buffers, a distribution copy
    /// and two fold `Vec`s per key) as the PR 1 baseline the
    /// `repro_force_kernel` bench measures the slab kernels against.
    #[cfg(any(test, feature = "naive-oracle"))]
    pub fn force_legacy(&self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) -> f64 {
        let (keys, bufs) = self.deltas_legacy(frames, changed);
        let field = &self.field;
        let spec = field.spec();
        let mut total = 0.0;
        for (i, &(b, k)) in keys.iter().enumerate() {
            let w = self.config.spring_weights.weight(self.system.library(), k);
            let process = self.system.block(b).process();
            if spec.is_global_for(k, process) {
                let g = field.group_profile(k);
                let x = field.tentative_group_delta_legacy(b, k, &bufs[i]);
                for (slot, &xv) in x.iter().enumerate() {
                    if xv != 0.0 {
                        total += w * (g[slot] + self.config.lookahead * xv) * xv;
                    }
                }
            } else {
                let d = field.distributions().get(b, k);
                for (t, &xv) in bufs[i].iter().enumerate() {
                    if xv != 0.0 {
                        total += w * (d[t] + self.config.lookahead * xv) * xv;
                    }
                }
            }
        }
        total
    }

    /// The seed's delta computation, kept verbatim (fresh `Vec`s and the
    /// per-step division loop of [`tcms_fds::prob::accumulate_reference`])
    /// as part of the PR 1 baseline behind [`ModuloEvaluator::force_legacy`].
    #[cfg(any(test, feature = "naive-oracle"))]
    fn deltas_legacy(
        &self,
        frames: &FrameTable,
        changed: &[(OpId, TimeFrame)],
    ) -> (Vec<(BlockId, ResourceTypeId)>, Vec<Vec<f64>>) {
        let mut keys: Vec<(BlockId, ResourceTypeId)> = Vec::new();
        let mut bufs: Vec<Vec<f64>> = Vec::new();
        for &(o, nf) in changed {
            let op = self.system.op(o);
            let key = (op.block(), op.resource_type());
            let i = keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                keys.push(key);
                bufs.push(vec![0.0; self.system.block(key.0).time_range() as usize]);
                keys.len() - 1
            });
            let occ = self.system.occupancy(o);
            tcms_fds::prob::accumulate_reference(&mut bufs[i], nf, occ, 1.0);
            tcms_fds::prob::accumulate_reference(&mut bufs[i], frames.get(o), occ, -1.0);
        }
        (keys, bufs)
    }

    fn force_with_field(
        &self,
        field: &ModuloField<'_>,
        frames: &FrameTable,
        changed: &[(OpId, TimeFrame)],
    ) -> f64 {
        let mut scratch = EvalScratch::default();
        let mut state = DeltaBufs::default();
        self.deltas_into(frames, changed, &mut state);
        self.force_from_deltas(field, &state, &mut scratch)
    }

    /// Force of one candidate given its per-`(block, type)` deltas,
    /// reusing (and filling) the sibling-profile cache in `scratch`.
    ///
    /// The term accumulation runs key by key, slot by slot, threading one
    /// running total — exactly the seed's summation order — so the result
    /// is bit-identical to the pre-slab implementation.
    /// Every delta term outside `spans[i]` is exactly `+0.0` (the buffer
    /// was span-zeroed and [`tcms_fds::prob::accumulate`] wrote only the
    /// span), so truncating the fused fold's delta to the span and
    /// span-limiting the local force sum are bitwise free: `d + 0.0 == d`
    /// for the never-`-0.0` distribution values, and a zero delta term
    /// contributes `±0.0`, which cannot move the running total.
    fn force_from_deltas<'f>(
        &self,
        field: &'f ModuloField<'_>,
        state: &DeltaBufs,
        scratch: &mut EvalScratch<'f>,
    ) -> f64 {
        let bufs = &state.bufs;
        let mut total = 0.0;
        for (i, &(b, k)) in state.keys.iter().enumerate() {
            let pos = scratch.plan_pos(self, field, b, k);
            let plan = &mut scratch.plans[pos];
            let (lo, hi) = state.spans[i];
            if let Some(g) = &mut plan.global {
                // Modified force: displacement of the balanced global
                // profile (equations 7-10), replayed from the plan's
                // resolved slices — the same kernel sequence as
                // `ModuloField::tentative_group_delta_into`.
                let gdelta = &mut scratch.gdelta;
                if gdelta.len() != g.rho {
                    gdelta.resize(g.rho, 0.0);
                }
                g.uses += 1;
                if g.uses > 2 && g.tables.is_none() {
                    g.tables = Some(crate::kernel::modulo_boundary_max_tables(plan.dist, g.rho));
                }
                if let Some((pre, suf)) = &g.tables {
                    crate::kernel::modulo_max_delta_span_into(
                        pre,
                        suf,
                        plan.dist,
                        &bufs[i][lo..hi],
                        lo,
                        gdelta,
                    );
                } else {
                    crate::kernel::modulo_max_delta_into(plan.dist, &bufs[i][..hi], gdelta);
                }
                if let Some(sib) = &g.siblings {
                    crate::kernel::slot_max_into(gdelta, sib);
                }
                crate::kernel::sub_into(gdelta, g.mold);
                total = tcms_fds::slab::force_sum(
                    total,
                    g.gprof,
                    gdelta,
                    plan.weight,
                    self.config.lookahead,
                );
            } else {
                // Classical force on the per-block distribution.
                total = tcms_fds::slab::force_sum(
                    total,
                    &plan.dist[lo..hi],
                    &bufs[i][lo..hi],
                    plan.weight,
                    self.config.lookahead,
                );
            }
        }
        total
    }

    /// Probability deltas of `changed`, grouped per `(block, type)`, into
    /// the reused buffers of `state` (only the first `state.keys.len()`
    /// entries of `bufs`/`spans` are meaningful after the call).
    ///
    /// `spans[i]` is the half-open dirty span of `bufs[i]` — everything
    /// outside it is exactly `+0.0`. Reusing a buffer therefore zeroes
    /// only its previous span instead of the whole block range.
    ///
    /// The removal term of an op (its occupancy over the *current* frame,
    /// subtracted) does not depend on the candidate, so it is computed
    /// once per op per batch, stored over its span only, and replayed from
    /// `state.removals` — by copy into a fresh buffer, element-wise add
    /// into a dirty one. Both are bitwise identical to re-running the
    /// accumulation: the copy swaps two addends landing on a zeroed
    /// element (IEEE addition is commutative), the add contributes the
    /// exact same terms in the exact same order.
    fn deltas_into(
        &self,
        frames: &FrameTable,
        changed: &[(OpId, TimeFrame)],
        state: &mut DeltaBufs,
    ) {
        state.keys.clear();
        if state.cache_removals && state.removals.len() != self.op_meta.len() {
            state.removals.resize(self.op_meta.len(), None);
        }
        for &(o, nf) in changed {
            let (block, rtype, occ, range) = self.op_meta[o.index()];
            let key = (block, rtype);
            let i = state
                .keys
                .iter()
                .position(|&k| k == key)
                .unwrap_or_else(|| {
                    state.keys.push(key);
                    let i = state.keys.len() - 1;
                    let len = range as usize;
                    if state.bufs.len() <= i {
                        state.bufs.push(vec![0.0; len]);
                        state.spans.push((0, 0));
                    } else if state.bufs[i].len() == len {
                        let (lo, hi) = state.spans[i];
                        state.bufs[i][lo..hi].fill(0.0);
                        state.spans[i] = (0, 0);
                    } else {
                        state.bufs[i].clear();
                        state.bufs[i].resize(len, 0.0);
                        state.spans[i] = (0, 0);
                    }
                    i
                });
            if !state.cache_removals {
                // One-shot evaluation: the removal term is used once, so
                // accumulate both terms directly in the seed's order.
                let buf = &mut state.bufs[i];
                let a = tcms_fds::prob::accumulate(buf, nf, occ, 1.0);
                let r = tcms_fds::prob::accumulate(buf, frames.get(o), occ, -1.0);
                state.spans[i] = span_union(state.spans[i], span_union(a, r));
                continue;
            }
            let len = state.bufs[i].len();
            let (rlo, removal) = state.removals[o.index()]
                .get_or_insert_with(|| span_removal(frames.get(o), occ, len));
            let rspan = (*rlo, *rlo + removal.len());
            let buf = &mut state.bufs[i];
            if state.spans[i].0 >= state.spans[i].1 {
                // Fresh buffer: land the removal term by copy, then add
                // the placement term on top.
                buf[rspan.0..rspan.1].copy_from_slice(removal);
                state.spans[i] = rspan;
                let a = tcms_fds::prob::accumulate(buf, nf, occ, 1.0);
                state.spans[i] = span_union(state.spans[i], a);
            } else {
                // Dirty buffer: keep the seed's exact term order —
                // placement first, then the removal terms.
                let a = tcms_fds::prob::accumulate(buf, nf, occ, 1.0);
                for (b, &r) in buf[rspan.0..rspan.1].iter_mut().zip(removal.iter()) {
                    *b += r;
                }
                state.spans[i] = span_union(state.spans[i], span_union(a, rspan));
            }
        }
    }

    /// Probability deltas of `changed`, grouped per `(block, type)`.
    fn deltas(
        &self,
        frames: &FrameTable,
        changed: &[(OpId, TimeFrame)],
    ) -> (Vec<(BlockId, ResourceTypeId)>, Vec<Vec<f64>>) {
        let mut state = DeltaBufs::default();
        self.deltas_into(frames, changed, &mut state);
        state.bufs.truncate(state.keys.len());
        (state.keys, state.bufs)
    }
}

/// Reused delta-computation state of one batch: grouped keys, the delta
/// buffers with their dirty spans, and the per-op removal terms (valid
/// for one frame table — batches create a fresh `DeltaBufs`).
#[derive(Default)]
struct DeltaBufs {
    keys: Vec<(BlockId, ResourceTypeId)>,
    bufs: Vec<Vec<f64>>,
    spans: Vec<(usize, usize)>,
    removals: Vec<Option<Removal>>,
    /// Whether the removal terms are cached in `removals`. Only worth the
    /// per-op table for batches, where an op's removal is replayed for
    /// many candidate frames; one-shot evaluations accumulate directly.
    cache_removals: bool,
}

/// One cached removal term: the first time step of its span and the
/// span's values.
type Removal = (usize, Vec<f64>);

/// The removal term of an op with frame `frame` and occupancy `occ` in a
/// block of `len` steps, stored over its span only.
///
/// Bitwise what [`tcms_fds::prob::accumulate`] writes into a zeroed
/// `len`-step buffer: the accumulation reads the frame only through
/// offsets from `frame.asap`, so running it on the frame shifted to start
/// at 0, over a buffer that starts at `frame.asap` and ends where the
/// full-length write would be clamped, writes the same terms.
fn span_removal(frame: TimeFrame, occ: u32, len: usize) -> Removal {
    let lo = (frame.asap as usize).min(len);
    let hi = ((frame.alap + occ) as usize).min(len);
    let mut r = vec![0.0; hi - lo];
    let shifted = TimeFrame::new(0, frame.alap - frame.asap);
    tcms_fds::prob::accumulate(&mut r, shifted, occ, -1.0);
    (lo, r)
}

/// Union of two half-open spans, treating empty spans as neutral.
fn span_union(a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
    if a.0 >= a.1 {
        b
    } else if b.0 >= b.1 {
        a
    } else {
        (a.0.min(b.0), a.1.max(b.1))
    }
}

/// Reused state for repeated force evaluations against one committed
/// field: the `ΔG` slot scratch plus a small cache of per-`(block, type)`
/// evaluation plans. Everything in a plan depends only on the committed
/// field, never on the candidate, so sharing it across a batch is
/// bitwise free; the cache is only valid against one committed state —
/// batched evaluation creates one scratch per batch.
#[derive(Default)]
struct EvalScratch<'f> {
    gdelta: Vec<f64>,
    plans: Vec<PairPlan<'f>>,
    /// `plan_idx[block * num_types + type]`: position in `plans` plus
    /// one, `0` for "not built yet" — a direct-indexed lookup so the hot
    /// loop never scans.
    plan_idx: Vec<u32>,
}

/// Candidate-independent inputs of one `(block, type)` force term,
/// resolved once per batch: the spring weight, the committed
/// distribution slice, and (for global pairs) the profile slices and the
/// sibling slot max of the tentative evaluation.
struct PairPlan<'f> {
    /// Spring weight `w_k`.
    weight: f64,
    /// Committed distribution `D_{b,k}`.
    dist: &'f [f64],
    /// `None` for local pairs (classical force applies).
    global: Option<GlobalPlan<'f>>,
}

/// The global-pair half of a [`PairPlan`]: inputs of equations 7-10.
struct GlobalPlan<'f> {
    /// Period `ρ` of the sharing group.
    rho: usize,
    /// Group profile `G_k` — the spring the displacement is priced on.
    gprof: &'f [f64],
    /// Committed `M_{p,k}` the tentative process max is differenced
    /// against.
    mold: &'f [f64],
    /// Slot max over the sibling blocks' `D̂` profiles. `None` when the
    /// block has no siblings: the fold's result *is* the process max
    /// then, and `max(v, 0.0)` over the zero-seeded, never-negative fold
    /// values would be the identity bitwise — skipping it is free.
    siblings: Option<Vec<f64>>,
    /// How many candidates have evaluated this pair so far — the lazy
    /// trigger for `tables`.
    uses: u32,
    /// Prefix/suffix boundary tables of the committed distribution
    /// ([`crate::kernel::modulo_boundary_max_tables`]), built once a pair
    /// proves hot (3rd use): they turn the fused fold from a full scan
    /// into a span scan, which only pays off when the build cost is
    /// amortized over many candidates. Either fold variant is bitwise
    /// identical, so the switch-over is free.
    tables: Option<(Vec<f64>, Vec<f64>)>,
}

impl<'f> EvalScratch<'f> {
    /// Position of the plan of `(block, rtype)` in `self.plans`, computed
    /// on first use and shared afterwards. Returns an index rather than a
    /// reference so callers can borrow `gdelta` alongside.
    fn plan_pos(
        &mut self,
        eval: &ModuloEvaluator<'_>,
        field: &'f ModuloField<'_>,
        block: BlockId,
        rtype: ResourceTypeId,
    ) -> usize {
        let num_types = eval.system.library().len();
        if self.plan_idx.len() != eval.system.num_blocks() * num_types {
            self.plan_idx = vec![0; eval.system.num_blocks() * num_types];
        }
        let slot = block.index() * num_types + rtype.index();
        let cached = self.plan_idx[slot];
        if cached != 0 {
            return cached as usize - 1;
        }
        let weight = eval
            .config
            .spring_weights
            .weight(eval.system.library(), rtype);
        let process = eval.system.block(block).process();
        let global = field.spec().is_global_for(rtype, process).then(|| {
            let rho = field.slot_count(rtype);
            let siblings = (eval.system.process(process).blocks().len() > 1).then(|| {
                let mut buf = vec![0.0; rho];
                field.sibling_profile_into(block, rtype, &mut buf);
                buf
            });
            GlobalPlan {
                rho,
                gprof: field.group_profile(rtype),
                mold: field.process_profile(process, rtype),
                siblings,
                uses: 0,
                tables: None,
            }
        });
        self.plans.push(PairPlan {
            weight,
            dist: field.distributions().get(block, rtype),
            global,
        });
        let pos = self.plans.len() - 1;
        self.plan_idx[slot] = u32::try_from(pos + 1).expect("plan count fits u32");
        pos
    }
}

impl ForceEvaluator for ModuloEvaluator<'_> {
    fn force(&self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) -> f64 {
        self.force_with_field(&self.field, frames, changed)
    }

    /// Scores every candidate against the current committed field,
    /// bit-identical to calling [`ForceEvaluator::force`] per candidate.
    /// The win over the default implementation: delta buffers are reused
    /// and the sibling slot-max profiles — which depend only on committed
    /// state, not on the candidate — are computed once per `(block, type)`
    /// and shared across the whole batch.
    fn force_batch(&self, frames: &FrameTable, candidates: &[&[(OpId, TimeFrame)]]) -> Vec<f64> {
        let mut scratch = EvalScratch::default();
        let mut state = DeltaBufs {
            cache_removals: true,
            ..DeltaBufs::default()
        };
        candidates
            .iter()
            .map(|changed| {
                self.deltas_into(frames, changed, &mut state);
                self.force_from_deltas(&self.field, &state, &mut scratch)
            })
            .collect()
    }

    fn commit(&mut self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) {
        let (keys, bufs) = self.deltas(frames, changed);
        self.counter += 1;
        for (i, &(b, k)) in keys.iter().enumerate() {
            let effect = self.field.apply_delta(b, k, &bufs[i]);
            if !effect.dist_changed {
                // The candidate's deltas cancelled out bitwise (e.g. two
                // ops of one pair swapping probability mass): nothing any
                // cached force could observe moved, so the stamps — and
                // with them the engine's candidate cache — survive.
                continue;
            }
            self.block_epoch[b.index()] = self.counter;
            if effect.dhat_changed {
                // Sibling blocks read this block's D̂ through M_p.
                let p = self.system.block(b).process();
                self.proc_epoch[p.index()] = self.counter;
            }
            if effect.gdist_changed {
                // Every process of the sharing group reads G_k.
                self.type_epoch[k.index()] = self.counter;
            }
        }
    }

    fn invalidate(&mut self, ops: &[OpId]) {
        self.counter += 1;
        for &o in ops {
            let b = self.system.op(o).block();
            let p = self.system.block(b).process();
            self.block_epoch[b.index()] = self.counter;
            self.proc_epoch[p.index()] = self.counter;
            for &k in &self.proc_global_types[p.index()] {
                self.type_epoch[k.index()] = self.counter;
            }
        }
    }

    fn context_stamp(&self, block: BlockId) -> Option<u64> {
        let p = self.system.block(block).process();
        let mut stamp = self.block_epoch[block.index()].max(self.proc_epoch[p.index()]);
        for &k in &self.proc_global_types[p.index()] {
            stamp = stamp.max(self.type_epoch[k.index()]);
        }
        Some(stamp)
    }

    /// Samples the slot occupancy of every `M_p` and `G_k` profile — the
    /// paper's Figure-1/2 quantities — as one `"field"` timeline point.
    /// Called by the engine once per iteration, only while recording.
    fn record_iteration(&self, rec: &dyn Recorder, iteration: u64) {
        let lib = self.system.library();
        let spec = self.field.spec();
        let mut values = Vec::new();
        for k in lib.ids() {
            let Some(group) = spec.group(k) else { continue };
            let tname = lib.get(k).name();
            for (slot, &v) in self.field.group_profile(k).iter().enumerate() {
                values.push((format!("G.{tname}.slot{slot}"), v));
            }
            values.push((format!("G.{tname}.peak"), self.field.group_peak(k)));
            for &p in group {
                let pname = self.system.process(p).name();
                for (slot, &v) in self.field.process_profile(p, k).iter().enumerate() {
                    values.push((format!("M.{tname}.{pname}.slot{slot}"), v));
                }
            }
        }
        rec.timeline(TimelinePoint {
            phase: "field",
            iteration,
            values,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcms_fds::IfdsEngine;
    use tcms_ir::generators::{paper_library, paper_system};
    use tcms_ir::SystemBuilder;

    #[test]
    fn modified_force_prefers_periodic_alignment() {
        // The Figure-2 situation: with y fixed at time 1 and period 2, the
        // modified force must prefer placing x at time 3 (same slot as y,
        // hidden under the max) over time 0 or 2 in a fresh slot.
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let p1 = b.add_process("P1");
        let blk1 = b.add_block(p1, "body", 4).unwrap();
        let x = b.add_op(blk1, "x", types.add).unwrap();
        let y = b.add_op(blk1, "y", types.add).unwrap();
        let p2 = b.add_process("P2");
        let blk2 = b.add_block(p2, "body", 4).unwrap();
        let z = b.add_op(blk2, "z", types.add).unwrap();
        let sys2 = b.build().unwrap();
        let mut spec = SharingSpec::all_local(&sys2);
        spec.set_global(types.add, vec![p1, p2], 2);
        spec.validate(&sys2).unwrap();

        let mut frames = FrameTable::initial(&sys2);
        frames.set(y, TimeFrame::new(1, 1));
        frames.set(z, TimeFrame::new(0, 0));
        let eval = ModuloEvaluator::new(&sys2, spec, FdsConfig::default(), &frames);

        let f_slot1 = eval.force(&frames, &[(x, TimeFrame::new(3, 3))]);
        let f_slot0 = eval.force(&frames, &[(x, TimeFrame::new(0, 0))]);
        let f_slot0b = eval.force(&frames, &[(x, TimeFrame::new(2, 2))]);
        assert!(
            f_slot1 < f_slot0 && f_slot1 < f_slot0b,
            "aligned placement {f_slot1} must beat {f_slot0}/{f_slot0b}"
        );
    }

    #[test]
    fn commit_keeps_field_consistent_with_rebuild() {
        let (sys, t) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let frames = FrameTable::initial(&sys);
        let mut eval = ModuloEvaluator::new(&sys, spec.clone(), FdsConfig::default(), &frames);
        // Fix the first op of the first block to its ASAP time and commit.
        let block = sys.block_ids().next().unwrap();
        let op = sys.block(block).ops()[0];
        let nf = TimeFrame::new(frames.get(op).asap, frames.get(op).asap);
        let mut new_frames = frames.clone();
        new_frames.set(op, nf);
        eval.commit(&frames, &[(op, nf)]);
        let rebuilt = ModuloField::new(&sys, spec, &new_frames);
        for slot in 0..5 {
            assert!(
                (eval.field().group_profile(t.mul)[slot] - rebuilt.group_profile(t.mul)[slot])
                    .abs()
                    < 1e-9
            );
            assert!(
                (eval.field().group_profile(t.add)[slot] - rebuilt.group_profile(t.add)[slot])
                    .abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn cancelling_commit_preserves_context_stamps() {
        // Two ops of the same (block, type) swap their probability mass:
        // A collapses [0,1] -> [0,0] (delta +0.5/-0.5) while B collapses
        // [0,1] -> [1,1] (delta -0.5/+0.5). The summed pair delta is
        // bitwise zero, so the commit must leave every context stamp — and
        // with it the engine's candidate cache — untouched.
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let p1 = b.add_process("P1");
        let blk = b.add_block(p1, "body", 2).unwrap();
        let a = b.add_op(blk, "a", types.add).unwrap();
        let c = b.add_op(blk, "c", types.add).unwrap();
        let p2 = b.add_process("P2");
        let blk2 = b.add_block(p2, "body", 2).unwrap();
        b.add_op(blk2, "z", types.add).unwrap();
        let sys = b.build().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        spec.set_global(types.add, vec![p1, p2], 2);
        spec.validate(&sys).unwrap();

        let mut frames = FrameTable::initial(&sys);
        frames.set(a, TimeFrame::new(0, 1));
        frames.set(c, TimeFrame::new(0, 1));
        let mut eval = ModuloEvaluator::new(&sys, spec, FdsConfig::default(), &frames);
        let before = eval.context_stamp(blk);

        eval.commit(
            &frames,
            &[(a, TimeFrame::new(0, 0)), (c, TimeFrame::new(1, 1))],
        );
        assert_eq!(
            eval.context_stamp(blk),
            before,
            "a bitwise-cancelled delta must not dirty any stamp"
        );

        // A genuine move does bump the stamp.
        eval.commit(&frames, &[(a, TimeFrame::new(0, 0))]);
        assert_ne!(eval.context_stamp(blk), before);
    }

    #[test]
    fn batched_forces_match_scalar_forces_bitwise() {
        let (sys, _) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let frames = FrameTable::initial(&sys);
        let eval = ModuloEvaluator::new(&sys, spec, FdsConfig::default(), &frames);

        let mut candidates: Vec<Vec<(tcms_ir::OpId, TimeFrame)>> = Vec::new();
        for o in sys.op_ids() {
            let f = frames.get(o);
            candidates.push(vec![(o, TimeFrame::new(f.asap, f.asap))]);
            candidates.push(vec![(o, TimeFrame::new(f.alap, f.alap))]);
        }
        let views: Vec<&[(tcms_ir::OpId, TimeFrame)]> =
            candidates.iter().map(|c| c.as_slice()).collect();
        let batched = eval.force_batch(&frames, &views);
        assert_eq!(batched.len(), views.len());
        for (i, c) in views.iter().enumerate() {
            let scalar = eval.force(&frames, c);
            assert_eq!(
                batched[i].to_bits(),
                scalar.to_bits(),
                "candidate {i} diverged: batched {} vs scalar {scalar}",
                batched[i]
            );
            // And both agree bitwise with the from-scratch oracle.
            assert_eq!(scalar.to_bits(), eval.force_naive(&frames, c).to_bits());
            assert_eq!(scalar.to_bits(), eval.force_legacy(&frames, c).to_bits());
        }
    }

    #[test]
    fn engine_with_modulo_evaluator_produces_valid_schedule() {
        let (sys, _) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let scope: Vec<_> = sys.block_ids().collect();
        let engine = IfdsEngine::new(&sys, scope);
        let mut eval = ModuloEvaluator::new(&sys, spec, FdsConfig::default(), engine.frames());
        let out = engine.run(&mut eval).unwrap();
        out.schedule.verify(&sys).unwrap();
        assert!(out.iterations > 0);
    }
}
