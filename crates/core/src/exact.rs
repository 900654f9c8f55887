//! Exact minimal-area modulo scheduling by branch and bound.
//!
//! A reference implementation for *small* systems: depth-first search over
//! all feasible start-time assignments, pruning with the (monotone)
//! partial-area lower bound. Because adding an operation can only raise
//! usage profiles, the area of a partial assignment — plus one instance
//! for every still-unseen used type — is an admissible bound.
//!
//! Used by the tests and the ablation benches to quantify how far the
//! coupled force-directed heuristic is from the optimum; it is
//! exponential and guarded by a node limit.
//!
//! # Incremental bound maintenance
//!
//! The bound used to be recomputed from scratch at every node —
//! O(types × ops × time_range) of rebuilt usage vectors. It is now
//! maintained incrementally on DFS push/pop:
//!
//! * every `(block, type)` pair with operations keeps a [`SlotProfile`]:
//!   the time-indexed usage vector plus, per modulo slot, a histogram of
//!   usage values and the running slot maximum. Scheduling or
//!   unscheduling an operation updates it in O(occupancy), with the slot
//!   maximum maintained amortised O(1) from the histogram;
//! * per-type area contributions are cached and flagged dirty when an
//!   operation of that type moves, so one DFS step recomputes exactly one
//!   type's contribution (from the profiles' slot maxima — no usage
//!   rebuild) into reusable scratch buffers;
//! * per-type unscheduled-operation counters replace the former
//!   whole-system scan behind the "empty pool but remaining ops" rule.
//!
//! Local (per-process) pools are unified as period-1 profiles: their peak
//! usage is just the slot maximum of the single slot. The invariant — the
//! incremental bound equals the from-scratch bound at **every** node — is
//! pinned by [`exact_schedule_checked`], which recomputes the naive bound
//! per node and asserts equality along the whole search.
//!
//! # Parallel root split
//!
//! With more than one thread, the root operation's start-time frame is
//! split across workers that share an atomic incumbent area. Each worker
//! prunes against its own best with `>=` (exactly like the sequential
//! search) *and* against the shared incumbent with a strict `>`: any
//! optimal-area subtree therefore survives in whichever worker owns it,
//! and the index-ordered merge picks the winner of the earliest root
//! start time — the same schedule the sequential search returns. Only
//! `nodes` is timing-dependent in parallel mode, which is why it is
//! excluded from [`ExactOutcome`] equality.
//!
//! The bit-identity guarantee covers *complete* searches. When the node
//! limit trips (`complete == false`), the budget is consumed at a
//! timing-dependent frontier, so a truncated result may differ between
//! thread counts — it is only an upper bound either way.

use std::sync::atomic::{AtomicU64, Ordering};

use tcms_fds::Schedule;
use tcms_ir::{FrameTable, OpId, ProcessId, ResourceTypeId, System};

use crate::assign::SharingSpec;
use crate::error::CoreError;

/// Result of an exact search.
///
/// Equality ignores `nodes`: with a parallel root split the node count
/// depends on incumbent timing, while schedule, area and completeness are
/// deterministic.
#[derive(Debug, Clone)]
pub struct ExactOutcome {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its total area.
    pub area: u64,
    /// Search nodes expanded.
    pub nodes: u64,
    /// `false` if the node limit cut the search (the result is then only
    /// an upper bound, not a proven optimum).
    pub complete: bool,
}

impl PartialEq for ExactOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.schedule == other.schedule
            && self.area == other.area
            && self.complete == other.complete
    }
}

impl Eq for ExactOutcome {}

/// Per-`(block, type)` usage profile folded modulo `period`, maintained
/// incrementally: `hist[slot][v]` counts time steps of the slot class at
/// usage `v`, and `slot_max[slot]` is the largest occupied usage value.
///
/// Incrementing a step is O(1); decrementing is amortised O(1) (the slot
/// maximum only ever walks down over values that an increment walked up).
/// Local pools use `period == 1`, making `slot_max[0]` the plain peak.
#[derive(Clone)]
struct SlotProfile {
    period: usize,
    usage: Vec<u32>,
    hist: Vec<Vec<u32>>,
    slot_max: Vec<u32>,
}

impl SlotProfile {
    fn new(period: usize, time_range: usize) -> Self {
        let mut hist = vec![vec![0u32]; period];
        for t in 0..time_range {
            hist[t % period][0] += 1;
        }
        SlotProfile {
            period,
            usage: vec![0; time_range],
            hist,
            slot_max: vec![0; period],
        }
    }

    fn increment(&mut self, t: usize) {
        let old = self.usage[t];
        let new = old + 1;
        self.usage[t] = new;
        let s = t % self.period;
        let h = &mut self.hist[s];
        h[old as usize] -= 1;
        if h.len() <= new as usize {
            h.resize(new as usize + 1, 0);
        }
        h[new as usize] += 1;
        self.slot_max[s] = self.slot_max[s].max(new);
    }

    fn decrement(&mut self, t: usize) {
        let old = self.usage[t];
        let new = old - 1;
        self.usage[t] = new;
        let s = t % self.period;
        let h = &mut self.hist[s];
        h[old as usize] -= 1;
        h[new as usize] += 1;
        let mut m = self.slot_max[s];
        while m > 0 && h[m as usize] == 0 {
            m -= 1;
        }
        self.slot_max[s] = m;
    }
}

/// Static per-type facts the bound needs, resolved once per search so the
/// per-node recompute allocates nothing and scans nothing op-shaped.
#[derive(Clone)]
struct TypeInfo {
    area: u64,
    /// Sharing group (empty when the type is nowhere global).
    group: Vec<ProcessId>,
    /// Modulo period of the group (1 when there is no group).
    period: usize,
    /// Users outside the group, with their static "has operations of this
    /// type" flag (drives the at-least-one-instance floor).
    local_users: Vec<(ProcessId, bool)>,
}

/// Incrementally maintained lower-bound state.
#[derive(Clone)]
struct Bounds<'a> {
    system: &'a System,
    num_types: usize,
    /// `profiles[b * num_types + k]`, present iff block `b` has ops of
    /// type `k`. Group blocks fold modulo the type's period; blocks of
    /// non-group users fold with period 1 (plain peak).
    profiles: Vec<Option<SlotProfile>>,
    type_info: Vec<TypeInfo>,
    /// Unscheduled operations per type, over the whole system.
    unscheduled: Vec<u32>,
    /// Cached per-type area contributions and their dirty flags: a DFS
    /// step touches one operation, so at most one type is recomputed per
    /// node.
    contrib: Vec<u64>,
    dirty: Vec<bool>,
    /// Reused scratch (former `lower_bound` allocated these per node).
    slot_scratch: Vec<u32>,
    profile_scratch: Vec<u32>,
}

impl<'a> Bounds<'a> {
    fn new(system: &'a System, spec: &SharingSpec) -> Self {
        let num_types = system.library().len();
        let mut type_info = Vec::with_capacity(num_types);
        let mut unscheduled = vec![0u32; num_types];
        for (_, op) in system.ops() {
            unscheduled[op.resource_type().index()] += 1;
        }
        for (k, rt) in system.library().iter() {
            let group = spec.group(k).map(<[ProcessId]>::to_vec).unwrap_or_default();
            let period = if group.is_empty() {
                1
            } else {
                spec.period(k).expect("global types have periods") as usize
            };
            let local_users = system
                .users_of_type(k)
                .into_iter()
                .filter(|p| !group.contains(p))
                .map(|p| {
                    let has_ops = system
                        .process(p)
                        .blocks()
                        .iter()
                        .any(|&b| !system.ops_of_type(b, k).is_empty());
                    (p, has_ops)
                })
                .collect();
            type_info.push(TypeInfo {
                area: rt.area(),
                group,
                period,
                local_users,
            });
        }
        let mut profiles = vec![None; system.num_blocks() * num_types];
        for b in system.block_ids() {
            let in_group_of = |k: ResourceTypeId| {
                let p = system.block(b).process();
                type_info[k.index()].group.contains(&p)
            };
            for k in system.library().ids() {
                if system.ops_of_type(b, k).is_empty() {
                    continue;
                }
                let period = if in_group_of(k) {
                    type_info[k.index()].period
                } else {
                    1
                };
                profiles[b.index() * num_types + k.index()] = Some(SlotProfile::new(
                    period,
                    system.block(b).time_range() as usize,
                ));
            }
        }
        Bounds {
            system,
            num_types,
            profiles,
            type_info,
            unscheduled,
            contrib: vec![0; num_types],
            dirty: vec![true; num_types],
            slot_scratch: Vec::new(),
            profile_scratch: Vec::new(),
        }
    }

    fn schedule_op(&mut self, o: OpId, t: u32) {
        let op = self.system.op(o);
        let (b, k) = (op.block(), op.resource_type().index());
        let occ = self.system.occupancy(o);
        let prof = self.profiles[b.index() * self.num_types + k]
            .as_mut()
            .expect("ops imply a profile");
        for step in t..t + occ {
            prof.increment(step as usize);
        }
        self.unscheduled[k] -= 1;
        self.dirty[k] = true;
    }

    fn unschedule_op(&mut self, o: OpId, t: u32) {
        let op = self.system.op(o);
        let (b, k) = (op.block(), op.resource_type().index());
        let occ = self.system.occupancy(o);
        let prof = self.profiles[b.index() * self.num_types + k]
            .as_mut()
            .expect("ops imply a profile");
        for step in t..t + occ {
            prof.decrement(step as usize);
        }
        self.unscheduled[k] += 1;
        self.dirty[k] = true;
    }

    /// The admissible partial-area bound; recomputes only dirty types.
    fn lower_bound(&mut self) -> u64 {
        for k in 0..self.num_types {
            if self.dirty[k] {
                self.contrib[k] = self.recompute_contrib(k);
                self.dirty[k] = false;
            }
        }
        self.contrib.iter().sum()
    }

    /// One type's contribution, from the profiles' slot maxima alone.
    fn recompute_contrib(&mut self, k: usize) -> u64 {
        let info = &self.type_info[k];
        let mut instances = 0u64;
        if !info.group.is_empty() {
            let period = info.period;
            self.slot_scratch.clear();
            self.slot_scratch.resize(period, 0);
            for &p in &info.group {
                self.profile_scratch.clear();
                self.profile_scratch.resize(period, 0);
                for &b in self.system.process(p).blocks() {
                    if let Some(prof) = self.profiles[b.index() * self.num_types + k].as_ref() {
                        crate::kernel::slot_max_u32_into(&mut self.profile_scratch, &prof.slot_max);
                    }
                }
                crate::kernel::add_u32_into(&mut self.slot_scratch, &self.profile_scratch);
            }
            let mut pool = u64::from(self.slot_scratch.iter().copied().max().unwrap_or(0));
            // Any process with unscheduled ops of this type will need at
            // least one instance overall.
            if pool == 0 && self.unscheduled[k] > 0 {
                pool = 1;
            }
            instances += pool;
        }
        for &(p, has_ops) in &info.local_users {
            let mut peak = 0u32;
            for &b in self.system.process(p).blocks() {
                if let Some(prof) = self.profiles[b.index() * self.num_types + k].as_ref() {
                    peak = peak.max(prof.slot_max[0]);
                }
            }
            instances += u64::from(peak.max(u32::from(has_ops)));
        }
        instances * self.type_info[k].area
    }
}

/// Incumbent area and node budget shared by the root-split workers.
struct SharedSearch {
    incumbent: AtomicU64,
    nodes: AtomicU64,
}

struct Search<'a> {
    system: &'a System,
    frames: &'a FrameTable,
    order: &'a [OpId],
    starts: Vec<Option<u32>>,
    bounds: Bounds<'a>,
    best: Option<(u64, Vec<Option<u32>>)>,
    nodes: u64,
    node_limit: u64,
    shared: Option<&'a SharedSearch>,
    /// Assert the incremental bound against the from-scratch bound at
    /// every node (the equivalence oracle; test/bench use only).
    check_bounds: bool,
}

impl Search<'_> {
    /// Counts a node against the (local or shared) budget; `true` means
    /// the limit is exhausted and the search must unwind.
    fn count_node(&mut self) -> bool {
        self.nodes += 1;
        match self.shared {
            None => self.nodes > self.node_limit,
            Some(sh) => sh.nodes.fetch_add(1, Ordering::Relaxed) + 1 > self.node_limit,
        }
    }

    fn limit_hit(&self) -> bool {
        match self.shared {
            None => self.nodes > self.node_limit,
            Some(sh) => sh.nodes.load(Ordering::Relaxed) > self.node_limit,
        }
    }

    /// From-scratch reference bound, kept verbatim from the
    /// pre-incremental implementation as the oracle.
    #[cfg(any(test, feature = "naive-oracle"))]
    fn lower_bound_naive(&self, spec: &SharingSpec) -> u64 {
        use crate::modulo::modulo_max_counts;
        use tcms_ir::BlockId;
        let partial_usage = |block: BlockId, k: ResourceTypeId| -> Vec<u32> {
            let mut usage = vec![0u32; self.system.block(block).time_range() as usize];
            for o in self.system.ops_of_type(block, k) {
                if let Some(s) = self.starts[o.index()] {
                    for t in s..s + self.system.occupancy(o) {
                        usage[t as usize] += 1;
                    }
                }
            }
            usage
        };
        let mut area = 0u64;
        for (k, rt) in self.system.library().iter() {
            let group = spec.group(k).unwrap_or(&[]);
            let mut instances = 0u64;
            if !group.is_empty() {
                let period = spec.period(k).expect("global types have periods");
                let mut slot_totals = vec![0u32; period as usize];
                for &p in group {
                    let mut profile = vec![0u32; period as usize];
                    for &b in self.system.process(p).blocks() {
                        let usage = partial_usage(b, k);
                        for (slot, v) in modulo_max_counts(&usage, period).into_iter().enumerate() {
                            profile[slot] = profile[slot].max(v);
                        }
                    }
                    for (slot, v) in profile.into_iter().enumerate() {
                        slot_totals[slot] += v;
                    }
                }
                let mut pool = u64::from(slot_totals.into_iter().max().unwrap_or(0));
                let has_remaining = self
                    .system
                    .ops()
                    .any(|(o, op)| op.resource_type() == k && self.starts[o.index()].is_none());
                if pool == 0 && has_remaining {
                    pool = 1;
                }
                instances += pool;
            }
            for p in self.system.users_of_type(k) {
                if group.contains(&p) {
                    continue;
                }
                let mut peak = 0u32;
                let mut has_ops = false;
                for &b in self.system.process(p).blocks() {
                    has_ops |= !self.system.ops_of_type(b, k).is_empty();
                    peak = peak.max(partial_usage(b, k).into_iter().max().unwrap_or(0));
                }
                instances += u64::from(peak.max(u32::from(has_ops)));
            }
            area += instances * rt.area();
        }
        area
    }

    #[allow(unused_variables)]
    fn assert_bound(&self, bound: u64, spec: &SharingSpec) {
        #[cfg(any(test, feature = "naive-oracle"))]
        {
            let naive = self.lower_bound_naive(spec);
            assert_eq!(
                bound, naive,
                "incremental bound diverged from the from-scratch bound"
            );
        }
    }

    fn dfs(&mut self, depth: usize, spec: &SharingSpec) {
        if self.count_node() {
            return;
        }
        let bound = self.bounds.lower_bound();
        if self.check_bounds {
            self.assert_bound(bound, spec);
        }
        if let Some((best_area, _)) = &self.best {
            if bound >= *best_area {
                return;
            }
        }
        if let Some(sh) = self.shared {
            // Strict `>` keeps every optimal-area subtree alive in its
            // owning worker, making the merged winner deterministic.
            if bound > sh.incumbent.load(Ordering::Relaxed) {
                return;
            }
        }
        if depth == self.order.len() {
            self.best = Some((bound, self.starts.clone()));
            if let Some(sh) = self.shared {
                sh.incumbent.fetch_min(bound, Ordering::Relaxed);
            }
            return;
        }
        let o = self.order[depth];
        let ready = self
            .system
            .preds(o)
            .iter()
            .map(|&p| self.starts[p.index()].expect("preds scheduled first") + self.system.delay(p))
            .max()
            .unwrap_or(0);
        let frame = self.frames.get(o);
        for t in ready.max(frame.asap)..=frame.alap {
            self.starts[o.index()] = Some(t);
            self.bounds.schedule_op(o, t);
            self.dfs(depth + 1, spec);
            self.starts[o.index()] = None;
            self.bounds.unschedule_op(o, t);
            if self.limit_hit() {
                return;
            }
        }
    }
}

/// Finds the area-minimal schedule of the whole system under `spec`.
///
/// `node_limit` bounds the search; when it is hit, the best schedule found
/// so far is returned with `complete == false` (or `None` if nothing was
/// completed yet). With more than one resolved thread (see
/// `tcms_fds::threads`), the root frame is split across workers sharing
/// the incumbent; schedule, area and completeness are identical to the
/// sequential search (node counts may differ).
///
/// # Errors
///
/// Propagates validation errors of `spec`.
pub fn exact_schedule(
    system: &System,
    spec: &SharingSpec,
    node_limit: u64,
) -> Result<Option<ExactOutcome>, CoreError> {
    exact_impl(system, spec, node_limit, false)
}

/// [`exact_schedule`] with the bound oracle armed: at every node the
/// incremental bound is asserted equal to the from-scratch recomputation.
/// Slow; for equivalence tests and ablation benches only.
///
/// # Errors
///
/// Propagates validation errors of `spec`.
///
/// # Panics
///
/// Panics if the incremental bound ever diverges from the oracle.
#[cfg(any(test, feature = "naive-oracle"))]
pub fn exact_schedule_checked(
    system: &System,
    spec: &SharingSpec,
    node_limit: u64,
) -> Result<Option<ExactOutcome>, CoreError> {
    exact_impl(system, spec, node_limit, true)
}

fn exact_impl(
    system: &System,
    spec: &SharingSpec,
    node_limit: u64,
    check_bounds: bool,
) -> Result<Option<ExactOutcome>, CoreError> {
    spec.validate(system)?;
    let frames = FrameTable::initial(system);
    // Ops in ALAP-sorted topological order per block, blocks sequential.
    let mut order = Vec::with_capacity(system.num_ops());
    for b in system.block_ids() {
        let mut ops = system.topo_order(b).to_vec();
        ops.sort_by_key(|&o| (frames.get(o).alap, o));
        order.extend(ops);
    }
    let bounds = Bounds::new(system, spec);
    let threads = rayon::current_num_threads();
    // Root start times to split across workers. The first op in order has
    // no predecessors (its preds would sort strictly earlier), so its
    // candidate range is the full frame.
    let root_range: Vec<u32> = order
        .first()
        .map(|&o| {
            let f = frames.get(o);
            (f.asap..=f.alap).collect()
        })
        .unwrap_or_default();
    let (best, total_nodes) = if threads <= 1 || root_range.len() <= 1 {
        let mut search = Search {
            system,
            frames: &frames,
            order: &order,
            starts: vec![None; system.num_ops()],
            bounds,
            best: None,
            nodes: 0,
            node_limit,
            shared: None,
            check_bounds,
        };
        search.dfs(0, spec);
        (search.best, search.nodes)
    } else {
        // Root node itself is accounted once, up front.
        let shared = SharedSearch {
            incumbent: AtomicU64::new(u64::MAX),
            nodes: AtomicU64::new(1),
        };
        let root = order[0];
        let results = rayon::par_map_indexed(root_range.len(), |i| {
            let t = root_range[i];
            let mut search = Search {
                system,
                frames: &frames,
                order: &order,
                starts: vec![None; system.num_ops()],
                bounds: bounds.clone(),
                best: None,
                nodes: 0,
                node_limit,
                shared: Some(&shared),
                check_bounds,
            };
            search.starts[root.index()] = Some(t);
            search.bounds.schedule_op(root, t);
            search.dfs(1, spec);
            search.best
        });
        // Merge in root order with strict `<`: the winner is the best
        // subtree of the earliest root start, same as sequential DFS.
        let mut best: Option<(u64, Vec<Option<u32>>)> = None;
        for r in results.into_iter().flatten() {
            if best.as_ref().is_none_or(|(a, _)| r.0 < *a) {
                best = Some(r);
            }
        }
        (best, shared.nodes.load(Ordering::Relaxed))
    };
    let complete = total_nodes <= node_limit;
    Ok(best.map(|(area, starts)| {
        let mut schedule = Schedule::new(system.num_ops());
        for (i, s) in starts.iter().enumerate() {
            schedule.set(OpId::from_index(i), s.expect("complete assignment"));
        }
        ExactOutcome {
            schedule,
            area,
            nodes: total_nodes,
            complete,
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::compute_report;
    use crate::scheduler::ModuloScheduler;
    use tcms_ir::generators::{paper_library, random_system, RandomSystemConfig};
    use tcms_ir::SystemBuilder;

    fn tiny_two_process() -> (System, SharingSpec) {
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let p0 = b.add_process("A");
        let b0 = b.add_block(p0, "body", 6).unwrap();
        let m0 = b.add_op(b0, "m0", types.mul).unwrap();
        let a0 = b.add_op_with_preds(b0, "a0", types.add, &[m0]).unwrap();
        let _ = b.add_op_with_preds(b0, "a1", types.add, &[a0]).unwrap();
        let p1 = b.add_process("B");
        let b1 = b.add_block(p1, "body", 6).unwrap();
        let m1 = b.add_op(b1, "m1", types.mul).unwrap();
        let _ = b.add_op_with_preds(b1, "a2", types.add, &[m1]).unwrap();
        let sys = b.build().unwrap();
        let spec = SharingSpec::all_global(&sys, 2);
        (sys, spec)
    }

    #[test]
    fn exact_finds_single_shared_units() {
        let (sys, spec) = tiny_two_process();
        let exact = exact_schedule(&sys, &spec, 1_000_000).unwrap().unwrap();
        assert!(exact.complete);
        exact.schedule.verify(&sys).unwrap();
        let report = compute_report(&sys, &spec, &exact.schedule);
        let mul = sys.library().by_name("mul").unwrap();
        let add = sys.library().by_name("add").unwrap();
        // One multiplier and one adder suffice with period-2 interleaving.
        assert_eq!(report.instances(mul), 1);
        assert_eq!(report.instances(add), 1);
        assert_eq!(exact.area, report.total_area());
    }

    #[test]
    fn incremental_bound_matches_naive_bound_along_search() {
        // The checked search asserts incremental == from-scratch at every
        // node, over systems exercising global, local and mixed pools.
        let (sys, spec) = tiny_two_process();
        let checked = exact_schedule_checked(&sys, &spec, 1_000_000)
            .unwrap()
            .unwrap();
        let plain = exact_schedule(&sys, &spec, 1_000_000).unwrap().unwrap();
        assert_eq!(checked, plain);
        let local = SharingSpec::all_local(&sys);
        exact_schedule_checked(&sys, &local, 1_000_000)
            .unwrap()
            .unwrap();
        for seed in 0..4 {
            let cfg = RandomSystemConfig {
                processes: 2,
                blocks_per_process: 1,
                layers: 2,
                ops_per_layer: (1, 2),
                edge_prob: 0.5,
                slack: 2.0,
                type_weights: [2, 1, 1],
            };
            let (sys, _) = random_system(&cfg, seed).unwrap();
            let spec = SharingSpec::all_global(&sys, 2);
            if !crate::period::spacing_feasible(&sys, &spec) {
                continue;
            }
            exact_schedule_checked(&sys, &spec, 2_000_000).unwrap();
        }
    }

    #[test]
    fn parallel_root_split_matches_sequential_search() {
        let _guard = crate::test_support::threads_lock();
        let (sys, spec) = tiny_two_process();
        rayon::set_num_threads(1);
        let sequential = exact_schedule(&sys, &spec, 1_000_000).unwrap().unwrap();
        for threads in [2, 4, 8] {
            rayon::set_num_threads(threads);
            let parallel = exact_schedule(&sys, &spec, 1_000_000).unwrap().unwrap();
            assert_eq!(
                sequential, parallel,
                "threads = {threads}: schedule/area/completeness must match"
            );
            assert_eq!(
                sequential.schedule.starts(),
                parallel.schedule.starts(),
                "threads = {threads}: start times must be bit-identical"
            );
        }
        rayon::set_num_threads(0);
    }

    #[test]
    fn heuristic_never_beats_exact() {
        for seed in 0..6 {
            let cfg = RandomSystemConfig {
                processes: 2,
                blocks_per_process: 1,
                layers: 2,
                ops_per_layer: (1, 2),
                edge_prob: 0.5,
                slack: 2.0,
                type_weights: [2, 1, 1],
            };
            let (sys, _) = random_system(&cfg, seed).unwrap();
            let spec = SharingSpec::all_global(&sys, 2);
            if !crate::period::spacing_feasible(&sys, &spec) {
                continue;
            }
            let exact = exact_schedule(&sys, &spec, 2_000_000).unwrap().unwrap();
            if !exact.complete {
                continue;
            }
            let heuristic = ModuloScheduler::new(&sys, spec.clone())
                .unwrap()
                .run()
                .unwrap();
            let h_area = heuristic.report().total_area();
            assert!(
                h_area >= exact.area,
                "seed {seed}: heuristic {h_area} below proven optimum {}",
                exact.area
            );
        }
    }

    #[test]
    fn heuristic_is_near_optimal_on_tiny_systems() {
        let mut total_h = 0u64;
        let mut total_e = 0u64;
        for seed in 0..6 {
            let cfg = RandomSystemConfig {
                processes: 2,
                blocks_per_process: 1,
                layers: 2,
                ops_per_layer: (1, 2),
                edge_prob: 0.5,
                slack: 2.0,
                type_weights: [2, 1, 1],
            };
            let (sys, _) = random_system(&cfg, seed).unwrap();
            let spec = SharingSpec::all_global(&sys, 2);
            if !crate::period::spacing_feasible(&sys, &spec) {
                continue;
            }
            let exact = exact_schedule(&sys, &spec, 2_000_000).unwrap().unwrap();
            if !exact.complete {
                continue;
            }
            let heuristic = ModuloScheduler::new(&sys, spec.clone())
                .unwrap()
                .run()
                .unwrap();
            total_h += heuristic.report().total_area();
            total_e += exact.area;
        }
        assert!(total_e > 0);
        let gap = total_h as f64 / total_e as f64;
        assert!(gap <= 1.5, "aggregate optimality gap {gap} too large");
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        let (sys, spec) = tiny_two_process();
        let limited = exact_schedule(&sys, &spec, 3).unwrap();
        // With 3 nodes nothing completes: either None or an incomplete
        // marker.
        if let Some(out) = limited {
            assert!(!out.complete);
        }
    }

    #[test]
    fn exact_respects_local_scope() {
        let (sys, _) = tiny_two_process();
        let spec = SharingSpec::all_local(&sys);
        let exact = exact_schedule(&sys, &spec, 1_000_000).unwrap().unwrap();
        let report = compute_report(&sys, &spec, &exact.schedule);
        let mul = sys.library().by_name("mul").unwrap();
        // Local: one multiplier per process, no way around it.
        assert_eq!(report.instances(mul), 2);
    }
}
