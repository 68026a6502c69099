//! # msc-csi — Common Subexpression Induction
//!
//! §3.1 of the paper: "Any meta state that merged two or more MIMD states
//! effectively contains multiple instruction sequences that are supposed to
//! execute simultaneously. … it is quite possible and practical that any
//! operations that would be performed by more than one sequence can be
//! executed in parallel by all processors. Common subexpression induction
//! (CSI) \[Die92\] is an optimization technique that identifies these
//! operations and 'factors' them out."
//!
//! For the stack code of this pipeline, CSI is an *instruction-alignment*
//! problem: each member MIMD state of a meta state contributes one thread
//! (an op sequence); the SIMD control unit must issue a single instruction
//! stream such that, for every thread, the subsequence of instructions
//! issued while that thread is enabled equals the thread's own sequence.
//! Identical instructions at aligned positions are issued **once** under
//! the union of the threads' enable guards — PEs execute the same
//! instruction on their own stack data, which is exactly the sharing
//! visible in the paper's Listing 5 (`ms_2_6` factors
//! `Push(0) LdL Push(12) StL Pop(2)` across threads 2 and 6).
//!
//! Minimizing issue cost is a weighted shortest-common-supersequence
//! problem (NP-hard for many threads), so — following the \[Die92\] summary
//! quoted in §3.1 — the implementation:
//!
//! 1. computes **operation classes** and a **theoretical lower bound** on
//!    execution time;
//! 2. creates a **linear schedule** two ways: a greedy list schedule over
//!    all threads, and hierarchical pairwise merging by an optimal
//!    two-sequence dynamic program;
//! 3. improves the winner with a **cheap approximate search** (merging
//!    aligned identical slots) and a **permutation-in-range search** —
//!    slots move within the range allowed by their thread-order
//!    dependencies (their earliest/latest positions) to coalesce guard
//!    regions, since every enable-mask change costs cycles.

use msc_ir::op::OpClass;
use msc_ir::util::FxHashMap;
use msc_ir::{CostModel, Op};
use std::fmt;

/// Maximum number of threads (member MIMD states) in one CSI problem; the
/// guard is a `u64` bitmask.
pub const MAX_THREADS: usize = 64;

/// One issued SIMD instruction: the op and the set of threads (as a
/// bitmask) enabled while it executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// The instruction.
    pub op: Op,
    /// Bitmask of enabled threads.
    pub active: u64,
}

/// The result of CSI on one meta state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The issued instruction stream with guards.
    pub slots: Vec<Slot>,
    /// Total cost: Σ op costs + guard-switch cost × (#guard regions − 1).
    pub cost: u64,
    /// Theoretical lower bound (see [`lower_bound`]).
    pub lower_bound: u64,
    /// Cost of naive full serialization (no sharing): the baseline a SIMD
    /// machine pays without CSI.
    pub naive_cost: u64,
}

impl Schedule {
    /// Check that, for every thread, the slots it is active in reproduce
    /// exactly its input op sequence — the correctness invariant of CSI.
    pub fn validate(&self, threads: &[Vec<Op>]) -> Result<(), String> {
        for (t, seq) in threads.iter().enumerate() {
            let bit = 1u64 << t;
            let got: Vec<&Op> = self
                .slots
                .iter()
                .filter(|s| s.active & bit != 0)
                .map(|s| &s.op)
                .collect();
            if got.len() != seq.len() || got.iter().zip(seq).any(|(a, b)| **a != *b) {
                return Err(format!(
                    "thread {t}: scheduled subsequence {:?} != input {:?}",
                    got, seq
                ));
            }
        }
        // No slot may have an empty guard.
        if let Some(i) = self.slots.iter().position(|s| s.active == 0) {
            return Err(format!("slot {i} has an empty guard"));
        }
        Ok(())
    }

    /// Number of contiguous same-guard regions.
    pub fn guard_regions(&self) -> usize {
        let mut regions = 0;
        let mut last: Option<u64> = None;
        for s in &self.slots {
            if last != Some(s.active) {
                regions += 1;
                last = Some(s.active);
            }
        }
        regions
    }

    /// Issue count (number of slots) — what sharing reduces.
    pub fn issues(&self) -> usize {
        self.slots.len()
    }
}

/// Errors from [`induce`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsiError {
    /// More threads than [`MAX_THREADS`].
    TooManyThreads(usize),
}

impl fmt::Display for CsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsiError::TooManyThreads(n) => {
                write!(
                    f,
                    "{n} threads exceed the CSI guard-word limit of {MAX_THREADS}"
                )
            }
        }
    }
}

impl std::error::Error for CsiError {}

/// Tuning for [`induce_with`].
#[derive(Debug, Clone)]
pub struct CsiOptions {
    /// Cycle cost model (also prices the guard switches).
    pub costs: CostModel,
    /// Maximum passes of the permutation-in-range improvement search.
    pub max_improve_passes: u32,
}

impl Default for CsiOptions {
    fn default() -> Self {
        CsiOptions {
            costs: CostModel::default(),
            max_improve_passes: 64,
        }
    }
}

/// Run CSI with default options.
pub fn induce(threads: &[Vec<Op>]) -> Result<Schedule, CsiError> {
    induce_with(threads, &CsiOptions::default())
}

/// Run CSI on the given thread op sequences (thread *t* guards bit *t*).
pub fn induce_with<T: AsRef<[Op]>>(threads: &[T], opts: &CsiOptions) -> Result<Schedule, CsiError> {
    if threads.len() > MAX_THREADS {
        return Err(CsiError::TooManyThreads(threads.len()));
    }
    let costs = &opts.costs;
    let lb = lower_bound(threads, costs);
    let naive = naive_cost(threads, costs);

    if threads.iter().all(|t| t.as_ref().is_empty()) {
        return Ok(Schedule {
            slots: vec![],
            cost: 0,
            lower_bound: 0,
            naive_cost: naive,
        });
    }

    // Three linear schedules: greedy list schedule, hierarchical pairwise
    // DP merge, and plain serialization (sharing can lose to serialization
    // once guard-switch costs are accounted, so serialization stays in the
    // race). Each is improved, then the cheapest wins (the first on ties).
    let candidates = [
        greedy_schedule(threads, costs),
        pairwise_merge_schedule(threads, costs),
        serial_schedule(threads),
    ];
    let mut best: Option<(u64, Vec<Slot>)> = None;
    for mut slots in candidates {
        // Cheap approximate search: fuse adjacent identical ops with
        // disjoint guards (missed sharing), then the permutation-in-range
        // search.
        for _ in 0..opts.max_improve_passes {
            let fused = fuse_adjacent(&mut slots);
            let moved = coalesce_guards(&mut slots);
            if !fused && !moved {
                break;
            }
        }
        let cost = schedule_cost(&slots, costs);
        if best.as_ref().is_none_or(|(b, _)| cost < *b) {
            best = Some((cost, slots));
        }
    }
    let (cost, slots) = best.unwrap_or_default();
    Ok(Schedule {
        slots,
        cost,
        lower_bound: lb,
        naive_cost: naive,
    })
}

/// The cost the SIMD machine pays to execute `slots`: op issue costs plus
/// one guard switch per change of enable mask (the first region's mask
/// set-up is charged too).
pub fn schedule_cost(slots: &[Slot], costs: &CostModel) -> u64 {
    let mut total = 0u64;
    let mut last: Option<u64> = None;
    for s in slots {
        total += costs.op_cost(&s.op) as u64;
        if last != Some(s.active) {
            total += costs.guard_switch as u64;
            last = Some(s.active);
        }
    }
    total
}

/// Theoretical lower bound on any valid schedule's cost:
///
/// * any schedule must contain every thread's ops in order, so it costs at
///   least the most expensive single thread; and
/// * a shared slot issues one op for several threads, but each *distinct*
///   op must be issued at least `max_t count(op, t)` times (the classic
///   supersequence bound), so the per-op bound sums those.
///
/// The returned bound is the max of the two plus one guard set-up.
pub fn lower_bound<T: AsRef<[Op]>>(threads: &[T], costs: &CostModel) -> u64 {
    let per_thread = threads
        .iter()
        .map(|t| costs.block_cost(t.as_ref()))
        .max()
        .unwrap_or(0);
    let mut max_counts: FxHashMap<&Op, u64> = FxHashMap::default();
    let mut counts: FxHashMap<&Op, u64> = FxHashMap::default();
    for t in threads {
        for op in t.as_ref() {
            *counts.entry(op).or_insert(0) += 1;
        }
        for (op, c) in counts.drain() {
            let e = max_counts.entry(op).or_insert(0);
            *e = (*e).max(c);
        }
    }
    let per_op: u64 = max_counts
        .iter()
        .map(|(op, c)| *c * costs.op_cost(op) as u64)
        .sum();
    let body = per_thread.max(per_op);
    if body == 0 {
        0
    } else {
        body + costs.guard_switch as u64
    }
}

/// Cost of running the threads fully serialized with no sharing — one
/// guard region per non-empty thread.
pub fn naive_cost<T: AsRef<[Op]>>(threads: &[T], costs: &CostModel) -> u64 {
    threads
        .iter()
        .map(AsRef::as_ref)
        .filter(|t| !t.is_empty())
        .map(|t| costs.block_cost(t) + costs.guard_switch as u64)
        .sum()
}

/// Histogram of op classes across all threads (the \[Die92\] "operation
/// classes" used for search pruning; exposed for the experiment harness).
pub fn op_class_histogram(threads: &[Vec<Op>]) -> FxHashMap<OpClass, usize> {
    let mut h = FxHashMap::default();
    for t in threads {
        for op in t {
            *h.entry(op.class()).or_insert(0) += 1;
        }
    }
    h
}

/// Thread-by-thread serialization (the no-CSI baseline, kept as a candidate
/// because it minimizes guard switches).
fn serial_schedule<T: AsRef<[Op]>>(threads: &[T]) -> Vec<Slot> {
    let mut slots = Vec::new();
    for (t, seq) in threads.iter().enumerate() {
        for op in seq.as_ref() {
            slots.push(Slot {
                op: op.clone(),
                active: 1u64 << t,
            });
        }
    }
    slots
}

/// Greedy list schedule: at each step, among the candidate "next op of some
/// thread", pick the one shared by the most remaining cost, breaking ties
/// toward the guard used by the previous slot (to minimize mask switches).
fn greedy_schedule<T: AsRef<[Op]>>(threads: &[T], costs: &CostModel) -> Vec<Slot> {
    let n = threads.len();
    let mut pos = vec![0usize; n];
    let mut slots: Vec<Slot> = Vec::new();
    let mut prev_guard = 0u64;
    let mut cands: Vec<(&Op, u64)> = Vec::with_capacity(n);
    loop {
        // Candidate next ops.
        cands.clear();
        for (t, thread) in threads.iter().enumerate() {
            if let Some(op) = thread.as_ref().get(pos[t]) {
                if let Some(entry) = cands.iter_mut().find(|(o, _)| *o == op) {
                    entry.1 |= 1 << t;
                } else {
                    cands.push((op, 1 << t));
                }
            }
        }
        // Score: shared issue saving, then guard affinity, then op cost
        // (prefer retiring expensive ops when shared widely).
        let Some(&(op, active)) = cands.iter().max_by_key(|(op, mask)| {
            let width = mask.count_ones() as u64;
            let saving = (width - 1) * costs.op_cost(op) as u64;
            let affinity = (*mask == prev_guard) as u64;
            (saving, affinity, std::cmp::Reverse(costs.op_cost(op)))
        }) else {
            break;
        };
        for (t, p) in pos.iter_mut().enumerate() {
            if active & (1 << t) != 0 {
                *p += 1;
            }
        }
        prev_guard = active;
        slots.push(Slot {
            op: op.clone(),
            active,
        });
    }
    slots
}

/// Hierarchical pairwise merging: threads are taken in descending cost
/// order (stable, so equal-cost threads keep input order), and each is
/// merged into the accumulated schedule with an optimal two-sequence
/// dynamic program (inter-thread CSE on aligned ops).
fn pairwise_merge_schedule<T: AsRef<[Op]>>(threads: &[T], costs: &CostModel) -> Vec<Slot> {
    let mut order: Vec<(usize, &[Op])> = threads
        .iter()
        .map(AsRef::as_ref)
        .enumerate()
        .filter(|(_, t)| !t.is_empty())
        .collect();
    order.sort_by_key(|(_, t)| std::cmp::Reverse(costs.block_cost(t)));
    let mut merge = Merge::default();
    let mut acc: Vec<Slot> = Vec::new();
    for (t, ops) in order {
        acc = merge.merge(&acc, ops, 1u64 << t, costs);
    }
    acc
}

/// Buffers reused across the merges of one [`pairwise_merge_schedule`]:
/// the flat DP table and the precomputed op costs of both inputs.
#[derive(Default)]
struct Merge {
    dp: Vec<u64>,
    cost_a: Vec<u64>,
    cost_b: Vec<u64>,
}

impl Merge {
    /// Optimal merge of the guarded sequence `a` with thread `b` (guarded
    /// by `bit`) by dynamic programming: classic edit-path DP where
    /// aligning two slots with equal ops issues one shared slot (cost
    /// charged once). Guard-switch effects are handled afterwards by the
    /// improvement passes.
    fn merge(&mut self, a: &[Slot], b: &[Op], bit: u64, costs: &CostModel) -> Vec<Slot> {
        let (la, lb) = (a.len(), b.len());
        let w = lb + 1;
        self.cost_a.clear();
        self.cost_a
            .extend(a.iter().map(|s| costs.op_cost(&s.op) as u64));
        self.cost_b.clear();
        self.cost_b
            .extend(b.iter().map(|op| costs.op_cost(op) as u64));
        let (ca, cb) = (&self.cost_a, &self.cost_b);
        // dp[i * w + j]: min cost to schedule a[i..] and b[j..].
        self.dp.clear();
        self.dp.resize((la + 1) * w, 0);
        let dp = &mut self.dp;
        for i in (0..la).rev() {
            dp[i * w + lb] = dp[(i + 1) * w + lb] + ca[i];
        }
        for j in (0..lb).rev() {
            dp[la * w + j] = dp[la * w + j + 1] + cb[j];
        }
        for i in (0..la).rev() {
            for j in (0..lb).rev() {
                let take_a = dp[(i + 1) * w + j] + ca[i];
                let take_b = dp[i * w + j + 1] + cb[j];
                let mut best = take_a.min(take_b);
                if a[i].op == b[j] {
                    best = best.min(dp[(i + 1) * w + j + 1] + ca[i]);
                }
                dp[i * w + j] = best;
            }
        }
        // Reconstruct.
        let mut out = Vec::with_capacity(la + lb);
        let (mut i, mut j) = (0, 0);
        while i < la || j < lb {
            if i < la
                && j < lb
                && a[i].op == b[j]
                && dp[i * w + j] == dp[(i + 1) * w + j + 1] + ca[i]
            {
                out.push(Slot {
                    op: b[j].clone(),
                    active: a[i].active | bit,
                });
                i += 1;
                j += 1;
            } else if i < la && dp[i * w + j] == dp[(i + 1) * w + j] + ca[i] {
                out.push(a[i].clone());
                i += 1;
            } else {
                out.push(Slot {
                    op: b[j].clone(),
                    active: bit,
                });
                j += 1;
            }
        }
        out
    }
}

/// Cheap approximate search: adjacent slots with the same op and disjoint
/// guards can be fused into one shared issue (a slot absorbs each
/// following slot it can fuse with). Returns true if anything changed.
fn fuse_adjacent(slots: &mut Vec<Slot>) -> bool {
    let len = slots.len();
    if len < 2 {
        return false;
    }
    // slots[..=w] is the compacted prefix; every index in (w, r) holds a
    // slot already fused into slots[w].
    let mut w = 0;
    for r in 1..len {
        if slots[w].op == slots[r].op && slots[w].active & slots[r].active == 0 {
            slots[w].active |= slots[r].active;
        } else {
            w += 1;
            slots.swap(w, r);
        }
    }
    slots.truncate(w + 1);
    w + 1 < len
}

/// Permutation-in-range search: a slot may move past a neighbour when no
/// thread is active in both (their thread-order dependency ranges overlap
/// freely), so swapping preserves every thread's subsequence. Swaps are
/// made when they reduce the number of guard regions (and therefore the
/// enable-mask switching cost). Returns true if anything moved.
fn coalesce_guards(slots: &mut [Slot]) -> bool {
    let mut changed = false;
    let n = slots.len();
    // Bidirectional bubble passes.
    for i in 1..n {
        // Try to sink slot i earlier toward a same-guard neighbour.
        let mut j = i;
        while j > 0 && slots[j - 1].active & slots[j].active == 0 && swap_improves(slots, j - 1) {
            slots.swap(j - 1, j);
            changed = true;
            j -= 1;
        }
    }
    changed
}

/// Would swapping `slots[k]` and `slots[k+1]` reduce guard transitions?
fn swap_improves(slots: &[Slot], k: usize) -> bool {
    let before = |a: Option<u64>, b: u64| (a != Some(b)) as i32;
    let prev = if k > 0 {
        Some(slots[k - 1].active)
    } else {
        None
    };
    let next = slots.get(k + 2).map(|s| s.active);
    let (x, y) = (slots[k].active, slots[k + 1].active);
    // Transitions around the pair, before and after the swap.
    let cur = before(prev, x) + (x != y) as i32 + next.map(|n| (y != n) as i32).unwrap_or(0);
    let new = before(prev, y) + (y != x) as i32 + next.map(|n| (x != n) as i32).unwrap_or(0);
    new < cur
}

/// CSI as it was before the flat DP buffer, one-pass fusion and reused
/// scratch buffers. Kept as the oracle the optimized [`induce_with`] must
/// agree with exactly.
#[cfg(test)]
mod reference {
    use super::{coalesce_guards, naive_cost, schedule_cost, serial_schedule};
    use super::{CostModel, CsiError, CsiOptions, FxHashMap, Op, Schedule, Slot, MAX_THREADS};

    /// Run CSI on the given thread op sequences (thread *t* guards bit *t*).
    pub(super) fn induce_with(
        threads: &[Vec<Op>],
        opts: &CsiOptions,
    ) -> Result<Schedule, CsiError> {
        if threads.len() > MAX_THREADS {
            return Err(CsiError::TooManyThreads(threads.len()));
        }
        let costs = &opts.costs;
        let lb = lower_bound(threads, costs);
        let naive = naive_cost(threads, costs);

        if threads.iter().all(|t| t.is_empty()) {
            return Ok(Schedule {
                slots: vec![],
                cost: 0,
                lower_bound: 0,
                naive_cost: naive,
            });
        }

        // Three linear schedules: greedy list schedule, hierarchical pairwise
        // DP merge, and plain serialization (sharing can lose to serialization
        // once guard-switch costs are accounted, so serialization stays in the
        // race). Each is improved, then the cheapest wins.
        let candidates = [
            greedy_schedule(threads, costs),
            pairwise_merge_schedule(threads, costs),
            serial_schedule(threads),
        ];
        let mut best: Option<Vec<Slot>> = None;
        for mut slots in candidates {
            // Cheap approximate search: fuse adjacent identical ops with
            // disjoint guards (missed sharing), then the permutation-in-range
            // search.
            for _ in 0..opts.max_improve_passes {
                let fused = fuse_adjacent(&mut slots);
                let moved = coalesce_guards(&mut slots);
                if !fused && !moved {
                    break;
                }
            }
            if best
                .as_ref()
                .map(|b| schedule_cost(&slots, costs) < schedule_cost(b, costs))
                .unwrap_or(true)
            {
                best = Some(slots);
            }
        }
        let slots = best.unwrap_or_default();

        let cost = schedule_cost(&slots, costs);
        Ok(Schedule {
            slots,
            cost,
            lower_bound: lb,
            naive_cost: naive,
        })
    }

    /// Theoretical lower bound on any valid schedule's cost:
    ///
    /// * any schedule must contain every thread's ops in order, so it costs at
    ///   least the most expensive single thread; and
    /// * a shared slot issues one op for several threads, but each *distinct*
    ///   op must be issued at least `max_t count(op, t)` times (the classic
    ///   supersequence bound), so the per-op bound sums those.
    ///
    /// The returned bound is the max of the two plus one guard set-up.
    fn lower_bound(threads: &[Vec<Op>], costs: &CostModel) -> u64 {
        let per_thread = threads
            .iter()
            .map(|t| costs.block_cost(t))
            .max()
            .unwrap_or(0);
        let mut max_counts: FxHashMap<&Op, u64> = FxHashMap::default();
        for t in threads {
            let mut counts: FxHashMap<&Op, u64> = FxHashMap::default();
            for op in t {
                *counts.entry(op).or_insert(0) += 1;
            }
            for (op, c) in counts {
                let e = max_counts.entry(op).or_insert(0);
                *e = (*e).max(c);
            }
        }
        let per_op: u64 = max_counts
            .iter()
            .map(|(op, c)| *c * costs.op_cost(op) as u64)
            .sum();
        let body = per_thread.max(per_op);
        if body == 0 {
            0
        } else {
            body + costs.guard_switch as u64
        }
    }

    /// Greedy list schedule: at each step, among the candidate "next op of some
    /// thread", pick the one shared by the most remaining cost, breaking ties
    /// toward the guard used by the previous slot (to minimize mask switches).
    fn greedy_schedule(threads: &[Vec<Op>], costs: &CostModel) -> Vec<Slot> {
        let n = threads.len();
        let mut pos = vec![0usize; n];
        let mut slots: Vec<Slot> = Vec::new();
        let mut prev_guard = 0u64;
        loop {
            // Candidate next ops.
            let mut cands: Vec<(&Op, u64)> = Vec::new();
            for t in 0..n {
                if pos[t] < threads[t].len() {
                    let op = &threads[t][pos[t]];
                    if let Some(entry) = cands.iter_mut().find(|(o, _)| *o == op) {
                        entry.1 |= 1 << t;
                    } else {
                        cands.push((op, 1 << t));
                    }
                }
            }
            if cands.is_empty() {
                break;
            }
            // Score: shared issue saving, then guard affinity, then op cost
            // (prefer retiring expensive ops when shared widely).
            let (op, active) = cands
                .iter()
                .max_by_key(|(op, mask)| {
                    let width = mask.count_ones() as u64;
                    let saving = (width - 1) * costs.op_cost(op) as u64;
                    let affinity = (*mask == prev_guard) as u64;
                    (saving, affinity, std::cmp::Reverse(costs.op_cost(op)))
                })
                .map(|(op, mask)| ((*op).clone(), *mask))
                .unwrap();
            for (t, p) in pos.iter_mut().enumerate() {
                if active & (1 << t) != 0 {
                    *p += 1;
                }
            }
            prev_guard = active;
            slots.push(Slot { op, active });
        }
        slots
    }

    /// Hierarchical pairwise merging: threads become guarded sequences, sorted
    /// by descending cost; each is merged into the accumulated schedule with an
    /// optimal two-sequence dynamic program (inter-thread CSE on aligned ops).
    fn pairwise_merge_schedule(threads: &[Vec<Op>], costs: &CostModel) -> Vec<Slot> {
        let mut seqs: Vec<Vec<Slot>> = threads
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_empty())
            .map(|(i, t)| {
                t.iter()
                    .map(|op| Slot {
                        op: op.clone(),
                        active: 1u64 << i,
                    })
                    .collect()
            })
            .collect();
        seqs.sort_by_key(|s| {
            std::cmp::Reverse(s.iter().map(|sl| costs.op_cost(&sl.op) as u64).sum::<u64>())
        });
        let mut acc: Vec<Slot> = Vec::new();
        for seq in seqs {
            acc = merge_two(&acc, &seq, costs);
        }
        acc
    }

    /// Optimal merge of two guarded sequences by dynamic programming: classic
    /// edit-path DP where aligning two slots with equal ops issues one shared
    /// slot (cost charged once). Guard-switch effects are handled afterwards by
    /// the improvement passes.
    fn merge_two(a: &[Slot], b: &[Slot], costs: &CostModel) -> Vec<Slot> {
        if a.is_empty() {
            return b.to_vec();
        }
        if b.is_empty() {
            return a.to_vec();
        }
        let (la, lb) = (a.len(), b.len());
        // dp[i][j]: min cost to schedule a[i..] and b[j..].
        let mut dp = vec![vec![0u64; lb + 1]; la + 1];
        for i in (0..la).rev() {
            dp[i][lb] = dp[i + 1][lb] + costs.op_cost(&a[i].op) as u64;
        }
        for j in (0..lb).rev() {
            dp[la][j] = dp[la][j + 1] + costs.op_cost(&b[j].op) as u64;
        }
        for i in (0..la).rev() {
            for j in (0..lb).rev() {
                let take_a = dp[i + 1][j] + costs.op_cost(&a[i].op) as u64;
                let take_b = dp[i][j + 1] + costs.op_cost(&b[j].op) as u64;
                let mut best = take_a.min(take_b);
                if a[i].op == b[j].op {
                    best = best.min(dp[i + 1][j + 1] + costs.op_cost(&a[i].op) as u64);
                }
                dp[i][j] = best;
            }
        }
        // Reconstruct.
        let mut out = Vec::with_capacity(la + lb);
        let (mut i, mut j) = (0, 0);
        while i < la || j < lb {
            if i < la && j < lb && a[i].op == b[j].op {
                let shared = dp[i + 1][j + 1] + costs.op_cost(&a[i].op) as u64;
                if dp[i][j] == shared {
                    out.push(Slot {
                        op: a[i].op.clone(),
                        active: a[i].active | b[j].active,
                    });
                    i += 1;
                    j += 1;
                    continue;
                }
            }
            if i < la && dp[i][j] == dp[i + 1][j] + costs.op_cost(&a[i].op) as u64 {
                out.push(a[i].clone());
                i += 1;
            } else {
                out.push(b[j].clone());
                j += 1;
            }
        }
        out
    }

    /// Cheap approximate search: adjacent slots with the same op and disjoint
    /// guards can be fused into one shared issue. Returns true if anything
    /// changed.
    fn fuse_adjacent(slots: &mut Vec<Slot>) -> bool {
        let mut changed = false;
        let mut i = 0;
        while i + 1 < slots.len() {
            if slots[i].op == slots[i + 1].op && slots[i].active & slots[i + 1].active == 0 {
                let merged_active = slots[i].active | slots[i + 1].active;
                slots[i].active = merged_active;
                slots.remove(i + 1);
                changed = true;
            } else {
                i += 1;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_ir::{Addr, BinOp};

    fn c() -> CostModel {
        CostModel::default()
    }

    /// The ms_2_6 factoring from Listing 5: thread 0 = `Push(1); <store x;
    /// load x>`, thread 1 = `Push(2); <same suffix>`. CSI must share the
    /// suffix.
    #[test]
    fn listing5_ms_2_6_factoring() {
        let suffix = vec![Op::Push(0), Op::St(Addr::poly(12)), Op::Ld(Addr::poly(4))];
        let mut t0 = vec![Op::Push(1)];
        t0.extend(suffix.clone());
        let mut t1 = vec![Op::Push(2)];
        t1.extend(suffix.clone());
        let s = induce(&[t0.clone(), t1.clone()]).unwrap();
        s.validate(&[t0, t1]).unwrap();
        // 2 private prefixes + 3 shared suffix ops = 5 issues (not 8).
        assert_eq!(s.issues(), 5, "{:?}", s.slots);
        let shared = s.slots.iter().filter(|s| s.active == 0b11).count();
        assert_eq!(shared, 3);
        assert!(s.cost < s.naive_cost);
    }

    #[test]
    fn identical_threads_collapse_entirely() {
        let t = vec![Op::Push(7), Op::Bin(BinOp::Add), Op::St(Addr::poly(0))];
        let threads = vec![t.clone(), t.clone(), t.clone()];
        let s = induce(&threads).unwrap();
        s.validate(&threads).unwrap();
        assert_eq!(s.issues(), 3);
        assert!(s.slots.iter().all(|sl| sl.active == 0b111));
        assert_eq!(s.guard_regions(), 1);
        assert_eq!(s.cost, s.lower_bound, "identical threads achieve the bound");
    }

    #[test]
    fn disjoint_threads_serialize() {
        let t0 = vec![Op::Push(1), Op::Push(2)];
        let t1 = vec![Op::Bin(BinOp::Mul), Op::Bin(BinOp::Div)];
        let s = induce(&[t0.clone(), t1.clone()]).unwrap();
        s.validate(&[t0, t1]).unwrap();
        assert_eq!(s.issues(), 4, "nothing shareable");
        assert_eq!(s.cost, s.naive_cost);
    }

    #[test]
    fn single_thread_passthrough() {
        let t = vec![Op::Push(1), Op::Ld(Addr::poly(0)), Op::Bin(BinOp::Add)];
        let s = induce(std::slice::from_ref(&t)).unwrap();
        s.validate(std::slice::from_ref(&t)).unwrap();
        assert_eq!(s.issues(), t.len());
        assert_eq!(s.guard_regions(), 1);
    }

    #[test]
    fn empty_input() {
        let s = induce(&[]).unwrap();
        assert_eq!(s.issues(), 0);
        assert_eq!(s.cost, 0);
        let s = induce(&[vec![], vec![]]).unwrap();
        assert_eq!(s.issues(), 0);
    }

    #[test]
    fn too_many_threads_error() {
        let threads: Vec<Vec<Op>> = (0..65).map(|_| vec![Op::Push(0)]).collect();
        assert_eq!(induce(&threads), Err(CsiError::TooManyThreads(65)));
    }

    #[test]
    fn cost_between_bounds() {
        let t0 = vec![Op::Push(1), Op::Bin(BinOp::Add), Op::St(Addr::poly(0))];
        let t1 = vec![Op::Push(2), Op::Bin(BinOp::Add), Op::St(Addr::poly(0))];
        let t2 = vec![Op::Push(1), Op::Bin(BinOp::Mul)];
        let threads = vec![t0, t1, t2];
        let s = induce(&threads).unwrap();
        s.validate(&threads).unwrap();
        assert!(
            s.lower_bound <= s.cost,
            "lb {} > cost {}",
            s.lower_bound,
            s.cost
        );
        assert!(
            s.cost <= s.naive_cost,
            "cost {} > naive {}",
            s.cost,
            s.naive_cost
        );
    }

    #[test]
    fn repeated_ops_within_thread_respect_multiplicity() {
        // Thread 0 needs Push(1) twice; thread 1 once. Supersequence must
        // issue Push(1) at least twice.
        let t0 = vec![Op::Push(1), Op::Push(1)];
        let t1 = vec![Op::Push(1)];
        let s = induce(&[t0.clone(), t1.clone()]).unwrap();
        s.validate(&[t0, t1]).unwrap();
        assert_eq!(s.issues(), 2);
    }

    #[test]
    fn guard_coalescing_reduces_regions() {
        // Threads with interleavable private ops: a good schedule groups
        // each thread's private ops contiguously.
        let t0 = vec![Op::Push(1), Op::Push(2), Op::Push(3)];
        let t1 = vec![
            Op::Bin(BinOp::Mul),
            Op::Bin(BinOp::Div),
            Op::Bin(BinOp::Rem),
        ];
        let s = induce(&[t0.clone(), t1.clone()]).unwrap();
        s.validate(&[t0, t1]).unwrap();
        assert_eq!(s.guard_regions(), 2, "{:?}", s.slots);
    }

    #[test]
    fn lower_bound_accounts_for_heavier_thread() {
        let t0 = vec![Op::Bin(BinOp::Div); 4]; // 64 cycles
        let t1 = vec![Op::Push(0)];
        let lb = lower_bound(&[t0, t1], &c());
        assert!(lb >= 64);
    }

    #[test]
    fn op_class_histogram_counts() {
        let t0 = vec![Op::Push(1), Op::Bin(BinOp::Add), Op::Ld(Addr::poly(0))];
        let h = op_class_histogram(&[t0]);
        assert_eq!(h.get(&OpClass::Stack), Some(&1));
        assert_eq!(h.get(&OpClass::IntAlu), Some(&1));
        assert_eq!(h.get(&OpClass::Memory), Some(&1));
    }

    #[test]
    fn shared_prefix_and_suffix_with_divergent_middle() {
        let pre = vec![Op::Ld(Addr::poly(0)), Op::Push(10)];
        let post = vec![Op::St(Addr::poly(1))];
        let mut t0 = pre.clone();
        t0.push(Op::Bin(BinOp::Add));
        t0.extend(post.clone());
        let mut t1 = pre.clone();
        t1.push(Op::Bin(BinOp::Sub));
        t1.extend(post.clone());
        let s = induce(&[t0.clone(), t1.clone()]).unwrap();
        s.validate(&[t0, t1]).unwrap();
        // 2 shared prefix + 2 divergent + 1 shared suffix = 5.
        assert_eq!(s.issues(), 5, "{:?}", s.slots);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use msc_ir::{Addr, BinOp};
    use proptest::prelude::*;

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0i64..4).prop_map(Op::Push),
            (0u32..4).prop_map(|i| Op::Ld(Addr::poly(i))),
            (0u32..4).prop_map(|i| Op::St(Addr::poly(i))),
            Just(Op::Bin(BinOp::Add)),
            Just(Op::Bin(BinOp::Mul)),
            Just(Op::Dup),
        ]
    }

    fn arb_threads() -> impl Strategy<Value = Vec<Vec<Op>>> {
        prop::collection::vec(prop::collection::vec(arb_op(), 0..12), 1..6)
    }

    fn arb_wide_threads() -> impl Strategy<Value = Vec<Vec<Op>>> {
        prop::collection::vec(prop::collection::vec(arb_op(), 0..41), 1..9)
    }

    proptest! {
        /// The fundamental CSI invariant: every thread's enabled
        /// subsequence equals its input, and cost sits between the
        /// theoretical lower bound and naive serialization.
        #[test]
        fn schedule_is_valid_and_bounded(threads in arb_threads()) {
            let s = induce(&threads).unwrap();
            prop_assert!(s.validate(&threads).is_ok());
            prop_assert!(s.cost <= s.naive_cost);
            prop_assert!(s.lower_bound <= s.cost);
        }

        /// The optimized CSI returns exactly the schedule of the reference
        /// implementation: same slots, cost, lower bound and naive cost.
        #[test]
        fn matches_reference(threads in arb_wide_threads()) {
            let opts = CsiOptions::default();
            prop_assert_eq!(
                induce_with(&threads, &opts),
                reference::induce_with(&threads, &opts)
            );
        }

        /// Scheduling is deterministic.
        #[test]
        fn deterministic(threads in arb_threads()) {
            let a = induce(&threads).unwrap();
            let b = induce(&threads).unwrap();
            prop_assert_eq!(a, b);
        }

        /// Two identical threads share every instruction: the schedule has
        /// exactly one issue per op, all under the joint guard.
        #[test]
        fn identical_pair_shares_fully(thread in prop::collection::vec(arb_op(), 1..12)) {
            let threads = vec![thread.clone(), thread.clone()];
            let s = induce(&threads).unwrap();
            prop_assert!(s.validate(&threads).is_ok());
            prop_assert_eq!(s.issues(), thread.len());
            prop_assert!(s.slots.iter().all(|sl| sl.active == 0b11));
        }
    }
}
