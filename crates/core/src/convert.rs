//! The meta-state conversion algorithm (§2 of the paper).
//!
//! "The process of converting a set of MIMD states that exist at a
//! particular point in time into a single meta state is strikingly similar
//! to the process of converting an NFA into a DFA."
//!
//! [`convert`] implements:
//!
//! * the **base algorithm** (§2.3): subset construction where each member
//!   MIMD state with a conditional branch contributes three successor
//!   choices — TRUE, FALSE, or both — so *n* branching members yield up to
//!   3ⁿ successor meta states (generalized here to 2ᵏ−1 choices for the
//!   k-ary multiway branches produced by inline-expanded returns, §2.2);
//! * **meta-state compression** (§2.5): "a very dramatic reduction in meta
//!   state space can be obtained by simply assuming that both successors
//!   are always taken", plus the subset-subsumption fold implied by "the
//!   case of both successors can always emulate either successor";
//! * **MIMD state time splitting** (§2.4): invoked on each meta state as
//!   it is created; any split restarts the construction "to ensure that
//!   the final meta-state automaton is consistent";
//! * the **barrier synchronization algorithm** (§2.6): barrier-wait members
//!   are removed from a meta state unless every member has reached the
//!   barrier.

use crate::automaton::{MetaAutomaton, MetaId};
use crate::spill::SpillQueue;
use crate::stateset::{fx_hash, SetArena, SetId, StateSet, UnionScratch};
use msc_ir::graph::GraphError;
use msc_ir::util::{FxHashMap, FxHashSet};
use msc_ir::{CostModel, MimdGraph, StateId, Terminator};
use std::fmt;
use std::time::Instant;

/// Which successor-choice rule the subset construction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvertMode {
    /// §2.3: every branching member contributes TRUE / FALSE / both.
    Base,
    /// §2.5: every branching member contributes *both* successors, always.
    Compressed,
}

/// Parameters of the §2.4 time-splitting heuristic. Field names follow the
/// paper's pseudocode (`split_delta`, `split_percent`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSplitOptions {
    /// Noise level: no split when `min + split_delta > max` within a meta
    /// state ("the difference between times is already at noise level").
    pub split_delta: u64,
    /// No split when `min > split_percent × max / 100` ("the utilization is
    /// already sure to be greater than an acceptable percentage").
    pub split_percent: u32,
    /// Safety bound on construction restarts.
    pub max_restarts: u32,
}

impl Default for TimeSplitOptions {
    fn default() -> Self {
        TimeSplitOptions {
            split_delta: 4,
            split_percent: 75,
            max_restarts: 10_000,
        }
    }
}

/// Options controlling [`convert`].
#[derive(Debug, Clone)]
pub struct ConvertOptions {
    /// Base or compressed subset construction.
    pub mode: ConvertMode,
    /// Fold meta states that are strict subsets of another into the
    /// superset (the Figure 5 "2 meta states instead of 8" result).
    /// Defaults on for [`ConvertMode::Compressed`], off for Base.
    pub subsumption: bool,
    /// Enable §2.4 time splitting.
    pub time_split: Option<TimeSplitOptions>,
    /// Honour barrier-wait states per §2.6. When false, `wait` markers are
    /// ignored (useful for measuring what barriers buy).
    pub respect_barriers: bool,
    /// Explosion guard: conversion fails once more than this many meta
    /// states exist (§1.2 problem 1: up to S!/(S−N)! states are possible).
    pub max_meta_states: usize,
    /// Guard on the number of distinct successor sets enumerated for a
    /// single meta state (3ⁿ in base mode before deduplication).
    pub max_successor_sets: usize,
    /// Widest `Multi` terminator the base mode will enumerate subsets of.
    pub max_multi_arity: usize,
    /// Resident-memory budget in bytes for the conversion's interned-set
    /// arena and BFS worklist. Past it, cold interned sets and the
    /// worklist tail spill to a temp-file segment store, so a frontier
    /// larger than RAM degrades to out-of-core operation instead of
    /// failing — the guard above stays the hard cap on *total* states.
    /// `None` = never spill. Defaults to the process-wide
    /// `MSC_MEMORY_BUDGET` (bytes, `k`/`m`/`g` suffixes), when set.
    pub memory_budget: Option<usize>,
    /// Cycle cost model used for time splitting.
    pub costs: CostModel,
}

impl ConvertOptions {
    /// Defaults for the base algorithm (§2.3).
    pub fn base() -> Self {
        ConvertOptions {
            mode: ConvertMode::Base,
            subsumption: false,
            time_split: None,
            respect_barriers: true,
            max_meta_states: 1 << 20,
            max_successor_sets: 1 << 16,
            max_multi_arity: 16,
            memory_budget: crate::spill::default_memory_budget(),
            costs: CostModel::default(),
        }
    }

    /// Defaults for compressed conversion (§2.5), with subsumption.
    pub fn compressed() -> Self {
        ConvertOptions {
            mode: ConvertMode::Compressed,
            subsumption: true,
            ..Self::base()
        }
    }
}

impl Default for ConvertOptions {
    fn default() -> Self {
        Self::base()
    }
}

/// Failures of [`convert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvertError {
    /// The input graph is malformed.
    Graph(GraphError),
    /// The meta-state space exceeded [`ConvertOptions::max_meta_states`].
    TooManyMetaStates {
        /// The configured limit that was hit.
        limit: usize,
    },
    /// A single meta state produced more candidate successor sets than
    /// [`ConvertOptions::max_successor_sets`].
    TooManySuccessorSets {
        /// The meta state whose successors exploded.
        meta: StateSet,
        /// The configured limit that was hit.
        limit: usize,
    },
    /// A `Multi` terminator is too wide to enumerate subsets of in base
    /// mode.
    MultiTooWide {
        /// The offending MIMD state.
        state: StateId,
        /// Its arity.
        arity: usize,
    },
    /// Time splitting kept restarting the construction past its bound.
    TimeSplitDiverged {
        /// Restarts performed before giving up.
        restarts: u32,
    },
    /// The deadline passed to [`convert_with_deadline`] expired before the
    /// construction finished.
    TimedOut,
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::Graph(e) => write!(f, "invalid MIMD graph: {e}"),
            ConvertError::TooManyMetaStates { limit } => {
                write!(f, "meta-state space exceeded the guard of {limit} states")
            }
            ConvertError::TooManySuccessorSets { meta, limit } => {
                write!(
                    f,
                    "meta state {meta} produced more than {limit} successor sets"
                )
            }
            ConvertError::MultiTooWide { state, arity } => {
                write!(
                    f,
                    "multiway branch at {state} has arity {arity}, too wide to enumerate"
                )
            }
            ConvertError::TimeSplitDiverged { restarts } => {
                write!(
                    f,
                    "time splitting did not converge after {restarts} restarts"
                )
            }
            ConvertError::TimedOut => write!(f, "conversion deadline exceeded"),
        }
    }
}

impl std::error::Error for ConvertError {}

impl From<GraphError> for ConvertError {
    fn from(e: GraphError) -> Self {
        ConvertError::Graph(e)
    }
}

/// Statistics about a conversion run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvertStats {
    /// Construction restarts caused by time splitting.
    pub restarts: u32,
    /// MIMD states split by time splitting.
    pub splits: u32,
    /// Meta states folded away by subsumption.
    pub subsumed: u32,
    /// Candidate successor sets enumerated in total (before dedup across
    /// meta states) — a measure of the §2.3 combinatorial work.
    pub successor_sets_enumerated: u64,
}

/// Run meta-state conversion on `graph` (see module docs).
pub fn convert(graph: &MimdGraph, opts: &ConvertOptions) -> Result<MetaAutomaton, ConvertError> {
    convert_with_stats(graph, opts).map(|(a, _)| a)
}

/// [`convert`], also returning construction statistics.
pub fn convert_with_stats(
    graph: &MimdGraph,
    opts: &ConvertOptions,
) -> Result<(MetaAutomaton, ConvertStats), ConvertError> {
    convert_with_deadline(graph, opts, None)
}

/// [`convert_with_stats`] with a cooperative deadline, checked once per
/// popped meta state and at every time-split restart; past it the
/// construction stops with [`ConvertError::TimedOut`].
pub fn convert_with_deadline(
    graph: &MimdGraph,
    opts: &ConvertOptions,
    deadline: Option<Instant>,
) -> Result<(MetaAutomaton, ConvertStats), ConvertError> {
    let expired = || deadline.is_some_and(|d| Instant::now() > d);
    let _span = msc_obs::span("convert.run");
    graph.validate()?;
    let mut g = graph.clone();
    let mut stats = ConvertStats::default();
    let max_restarts = opts
        .time_split
        .as_ref()
        .map(|t| t.max_restarts)
        .unwrap_or(0);

    'restart: loop {
        if expired() {
            return Err(ConvertError::TimedOut);
        }
        let mut arena = SetArena::with_budget(opts.memory_budget);
        let mut sets_in_order: Vec<SetId> = Vec::new();
        let mut succs: Vec<Vec<MetaId>> = Vec::new();
        // Latent barrier states per meta state: barrier waits that may hold
        // lingering processes while this meta state's visible members run.
        // barrier_sync (§2.6) removes waits from the visible set; tracking
        // them here lets the converter emit the barrier-release transition
        // even when every visible member halts first (spawned workers
        // finishing after the rest of the array reached a `wait`).
        let mut latents: Vec<StateSet> = Vec::new();
        let mut meta_of_set: Vec<Option<MetaId>> = Vec::new();
        // BFS worklist; under a memory budget its cold middle spills to a
        // temp-file segment store along with the arena's cold sets.
        let mut worklist = SpillQueue::new(opts.memory_budget.is_some());
        // Membership flag per meta state: re-enqueue on latent widening in
        // O(1) instead of scanning the whole worklist.
        let mut in_worklist: Vec<bool> = Vec::new();

        let intern = |set: StateSet,
                      latent: StateSet,
                      arena: &mut SetArena,
                      sets_in_order: &mut Vec<SetId>,
                      succs: &mut Vec<Vec<MetaId>>,
                      latents: &mut Vec<StateSet>,
                      meta_of_set: &mut Vec<Option<MetaId>>,
                      worklist: &mut SpillQueue,
                      in_worklist: &mut Vec<bool>|
         -> MetaId {
            let sid = arena.intern(set);
            if sid.idx() >= meta_of_set.len() {
                meta_of_set.resize(sid.idx() + 1, None);
            }
            if let Some(m) = meta_of_set[sid.idx()] {
                // Known meta state: widen its latent set if this path can
                // leave more waiters behind; its successors must then be
                // recomputed.
                if !latent.is_subset(&latents[m.idx()]) {
                    latents[m.idx()] = latents[m.idx()].union(&latent);
                    if !in_worklist[m.idx()] {
                        in_worklist[m.idx()] = true;
                        worklist.push_back(m.0);
                    }
                }
                return m;
            }
            let m = MetaId(sets_in_order.len() as u32);
            meta_of_set[sid.idx()] = Some(m);
            sets_in_order.push(sid);
            succs.push(Vec::new());
            latents.push(latent);
            in_worklist.push(true);
            worklist.push_back(m.0);
            m
        };

        let start_set = apply_barrier(&g, StateSet::singleton(g.start), opts);
        let start = intern(
            start_set,
            StateSet::empty(),
            &mut arena,
            &mut sets_in_order,
            &mut succs,
            &mut latents,
            &mut meta_of_set,
            &mut worklist,
            &mut in_worklist,
        );

        let mut scratch = SuccScratch::default();
        while let Some(m) = worklist.pop_front().map(MetaId) {
            if expired() {
                return Err(ConvertError::TimedOut);
            }
            in_worklist[m.idx()] = false;
            msc_obs::value("convert.worklist_depth", worklist.len() as u64);

            // §2.4: "It would be invoked on each meta state as it is
            // created"; any split restarts the construction.
            if let Some(ts) = &opts.time_split {
                let members = arena.get(sets_in_order[m.idx()]);
                let did = time_split_meta(&mut g, &members, ts, &opts.costs, &mut stats.splits);
                if did {
                    stats.restarts += 1;
                    if stats.restarts > max_restarts {
                        return Err(ConvertError::TimeSplitDiverged {
                            restarts: stats.restarts,
                        });
                    }
                    continue 'restart;
                }
            }

            let targets = successor_sets(
                &g,
                &arena.get(sets_in_order[m.idx()]),
                &latents[m.idx()],
                opts,
                &mut stats,
                &mut scratch,
            )?;
            let mut out: Vec<MetaId> = Vec::with_capacity(targets.len());
            let mut out_seen: FxHashSet<MetaId> = FxHashSet::default();
            for (t, l) in targets {
                let id = intern(
                    t,
                    l,
                    &mut arena,
                    &mut sets_in_order,
                    &mut succs,
                    &mut latents,
                    &mut meta_of_set,
                    &mut worklist,
                    &mut in_worklist,
                );
                if out_seen.insert(id) {
                    out.push(id);
                }
                if sets_in_order.len() > opts.max_meta_states {
                    return Err(ConvertError::TooManyMetaStates {
                        limit: opts.max_meta_states,
                    });
                }
            }
            succs[m.idx()] = out;
        }

        let mut automaton = MetaAutomaton {
            graph: g.clone(),
            sets: sets_in_order.iter().map(|&sid| arena.get(sid)).collect(),
            start,
            succs,
        };
        if opts.subsumption {
            stats.subsumed += crate::subsume::subsume(&mut automaton);
        }
        return Ok((automaton, stats));
    }
}

/// §2.6 `barrier_sync`: if some but not all members of `set` are barrier
/// waits, remove the barrier waits; if *all* members are barrier waits the
/// set passes through unchanged (everyone reached the barrier).
fn apply_barrier(graph: &MimdGraph, set: StateSet, opts: &ConvertOptions) -> StateSet {
    if !opts.respect_barriers {
        return set;
    }
    barrier_sync(graph, set)
}

/// The paper's `barrier_sync` on a raw set.
pub fn barrier_sync(graph: &MimdGraph, set: StateSet) -> StateSet {
    let waits = set.filter(|s| graph.state(s).barrier);
    if waits.is_empty() || waits.len() == set.len() {
        set
    } else {
        set.difference(&waits)
    }
}

/// Reusable buffers for [`successor_sets`]: the partial-union DP vectors,
/// a hash → index dedup table, and a memo of each member's successor
/// choices (valid for one graph, i.e. one time-split restart). Reusing
/// them across the whole worklist keeps the hot loop free of per-meta
/// allocations once the buffers are warm.
#[derive(Default)]
struct SuccScratch {
    acc: Vec<StateSet>,
    next: Vec<StateSet>,
    /// Fx hash of a candidate set → indices of sets with that hash (into
    /// `next` during the DP, into `out` during the barrier pass).
    dedup: FxHashMap<u64, Vec<u32>>,
    /// Memoized [`member_choices`] keyed by MIMD state id.
    choices: FxHashMap<u32, Vec<StateSet>>,
    /// Candidate-union buffer: each DP step unions into this (hash fused
    /// into the same pass) and only materializes genuinely new sets.
    union: UnionScratch,
}

/// Enumerate the successor meta states of one meta state, per the paper's
/// `reach` routine (base or compressed variant), then push each through
/// `barrier_sync` (§2.6). Returns `(visible members, latent waits)` pairs:
/// barrier states stripped by `barrier_sync` become latent on the successor
/// (plus anything inherited through `latent`), so the barrier-release
/// transition stays statically reachable.
fn successor_sets(
    graph: &MimdGraph,
    members: &StateSet,
    latent: &StateSet,
    opts: &ConvertOptions,
    stats: &mut ConvertStats,
    scratch: &mut SuccScratch,
) -> Result<Vec<(StateSet, StateSet)>, ConvertError> {
    let SuccScratch {
        acc,
        next,
        dedup,
        choices: choices_memo,
        union,
    } = scratch;
    // DP over members: the set of achievable partial unions.
    acc.clear();
    acc.push(StateSet::empty());
    let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
    for m in members.iter() {
        let choices: &Vec<StateSet> = match choices_memo.entry(m.0) {
            std::collections::hash_map::Entry::Occupied(e) => {
                memo_hits += 1;
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                memo_misses += 1;
                e.insert(member_choices(graph, m, opts)?)
            }
        };
        if choices.len() == 1 && choices[0].is_empty() {
            continue; // Halt member contributes nothing.
        }
        next.clear();
        dedup.clear();
        for u in acc.iter() {
            for c in choices {
                // Union into the reusable scratch with the Fx hash fused
                // into the same pass; only a genuinely new candidate pays
                // an allocation. Hash values, bucket probe order, and
                // insertion order are identical to the allocate-then-hash
                // path, so the constructed automaton is bit-identical.
                let h = u.union_into_scratch(c, union);
                let bucket = dedup.entry(h).or_default();
                if !bucket.iter().any(|&i| union.matches(&next[i as usize])) {
                    bucket.push(next.len() as u32);
                    next.push(union.materialize());
                }
            }
            if next.len() > opts.max_successor_sets {
                return Err(ConvertError::TooManySuccessorSets {
                    meta: members.clone(),
                    limit: opts.max_successor_sets,
                });
            }
        }
        std::mem::swap(acc, next);
    }
    stats.successor_sets_enumerated += acc.len() as u64;
    if msc_obs::enabled() {
        msc_obs::count("convert.memo_hit", memo_hits);
        msc_obs::count("convert.memo_miss", memo_misses);
        msc_obs::value("convert.fanout", acc.len() as u64);
    }

    // Re-inject inherited latent waits, apply barrier filtering, dedupe by
    // visible set (merging latents), and drop the empty set (every member
    // halted and nothing lingers — a terminal meta state, §3.2.1).
    let mut out: Vec<(StateSet, StateSet)> = Vec::with_capacity(acc.len());
    dedup.clear();
    let mut had_barrier_filter = false;
    let mut push = |v: StateSet, l: StateSet, out: &mut Vec<(StateSet, StateSet)>| {
        let bucket = dedup.entry(fx_hash(&v)).or_default();
        if let Some(&i) = bucket.iter().find(|&&i| out[i as usize].0 == v) {
            out[i as usize].1 = out[i as usize].1.union(&l);
        } else {
            bucket.push(out.len() as u32);
            out.push((v, l));
        }
    };
    for t in acc.drain(..) {
        let t_all = t.union(latent);
        if t_all.is_empty() {
            continue;
        }
        if !opts.respect_barriers {
            push(t_all, StateSet::empty(), &mut out);
            continue;
        }
        let waits = t_all.filter(|s| graph.state(s).barrier);
        if waits.is_empty() || waits.len() == t_all.len() {
            // No barrier involvement, or everyone is at the barrier: the
            // all-barrier meta state is the release point (§2.6).
            push(t_all, StateSet::empty(), &mut out);
        } else {
            had_barrier_filter = true;
            push(t_all.difference(&waits), waits, &mut out);
        }
    }

    // §3.2.4 for compressed mode: a compressed transition is unconditional,
    // but once *every* PE has reached the barrier the automaton must be able
    // to enter the all-barrier meta state. Base mode enumerates that choice
    // naturally; compressed mode must add it explicitly.
    if opts.mode == ConvertMode::Compressed && opts.respect_barriers && had_barrier_filter {
        // The all-barrier set reachable from here: barrier successors of
        // the members, barrier members, and inherited latent waits.
        let mut waits = latent.clone();
        for m in members.iter() {
            for s in graph.state(m).term.successors() {
                if graph.state(s).barrier {
                    waits.insert(s);
                }
            }
            if graph.state(m).barrier {
                waits.insert(m);
            }
        }
        if !waits.is_empty() {
            push(waits, StateSet::empty(), &mut out);
        }
    }
    Ok(out)
}

/// The successor-choice sets of one member MIMD state.
fn member_choices(
    graph: &MimdGraph,
    m: StateId,
    opts: &ConvertOptions,
) -> Result<Vec<StateSet>, ConvertError> {
    let term = &graph.state(m).term;
    Ok(match term {
        Terminator::Halt => vec![StateSet::empty()],
        Terminator::Jump(b) => vec![StateSet::singleton(*b)],
        Terminator::Branch { t, f } => {
            if t == f {
                vec![StateSet::singleton(*t)]
            } else {
                match opts.mode {
                    ConvertMode::Base => vec![
                        StateSet::singleton(*t),
                        StateSet::singleton(*f),
                        StateSet::from_iter([*t, *f]),
                    ],
                    ConvertMode::Compressed => vec![StateSet::from_iter([*t, *f])],
                }
            }
        }
        Terminator::Multi(v) => {
            let uniq = StateSet::from_iter(v.iter().copied());
            match opts.mode {
                ConvertMode::Compressed => vec![uniq],
                ConvertMode::Base => {
                    let k = uniq.len();
                    if k > opts.max_multi_arity {
                        return Err(ConvertError::MultiTooWide { state: m, arity: k });
                    }
                    // All 2^k − 1 non-empty subsets (3 = 2²−1 reproduces the
                    // paper's per-branch bound).
                    let ids: Vec<StateId> = uniq.iter().collect();
                    let mut subsets = Vec::with_capacity((1usize << k) - 1);
                    for mask in 1u32..(1u32 << k) {
                        subsets.push(StateSet::from_iter(
                            ids.iter()
                                .enumerate()
                                .filter(|(i, _)| mask & (1 << i) != 0)
                                .map(|(_, s)| *s),
                        ));
                    }
                    subsets
                }
            }
        }
        // §3.2.5: "the semantics are that both paths must be taken".
        Terminator::Spawn { child, next } => vec![StateSet::from_iter([*child, *next])],
    })
}

/// §2.4 `time_split_state` applied to a meta state's members. Returns true
/// when at least one member was split (construction must restart).
fn time_split_meta(
    graph: &mut MimdGraph,
    members: &StateSet,
    ts: &TimeSplitOptions,
    costs: &CostModel,
    splits: &mut u32,
) -> bool {
    // "Ignore zero execution time components because you can't do anything
    // about them anyway."
    let times: Vec<(StateId, u64)> = members
        .iter()
        .map(|s| (s, graph.state_cost(s, costs)))
        .filter(|&(_, t)| t > 0)
        .collect();
    if times.len() < 2 {
        return false;
    }
    let min = times.iter().map(|&(_, t)| t).min().unwrap();
    let max = times.iter().map(|&(_, t)| t).max().unwrap();
    // "Is enough time wasted to be worth splitting?"
    if min + ts.split_delta > max {
        return false;
    }
    if min > (ts.split_percent as u64).saturating_mul(max) / 100 {
        return false;
    }
    let mut did = false;
    for (s, t) in times {
        if t > min && graph.split_state(s, min, costs).is_some() {
            *splits += 1;
            did = true;
        }
    }
    did
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_ir::{MimdState, Op};

    /// Figure 1's MIMD graph for Listing 1, with paper state numbering
    /// 0 = A, 1 = B;C, 2 = D;E, 3 = F (the paper calls them 0, 2, 6, 9 —
    /// its prototype numbers states by instruction offsets; ids differ,
    /// structure is identical).
    fn listing1() -> MimdGraph {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt).labeled("A"));
        let b = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt).labeled("B;C"));
        let d = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt).labeled("D;E"));
        let f = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt).labeled("F"));
        g.state_mut(a).term = Terminator::Branch { t: b, f: d };
        g.state_mut(b).term = Terminator::Branch { t: b, f };
        g.state_mut(d).term = Terminator::Branch { t: d, f };
        g.start = a;
        g
    }

    fn set(v: &[u32]) -> StateSet {
        StateSet::from_iter(v.iter().map(|&x| StateId(x)))
    }

    #[test]
    fn figure2_base_conversion_has_eight_meta_states() {
        let a = convert(&listing1(), &ConvertOptions::base()).unwrap();
        assert_eq!(a.len(), 8, "Figure 2: eight meta states\n{}", a.text());
        // The paper's sets, translated to our ids (0,1,2,3):
        for s in [
            set(&[0]),
            set(&[1]),
            set(&[2]),
            set(&[1, 2]),
            set(&[1, 3]),
            set(&[2, 3]),
            set(&[1, 2, 3]),
            set(&[3]),
        ] {
            assert!(a.find(&s).is_some(), "missing meta state {s}\n{}", a.text());
        }
        assert_eq!(a.validate(), Ok(()));
    }

    #[test]
    fn figure2_transition_relation() {
        let a = convert(&listing1(), &ConvertOptions::base()).unwrap();
        let id = |v: &[u32]| a.find(&set(v)).unwrap();
        let succ_sets = |v: &[u32]| {
            let mut s: Vec<StateSet> = a
                .successors(id(v))
                .iter()
                .map(|m| a.members(*m).clone())
                .collect();
            s.sort();
            s
        };
        // From {0}: {1}, {2}, {1,2} (sorted lexicographically).
        assert_eq!(succ_sets(&[0]), vec![set(&[1]), set(&[1, 2]), set(&[2])]);
        // From {1}: {1}, {3}, {1,3}.
        assert_eq!(succ_sets(&[1]), vec![set(&[1]), set(&[1, 3]), set(&[3])]);
        // From {1,2}: five distinct targets.
        assert_eq!(
            succ_sets(&[1, 2]),
            vec![
                set(&[1, 2]),
                set(&[1, 2, 3]),
                set(&[1, 3]),
                set(&[2, 3]),
                set(&[3])
            ]
        );
        // {3} is terminal.
        assert!(a.successors(id(&[3])).is_empty());
    }

    #[test]
    fn figure5_compressed_conversion_has_two_meta_states() {
        let a = convert(&listing1(), &ConvertOptions::compressed()).unwrap();
        assert_eq!(a.len(), 2, "Figure 5: two meta states\n{}", a.text());
        assert!(a.find(&set(&[0])).is_some());
        let big = a.find(&set(&[1, 2, 3])).expect("the {B,D,F} superset");
        // {0} → {1,2,3} → {1,2,3}.
        assert_eq!(a.successors(a.start), &[big]);
        assert_eq!(a.successors(big), &[big]);
        assert!(a.is_deterministic());
    }

    #[test]
    fn compressed_without_subsumption_has_three() {
        let mut opts = ConvertOptions::compressed();
        opts.subsumption = false;
        let a = convert(&listing1(), &opts).unwrap();
        assert_eq!(a.len(), 3, "{{0}}, {{1,2}}, {{1,2,3}}\n{}", a.text());
    }

    /// Listing 3: Listing 1 plus a barrier before F.
    fn listing3() -> MimdGraph {
        let mut g = listing1();
        g.state_mut(StateId(3)).barrier = true;
        g
    }

    #[test]
    fn figure6_barrier_constrains_transitions() {
        let a = convert(&listing3(), &ConvertOptions::base()).unwrap();
        // {0},{1},{2},{1,2},{3}: five states; no {1,3} or {2,3} may exist.
        assert_eq!(a.len(), 5, "{}", a.text());
        assert!(
            a.find(&set(&[1, 3])).is_none(),
            "barrier must remove 3 from {{1,3}}"
        );
        assert!(a.find(&set(&[2, 3])).is_none());
        assert!(a.find(&set(&[1, 2, 3])).is_none());
        let all_barrier = a.find(&set(&[3])).unwrap();
        assert!(a.successors(all_barrier).is_empty());
        // {1} can reach {3} (everyone at the barrier) and itself.
        let m1 = a.find(&set(&[1])).unwrap();
        let succ: Vec<&StateSet> = a.successors(m1).iter().map(|m| a.members(*m)).collect();
        assert!(succ.contains(&&set(&[3])));
        assert!(succ.contains(&&set(&[1])));
    }

    #[test]
    fn barrier_with_compression_keeps_release_edge() {
        let mut opts = ConvertOptions::compressed();
        opts.subsumption = false;
        let a = convert(&listing3(), &opts).unwrap();
        // {0} → {1,2} → {1,2} ∪ release edge to {3}.
        let m12 = a.find(&set(&[1, 2])).expect("{1,2} exists");
        let succ: Vec<&StateSet> = a.successors(m12).iter().map(|m| a.members(*m)).collect();
        assert!(succ.contains(&&set(&[1, 2])), "{}", a.text());
        assert!(
            succ.contains(&&set(&[3])),
            "release edge missing: {}",
            a.text()
        );
    }

    #[test]
    fn barriers_ignored_when_disabled() {
        let mut opts = ConvertOptions::base();
        opts.respect_barriers = false;
        let a = convert(&listing3(), &opts).unwrap();
        assert_eq!(a.len(), 8, "same as Figure 2 when barriers are ignored");
    }

    #[test]
    fn straight_line_program_is_linear() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt));
        let b = g.add(MimdState::new(vec![Op::Push(2)], Terminator::Halt));
        let c = g.add(MimdState::new(vec![Op::Push(3)], Terminator::Halt));
        g.state_mut(a).term = Terminator::Jump(b);
        g.state_mut(b).term = Terminator::Jump(c);
        g.start = a;
        let auto = convert(&g, &ConvertOptions::base()).unwrap();
        assert_eq!(auto.len(), 3);
        assert!(auto.is_deterministic());
    }

    #[test]
    fn spawn_takes_both_paths_in_base_mode() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt));
        let child = g.add(MimdState::new(vec![Op::Push(2)], Terminator::Halt));
        let next = g.add(MimdState::new(vec![Op::Push(3)], Terminator::Halt));
        g.state_mut(a).term = Terminator::Spawn { child, next };
        g.start = a;
        let auto = convert(&g, &ConvertOptions::base()).unwrap();
        // {a} has exactly one successor: {child, next}.
        assert_eq!(auto.successors(auto.start).len(), 1);
        let s = auto.successors(auto.start)[0];
        assert_eq!(auto.members(s), &set(&[1, 2]));
    }

    #[test]
    fn multi_enumerates_all_nonempty_subsets() {
        let mut g = MimdGraph::new();
        let t1 = 1u32;
        let a = g.add(MimdState::new(vec![Op::Push(0)], Terminator::Halt));
        let b = g.add(MimdState::new(vec![Op::Push(1)], Terminator::Halt));
        let c = g.add(MimdState::new(vec![Op::Push(2)], Terminator::Halt));
        let d = g.add(MimdState::new(vec![Op::Push(3)], Terminator::Halt));
        g.state_mut(a).term = Terminator::Multi(vec![b, c, d]);
        g.start = a;
        let auto = convert(&g, &ConvertOptions::base()).unwrap();
        // 2³−1 = 7 successor sets from the start state.
        assert_eq!(auto.successors(auto.start).len(), 7);
        let _ = t1;
    }

    #[test]
    fn multi_too_wide_errors_in_base_mode() {
        let mut g = MimdGraph::new();
        let targets: Vec<StateId> = (0..20)
            .map(|i| g.add(MimdState::new(vec![Op::Push(i)], Terminator::Halt)))
            .collect();
        let a = g.add(MimdState::new(
            vec![Op::Push(0)],
            Terminator::Multi(targets),
        ));
        g.start = a;
        let err = convert(&g, &ConvertOptions::base()).unwrap_err();
        assert!(matches!(err, ConvertError::MultiTooWide { arity: 20, .. }));
        // Compressed mode handles it fine.
        assert!(convert(&g, &ConvertOptions::compressed()).is_ok());
    }

    #[test]
    fn explosion_guard_fires() {
        // A chain of n branching states all reachable together explodes in
        // base mode; the guard must fail cleanly.
        let mut g = MimdGraph::new();
        let n = 12;
        let ids: Vec<StateId> = (0..n)
            .map(|i| g.add(MimdState::new(vec![Op::Push(i)], Terminator::Halt)))
            .collect();
        let end = g.add(MimdState::new(vec![], Terminator::Halt));
        for (i, &id) in ids.iter().enumerate() {
            let next = if i + 1 < ids.len() { ids[i + 1] } else { end };
            g.state_mut(id).term = Terminator::Branch { t: next, f: end };
        }
        g.start = ids[0];
        let mut opts = ConvertOptions::base();
        opts.max_meta_states = 10;
        let err = convert(&g, &opts).unwrap_err();
        assert_eq!(err, ConvertError::TooManyMetaStates { limit: 10 });
    }

    #[test]
    fn expired_deadline_times_out_before_the_guard_trips() {
        // Twelve independent self-loops behind one fan-out: the full
        // construction overflows a 300-state guard, so only an early
        // deadline check can report TimedOut instead.
        let mut g = MimdGraph::new();
        let end = g.add(MimdState::new(vec![], Terminator::Halt));
        let loops: Vec<StateId> = (0..12)
            .map(|i| g.add(MimdState::new(vec![Op::Push(i)], Terminator::Halt)))
            .collect();
        for &l in &loops {
            g.state_mut(l).term = Terminator::Branch { t: l, f: end };
        }
        g.start = g.add(MimdState::new(vec![], Terminator::Multi(loops)));
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let base = ConvertOptions {
            max_meta_states: 300,
            ..ConvertOptions::base()
        };
        let split = ConvertOptions {
            time_split: Some(TimeSplitOptions::default()),
            ..base.clone()
        };
        for opts in [&base, &split] {
            assert_eq!(
                convert_with_stats(&g, opts).unwrap_err(),
                ConvertError::TooManyMetaStates { limit: 300 }
            );
            assert_eq!(
                convert_with_deadline(&g, opts, Some(past)).unwrap_err(),
                ConvertError::TimedOut
            );
        }
    }

    #[test]
    fn spill_budget_conversion_is_bit_identical() {
        // A fan-out to n independent self-loops (the 3ⁿ frontier shape),
        // converted once in RAM and once under a budget tiny enough to
        // force both the arena and the worklist out of core: the automata
        // must be identical, byte for byte.
        let mut g = MimdGraph::new();
        let end = g.add(MimdState::new(vec![], Terminator::Halt));
        let loops: Vec<StateId> = (0..6)
            .map(|i| g.add(MimdState::new(vec![Op::Push(i)], Terminator::Halt)))
            .collect();
        for &l in &loops {
            g.state_mut(l).term = Terminator::Branch { t: l, f: end };
        }
        let root = g.add(MimdState::new(vec![], Terminator::Multi(loops)));
        g.start = root;
        let mut opts = ConvertOptions::base();
        opts.memory_budget = None;
        let plain = convert(&g, &opts).unwrap();
        opts.memory_budget = Some(512);
        let spilled = convert(&g, &opts).unwrap();
        assert!(plain.len() > 50, "workload must be non-trivial");
        assert_eq!(plain.sets, spilled.sets);
        assert_eq!(plain.succs, spilled.succs);
        assert_eq!(plain.start, spilled.start);
    }

    #[test]
    fn time_split_balances_five_vs_hundred() {
        // §2.4's motivating example: a 5-cycle and a 100-cycle state merged
        // into one meta state. cost(Push)=1 per default model.
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![Op::Push(0)], Terminator::Halt));
        let short = g.add(MimdState::new(vec![Op::Push(1); 5], Terminator::Halt).labeled("α"));
        let long = g.add(MimdState::new(vec![Op::Push(2); 100], Terminator::Halt).labeled("β"));
        let end = g.add(MimdState::new(vec![], Terminator::Halt));
        g.state_mut(a).term = Terminator::Branch { t: short, f: long };
        g.state_mut(short).term = Terminator::Jump(end);
        g.state_mut(long).term = Terminator::Jump(end);
        g.start = a;

        let mut opts = ConvertOptions::compressed();
        opts.subsumption = false;
        opts.time_split = Some(TimeSplitOptions::default());
        let (auto, stats) = convert_with_stats(&g, &opts).unwrap();
        assert!(stats.splits > 0, "the 100-cycle state must be split");
        // Every meta state must now be balanced within split_delta.
        assert!(
            auto.max_imbalance(&opts.costs) <= 4,
            "imbalance {} > delta\n{}",
            auto.max_imbalance(&opts.costs),
            auto.text()
        );
    }

    #[test]
    fn time_split_leaves_balanced_states_alone() {
        let mut g = MimdGraph::new();
        let a = g.add(MimdState::new(vec![Op::Push(0)], Terminator::Halt));
        let x = g.add(MimdState::new(vec![Op::Push(1); 10], Terminator::Halt));
        let y = g.add(MimdState::new(vec![Op::Push(2); 10], Terminator::Halt));
        g.state_mut(a).term = Terminator::Branch { t: x, f: y };
        g.start = a;
        let mut opts = ConvertOptions::base();
        opts.time_split = Some(TimeSplitOptions::default());
        let (_, stats) = convert_with_stats(&g, &opts).unwrap();
        assert_eq!(stats.splits, 0);
        assert_eq!(stats.restarts, 0);
    }

    #[test]
    fn stats_count_successor_enumeration() {
        let (_, stats) = convert_with_stats(&listing1(), &ConvertOptions::base()).unwrap();
        assert!(stats.successor_sets_enumerated >= 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use msc_ir::{MimdState, Op};
    use proptest::prelude::*;

    /// Random small MIMD graphs: every state gets a cheap block and a
    /// terminator drawn over valid targets. Start is state 0.
    fn arb_graph() -> impl Strategy<Value = MimdGraph> {
        (
            2usize..8,
            prop::collection::vec((0u8..4, 0u32..64, 0u32..64, any::<bool>()), 2..8),
        )
            .prop_map(|(n, seeds)| {
                let n = n.min(seeds.len());
                let mut g = MimdGraph::new();
                for (i, &(_, _, _, barrier)) in seeds.iter().take(n).enumerate() {
                    let mut st = MimdState::new(vec![Op::Push(i as i64)], Terminator::Halt);
                    // Keep barriers rare-ish and never on the start state
                    // (an all-barrier start is legal but uninteresting).
                    st.barrier = barrier && i != 0 && i % 3 == 0;
                    g.add(st);
                }
                for (i, &(kind, a, b, _)) in seeds.iter().take(n).enumerate() {
                    let t = StateId(a % n as u32);
                    let f = StateId(b % n as u32);
                    let id = StateId(i as u32);
                    g.state_mut(id).term = match kind % 4 {
                        0 => Terminator::Halt,
                        1 => Terminator::Jump(t),
                        2 => Terminator::Branch { t, f },
                        _ => Terminator::Multi(vec![t, f]),
                    };
                }
                g.start = StateId(0);
                g
            })
    }

    proptest! {
        /// Conversion of arbitrary graphs yields structurally valid
        /// automatons whose members are all real states, in both modes.
        #[test]
        fn convert_yields_valid_automaton(g in arb_graph()) {
            for opts in [ConvertOptions::base(), ConvertOptions::compressed()] {
                let mut opts = opts;
                opts.max_meta_states = 4096;
                match convert(&g, &opts) {
                    Ok(auto) => {
                        prop_assert_eq!(auto.validate(), Ok(()));
                        // Start meta state contains the MIMD start state
                        // (unless barrier_sync stripped it, which cannot
                        // happen: state 0 is never a barrier here).
                        prop_assert!(auto.members(auto.start).contains(g.start));
                    }
                    Err(ConvertError::TooManyMetaStates { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
            }
        }

        /// Conversion is deterministic.
        #[test]
        fn convert_deterministic(g in arb_graph()) {
            let mut opts = ConvertOptions::base();
            opts.max_meta_states = 4096;
            let a = convert(&g, &opts);
            let b = convert(&g, &opts);
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(x.sets, y.sets);
                    prop_assert_eq!(x.succs, y.succs);
                }
                (Err(_), Err(_)) => {}
                _ => return Err(TestCaseError::fail(String::from("nondeterministic outcome"))),
            }
        }

        /// Compression never has more meta states than base (when both
        /// fit under the guard), and its automaton is narrower than or
        /// equal to base in count but wider or equal in max width.
        #[test]
        fn compressed_never_larger(g in arb_graph()) {
            let mut bopts = ConvertOptions::base();
            bopts.max_meta_states = 4096;
            let mut copts = ConvertOptions::compressed();
            copts.max_meta_states = 4096;
            if let (Ok(base), Ok(comp)) = (convert(&g, &bopts), convert(&g, &copts)) {
                prop_assert!(
                    comp.len() <= base.len(),
                    "compressed {} > base {}", comp.len(), base.len()
                );
            }
        }

        /// Every meta state's members are simultaneously reachable in the
        /// base automaton: all members appear in some successor chain from
        /// the start (weak sanity: members must be graph-reachable states).
        #[test]
        fn members_are_reachable_states(g in arb_graph()) {
            let mut opts = ConvertOptions::base();
            opts.max_meta_states = 4096;
            if let Ok(auto) = convert(&g, &opts) {
                let reach = g.reachable();
                for set in &auto.sets {
                    for m in set.iter() {
                        prop_assert!(
                            reach[m.idx()],
                            "meta member {m} is not graph-reachable"
                        );
                    }
                }
            }
        }

        /// Spilling never changes the result: conversion under a tiny
        /// memory budget is bit-identical to the in-RAM conversion.
        #[test]
        fn spilled_conversion_bit_identical(g in arb_graph()) {
            let mut opts = ConvertOptions::base();
            opts.max_meta_states = 4096;
            opts.memory_budget = None;
            let mut sopts = opts.clone();
            sopts.memory_budget = Some(256);
            match (convert(&g, &opts), convert(&g, &sopts)) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(x.sets, y.sets);
                    prop_assert_eq!(x.succs, y.succs);
                    prop_assert_eq!(x.start, y.start);
                }
                (Err(a), Err(b)) => prop_assert_eq!(format!("{a}"), format!("{b}")),
                _ => return Err(TestCaseError::fail(String::from("spill changed the outcome"))),
            }
        }

        /// Subsumption only ever removes states and preserves validity.
        #[test]
        fn subsumption_shrinks(g in arb_graph()) {
            let mut opts = ConvertOptions::compressed();
            opts.subsumption = false;
            opts.max_meta_states = 4096;
            if let Ok(auto) = convert(&g, &opts) {
                let before = auto.len();
                let mut folded = auto.clone();
                crate::subsume::subsume(&mut folded);
                prop_assert!(folded.len() <= before);
                prop_assert_eq!(folded.validate(), Ok(()));
            }
        }
    }
}
