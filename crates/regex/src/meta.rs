//! Subset construction: ε-NFA → meta-automaton (a byte-class DFA).
//!
//! This is the paper's conversion applied to the regex domain: each DFA
//! state *is* a [`StateSet`] of NFA states that can coexist after reading
//! some prefix, interned in the same [`SetArena`] the MIMD converter uses.
//! Two deltas from the MIMD pipeline:
//!
//! * **Anchors are positional, not consuming.** `^` is only traversable
//!   in the closure that seeds an attempt at position 0, so the machine
//!   carries two start states (`start_bof` / `start_mid`). `$` is only
//!   traversable at total end of input, so each state carries two accept
//!   flags: `accept_mid` (Match is in the set — true anywhere) and
//!   `accept_end` (Match becomes reachable once `$` fires — true only at
//!   the end of the whole input).
//! * **No subsumption.** Folding a subset state into a superset preserves
//!   MIMD emulation but not the recognized language — a superset can
//!   accept strings the subset rejects — so the DFA keeps every distinct
//!   set. A cap on distinct meta states bounds the blowup instead.

use crate::live::LiveNfa;
use crate::nfa::{Nfa, State};
use msc_core::{SetArena, StateSet};
use msc_ir::StateId;
use std::collections::HashMap;

/// Transition-table sentinel: no live NFA state remains.
pub const DEAD: u32 = u32::MAX;

/// Default cap on distinct meta states; beyond it the pattern is rejected
/// as too complex rather than letting subset construction run away.
/// [`compile_with_limit`] accepts any other cap.
pub const MAX_META_STATES: usize = 4096;

/// The compiled meta-automaton.
#[derive(Debug, Clone)]
pub struct MetaDfa {
    /// Byte → equivalence class (bytes no NFA edge distinguishes share a
    /// class, shrinking each transition row from 256 to `nclasses`).
    pub classes: [u16; 256],
    /// Number of byte classes.
    pub nclasses: usize,
    /// Row-major transition table: `trans[state * nclasses + class]`,
    /// [`DEAD`] when the successor set is empty.
    pub trans: Vec<u32>,
    /// Match is in the state's set (accept at any position).
    pub accept_mid: Vec<bool>,
    /// Match is in the set or reachable from it through `$` assertions
    /// (accept only at total end of input). Implies nothing about
    /// `accept_mid`.
    pub accept_end: Vec<bool>,
    /// Start state for an attempt at position 0, or [`DEAD`].
    pub start_bof: u32,
    /// Start state for an attempt anywhere else, or [`DEAD`].
    pub start_mid: u32,
    /// The reversed NFA the matcher's live pass runs over.
    pub(crate) live: LiveNfa,
}

impl MetaDfa {
    /// Number of meta states.
    pub fn len(&self) -> usize {
        self.accept_mid.len()
    }

    /// True when the automaton has no states (both starts dead).
    pub fn is_empty(&self) -> bool {
        self.accept_mid.is_empty()
    }

    /// Successor of `state` on byte `b`, or [`DEAD`].
    #[inline]
    pub fn step(&self, state: u32, b: u8) -> u32 {
        self.trans[state as usize * self.nclasses + self.classes[b as usize] as usize]
    }
}

/// Subset construction hit [`MAX_META_STATES`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooComplex {
    /// The cap that was hit.
    pub limit: usize,
}

/// ε-closure of `seeds`: expand `Split` unconditionally and `Start` only
/// when `at_start`; keep `Byte` / `Match` / `End` states as the set's
/// identity. (`End` members stay opaque here — they fire in
/// [`end_accepts`], never mid-input.)
fn closure(nfa: &Nfa, seeds: impl IntoIterator<Item = u32>, at_start: bool) -> StateSet {
    let mut seen = vec![false; nfa.states.len()];
    let mut stack: Vec<u32> = seeds.into_iter().collect();
    let mut members = Vec::new();
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut seen[id as usize], true) {
            continue;
        }
        match nfa.states[id as usize] {
            State::Split { a, b } => {
                stack.push(a);
                stack.push(b);
            }
            State::Start { next } => {
                if at_start {
                    stack.push(next);
                }
            }
            State::Byte { .. } | State::End { .. } | State::Match => members.push(StateId(id)),
        }
    }
    StateSet::from_iter(members)
}

/// Does `set` accept at total end of input? True when Match is a member
/// or becomes reachable by firing `$` assertions (and the ε states behind
/// them). `^` is not traversable here: end-of-input coincides with
/// position 0 only on empty input, where any match would be empty and
/// empty matches are never reported.
fn end_accepts(nfa: &Nfa, set: &StateSet) -> bool {
    let mut seen = vec![false; nfa.states.len()];
    let mut stack: Vec<u32> = set
        .iter()
        .filter(|s| matches!(nfa.states[s.0 as usize], State::End { .. }))
        .map(|s| s.0)
        .collect();
    if set
        .iter()
        .any(|s| matches!(nfa.states[s.0 as usize], State::Match))
    {
        return true;
    }
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut seen[id as usize], true) {
            continue;
        }
        match nfa.states[id as usize] {
            State::Match => return true,
            State::End { next } => stack.push(next),
            State::Split { a, b } => {
                stack.push(a);
                stack.push(b);
            }
            State::Start { .. } | State::Byte { .. } => {}
        }
    }
    false
}

/// Partition bytes into equivalence classes: two bytes share a class iff
/// every `Byte` state of the NFA treats them identically. Returns the
/// class table, the class count, and one representative byte per class.
fn byte_classes(nfa: &Nfa) -> ([u16; 256], usize, Vec<u8>) {
    let byte_states: Vec<&crate::parser::ByteSet> = nfa
        .states
        .iter()
        .filter_map(|s| match s {
            State::Byte { set, .. } => Some(set),
            _ => None,
        })
        .collect();
    let words = byte_states.len().div_ceil(64).max(1);
    let mut classes = [0u16; 256];
    let mut reps: Vec<u8> = Vec::new();
    let mut sig_to_class: HashMap<Vec<u64>, u16> = HashMap::new();
    for b in 0..=255u8 {
        let mut sig = vec![0u64; words];
        for (i, set) in byte_states.iter().enumerate() {
            if set.contains(b) {
                sig[i / 64] |= 1u64 << (i % 64);
            }
        }
        let next = sig_to_class.len() as u16;
        let class = *sig_to_class.entry(sig).or_insert_with(|| {
            reps.push(b);
            next
        });
        classes[b as usize] = class;
    }
    (classes, reps.len(), reps)
}

/// Run the subset construction with the default [`MAX_META_STATES`] cap.
pub fn compile(nfa: &Nfa) -> Result<MetaDfa, TooComplex> {
    compile_with_limit(nfa, MAX_META_STATES)
}

/// Run the subset construction, rejecting the pattern once more than
/// `limit` distinct meta states exist (a `limit` of 0 is treated as 1).
pub fn compile_with_limit(nfa: &Nfa, limit: usize) -> Result<MetaDfa, TooComplex> {
    let limit = limit.max(1);
    let (classes, nclasses, reps) = byte_classes(nfa);
    let mut live = LiveNfa::new(nfa, &reps);
    let mut arena = SetArena::new();

    let intern_nonempty = |arena: &mut SetArena, set: StateSet| -> u32 {
        if set.is_empty() {
            DEAD
        } else {
            arena.intern(set).0
        }
    };

    let start_bof = intern_nonempty(&mut arena, closure(nfa, [nfa.start], true));
    let start_mid = intern_nonempty(&mut arena, closure(nfa, [nfa.start], false));

    let mut trans: Vec<u32> = Vec::new();
    let mut accept_mid: Vec<bool> = Vec::new();
    let mut accept_end: Vec<bool> = Vec::new();

    // The arena grows as BFS discovers successors; meta state i is the
    // i-th interned set, so a plain index sweep visits every state once.
    let mut i = 0usize;
    while i < arena.len() {
        let set = arena.get(msc_core::SetId(i as u32));
        live.push_forward(set.iter().map(|s| s.0));
        accept_mid.push(
            set.iter()
                .any(|s| matches!(nfa.states[s.0 as usize], State::Match)),
        );
        accept_end.push(end_accepts(nfa, &set));
        for &rep in &reps {
            let seeds: Vec<u32> = set
                .iter()
                .filter_map(|s| match nfa.states[s.0 as usize] {
                    State::Byte { ref set, next } if set.contains(rep) => Some(next),
                    _ => None,
                })
                .collect();
            let succ = intern_nonempty(&mut arena, closure(nfa, seeds, false));
            if arena.len() > limit {
                return Err(TooComplex { limit });
            }
            trans.push(succ);
        }
        i += 1;
    }

    Ok(MetaDfa {
        classes,
        nclasses,
        trans,
        accept_mid,
        accept_end,
        start_bof,
        start_mid,
        live,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::build;
    use crate::parser::parse;

    fn dfa(pat: &str) -> MetaDfa {
        compile(&build(&parse(pat).unwrap()).unwrap()).unwrap()
    }

    /// Longest accepting run from the given start over `input`; None when
    /// no non-empty prefix accepts. Mirrors what the matcher does.
    fn longest(d: &MetaDfa, start: u32, input: &[u8], total_end: bool) -> Option<usize> {
        let mut state = start;
        let mut best = None;
        if state == DEAD {
            return None;
        }
        for (i, &b) in input.iter().enumerate() {
            state = d.step(state, b);
            if state == DEAD {
                return best;
            }
            let at_end = total_end && i + 1 == input.len();
            if d.accept_mid[state as usize] || (at_end && d.accept_end[state as usize]) {
                best = Some(i + 1);
            }
        }
        best
    }

    #[test]
    fn literal_run() {
        let d = dfa("abc");
        assert_eq!(longest(&d, d.start_bof, b"abc", true), Some(3));
        assert_eq!(longest(&d, d.start_mid, b"abcd", true), Some(3));
        assert_eq!(longest(&d, d.start_mid, b"abd", true), None);
    }

    #[test]
    fn alternation_takes_longest() {
        let d = dfa("a|ab");
        assert_eq!(longest(&d, d.start_mid, b"ab", true), Some(2));
        assert_eq!(longest(&d, d.start_mid, b"ax", true), Some(1));
    }

    #[test]
    fn star_is_greedy_in_length() {
        let d = dfa("a+");
        assert_eq!(longest(&d, d.start_mid, b"aaab", true), Some(3));
    }

    #[test]
    fn start_anchor_only_fires_at_bof() {
        let d = dfa("^ab");
        assert_eq!(longest(&d, d.start_bof, b"ab", true), Some(2));
        assert_eq!(d.start_mid, DEAD, "^ab cannot start mid-input");
    }

    #[test]
    fn end_anchor_needs_total_end() {
        let d = dfa("ab$");
        assert_eq!(longest(&d, d.start_mid, b"ab", true), Some(2));
        assert_eq!(longest(&d, d.start_mid, b"ab", false), None);
        assert_eq!(longest(&d, d.start_mid, b"abc", true), None);
    }

    #[test]
    fn byte_classes_collapse() {
        let d = dfa("[a-c]x");
        // a, b, c share a class; x has its own; everything else is one
        // dead class.
        assert_eq!(d.classes[b'a' as usize], d.classes[b'b' as usize]);
        assert_ne!(d.classes[b'a' as usize], d.classes[b'x' as usize]);
        assert!(d.nclasses <= 4, "{}", d.nclasses);
    }

    #[test]
    fn complexity_cap_trips() {
        // (a|b)(a|b)...(a|b) with many .* separators stays small, so use a
        // pattern with genuinely exponential subset blowup:
        // .*a.{k} has ~2^k distinct sets tracking the last k positions.
        let pat = format!(".*a{}", ".".repeat(16));
        let nfa = build(&parse(&pat).unwrap()).unwrap();
        assert!(matches!(
            compile(&nfa),
            Err(TooComplex {
                limit: MAX_META_STATES
            })
        ));
    }

    #[test]
    fn limit_parameter_replaces_default_cap() {
        let nfa = build(&parse("abcde").unwrap()).unwrap();
        assert!(matches!(
            compile_with_limit(&nfa, 2),
            Err(TooComplex { limit: 2 })
        ));
        assert!(compile_with_limit(&nfa, 64).is_ok());
        // A zero limit clamps to 1 instead of rejecting vacuously.
        assert!(matches!(
            compile_with_limit(&nfa, 0),
            Err(TooComplex { limit: 1 })
        ));
    }

    #[test]
    fn dot_star_is_one_live_state() {
        let d = dfa("a*");
        assert!(d.len() <= 3, "{}", d.len());
        assert_eq!(longest(&d, d.start_mid, b"aa", true), Some(2));
        assert_eq!(
            longest(&d, d.start_mid, b"b", true),
            None,
            "empty match dropped"
        );
    }
}
