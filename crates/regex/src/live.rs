//! The reverse *live* automaton that makes matching linear.
//!
//! `live(j)` is the set of NFA `Byte` states from which some non-empty
//! suffix of the input starting at offset `j` reaches Match (through `$`
//! only when that suffix runs to the total end). It is a function of the
//! bytes from `j` on, so a right-to-left pass computes it:
//!
//! ```text
//! live(n)   = END
//! live(j)   = { i : input[j] ∈ bytes(i) and
//!                   next(i) ε-reaches Match or some member of live(j+1) }
//! step(END) = { i : input[j] ∈ bytes(i) and next(i) reaches Match via `$` }
//! ```
//!
//! A forward meta state `f` at offset `j` can still extend to a match iff
//! its `Byte` members meet `live(j)`, and it accepts there by its own
//! accept flags — so the matcher walks the forward [`MetaDfa`] exactly as
//! far as the longest match reaches and no further.
//!
//! [`LiveNfa`] is the immutable part, built once per pattern next to the
//! forward DFA: the Thompson NFA's ε and byte edges reversed, plus each
//! forward meta state's `Byte` members as a bitset. [`LiveDfa`] is the
//! per-scan subset construction over it, determinized lazily because the
//! reverse automaton can be exponentially larger than the forward one
//! (`............a` has 14 forward states and 8193 reverse ones). Its
//! states are interned in the same [`SetArena`] as every other meta
//! state, and the cache is flushed whenever it outgrows its cap — but only
//! between blocks, so state ids a caller holds for the current block stay
//! valid.

use crate::meta::{MetaDfa, DEAD};
use crate::nfa::{Nfa, State};
use msc_core::{SetArena, StateSet};
use msc_ir::StateId;

/// Transition-cache sentinel: successor not computed yet.
const UNKNOWN: u32 = u32::MAX;

/// The reversed NFA over `Byte` states, plus the forward meta states'
/// `Byte` members, as dense bitsets of `words` words each.
#[derive(Debug, Clone)]
pub(crate) struct LiveNfa {
    /// Words per bitset: one bit per NFA `Byte` state.
    words: usize,
    /// NFA state count (size of the traversal scratch).
    nstates: usize,
    /// NFA id of each `Byte` state, by `Byte` index.
    byte_state: Vec<u32>,
    /// CSR: for NFA state `t`, the `Byte` indices whose `next` is `t`.
    byte_pred_at: Vec<u32>,
    byte_pred: Vec<u32>,
    /// CSR: for NFA state `t`, the `Split` states with an ε edge to `t`.
    split_pred_at: Vec<u32>,
    split_pred: Vec<u32>,
    /// `Byte` indices whose `next` ε-reaches Match.
    mid: Vec<u64>,
    /// `Byte` indices whose `next` reaches Match through `$` too (the
    /// successor of END).
    end: Vec<u64>,
    /// Per byte class: the `Byte` indices whose byte set holds the class.
    class_bits: Vec<u64>,
    /// Per forward meta state: its `Byte` members.
    fwd_bits: Vec<u64>,
}

/// Compressed sparse rows: `items[at[t]..at[t + 1]]` lists `t`'s entries.
fn csr(n: usize, pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut at = vec![0u32; n + 1];
    for &(t, _) in pairs {
        at[t as usize + 1] += 1;
    }
    for t in 0..n {
        at[t + 1] += at[t];
    }
    let mut fill = at.clone();
    let mut items = vec![0u32; pairs.len()];
    for &(t, v) in pairs {
        items[fill[t as usize] as usize] = v;
        fill[t as usize] += 1;
    }
    (at, items)
}

fn set_bit(words: &mut [u64], i: u32) {
    words[i as usize / 64] |= 1u64 << (i % 64);
}

fn ones(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros();
                w &= w - 1;
                (wi as u32) << 6 | bit
            })
        })
    })
}

impl LiveNfa {
    /// Reverse `nfa`. `reps` holds one representative byte per class of
    /// the forward DFA's byte partition. Forward states are added with
    /// [`push_forward`](LiveNfa::push_forward) in meta-state order.
    pub(crate) fn new(nfa: &Nfa, reps: &[u8]) -> LiveNfa {
        let nstates = nfa.states.len();
        let mut byte_state = Vec::new();
        let (mut byte_edges, mut split_edges, mut end_edges) = (Vec::new(), Vec::new(), Vec::new());
        for (id, s) in nfa.states.iter().enumerate() {
            let id = id as u32;
            match *s {
                State::Byte { next, .. } => {
                    byte_edges.push((next, byte_state.len() as u32));
                    byte_state.push(id);
                }
                State::Split { a, b } => split_edges.extend([(a, id), (b, id)]),
                State::End { next } => end_edges.push((next, id)),
                State::Start { .. } | State::Match => {}
            }
        }
        let words = byte_state.len().div_ceil(64).max(1);
        let (byte_pred_at, byte_pred) = csr(nstates, &byte_edges);
        let (split_pred_at, split_pred) = csr(nstates, &split_edges);
        let mut class_bits = vec![0u64; reps.len() * words];
        for (i, &id) in byte_state.iter().enumerate() {
            let State::Byte { set, .. } = &nfa.states[id as usize] else {
                unreachable!("byte_state lists Byte states")
            };
            for (c, &rep) in reps.iter().enumerate() {
                if set.contains(rep) {
                    set_bit(&mut class_bits[c * words..(c + 1) * words], i as u32);
                }
            }
        }
        let mut live = LiveNfa {
            words,
            nstates,
            byte_state,
            byte_pred_at,
            byte_pred,
            split_pred_at,
            split_pred,
            mid: vec![0; words],
            end: vec![0; words],
            class_bits,
            fwd_bits: Vec::new(),
        };
        let accept = nfa
            .states
            .iter()
            .position(|s| matches!(s, State::Match))
            .expect("every NFA has a Match state") as u32;
        let mut seen = vec![0u32; nstates];
        let mut stack = Vec::new();
        let mut mid = vec![0; words];
        live.preds([accept], &[], &mut seen, 1, &mut stack, &mut mid);
        let (end_at, end_pred) = csr(nstates, &end_edges);
        let mut end = vec![0; words];
        live.preds(
            [accept],
            &[(&end_at, &end_pred)],
            &mut seen,
            2,
            &mut stack,
            &mut end,
        );
        live.mid = mid;
        live.end = end;
        live
    }

    /// Record the next forward meta state's members (NFA ids).
    pub(crate) fn push_forward(&mut self, members: impl Iterator<Item = u32>) {
        let at = self.fwd_bits.len();
        self.fwd_bits.resize(at + self.words, 0);
        for id in members {
            if let Ok(i) = self.byte_state.binary_search(&id) {
                set_bit(&mut self.fwd_bits[at..], i as u32);
            }
        }
    }

    /// Words per bitset.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// OR into `out` every `Byte` index `i` whose `next` reaches one of
    /// `seeds` backwards over `Split` edges (and the `extra` reversed
    /// edge lists). `seen` is epoch-stamped traversal scratch.
    fn preds(
        &self,
        seeds: impl IntoIterator<Item = u32>,
        extra: &[(&[u32], &[u32])],
        seen: &mut [u32],
        epoch: u32,
        stack: &mut Vec<u32>,
        out: &mut [u64],
    ) {
        stack.extend(seeds);
        while let Some(t) = stack.pop() {
            if std::mem::replace(&mut seen[t as usize], epoch) == epoch {
                continue;
            }
            let t = t as usize;
            let (lo, hi) = (self.byte_pred_at[t], self.byte_pred_at[t + 1]);
            for &i in &self.byte_pred[lo as usize..hi as usize] {
                set_bit(out, i);
            }
            let (lo, hi) = (self.split_pred_at[t], self.split_pred_at[t + 1]);
            stack.extend_from_slice(&self.split_pred[lo as usize..hi as usize]);
            for (at, items) in extra {
                stack.extend_from_slice(&items[at[t] as usize..at[t + 1] as usize]);
            }
        }
    }
}

/// A lazily determinized live automaton for one scan (or one worker of a
/// parallel scan): live sets interned in a [`SetArena`], a transition
/// cache filled on demand, and the work counters the scan reports.
pub(crate) struct LiveDfa<'a> {
    dfa: &'a MetaDfa,
    /// States kept before [`begin_block`](LiveDfa::begin_block) flushes.
    cap: usize,
    arena: SetArena,
    /// Per live state: its members, `LiveNfa::words` words each.
    bits: Vec<u64>,
    /// Per live state and byte class: successor id or [`UNKNOWN`].
    trans: Vec<u32>,
    /// Per live state: does an attempt starting mid-input meet it?
    starts: Vec<bool>,
    /// Successor of END per byte class, or [`UNKNOWN`].
    end_trans: Vec<u32>,
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
    scratch: Vec<u64>,
    /// Reverse transitions taken.
    pub(crate) steps: u64,
    /// Times the cache was flushed.
    pub(crate) flushes: u64,
}

impl<'a> LiveDfa<'a> {
    /// An empty cache for `dfa`'s live automaton holding about `cap` states.
    pub(crate) fn new(dfa: &'a MetaDfa, cap: usize) -> LiveDfa<'a> {
        let nfa = &dfa.live;
        LiveDfa {
            dfa,
            cap: cap.max(1),
            arena: SetArena::with_budget(None),
            bits: Vec::new(),
            trans: Vec::new(),
            starts: Vec::new(),
            end_trans: vec![UNKNOWN; dfa.nclasses],
            seen: vec![0; nfa.nstates],
            epoch: 0,
            stack: Vec::new(),
            scratch: vec![0; nfa.words],
            steps: 0,
            flushes: 0,
        }
    }

    /// Call before each block: flushes the cache if it outgrew its cap.
    /// Ids handed out earlier are invalid afterwards.
    pub(crate) fn begin_block(&mut self) {
        if self.arena.len() < self.cap {
            return;
        }
        self.arena = SetArena::with_budget(None);
        self.bits.clear();
        self.trans.clear();
        self.starts.clear();
        self.end_trans.fill(UNKNOWN);
        self.flushes += 1;
    }

    /// The members of live state `id`.
    pub(crate) fn bits(&self, id: u32) -> &[u64] {
        let w = self.dfa.live.words;
        &self.bits[id as usize * w..(id as usize + 1) * w]
    }

    /// Does forward meta state `f` (not [`DEAD`]) meet live state `l`?
    #[inline]
    pub(crate) fn meets(&self, f: u32, l: u32) -> bool {
        let (f, l) = (f as usize, l as usize);
        let fwd = &self.dfa.live.fwd_bits;
        match self.dfa.live.words {
            1 => fwd[f] & self.bits[l] != 0,
            w => fwd[f * w..(f + 1) * w]
                .iter()
                .zip(&self.bits[l * w..(l + 1) * w])
                .any(|(&a, &b)| a & b != 0),
        }
    }

    /// Does an attempt starting at offset `j` meet live state `l`, i.e.
    /// is there a non-empty match starting at `j`?
    #[inline]
    pub(crate) fn starts_at(&self, j: usize, l: u32) -> bool {
        if j == 0 {
            self.dfa.start_bof != DEAD && self.meets(self.dfa.start_bof, l)
        } else {
            self.starts[l as usize]
        }
    }

    /// Intern a live set, returning its id.
    fn intern(&mut self, set: &[u64]) -> u32 {
        let before = self.arena.len();
        let members = StateSet::from_iter(ones(set).map(StateId));
        let id = self.arena.intern(members).0;
        if self.arena.len() > before {
            self.bits.extend_from_slice(set);
            self.trans
                .resize(self.trans.len() + self.dfa.nclasses, UNKNOWN);
            let start = self.dfa.start_mid;
            let starts = start != DEAD && self.meets(start, id);
            self.starts.push(starts);
        }
        id
    }

    /// Compute and cache the successor of live state `l` on byte class
    /// `c`: the state one offset to the left.
    #[cold]
    fn fill(&mut self, l: u32, c: usize) -> u32 {
        let nfa = &self.dfa.live;
        let w = nfa.words;
        if self.epoch == u32::MAX {
            self.seen.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let mut acc = std::mem::take(&mut self.scratch);
        acc.copy_from_slice(&nfa.mid);
        let seeds = ones(&self.bits[l as usize * w..(l as usize + 1) * w])
            .map(|i| nfa.byte_state[i as usize]);
        nfa.preds(
            seeds,
            &[],
            &mut self.seen,
            self.epoch,
            &mut self.stack,
            &mut acc,
        );
        for (a, m) in acc.iter_mut().zip(&nfa.class_bits[c * w..(c + 1) * w]) {
            *a &= m;
        }
        let t = self.intern(&acc);
        self.scratch = acc;
        self.trans[l as usize * self.dfa.nclasses + c] = t;
        t
    }

    /// Successor of END on byte `b`: `live(n - 1)`.
    fn step_end(&mut self, b: u8) -> u32 {
        let c = self.dfa.classes[b as usize] as usize;
        if self.end_trans[c] == UNKNOWN {
            let nfa = &self.dfa.live;
            let w = nfa.words;
            let set: Vec<u64> = nfa
                .end
                .iter()
                .zip(&nfa.class_bits[c * w..(c + 1) * w])
                .map(|(a, m)| a & m)
                .collect();
            self.end_trans[c] = self.intern(&set);
        }
        self.end_trans[c]
    }

    /// Run right to left over `bytes`, entering from the live set `right`
    /// at its right end (`None` is END, the total end of the input):
    /// `ids[k]` becomes the live state at `bytes[k]`.
    pub(crate) fn run(&mut self, bytes: &[u8], right: Option<&[u64]>, ids: &mut Vec<u32>) {
        ids.clear();
        ids.resize(bytes.len(), 0);
        let Some((&last, rest)) = bytes.split_last() else {
            return;
        };
        let (mut l, todo) = match right {
            None => {
                let l = self.step_end(last);
                ids[rest.len()] = l;
                (l, rest)
            }
            Some(set) => (self.intern(set), bytes),
        };
        let (classes, nc) = (&self.dfa.classes, self.dfa.nclasses);
        for (id, &b) in ids[..todo.len()].iter_mut().zip(todo).rev() {
            let c = classes[b as usize] as usize;
            l = match self.trans[l as usize * nc + c] {
                UNKNOWN => self.fill(l, c),
                t => t,
            };
            *id = l;
        }
        self.steps += bytes.len() as u64;
    }
}
