//! Meta-state membership sets.
//!
//! A meta state *is* a set of MIMD states (§1.2: "it is also possible to
//! view the set of processor states at a particular time as \[a\] single,
//! aggregate, 'Meta State'"). The converter manipulates huge numbers of
//! these sets — §2.3's base construction unions, hashes, and interns one
//! candidate set per successor choice, up to 3ⁿ per meta state — so the
//! representation is a hybrid tuned for that workload:
//!
//! * **Small** (≤ `SMALL_MAX` members): the ids live inline in a fixed
//!   array, no heap allocation. Typical meta states are sparse, so this is
//!   the common case on real programs.
//! * **Bits** (> `SMALL_MAX` members): a dense `Vec<u64>` bitset with
//!   trailing zero words trimmed. `union` / `difference` / `is_subset` run
//!   word-parallel (64 members per operation), which is what keeps the
//!   state-explosion workloads at memory bandwidth.
//!
//! Membership count is cached in both variants, so [`StateSet::len`] is
//! O(1). The representation is **canonical** — a set has ≤ `SMALL_MAX`
//! members if and only if it is `Small`, every operation re-normalizes,
//! and unused inline slots are zeroed — so structural equality and hashing
//! never need to compare across variants.
//!
//! Sets are interned in a [`SetArena`]: each distinct set is stored once
//! and referred to by a compact [`SetId`] handle. Dense bitsets cope fine
//! with time splitting (§2.4) growing the MIMD state id space dynamically:
//! ids grow by appending states, so the word vector grows at the tail.

use crate::spill::{default_memory_budget, SegmentStore};
use msc_ir::util::{FxHashMap, FxHasher};
use msc_ir::StateId;
use msc_simd::setops;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Largest member count stored inline (spill threshold of the hybrid).
const SMALL_MAX: usize = 4;

/// Canonical storage: `Small` iff the set has ≤ [`SMALL_MAX`] members.
/// `Small` keeps members sorted ascending with unused slots zeroed (so the
/// derived equality is structural equality); `Bits` keeps `len` cached and
/// the last word non-zero.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    Small { buf: [u32; SMALL_MAX], len: u8 },
    Bits { len: u32, words: Vec<u64> },
}

/// A set of MIMD state ids: one meta state's members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSet(Repr);

impl Default for StateSet {
    fn default() -> Self {
        StateSet::empty()
    }
}

/// Build the canonical representation from a sorted, deduplicated slice.
fn from_sorted(v: &[u32]) -> Repr {
    if v.len() <= SMALL_MAX {
        let mut buf = [0u32; SMALL_MAX];
        buf[..v.len()].copy_from_slice(v);
        Repr::Small {
            buf,
            len: v.len() as u8,
        }
    } else {
        let n_words = (*v.last().unwrap() as usize >> 6) + 1;
        let mut words = vec![0u64; n_words];
        for &x in v {
            words[(x >> 6) as usize] |= 1u64 << (x & 63);
        }
        Repr::Bits {
            len: v.len() as u32,
            words,
        }
    }
}

/// Re-normalize a word vector whose population is `len`: spill back to
/// `Small` when it shrank to the inline range, otherwise trim trailing
/// zero words.
fn normalize_bits(len: u32, mut words: Vec<u64>) -> Repr {
    if len as usize <= SMALL_MAX {
        let mut buf = [0u32; SMALL_MAX];
        let mut n = 0usize;
        for (wi, &w) in words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                buf[n] = (wi as u32) << 6 | w.trailing_zeros();
                w &= w - 1;
                n += 1;
            }
        }
        debug_assert_eq!(n, len as usize);
        Repr::Small {
            buf,
            len: len as u8,
        }
    } else {
        while words.last() == Some(&0) {
            words.pop();
        }
        Repr::Bits { len, words }
    }
}

impl StateSet {
    /// The empty set.
    pub fn empty() -> Self {
        StateSet(Repr::Small {
            buf: [0; SMALL_MAX],
            len: 0,
        })
    }

    /// Build from an arbitrary iterator of state ids (sorts and dedups).
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator below
    pub fn from_iter(iter: impl IntoIterator<Item = StateId>) -> Self {
        let mut v: Vec<u32> = iter.into_iter().map(|s| s.0).collect();
        v.sort_unstable();
        v.dedup();
        StateSet(from_sorted(&v))
    }

    /// A singleton set.
    pub fn singleton(s: StateId) -> Self {
        let mut buf = [0u32; SMALL_MAX];
        buf[0] = s.0;
        StateSet(Repr::Small { buf, len: 1 })
    }

    /// Number of member MIMD states (the meta state's *width*, which §2.5
    /// notes governs SIMD efficiency). O(1): cached in both variants.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Small { len, .. } => *len as usize,
            Repr::Bits { len, .. } => *len as usize,
        }
    }

    /// True when the set has no members (program termination).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test: inline scan or single bit probe.
    pub fn contains(&self, s: StateId) -> bool {
        match &self.0 {
            Repr::Small { buf, len } => buf[..*len as usize].contains(&s.0),
            Repr::Bits { words, .. } => {
                let wi = (s.0 >> 6) as usize;
                wi < words.len() && words[wi] & (1u64 << (s.0 & 63)) != 0
            }
        }
    }

    /// Iterate members in ascending order.
    pub fn iter(&self) -> Members<'_> {
        Members(match &self.0 {
            Repr::Small { buf, len } => MembersInner::Small(buf[..*len as usize].iter()),
            Repr::Bits { words, .. } => MembersInner::Bits {
                words,
                wi: 0,
                cur: words.first().copied().unwrap_or(0),
            },
        })
    }

    /// Members as a freshly allocated sorted vector (tests, rendering).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().map(|s| s.0).collect()
    }

    /// Set union. Small∪Small is a bounded merge; anything involving a
    /// bitset is a word-parallel OR.
    pub fn union(&self, other: &StateSet) -> StateSet {
        match (&self.0, &other.0) {
            (Repr::Small { buf: a, len: la }, Repr::Small { buf: b, len: lb }) => {
                let (a, b) = (&a[..*la as usize], &b[..*lb as usize]);
                let mut out = [0u32; 2 * SMALL_MAX];
                let (mut i, mut j, mut n) = (0, 0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        Ordering::Less => {
                            out[n] = a[i];
                            i += 1;
                        }
                        Ordering::Greater => {
                            out[n] = b[j];
                            j += 1;
                        }
                        Ordering::Equal => {
                            out[n] = a[i];
                            i += 1;
                            j += 1;
                        }
                    }
                    n += 1;
                }
                while i < a.len() {
                    out[n] = a[i];
                    i += 1;
                    n += 1;
                }
                while j < b.len() {
                    out[n] = b[j];
                    j += 1;
                    n += 1;
                }
                StateSet(from_sorted(&out[..n]))
            }
            (Repr::Bits { words: a, .. }, Repr::Bits { words: b, .. }) => {
                let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
                // One fused SIMD pass: OR + popcount straight into a fresh
                // exactly-sized vector (no clone-then-recount).
                let mut words = Vec::new();
                let len = setops::union_count(long, short, &mut words);
                // A union with a bitset operand has > SMALL_MAX members.
                StateSet(Repr::Bits { len, words })
            }
            (Repr::Small { buf, len }, Repr::Bits { .. }) => {
                other.union_with_small(&buf[..*len as usize])
            }
            (Repr::Bits { .. }, Repr::Small { buf, len }) => {
                self.union_with_small(&buf[..*len as usize])
            }
        }
    }

    /// `self` must be `Bits`; OR in a short sorted member list.
    fn union_with_small(&self, small: &[u32]) -> StateSet {
        let Repr::Bits { len, words } = &self.0 else {
            unreachable!("caller checked the variant");
        };
        let mut words = words.clone();
        let mut len = *len;
        for &x in small {
            let wi = (x >> 6) as usize;
            if wi >= words.len() {
                words.resize(wi + 1, 0);
            }
            let bit = 1u64 << (x & 63);
            if words[wi] & bit == 0 {
                words[wi] |= bit;
                len += 1;
            }
        }
        StateSet(Repr::Bits { len, words })
    }

    /// In-place union with a single element.
    pub fn insert(&mut self, s: StateId) {
        match &mut self.0 {
            Repr::Small { buf, len } => {
                let n = *len as usize;
                let pos = buf[..n].partition_point(|&x| x < s.0);
                if pos < n && buf[pos] == s.0 {
                    return;
                }
                if n < SMALL_MAX {
                    buf.copy_within(pos..n, pos + 1);
                    buf[pos] = s.0;
                    *len += 1;
                } else {
                    // Spill: 5 members now.
                    let mut v = [0u32; SMALL_MAX + 1];
                    v[..pos].copy_from_slice(&buf[..pos]);
                    v[pos] = s.0;
                    v[pos + 1..].copy_from_slice(&buf[pos..]);
                    self.0 = from_sorted(&v);
                }
            }
            Repr::Bits { len, words } => {
                let wi = (s.0 >> 6) as usize;
                if wi >= words.len() {
                    words.resize(wi + 1, 0);
                }
                let bit = 1u64 << (s.0 & 63);
                if words[wi] & bit == 0 {
                    words[wi] |= bit;
                    *len += 1;
                }
            }
        }
    }

    /// Set difference `self \ other` (word-parallel AND-NOT on bitsets).
    pub fn difference(&self, other: &StateSet) -> StateSet {
        match (&self.0, &other.0) {
            (Repr::Small { buf, len }, _) => {
                let mut out = [0u32; SMALL_MAX];
                let mut n = 0;
                for &x in &buf[..*len as usize] {
                    if !other.contains(StateId(x)) {
                        out[n] = x;
                        n += 1;
                    }
                }
                StateSet(from_sorted(&out[..n]))
            }
            (Repr::Bits { words: a, .. }, Repr::Bits { words: b, .. }) => {
                let mut words = Vec::new();
                let len = setops::andnot_count(a, b, &mut words);
                StateSet(normalize_bits(len, words))
            }
            (Repr::Bits { words, .. }, Repr::Small { buf, len: lb }) => {
                let mut words = words.clone();
                for &x in &buf[..*lb as usize] {
                    let wi = (x >> 6) as usize;
                    if wi < words.len() {
                        words[wi] &= !(1u64 << (x & 63));
                    }
                }
                let len = setops::popcount(&words);
                StateSet(normalize_bits(len, words))
            }
        }
    }

    /// Members satisfying `pred` (e.g. "is a barrier wait state", §2.6).
    pub fn filter(&self, mut pred: impl FnMut(StateId) -> bool) -> StateSet {
        match &self.0 {
            Repr::Small { buf, len } => {
                let mut out = [0u32; SMALL_MAX];
                let mut n = 0;
                for &x in &buf[..*len as usize] {
                    if pred(StateId(x)) {
                        out[n] = x;
                        n += 1;
                    }
                }
                StateSet(from_sorted(&out[..n]))
            }
            Repr::Bits { words, .. } => {
                let mut words = words.clone();
                let mut len = 0u32;
                for (wi, w) in words.iter_mut().enumerate() {
                    let mut probe = *w;
                    while probe != 0 {
                        let bit = probe & probe.wrapping_neg();
                        if !pred(StateId((wi as u32) << 6 | bit.trailing_zeros())) {
                            *w &= !bit;
                        }
                        probe &= probe - 1;
                    }
                    len += w.count_ones();
                }
                StateSet(normalize_bits(len, words))
            }
        }
    }

    /// True when every member of `self` is in `other` (word-parallel on
    /// bitset pairs).
    pub fn is_subset(&self, other: &StateSet) -> bool {
        if self.len() > other.len() {
            return false;
        }
        match (&self.0, &other.0) {
            (Repr::Small { buf, len }, _) => buf[..*len as usize]
                .iter()
                .all(|&x| other.contains(StateId(x))),
            (Repr::Bits { words: a, .. }, Repr::Bits { words: b, .. }) => {
                // Trailing words are trimmed, so extra words of `a` would
                // hold members `b` lacks.
                a.len() <= b.len() && setops::subset_of(a, b)
            }
            // A bitset has > SMALL_MAX members; the length check above
            // already rejected it against any Small set.
            (Repr::Bits { .. }, Repr::Small { .. }) => unreachable!("len check rejects Bits⊆Small"),
        }
    }

    /// True when `self ⊂ other` strictly.
    pub fn is_strict_subset(&self, other: &StateSet) -> bool {
        self.len() < other.len() && self.is_subset(other)
    }

    /// Append this set's bitset words (trailing zeros trimmed) to `out`,
    /// returning how many words were written. Small sets expand into bit
    /// words here; the output is what a `Bits` representation of the same
    /// members would hold, so slices from different sets are directly
    /// comparable by the word-parallel kernels (e.g.
    /// [`setops::subset_of_many`]).
    pub fn append_bit_words(&self, out: &mut Vec<u64>) -> usize {
        match &self.0 {
            Repr::Small { buf, len } => {
                let start = out.len();
                for &m in &buf[..*len as usize] {
                    let w = (m >> 6) as usize;
                    while out.len() - start <= w {
                        out.push(0);
                    }
                    out[start + w] |= 1u64 << (m & 63);
                }
                out.len() - start
            }
            Repr::Bits { words, .. } => {
                out.extend_from_slice(words);
                words.len()
            }
        }
    }

    /// Union into a reusable scratch buffer, fusing the Fx hash of the
    /// result into the same pass — the allocation-free primitive the
    /// converter's 3ⁿ candidate enumeration runs on. Returns exactly what
    /// [`fx_hash`] of the materialized union would return, so a caller can
    /// dedup candidates by `(hash, `[`UnionScratch::matches`]`)` and only
    /// pay an allocation ([`UnionScratch::materialize`]) for sets that are
    /// genuinely new.
    pub fn union_into_scratch(&self, other: &StateSet, s: &mut UnionScratch) -> u64 {
        match (&self.0, &other.0) {
            (Repr::Small { buf: a, len: la }, Repr::Small { buf: b, len: lb }) => {
                let (a, b) = (&a[..*la as usize], &b[..*lb as usize]);
                let (mut i, mut j, mut n) = (0, 0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        Ordering::Less => {
                            s.small[n] = a[i];
                            i += 1;
                        }
                        Ordering::Greater => {
                            s.small[n] = b[j];
                            j += 1;
                        }
                        Ordering::Equal => {
                            s.small[n] = a[i];
                            i += 1;
                            j += 1;
                        }
                    }
                    n += 1;
                }
                while i < a.len() {
                    s.small[n] = a[i];
                    i += 1;
                    n += 1;
                }
                while j < b.len() {
                    s.small[n] = b[j];
                    j += 1;
                    n += 1;
                }
                s.small_len = n;
                s.len = n as u32;
                if n <= SMALL_MAX {
                    s.is_small = true;
                    let g = |k: usize| if k < n { s.small[k] as u64 } else { 0 };
                    let mut h = FxHasher::default();
                    h.write_u64(g(0) | g(1) << 32);
                    h.write_u64(g(2) | g(3) << 32);
                    h.write_u8(n as u8);
                    s.hash = h.finish();
                } else {
                    s.is_small = false;
                    let nw = (s.small[n - 1] as usize >> 6) + 1;
                    s.words.clear();
                    s.words.resize(nw, 0);
                    for &x in &s.small[..n] {
                        s.words[(x >> 6) as usize] |= 1u64 << (x & 63);
                    }
                    s.hash = hash_bits_words(&s.words, s.len);
                }
            }
            (Repr::Bits { words: a, .. }, Repr::Bits { words: b, .. }) => {
                let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
                let mut h = FxHasher::default();
                s.len = setops::union_count_hash(long, short, &mut s.words, &mut h);
                h.write_u32(s.len);
                s.is_small = false;
                s.hash = h.finish();
            }
            (Repr::Small { buf, len }, Repr::Bits { .. })
            | (Repr::Bits { .. }, Repr::Small { buf, len }) => {
                let (bits, small) = if matches!(self.0, Repr::Bits { .. }) {
                    (self, &buf[..*len as usize])
                } else {
                    (other, &buf[..*len as usize])
                };
                let Repr::Bits {
                    len: blen,
                    words: bwords,
                } = &bits.0
                else {
                    unreachable!("selected the Bits operand");
                };
                s.words.clear();
                s.words.extend_from_slice(bwords);
                s.len = *blen;
                for &x in small {
                    let wi = (x >> 6) as usize;
                    if wi >= s.words.len() {
                        s.words.resize(wi + 1, 0);
                    }
                    let bit = 1u64 << (x & 63);
                    if s.words[wi] & bit == 0 {
                        s.words[wi] |= bit;
                        s.len += 1;
                    }
                }
                s.is_small = false;
                s.hash = hash_bits_words(&s.words, s.len);
            }
        }
        s.hash
    }
}

/// The Fx hash the [`Hash`] impl produces for a `Bits` set with these
/// words and member count.
fn hash_bits_words(words: &[u64], len: u32) -> u64 {
    let mut h = FxHasher::default();
    for &w in words {
        h.write_u64(w);
    }
    h.write_u32(len);
    h.finish()
}

/// Reusable result buffer for [`StateSet::union_into_scratch`]: holds one
/// candidate union (inline members or bitset words) without owning an
/// allocation per candidate.
#[derive(Debug, Default)]
pub struct UnionScratch {
    /// Bitset words of the candidate (when `!is_small`), trailing word
    /// non-zero (canonical).
    words: Vec<u64>,
    /// Merged members (sorted) while the candidate still fits inline.
    small: [u32; 2 * SMALL_MAX],
    small_len: usize,
    len: u32,
    is_small: bool,
    hash: u64,
}

impl UnionScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Member count of the held candidate.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the held candidate is the empty set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Structural equality between the held candidate and a materialized
    /// set — used to resolve hash-bucket collisions without allocating.
    pub fn matches(&self, set: &StateSet) -> bool {
        match (&set.0, self.is_small) {
            (Repr::Small { buf, len }, true) => {
                *len as usize == self.small_len
                    && buf[..self.small_len] == self.small[..self.small_len]
            }
            (Repr::Bits { len, words }, false) => *len == self.len && words[..] == self.words[..],
            _ => false,
        }
    }

    /// Allocate the held candidate as an owned, canonical [`StateSet`].
    pub fn materialize(&self) -> StateSet {
        if self.is_small {
            StateSet(from_sorted(&self.small[..self.small_len]))
        } else {
            StateSet(Repr::Bits {
                len: self.len,
                words: self.words.clone(),
            })
        }
    }
}

/// Iterator over a set's members in ascending order.
pub struct Members<'a>(MembersInner<'a>);

enum MembersInner<'a> {
    Small(std::slice::Iter<'a, u32>),
    Bits {
        words: &'a [u64],
        wi: usize,
        cur: u64,
    },
}

impl Iterator for Members<'_> {
    type Item = StateId;

    fn next(&mut self) -> Option<StateId> {
        match &mut self.0 {
            MembersInner::Small(it) => it.next().map(|&x| StateId(x)),
            MembersInner::Bits { words, wi, cur } => {
                while *cur == 0 {
                    *wi += 1;
                    *cur = *words.get(*wi)?;
                }
                let bit = cur.trailing_zeros();
                *cur &= *cur - 1;
                Some(StateId((*wi as u32) << 6 | bit))
            }
        }
    }
}

impl Hash for StateSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The representation is canonical, so per-variant hashing is
        // consistent: equal sets are always the same variant with the same
        // payload. Both arms hash whole 64-bit words.
        match &self.0 {
            Repr::Small { buf, len } => {
                state.write_u64((buf[0] as u64) | (buf[1] as u64) << 32);
                state.write_u64((buf[2] as u64) | (buf[3] as u64) << 32);
                state.write_u8(*len);
            }
            Repr::Bits { len, words } => {
                for &w in words {
                    state.write_u64(w);
                }
                state.write_u32(*len);
            }
        }
    }
}

impl PartialOrd for StateSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StateSet {
    /// Lexicographic over the ascending member sequence — identical to the
    /// former sorted-`Vec<u32>` ordering, which test expectations and the
    /// deterministic successor orderings rely on.
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Small { buf: a, len: la }, Repr::Small { buf: b, len: lb }) => {
                a[..*la as usize].cmp(&b[..*lb as usize])
            }
            _ => self.iter().cmp(other.iter()),
        }
    }
}

impl fmt::Display for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", x.0)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<StateId> for StateSet {
    fn from_iter<T: IntoIterator<Item = StateId>>(iter: T) -> Self {
        StateSet::from_iter(iter)
    }
}

/// The set's Fx hash — the key the arena and the successor-set dedup
/// table bucket by, so a set hashes identically everywhere.
pub fn fx_hash(set: &StateSet) -> u64 {
    let mut h = FxHasher::default();
    set.hash(&mut h);
    h.finish()
}

/// Interned handle to a [`StateSet`] inside a [`SetArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetId(pub u32);

impl SetId {
    /// The index as a usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Interning arena: each distinct [`StateSet`] is stored exactly once.
///
/// Sets live in a struct-of-arrays bump arena — per-set `(len, span)`
/// descriptors over one contiguous `words: Vec<u64>` block — instead of a
/// `Vec<StateSet>` with a heap allocation per bitset. Inline ("small") sets
/// pack their members into two words using the same packing the `Hash`
/// impl hashes, so every set has exactly one encoded form.
///
/// When a memory `budget` is set (explicitly via [`SetArena::with_budget`]
/// or process-wide via `MSC_MEMORY_BUDGET`), the arena spills its *cold
/// prefix* — sets are appended in discovery order and the subset
/// construction mostly probes recent sets — to an unlinked-on-drop
/// [`SegmentStore`] temp file once resident words exceed the budget.
/// Because eviction only ever moves a contiguous prefix, a logical word
/// offset maps to a stable file byte offset (`off * 8`) forever. Spill
/// *write* failures degrade back to in-RAM operation (the budget is
/// dropped, never the data); reload failures panic, since the words exist
/// nowhere else.
#[derive(Debug, Default)]
pub struct SetArena {
    /// Per-set member count.
    lens: Vec<u32>,
    /// Per-set `(logical word offset, word count)` into the arena stream.
    spans: Vec<(u64, u32)>,
    /// Resident suffix of the arena word stream.
    words: Vec<u64>,
    /// Logical word offset of `words[0]`; everything below it is spilled.
    base: u64,
    /// Index of the first set whose span is resident.
    first_resident: usize,
    store: Option<SegmentStore>,
    budget: Option<usize>,
    lookup: FxHashMap<u64, Vec<SetId>>,
    /// Peak resident words bytes, for `convert.arena_high_water`.
    high_water: u64,
    /// Reload buffer for spilled spans (`get`/`intern` on a cold set).
    reload: Vec<u64>,
}

impl SetArena {
    /// An empty arena, honoring the process-wide `MSC_MEMORY_BUDGET` spill
    /// budget when set.
    pub fn new() -> Self {
        Self::with_budget(default_memory_budget())
    }

    /// An empty arena with an explicit resident-words budget in bytes
    /// (`None` = never spill).
    pub fn with_budget(budget: Option<usize>) -> Self {
        SetArena {
            budget,
            ..SetArena::default()
        }
    }

    /// Encode a set's arena words: dense bitset words for `Bits`, the two
    /// hash-packing words for non-empty `Small`, nothing for the empty set.
    fn encode<'a>(set: &'a StateSet, inline: &'a mut [u64; 2]) -> &'a [u64] {
        match &set.0 {
            Repr::Small { len: 0, .. } => &[],
            Repr::Small { buf, .. } => {
                inline[0] = (buf[0] as u64) | (buf[1] as u64) << 32;
                inline[1] = (buf[2] as u64) | (buf[3] as u64) << 32;
                &inline[..]
            }
            Repr::Bits { words, .. } => words,
        }
    }

    /// Decode arena words back into a canonical [`StateSet`].
    fn decode(len: u32, words: &[u64]) -> StateSet {
        if len == 0 {
            return StateSet::empty();
        }
        if len as usize <= SMALL_MAX {
            let buf = [
                words[0] as u32,
                (words[0] >> 32) as u32,
                words[1] as u32,
                (words[1] >> 32) as u32,
            ];
            StateSet(Repr::Small {
                buf,
                len: len as u8,
            })
        } else {
            StateSet(Repr::Bits {
                len,
                words: words.to_vec(),
            })
        }
    }

    /// Intern a set, returning its stable handle.
    pub fn intern(&mut self, set: StateSet) -> SetId {
        let hash = fx_hash(&set);
        let mut inline = [0u64; 2];
        let len = set.len() as u32;
        // Probe the hash bucket by index (not iterator) so a cold candidate
        // can be reloaded mid-scan without holding a borrow of `lookup`.
        let bucket_len = self.lookup.get(&hash).map_or(0, |b| b.len());
        for k in 0..bucket_len {
            let id = self.lookup[&hash][k];
            let enc = Self::encode(&set, &mut inline);
            if self.words_match(id, len, enc) {
                return id;
            }
        }
        let enc = Self::encode(&set, &mut inline);
        let id = SetId(self.lens.len() as u32);
        let off = self.base + self.words.len() as u64;
        self.words.extend_from_slice(enc);
        self.spans.push((off, enc.len() as u32));
        self.lens.push(len);
        self.lookup.entry(hash).or_default().push(id);
        let resident = (self.words.len() * 8) as u64;
        if resident > self.high_water {
            self.high_water = resident;
            msc_obs::value("convert.arena_high_water", resident);
        }
        self.maybe_evict();
        id
    }

    /// True when set `id`'s stored words equal `enc` (with member count
    /// `len`), reloading from the segment store if the span is cold.
    fn words_match(&mut self, id: SetId, len: u32, enc: &[u64]) -> bool {
        if self.lens[id.idx()] != len {
            return false;
        }
        let (off, nw) = self.spans[id.idx()];
        if nw as usize != enc.len() {
            return false;
        }
        if nw == 0 {
            return true;
        }
        if off >= self.base {
            let s = (off - self.base) as usize;
            self.words[s..s + nw as usize] == *enc
        } else {
            self.reload_span(off, nw);
            self.reload[..nw as usize] == *enc
        }
    }

    /// Fill `self.reload` with a spilled span's words.
    fn reload_span(&mut self, off: u64, nw: u32) {
        self.reload.clear();
        self.reload.resize(nw as usize, 0);
        self.store
            .as_mut()
            .expect("spilled span without a segment store")
            .read_words(off * 8, &mut self.reload)
            .expect("spilled meta-state words must be readable");
        msc_obs::count("engine.spill_reload", 1);
    }

    /// Spill the cold prefix of the arena when resident words exceed the
    /// budget, keeping roughly half the budget resident (hysteresis so a
    /// stream of interns doesn't trigger a file write each time).
    fn maybe_evict(&mut self) {
        let Some(budget) = self.budget else { return };
        if self.words.len() * 8 <= budget {
            return;
        }
        let keep_words = budget / 2 / 8;
        let target_cut = self.words.len().saturating_sub(keep_words);
        // Advance to the first span boundary at or past the target; only
        // whole spans move so file offsets stay stable.
        let mut j = self.first_resident;
        while j < self.spans.len() && ((self.spans[j].0 - self.base) as usize) < target_cut {
            j += 1;
        }
        let cut = if j < self.spans.len() {
            (self.spans[j].0 - self.base) as usize
        } else {
            self.words.len()
        };
        if cut == 0 {
            return;
        }
        let store = match &mut self.store {
            Some(s) => s,
            None => match SegmentStore::create("arena") {
                Ok(s) => self.store.insert(s),
                Err(_) => {
                    // Can't create the spill file: degrade to in-RAM.
                    self.budget = None;
                    return;
                }
            },
        };
        debug_assert_eq!(store.len(), self.base * 8, "store is the spilled prefix");
        match store.append_words(&self.words[..cut]) {
            Ok(_) => {
                msc_obs::count("convert.spill_bytes", (cut * 8) as u64);
                self.words.copy_within(cut.., 0);
                let kept = self.words.len() - cut;
                self.words.truncate(kept);
                self.base += cut as u64;
                self.first_resident = j;
            }
            Err(_) => {
                // Spill write failed: keep everything resident instead.
                self.budget = None;
            }
        }
    }

    /// Materialize a set by handle. Takes `&mut self` because a cold
    /// (spilled) set is staged through the reload buffer.
    pub fn get(&mut self, id: SetId) -> StateSet {
        let len = self.lens[id.idx()];
        let (off, nw) = self.spans[id.idx()];
        if len == 0 {
            return StateSet::empty();
        }
        if off >= self.base {
            let s = (off - self.base) as usize;
            Self::decode(len, &self.words[s..s + nw as usize])
        } else {
            self.reload_span(off, nw);
            Self::decode(len, &self.reload[..nw as usize])
        }
    }

    /// Member count of set `id` without materializing it.
    pub fn len_of(&self, id: SetId) -> usize {
        self.lens[id.idx()] as usize
    }

    /// Number of distinct sets interned.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Bytes of set words currently resident in RAM.
    pub fn resident_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Bytes of set words spilled to the segment store so far.
    pub fn spilled_bytes(&self) -> u64 {
        self.base * 8
    }

    /// Peak resident bytes over the arena's lifetime.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u32]) -> StateSet {
        StateSet::from_iter(v.iter().map(|&x| StateId(x)))
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        assert_eq!(set(&[3, 1, 2, 1, 3]).to_vec(), &[1, 2, 3]);
    }

    #[test]
    fn union_is_sorted_merge() {
        assert_eq!(
            set(&[1, 3, 5]).union(&set(&[2, 3, 6])).to_vec(),
            &[1, 2, 3, 5, 6]
        );
        assert_eq!(set(&[]).union(&set(&[2])).to_vec(), &[2]);
        assert_eq!(set(&[2]).union(&set(&[])).to_vec(), &[2]);
    }

    #[test]
    fn difference_removes_members() {
        assert_eq!(set(&[1, 2, 3]).difference(&set(&[2])).to_vec(), &[1, 3]);
        assert_eq!(
            set(&[1, 2]).difference(&set(&[1, 2])).to_vec(),
            &[] as &[u32]
        );
    }

    #[test]
    fn subset_relations() {
        assert!(set(&[1, 3]).is_subset(&set(&[1, 2, 3])));
        assert!(set(&[1, 3]).is_strict_subset(&set(&[1, 2, 3])));
        assert!(set(&[1, 2, 3]).is_subset(&set(&[1, 2, 3])));
        assert!(!set(&[1, 2, 3]).is_strict_subset(&set(&[1, 2, 3])));
        assert!(!set(&[1, 4]).is_subset(&set(&[1, 2, 3])));
        assert!(set(&[]).is_subset(&set(&[1])));
    }

    #[test]
    fn insert_keeps_order() {
        let mut s = set(&[1, 5]);
        s.insert(StateId(3));
        s.insert(StateId(3));
        assert_eq!(s.to_vec(), &[1, 3, 5]);
    }

    #[test]
    fn insert_spills_small_to_bits_and_stays_canonical() {
        let mut s = set(&[1, 3, 5, 7]);
        s.insert(StateId(200));
        assert_eq!(s.to_vec(), &[1, 3, 5, 7, 200]);
        assert_eq!(s.len(), 5);
        assert_eq!(s, set(&[200, 7, 5, 3, 1]), "spilled set compares equal");
        s.insert(StateId(200));
        assert_eq!(s.len(), 5, "re-insert is a no-op");
    }

    #[test]
    fn shrinking_bits_normalizes_back_to_small() {
        let big = set(&[1, 2, 3, 4, 5, 6, 700]);
        let small = big.difference(&set(&[2, 4, 6, 700]));
        assert_eq!(small.to_vec(), &[1, 3, 5]);
        // Canonical: must equal (and hash like) a directly-built small set.
        let direct = set(&[1, 3, 5]);
        assert_eq!(small, direct);
        assert_eq!(fx_hash(&small), fx_hash(&direct));
    }

    #[test]
    fn wide_sparse_sets_work() {
        let s = set(&[0, 63, 64, 127, 128, 1000]);
        assert_eq!(s.len(), 6);
        assert!(s.contains(StateId(1000)));
        assert!(!s.contains(StateId(999)));
        assert!(!s.contains(StateId(4096)), "beyond the last word");
        assert_eq!(s.to_vec(), &[0, 63, 64, 127, 128, 1000]);
    }

    #[test]
    fn ordering_is_lexicographic_over_members() {
        // Same ordering the former sorted-Vec derive produced.
        let mut v = vec![
            set(&[2, 3]),
            set(&[1, 2, 3, 4, 5]),
            set(&[1]),
            set(&[1, 2, 3, 4, 6]),
            set(&[]),
            set(&[2]),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                set(&[]),
                set(&[1]),
                set(&[1, 2, 3, 4, 5]),
                set(&[1, 2, 3, 4, 6]),
                set(&[2]),
                set(&[2, 3]),
            ]
        );
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(set(&[2, 6, 9]).to_string(), "{2,6,9}");
        assert_eq!(StateSet::empty().to_string(), "{}");
        assert_eq!(set(&[1, 2, 3, 4, 5]).to_string(), "{1,2,3,4,5}");
    }

    #[test]
    fn arena_interns_once() {
        let mut arena = SetArena::new();
        let a = arena.intern(set(&[1, 2]));
        let b = arena.intern(set(&[2, 1, 2]));
        let c = arena.intern(set(&[1, 3]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a).to_vec(), &[1, 2]);
    }

    #[test]
    fn shrink_to_inline_at_exactly_small_max() {
        // A 5-member Bits set losing one member lands exactly on SMALL_MAX
        // and must normalize back to the inline representation.
        let five = set(&[1, 2, 3, 4, 100]);
        let four = five.difference(&set(&[100]));
        let direct = set(&[1, 2, 3, 4]);
        assert_eq!(four.to_vec(), &[1, 2, 3, 4]);
        assert_eq!(four, direct);
        assert_eq!(fx_hash(&four), fx_hash(&direct));
    }

    #[test]
    fn trailing_zero_words_are_trimmed() {
        // Dropping the high member leaves 5 members (still Bits) but must
        // trim the now-zero high words so equal sets share words and hash.
        let wide = set(&[0, 1, 2, 3, 4, 700]);
        let low = wide.difference(&set(&[700]));
        let direct = set(&[0, 1, 2, 3, 4]);
        assert_eq!(low, direct);
        assert_eq!(fx_hash(&low), fx_hash(&direct));
    }

    #[test]
    fn empty_set_canonical_form() {
        let drained = set(&[9, 80, 300]).difference(&set(&[300, 9, 80]));
        assert!(drained.is_empty());
        assert_eq!(drained, StateSet::empty());
        assert_eq!(fx_hash(&drained), fx_hash(&StateSet::empty()));
        assert_eq!(drained.to_vec(), &[] as &[u32]);
    }

    #[test]
    fn union_into_scratch_matches_union_and_hash() {
        let cases = [
            (set(&[]), set(&[])),
            (set(&[1, 2]), set(&[2, 3])),
            (set(&[1, 2, 3]), set(&[4, 5])), // small+small spills to bits
            (set(&[1, 2, 3, 4, 100]), set(&[7])), // bits + small
            (set(&[5]), set(&[1, 2, 3, 4, 200])), // small + bits
            (set(&[0, 64, 128]), set(&[1, 2, 3, 4, 5, 300])), // bits + bits
        ];
        let mut s = UnionScratch::new();
        for (a, b) in &cases {
            let expect = a.union(b);
            let h = a.union_into_scratch(b, &mut s);
            assert_eq!(h, fx_hash(&expect), "fused hash for {a} ∪ {b}");
            assert!(s.matches(&expect));
            assert_eq!(s.materialize(), expect);
            assert_eq!(s.len(), expect.len());
        }
    }

    #[test]
    fn arena_spills_under_budget_and_stays_equivalent() {
        // A tiny-budget arena must hand out the same ids and materialize
        // the same sets as a budget-free one, even once its cold prefix
        // lives on disk — including hash-bucket hits through the reload
        // path when an already-spilled set is re-interned.
        let mk = |i: u32| StateSet::from_iter((0..20).map(move |k| StateId(i * 7 + k * 13)));
        let mut sets: Vec<StateSet> = Vec::new();
        for i in 0..48u32 {
            sets.push(mk(i));
            sets.push(StateSet::from_iter([StateId(i)]));
        }
        sets.push(StateSet::empty());
        let mut plain = SetArena::with_budget(None);
        let mut tiny = SetArena::with_budget(Some(256));
        for s in &sets {
            assert_eq!(plain.intern(s.clone()), tiny.intern(s.clone()));
        }
        assert!(tiny.spilled_bytes() > 0, "tiny budget must actually spill");
        assert_eq!(plain.spilled_bytes(), 0);
        assert!(tiny.high_water_bytes() > 0);
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(tiny.intern(s.clone()), SetId(i as u32), "re-intern hits");
        }
        for (i, s) in sets.iter().enumerate() {
            let id = SetId(i as u32);
            assert_eq!(plain.get(id), tiny.get(id));
            assert_eq!(&tiny.get(id), s);
            assert_eq!(tiny.len_of(id), s.len());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Mixed-density sets: small inline ones and ones that spill to words.
    fn arb_set() -> impl Strategy<Value = StateSet> {
        prop::collection::vec(0u32..96, 0..14)
            .prop_map(|v| StateSet::from_iter(v.into_iter().map(StateId)))
    }

    proptest! {
        /// Union is commutative, associative, idempotent.
        #[test]
        fn union_algebra(a in arb_set(), b in arb_set(), c in arb_set()) {
            prop_assert_eq!(a.union(&b), b.union(&a));
            prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
            prop_assert_eq!(a.union(&a), a);
        }

        /// a ⊆ a∪b; (a∪b)\b ⊆ a; difference then union restores supersets.
        #[test]
        fn subset_difference_laws(a in arb_set(), b in arb_set()) {
            let u = a.union(&b);
            prop_assert!(a.is_subset(&u));
            prop_assert!(b.is_subset(&u));
            prop_assert!(u.difference(&b).is_subset(&a));
            prop_assert_eq!(a.difference(&b).union(&b).difference(&b), a.difference(&b));
        }

        /// Membership agrees with construction.
        #[test]
        fn contains_matches(v in prop::collection::vec(0u32..96, 0..14), probe in 0u32..96) {
            let s = StateSet::from_iter(v.iter().copied().map(StateId));
            prop_assert_eq!(s.contains(StateId(probe)), v.contains(&probe));
        }

        /// Strict subset is irreflexive and implies subset.
        #[test]
        fn strict_subset_laws(a in arb_set(), b in arb_set()) {
            prop_assert!(!a.is_strict_subset(&a));
            if a.is_strict_subset(&b) {
                prop_assert!(a.is_subset(&b));
                prop_assert!(a.len() < b.len());
            }
        }

        /// Every operation agrees with a model over sorted vectors, the
        /// cached length agrees with iteration, equal sets hash equal, and
        /// ordering matches the vector ordering.
        #[test]
        fn operations_match_sorted_vec_model(
            va in prop::collection::vec(0u32..96, 0..14),
            vb in prop::collection::vec(0u32..96, 0..14),
        ) {
            let model = |v: &[u32]| {
                let mut m = v.to_vec();
                m.sort_unstable();
                m.dedup();
                m
            };
            let (ma, mb) = (model(&va), model(&vb));
            let (a, b) = (
                StateSet::from_iter(va.iter().copied().map(StateId)),
                StateSet::from_iter(vb.iter().copied().map(StateId)),
            );
            let m_union: Vec<u32> = model(&[ma.clone(), mb.clone()].concat());
            prop_assert_eq!(a.union(&b).to_vec(), m_union);
            let m_diff: Vec<u32> = ma.iter().copied().filter(|x| !mb.contains(x)).collect();
            prop_assert_eq!(a.difference(&b).to_vec(), m_diff);
            prop_assert_eq!(a.is_subset(&b), ma.iter().all(|x| mb.contains(x)));
            prop_assert_eq!(a.len(), ma.len());
            prop_assert_eq!(a.iter().count(), ma.len());
            prop_assert_eq!(a.cmp(&b), ma.cmp(&mb));
            if ma == mb {
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(fx_hash(&a), fx_hash(&b));
            }
        }

        /// Interning is injective: same handle iff same set. A hit must
        /// also work through the hash-bucket path for spilled sets.
        #[test]
        fn intern_injective(sets in prop::collection::vec(arb_set(), 1..12)) {
            let mut arena = SetArena::new();
            let ids: Vec<SetId> = sets.iter().map(|s| arena.intern(s.clone())).collect();
            for (i, a) in sets.iter().enumerate() {
                for (j, b) in sets.iter().enumerate() {
                    prop_assert_eq!(ids[i] == ids[j], a == b);
                }
            }
        }

        /// The fused scratch union returns exactly `fx_hash(a ∪ b)` and a
        /// candidate that matches/materializes to the allocated union.
        #[test]
        fn scratch_union_matches_union(
            va in prop::collection::vec(0u32..300, 0..20),
            vb in prop::collection::vec(0u32..300, 0..20),
        ) {
            let a = StateSet::from_iter(va.into_iter().map(StateId));
            let b = StateSet::from_iter(vb.into_iter().map(StateId));
            let mut s = UnionScratch::new();
            let h = a.union_into_scratch(&b, &mut s);
            let expect = a.union(&b);
            prop_assert_eq!(h, fx_hash(&expect));
            prop_assert!(s.matches(&expect));
            prop_assert_eq!(s.materialize(), expect.clone());
            prop_assert_eq!(s.len(), expect.len());
        }

        /// An arena forced to spill behaves identically to an in-RAM one.
        #[test]
        fn spilled_arena_matches_resident_arena(sets in prop::collection::vec(arb_set(), 1..24)) {
            let mut plain = SetArena::with_budget(None);
            let mut tiny = SetArena::with_budget(Some(64));
            for s in &sets {
                prop_assert_eq!(plain.intern(s.clone()), tiny.intern(s.clone()));
            }
            for i in 0..plain.len() {
                let id = SetId(i as u32);
                prop_assert_eq!(plain.get(id), tiny.get(id));
            }
        }
    }
}
