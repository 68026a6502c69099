//! DFA execution: one linear scan, exact at any thread count.
//!
//! Semantics (shared with the naive reference engine): non-overlapping
//! **leftmost-longest** matches, and **empty matches are never reported**.
//! At position `p` the matcher runs one attempt — the longest `e > p`
//! such that `input[p..e]` is accepted, honoring anchors against the
//! whole input — records `(p, e)` and resumes at `e`, or advances to
//! `p + 1` when the attempt fails.
//!
//! A scan is two passes, over the reverse *live* automaton (the lazily
//! determinized reversal of the pattern's Thompson NFA) and over the
//! forward [`MetaDfa`]:
//!
//! 1. **Right to left**, the live pass computes `live(j)`, the `Byte`
//!    states from which a non-empty suffix starting at `j` reaches an
//!    accept. Only a checkpoint set at the start of every block of
//!    [`ScanLimits::block`] bytes is kept.
//! 2. **Left to right**, block by block, the live ids of one block are
//!    recomputed from the checkpoint at its right end into one
//!    block-sized buffer, and the forward walk consumes them: an attempt
//!    starts at `p` only when the forward start set meets `live(p)`, and
//!    steps only while its state meets `live(j)`. Such a walk stops
//!    exactly at the longest match end, so forward work is the total
//!    length of the matches, and a scan costs O(n) DFA steps — never the
//!    restart-per-byte O(n²) of running every attempt until the DFA dies.
//!
//! **Parallel scans** cut the block list into one contiguous segment per
//! worker (the Simultaneous Finite Automata view of the same two passes).
//! Each worker runs its segment's live pass speculatively, entering from
//! a guessed live set at its right end (the live pass over the next
//! block, entered from the empty set). A sequential right-to-left
//! reconcile re-runs a segment's blocks from the true set only until a
//! recomputed checkpoint equals the speculative one: the live pass is a
//! function of the bytes to the right, so every checkpoint left of that
//! point is already exact. Each worker then runs its forward pass
//! speculatively from an idle walk at its segment start, and a sequential
//! stitch adopts a segment's result wholesale unless a match runs into
//! it from the left; then the true walk continues until it is idle at a
//! position where the speculative walk was idle too, and adopts the rest.
//! An attempt at `t` depends only on bytes from `t` on, so the adopted
//! suffix is exactly what the one-worker scan produces: output is
//! **bit-identical** at every thread count, by construction rather than
//! by tolerance.

use crate::input::ShardedInput;
use crate::live::LiveDfa;
use crate::meta::{MetaDfa, DEAD};
use std::ops::Range;

/// One match as an absolute half-open span over the shard concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Match {
    /// Absolute start offset.
    pub start: usize,
    /// Absolute end offset (exclusive); always `> start`.
    pub end: usize,
}

/// Sizes that bound a scan's memory. Any values give the same matches.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanLimits {
    /// Block length: the checkpoint spacing and the live-id buffer size.
    pub block: usize,
    /// Live states a worker caches before flushing at a block boundary.
    pub live_cache: usize,
}

impl Default for ScanLimits {
    fn default() -> Self {
        ScanLimits {
            block: 4096,
            live_cache: 4096,
        }
    }
}

/// Work one scan did, for bounding it in tests and the fuzz oracle.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Forward DFA transitions taken.
    pub forward_steps: u64,
    /// Reverse live-automaton transitions taken.
    pub reverse_steps: u64,
    /// Live-cache flushes.
    pub live_cache_flushes: u64,
    /// Blocks the sequential stitch re-ran because a segment's guess was
    /// wrong: live passes from a wrong right-end set, forward passes
    /// entered with a match open across the segment boundary.
    pub stitch_rescans: u64,
}

impl ScanStats {
    /// Forward plus reverse DFA steps.
    pub fn steps(&self) -> u64 {
        self.forward_steps + self.reverse_steps
    }
}

/// A contiguous run of input bytes inside one shard.
struct Block<'a> {
    /// Absolute offset of `bytes[0]`.
    start: usize,
    bytes: &'a [u8],
}

/// The forward walk between bytes: idle when `state` is [`DEAD`], else an
/// attempt open since `start` whose longest accept so far ends at `best`.
#[derive(Debug, Clone, Copy)]
struct Walk {
    start: usize,
    state: u32,
    best: usize,
}

const IDLE: Walk = Walk {
    start: 0,
    state: DEAD,
    best: 0,
};

/// Checkpoint live sets, one per block, `words` words each.
struct Checkpoints {
    words: usize,
    sets: Vec<u64>,
}

impl Checkpoints {
    fn get(&self, b: usize) -> &[u64] {
        &self.sets[b * self.words..(b + 1) * self.words]
    }
}

/// The input cut into blocks, which never straddle shards.
fn blocks<'a>(input: &ShardedInput<'a>, size: usize) -> Vec<Block<'a>> {
    let size = size.max(1);
    let mut out = Vec::with_capacity(input.total_len() / size + input.shard_count());
    for i in 0..input.shard_count() {
        let (start, _) = input.shard_bounds(i);
        for (k, bytes) in input.shard(i).chunks(size).enumerate() {
            out.push(Block {
                start: start + k * size,
                bytes,
            });
        }
    }
    out
}

/// Cut `blocks` into at most `parts` non-empty contiguous
/// segments of roughly equal byte counts.
fn segments(blocks: &[Block<'_>], total: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, blocks.len().max(1));
    let mut cuts = vec![0];
    for k in 1..parts {
        let at = blocks.partition_point(|b| b.start < total / parts * k);
        let prev = *cuts.last().expect("cuts starts with 0");
        cuts.push(at.clamp(prev + 1, blocks.len() - (parts - k)));
    }
    cuts.push(blocks.len());
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// What every pass of one scan shares.
struct Ctx<'s> {
    dfa: &'s MetaDfa,
    blocks: &'s [Block<'s>],
    total: usize,
}

impl Ctx<'_> {
    /// The live set entering block `b` from the right: the next block's
    /// checkpoint, or END after the last block.
    fn right_of<'c>(&self, cps: &'c Checkpoints, b: usize) -> Option<&'c [u64]> {
        (b + 1 < self.blocks.len()).then(|| cps.get(b + 1))
    }
}

/// A forward pass in progress: the live-id buffer for the current block,
/// the walk, the matches it finished, and the forward steps it took.
struct Forward {
    ids: Vec<u32>,
    walk: Walk,
    out: Vec<Match>,
    steps: u64,
}

impl Forward {
    fn new() -> Forward {
        Forward {
            ids: Vec::new(),
            walk: IDLE,
            out: Vec::new(),
            steps: 0,
        }
    }

    /// Refill block `b`'s live ids from its right checkpoint and walk it.
    /// Returns early with the offset `q` the first time the walk is idle
    /// at a `q` for which `resync(q)` holds.
    fn block(
        &mut self,
        ctx: &Ctx<'_>,
        live: &mut LiveDfa<'_>,
        cps: &Checkpoints,
        b: usize,
        mut resync: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let (dfa, block) = (ctx.dfa, &ctx.blocks[b]);
        live.begin_block();
        live.run(block.bytes, ctx.right_of(cps, b), &mut self.ids);
        let Walk {
            mut start,
            mut state,
            mut best,
        } = self.walk;
        let mut steps = 0u64;
        let mut stopped = None;
        for (k, (&byte, &l)) in block.bytes.iter().zip(&self.ids).enumerate() {
            let j = block.start + k;
            if state != DEAD && !live.meets(state, l) {
                self.out.push(Match { start, end: best });
                state = DEAD;
            }
            if state == DEAD {
                if resync(j) {
                    stopped = Some(j);
                    break;
                }
                if !live.starts_at(j, l) {
                    continue;
                }
                start = j;
                best = j;
                state = if j == 0 { dfa.start_bof } else { dfa.start_mid };
            }
            // The state meets live(j), so some member consumes this byte.
            state = dfa.step(state, byte);
            steps += 1;
            debug_assert_ne!(state, DEAD, "a walk that meets live(j) survives byte j");
            if dfa.accept_mid[state as usize]
                || (j + 1 == ctx.total && dfa.accept_end[state as usize])
            {
                best = j + 1;
            }
        }
        self.steps += steps;
        self.walk = Walk { start, state, best };
        stopped
    }
}

/// Run `f` over `items` on one scoped thread each (the first on the
/// calling thread), returning the results in order.
fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
    let mut items = items.into_iter().enumerate();
    let Some((i0, first)) = items.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let f = &f;
        let rest: Vec<_> = items.map(|(i, t)| scope.spawn(move || f(i, t))).collect();
        let mut out = vec![f(i0, first)];
        for h in rest {
            out.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// The scan behind [`find_all`] and [`find_sharded`], with explicit
/// memory limits and the work it did.
#[doc(hidden)]
pub fn scan(
    dfa: &MetaDfa,
    input: &ShardedInput<'_>,
    threads: usize,
    limits: ScanLimits,
) -> (Vec<Match>, ScanStats) {
    let blocks = blocks(input, limits.block);
    let ctx = Ctx {
        dfa,
        blocks: &blocks,
        total: input.total_len(),
    };
    let segs = segments(&blocks, ctx.total, threads);
    let words = dfa.live.words();
    let mut cps = Checkpoints {
        words,
        sets: vec![0; blocks.len() * words],
    };
    let mut stats = ScanStats::default();
    if blocks.is_empty() {
        return (Vec::new(), stats);
    }
    if segs.len() > 1 {
        msc_obs::count("regex.parallel_scans", 1);
    }

    // Pass 1: speculative live passes, each writing its own segment's
    // checkpoints. The last segment enters from END and is exact.
    let mut chunks = Vec::with_capacity(segs.len());
    let mut rest = cps.sets.as_mut_slice();
    for seg in &segs {
        let (chunk, tail) = rest.split_at_mut(seg.len() * words);
        chunks.push((seg.clone(), chunk));
        rest = tail;
    }
    let mut workers = par_map(chunks, |_, (seg, chunk)| {
        let mut live = LiveDfa::new(dfa, limits.live_cache);
        let mut ids = Vec::new();
        let guess = (seg.end < blocks.len()).then(|| {
            let empty = vec![0; words];
            let right = (seg.end + 1 < blocks.len()).then_some(empty.as_slice());
            live.begin_block();
            live.run(blocks[seg.end].bytes, right, &mut ids);
            live.bits(ids[0]).to_vec()
        });
        let mut right = guess.clone();
        for b in seg.clone().rev() {
            live.begin_block();
            live.run(blocks[b].bytes, right.as_deref(), &mut ids);
            let cp = live.bits(ids[0]);
            chunk[(b - seg.start) * words..][..words].copy_from_slice(cp);
            right = Some(cp.to_vec());
        }
        (live, guess)
    });

    // Reconcile right to left: re-run a segment from the true set at its
    // right end until a checkpoint comes out unchanged.
    let mut ids = Vec::new();
    for (seg, (live, guess)) in segs.iter().zip(&mut workers).rev().skip(1) {
        let guess = guess
            .as_deref()
            .expect("only the last segment has no guess");
        if cps.get(seg.end) == guess {
            continue;
        }
        let mut right = cps.get(seg.end).to_vec();
        for b in seg.clone().rev() {
            stats.stitch_rescans += 1;
            live.begin_block();
            live.run(blocks[b].bytes, Some(&right), &mut ids);
            let cp = live.bits(ids[0]);
            if cp == cps.get(b) {
                break;
            }
            right = cp.to_vec();
            cps.sets[b * words..(b + 1) * words].copy_from_slice(&right);
        }
    }

    // Pass 2: speculative forward passes, each from an idle walk.
    let cps = &cps;
    let specs = par_map(workers, |k, (mut live, _)| {
        let mut spec = Forward::new();
        for b in segs[k].clone() {
            spec.block(&ctx, &mut live, cps, b, |_| false);
        }
        (live, spec)
    });

    // Stitch left to right, into one allocation of the final size.
    let single = specs.len() == 1;
    let mut fwd = Forward::new();
    if !single {
        fwd.out
            .reserve_exact(specs.iter().map(|(_, spec)| spec.out.len()).sum());
    }
    for (seg, (mut live, spec)) in segs.iter().zip(specs) {
        stats.forward_steps += spec.steps;
        let adopt_from = if fwd.walk.state == DEAD {
            Some(0)
        } else {
            // A match runs in from the left: walk for real until idle at
            // an offset where the speculative walk was idle too.
            let mut i = 0;
            let mut idle_in_spec = |q: usize| {
                while i < spec.out.len() && spec.out[i].end <= q {
                    i += 1;
                }
                let inside = i < spec.out.len() && spec.out[i].start < q;
                let pending = spec.walk.state != DEAD && spec.walk.start < q;
                !inside && !pending
            };
            let mut synced = None;
            for b in seg.clone() {
                stats.stitch_rescans += 1;
                synced = fwd.block(&ctx, &mut live, cps, b, &mut idle_in_spec);
                if synced.is_some() {
                    break;
                }
            }
            synced.map(|q| spec.out.partition_point(|m| m.start < q))
        };
        match adopt_from {
            Some(0) if single => fwd.out = spec.out,
            Some(from) => fwd.out.extend_from_slice(&spec.out[from..]),
            None => {}
        }
        if adopt_from.is_some() {
            fwd.walk = spec.walk;
        }
        stats.reverse_steps += live.steps;
        stats.live_cache_flushes += live.flushes;
    }
    stats.forward_steps += fwd.steps;
    let Walk { start, state, best } = fwd.walk;
    if state != DEAD {
        fwd.out.push(Match { start, end: best });
    }
    if stats.stitch_rescans > 0 {
        msc_obs::count("regex.stitch_rescans", stats.stitch_rescans);
    }
    if stats.live_cache_flushes > 0 {
        msc_obs::count("regex.live_cache_flushes", stats.live_cache_flushes);
    }
    (fwd.out, stats)
}

/// All matches over `input`: [`find_sharded`] at one thread.
pub fn find_all(dfa: &MetaDfa, input: &ShardedInput<'_>) -> Vec<Match> {
    find_sharded(dfa, input, 1)
}

/// All matches over `input`, scanned by up to `threads` worker threads.
/// Output is identical for every `threads` value.
pub fn find_sharded(dfa: &MetaDfa, input: &ShardedInput<'_>, threads: usize) -> Vec<Match> {
    scan(dfa, input, threads, ScanLimits::default()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::compile;
    use crate::nfa::build;
    use crate::parser::parse;

    fn dfa(pat: &str) -> MetaDfa {
        compile(&build(&parse(pat).unwrap()).unwrap()).unwrap()
    }

    /// Scan `shards` at 1, 2, 3 and 8 threads under `limits`, checking
    /// that every thread count gives the same matches, that they equal
    /// the naive engine's on the concatenation (up to 4 KiB), and that the
    /// work stays within the linear bound. Returns the spans and the
    /// 1-thread stats.
    fn scan_all(
        pat: &str,
        shards: &[&[u8]],
        limits: ScanLimits,
    ) -> (Vec<(usize, usize)>, ScanStats) {
        let d = dfa(pat);
        let inp = ShardedInput::new(shards);
        let (seq, stats) = scan(&d, &inp, 1, limits);
        let n = inp.total_len() as u64;
        for threads in [1, 2, 3, 8] {
            let (got, st) = scan(&d, &inp, threads, limits);
            assert_eq!(got, seq, "{pat:?}: threads={threads} must be bit-identical");
            assert!(
                st.steps() <= 6 * (n + 1),
                "{pat:?}: {st:?} over {n} bytes at {threads} threads"
            );
        }
        let spans: Vec<(usize, usize)> = seq.iter().map(|m| (m.start, m.end)).collect();
        // The naive engine's memory is quadratic in its input.
        if n <= 4096 {
            assert_eq!(
                crate::naive::find_all(&parse(pat).unwrap(), &shards.concat()),
                spans,
                "{pat:?} disagrees with the naive engine"
            );
        }
        (spans, stats)
    }

    fn spans(pat: &str, shards: &[&[u8]]) -> Vec<(usize, usize)> {
        // Default limits, then blocks of 1 and 3 bytes with a 2-state
        // cache, so block, segment and flush boundaries fall everywhere.
        let (out, _) = scan_all(pat, shards, ScanLimits::default());
        for block in [1, 3] {
            let limits = ScanLimits {
                block,
                live_cache: 2,
            };
            assert_eq!(scan_all(pat, shards, limits).0, out, "block={block}");
        }
        out
    }

    #[test]
    fn simple_literals() {
        assert_eq!(spans("ab", &[b"xabyab"]), vec![(1, 3), (4, 6)]);
        assert_eq!(spans("ab", &[b"ab"]), vec![(0, 2)]);
        assert_eq!(spans("ab", &[b"ba"]), vec![]);
    }

    #[test]
    fn greedy_longest() {
        assert_eq!(spans("a+", &[b"aaabaa"]), vec![(0, 3), (4, 6)]);
        assert_eq!(spans("a|ab", &[b"ab"]), vec![(0, 2)]);
    }

    #[test]
    fn empty_matches_are_skipped() {
        assert_eq!(spans("a*", &[b"bab"]), vec![(1, 2)]);
        assert_eq!(spans("x?", &[b"yy"]), vec![]);
    }

    #[test]
    fn anchors() {
        assert_eq!(spans("^a", &[b"aba"]), vec![(0, 1)]);
        assert_eq!(spans("a$", &[b"aba"]), vec![(2, 3)]);
        assert_eq!(spans("^a+$", &[b"aaa"]), vec![(0, 3)]);
        assert_eq!(spans("^a+$", &[b"aab"]), vec![]);
        assert_eq!(spans("a$|ab", &[b"aba"]), vec![(0, 2), (2, 3)]);
    }

    #[test]
    fn matches_span_shard_boundaries() {
        // "abab" split as "ab|ab": match (0,2) is inside shard 0, match
        // (2,4) starts exactly at the boundary.
        assert_eq!(spans("ab", &[b"ab", b"ab"]), vec![(0, 2), (2, 4)]);
        // "xaby" split mid-match.
        assert_eq!(spans("ab", &[b"xa", b"by"]), vec![(1, 3)]);
        // One match covering three shards.
        assert_eq!(spans("a+", &[b"aa", b"aa", b"aa"]), vec![(0, 6)]);
        // Greedy run crossing a boundary shadows the speculative matches
        // of the next shard.
        assert_eq!(spans("a+b", &[b"aaa", b"ab"]), vec![(0, 5)]);
    }

    #[test]
    fn end_anchor_only_fires_on_final_shard() {
        assert_eq!(spans("a$", &[b"a", b"a"]), vec![(1, 2)]);
        assert_eq!(spans("ab$", &[b"a", b"b"]), vec![(0, 2)]);
    }

    #[test]
    fn empty_shards_and_empty_input() {
        assert_eq!(spans("a", &[]), vec![]);
        assert_eq!(spans("a", &[b"", b""]), vec![]);
        assert_eq!(spans("a", &[b"", b"a", b""]), vec![(0, 1)]);
    }

    #[test]
    fn dot_does_not_match_newline() {
        assert_eq!(spans("a.c", &[b"a\ncabc"]), vec![(3, 6)]);
    }

    #[test]
    fn overshoot_family_yields_unit_spans() {
        // Every attempt at `a|a*b` over a run of `a` could extend (a `b`
        // may follow), so a walk that ran until DEAD would read to the
        // end of the run each time; the live pass stops it after one byte.
        for len in [1, 7, 100] {
            let text = vec![b'a'; len];
            let want: Vec<(usize, usize)> = (0..len).map(|i| (i, i + 1)).collect();
            assert_eq!(spans("a|a*b", &[&text]), want, "len={len}");
        }
    }

    #[test]
    fn star_then_missing_byte_is_linear() {
        let text = vec![b'a'; 20_000];
        let (got, stats) = scan_all(
            "a*b",
            &[&text[..9_000], &text[9_000..]],
            ScanLimits::default(),
        );
        assert_eq!(got, vec![]);
        // No attempt can start, so the forward DFA never steps.
        assert_eq!(stats.forward_steps, 0, "{stats:?}");
        assert!(stats.reverse_steps <= 2 * 20_000, "{stats:?}");
    }

    #[test]
    fn tiny_live_cache_flushes_and_still_agrees() {
        // `............a` has 8193 reverse states; a 2-state cache must be
        // flushed between blocks over and over.
        let mut s = 0x9E37_79B9u32;
        let text: Vec<u8> = (0..3_000)
            .map(|_| {
                s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                b"ab\n"[(s >> 16) as usize % 3]
            })
            .collect();
        let limits = ScanLimits {
            block: 64,
            live_cache: 2,
        };
        let (got, stats) = scan_all("............a", &[&text[..1_000], &text[1_000..]], limits);
        assert!(stats.live_cache_flushes > 0, "{stats:?}");
        let (roomy, _) = scan_all("............a", &[&text], ScanLimits::default());
        assert_eq!(got, roomy);
        assert!(!got.is_empty());
    }

    #[test]
    fn long_inputs_cross_block_and_shard_boundaries() {
        // Runs of `a` long enough that matches of `a+b|ba*` span several
        // 16-byte blocks and the uneven shard cuts.
        let mut text = Vec::new();
        for run in [3usize, 40, 1, 70, 17, 33, 5, 90] {
            text.extend(std::iter::repeat_n(b'a', run));
            text.push(b'b');
        }
        assert!(text.len() > 3 * 16);
        let limits = ScanLimits {
            block: 16,
            live_cache: 8,
        };
        let shards: Vec<&[u8]> = vec![&text[..25], &text[25..26], &text[26..150], &text[150..]];
        let (got, stats) = scan_all("a+b|ba*", &shards, limits);
        assert!(got.iter().any(|&(s, e)| s / 16 != (e - 1) / 16));
        assert_eq!(stats.stitch_rescans, 0, "one worker never stitches");
        let (whole, _) = scan_all("a+b|ba*", &[&text], ScanLimits::default());
        assert_eq!(got, whole);
    }
}
