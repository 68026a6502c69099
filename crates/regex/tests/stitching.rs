//! Property tests for the parallel sharded scan.
//!
//! The load-bearing claim of the SFA-style matcher is *exactness*:
//! matching N shards with speculative parallel scans plus stitching must
//! equal matching the concatenated input sequentially — including
//! matches that span shard boundaries — at every thread count. The same
//! inputs are also checked against the independent naive engine, closing
//! the loop between all three implementations.

use msc_regex::matcher::{scan, ScanLimits};
use msc_regex::{parser, Regex, ShardedInput};
use proptest::prelude::*;

/// Linear work bound the matcher guarantees: forward plus reverse DFA
/// steps per scan are at most `STEPS_PER_BYTE * (n + 1)` for `n` input
/// bytes, at any thread count and any [`ScanLimits`].
const STEPS_PER_BYTE: u64 = 6;

/// Scan with explicit limits at 1, 2, 3 and 8 threads; every result must
/// equal `want`, within the linear work bound.
fn assert_scans(re: &Regex, shards: &[&[u8]], limits: ScanLimits, want: &[msc_regex::Match]) {
    let input = ShardedInput::new(shards);
    let n = input.total_len() as u64;
    for threads in [1, 2, 3, 8] {
        let (got, stats) = scan(re.dfa(), &input, threads, limits);
        assert_eq!(
            got,
            want,
            "pattern {:?}, {limits:?}, {threads} threads",
            re.pattern()
        );
        assert!(
            stats.steps() <= STEPS_PER_BYTE * (n + 1),
            "pattern {:?}: {stats:?} over {n} bytes",
            re.pattern()
        );
    }
}

/// Random syntactically valid pattern over a 3-letter alphabet, built
/// constructively so every generated case exercises the matcher (not the
/// parser's error paths). Anchors only at the ends, where they are valid.
fn arb_pattern() -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just(".".to_string()),
        Just("[ab]".to_string()),
        Just("[^c]".to_string()),
        Just("ab".to_string()),
    ];
    let body = leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a}{b}")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}|{b})")),
            inner.clone().prop_map(|a| format!("({a})*")),
            inner.clone().prop_map(|a| format!("({a})+")),
            inner.prop_map(|a| format!("({a})?")),
        ]
    });
    (0u8..4, body)
        .prop_map(|(anchors, b)| {
            let head = if anchors & 1 != 0 { "^" } else { "" };
            let tail = if anchors & 2 != 0 { "$" } else { "" };
            format!("{head}{b}{tail}")
        })
        .boxed()
}

/// Cut `input` into shards at sorted positions derived from `cuts`.
fn shard<'a>(input: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (input.len() + 1)).collect();
    points.sort_unstable();
    points.dedup();
    let mut shards = Vec::new();
    let mut prev = 0;
    for p in points {
        shards.push(&input[prev..p]);
        prev = p;
    }
    shards.push(&input[prev..]);
    shards
}

proptest! {
    /// Sharded matching at every thread count equals sequential matching
    /// of the concatenation, which equals the naive reference engine.
    #[test]
    fn sharded_equals_concatenated_equals_naive(
        pat in arb_pattern(),
        input in prop::collection::vec(0u8..6, 0..40),
        cuts in prop::collection::vec(0usize..64, 0..6),
        block in 1usize..6,
        live_cache in 1usize..4,
    ) {
        // Map the small byte range onto the pattern alphabet plus noise.
        let input: Vec<u8> = input
            .into_iter()
            .map(|b| b"abcxy\n"[b as usize])
            .collect();
        let re = match Regex::new(&pat) {
            Ok(re) => re,
            // A generated pattern can still blow the meta-state cap.
            Err(_) => return Ok(()),
        };
        let sequential = re.find_all(&input);
        prop_assert_eq!(
            re.naive_find_all(&input),
            sequential.iter().map(|m| (m.start, m.end)).collect::<Vec<_>>(),
            "naive vs DFA on pattern {:?}",
            &pat
        );
        let shards = shard(&input, &cuts);
        for threads in [1, 2, 3, 8] {
            prop_assert_eq!(
                re.find_sharded(&shards, threads),
                sequential.clone(),
                "threads={} pattern={:?} cuts at {:?}",
                threads,
                &pat,
                shards.iter().map(|s| s.len()).collect::<Vec<_>>()
            );
        }
        // Tiny blocks and caches put block, segment and flush boundaries
        // everywhere inside these short inputs.
        let limits = ScanLimits { block, live_cache };
        assert_scans(&re, &shards, limits, &sequential);
    }
}

/// Deterministic regression cases for boundary-spanning matches, kept
/// alongside the property so a proptest seed change cannot lose them.
#[test]
fn boundary_spanning_regressions() {
    for (pat, text, cuts) in [
        ("ab", "xaby", vec![2]),         // match split 1|1
        ("a+b", "aaab", vec![1, 2, 3]),  // greedy run over three cuts
        ("a.*b", "a xx b", vec![3]),     // wildcard across the cut
        ("(ab|ba)+", "abbaab", vec![3]), // alternation re-sync
        ("ab$", "ab", vec![1]),          // end anchor on final shard
        ("^ab", "ab", vec![1]),          // start anchor on first shard
    ] {
        let re = Regex::new(pat).unwrap();
        let shards = shard(text.as_bytes(), &cuts);
        for threads in [1, 2, 8] {
            assert_eq!(
                re.find_sharded(&shards, threads),
                re.find_all(text.as_bytes()),
                "pattern {pat:?} text {text:?} cuts {cuts:?} threads {threads}"
            );
        }
    }
}

/// The inputs a restart-per-byte matcher walks quadratically, cut into
/// shards and scanned with small blocks, so matches and runs cross block,
/// segment and shard boundaries. Each must agree with the naive engine.
#[test]
fn long_runs_stay_exact_across_blocks_and_shards() {
    let tiny = ScanLimits {
        block: 7,
        live_cache: 2,
    };
    let run = vec![b'a'; 300];
    let cuts = [50, 51, 190];
    let mut mixed = run.clone();
    for at in [40, 41, 120, 260] {
        mixed[at] = b'b';
    }
    for (pat, text) in [
        ("a|a*b", &run),   // overshoot family: every span is (i, i + 1)
        ("a*b", &run),     // never matches
        ("a|a*b", &mixed), // long spans across the cuts
        ("a+b|ba*", &mixed),
        ("(aa)+$", &run), // live set depends on the parity to the end
    ] {
        let re = Regex::new(pat).unwrap();
        let want = re.find_all(text);
        let naive: Vec<(usize, usize)> = want.iter().map(|m| (m.start, m.end)).collect();
        assert_eq!(re.naive_find_all(text), naive, "pattern {pat:?}");
        let shards = shard(text, &cuts);
        for limits in [ScanLimits::default(), tiny] {
            assert_scans(&re, &shards, limits, &want);
        }
    }
    let re = Regex::new("a|a*b").unwrap();
    let spans: Vec<(usize, usize)> = re.find_all(&run).iter().map(|m| (m.start, m.end)).collect();
    assert_eq!(spans, (0..300).map(|i| (i, i + 1)).collect::<Vec<_>>());
    assert!(Regex::new("a*b").unwrap().find_all(&run).is_empty());
}

/// The parser rejects what it should, end to end through `Regex::new`.
#[test]
fn public_error_surface() {
    for bad in ["a(", "[a", "a**", "*a", "\\"] {
        assert!(Regex::new(bad).is_err(), "{bad:?} must be rejected");
    }
    assert!(parser::parse("a|b|c").is_ok());
}
