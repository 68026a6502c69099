//! `regex_scan`: each operation compiles a pattern with `Regex::new` and
//! scans its seeded 2 MiB haystack with `find_sharded` at 1 or 2
//! threads, or scans the adversarial all-`a` input with `a*b`.

use crate::inputs::{adversarial_text, haystack, ADVERSARIAL_PATTERN, SCAN_PATTERNS};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{Outcome, Params, SETUPS};
use msc_obs::json::Json;
use msc_regex::{Match, Regex, RegexEngine};
use std::time::Instant;

/// Shards each input is split into, so two threads get four each.
const SHARDS: usize = 8;
/// Bytes of each input the naive reference engine re-checks.
const NAIVE_PREFIX: usize = 4 << 10;

struct Input {
    pattern: &'static str,
    text: Vec<u8>,
    /// `find_all` over the whole text: what every scan must return.
    expected: Vec<Match>,
}

impl Input {
    fn shards(&self) -> Vec<&[u8]> {
        self.text.chunks(self.text.len().div_ceil(SHARDS)).collect()
    }
}

/// One operation: index into the inputs and scan threads.
const ROUND: [(usize, usize); 7] = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1)];
/// Index of the adversarial input.
const ADVERSARIAL: usize = 3;

fn compile(pattern: &str) -> Result<Regex, String> {
    Regex::new(pattern).map_err(|e| format!("{pattern}: {e}"))
}

/// The serve layer in-process: the `/match` handler of `msc_serve::api`
/// on this operation's pattern and shards. Returns its match count and
/// time.
fn match_probe(
    tr: &mut Tracer,
    matcher: &RegexEngine,
    input: &Input,
    threads: usize,
    op: u64,
) -> Result<(usize, f64), String> {
    let shards = input
        .shards()
        .into_iter()
        .map(|s| Json::from(std::str::from_utf8(s).expect("inputs are ASCII")))
        .collect();
    let body = Json::obj(vec![
        ("pattern", Json::from(input.pattern)),
        ("shards", Json::Arr(shards)),
        ("threads", Json::from(threads)),
    ]);
    let (found, ms) = tr.time("serve.api_match", op, None, || {
        msc_serve::api::find_matches(matcher, &body)
    });
    let found = found.map_err(|e| format!("/match handler: {e:?}"))?;
    let total = found.get("total_matches").and_then(Json::as_u64);
    Ok((total.unwrap_or(u64::MAX) as usize, ms))
}

pub fn regex_scan(p: &Params) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut texts = Vec::new();
    for _ in 0..SETUPS {
        // Set-up: generate the inputs and compile every pattern once.
        let t = Instant::now();
        texts = (0..SCAN_PATTERNS.len())
            .map(|i| haystack(p.seed, i))
            .chain([adversarial_text()])
            .collect();
        for pattern in SCAN_PATTERNS.iter().chain([&ADVERSARIAL_PATTERN]) {
            compile(pattern)?;
        }
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut out = Outcome::default();
    out.setup(&setups);
    let mut inputs = Vec::new();
    let mut meta_states = Vec::new();
    for (pattern, text) in SCAN_PATTERNS
        .iter()
        .chain([&ADVERSARIAL_PATTERN])
        .zip(texts)
    {
        let re = compile(pattern)?;
        meta_states.push(re.meta_states() as f64);
        inputs.push(Input {
            pattern,
            expected: re.find_all(&text),
            text,
        });
    }

    let mut tracer = Tracer::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    // (bytes, milliseconds) of untraced ordinary scans, and traced scan
    // spans per thread count.
    let mut scanned = (0usize, 0.0f64);
    let mut by_threads = [(0usize, 0.0f64); 2];
    let (mut adversarial, mut compile_ms, mut match_ms) = (Vec::new(), Vec::new(), Vec::new());
    let matcher = RegexEngine::new(8);
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < p.seconds || (p.trace && round % 2 == 1) {
        let traced_round = p.trace && round % 2 == 1;
        tracer.set_enabled(traced_round);
        for &(i, threads) in &ROUND {
            let input = &inputs[i];
            let shards = input.shards();
            let op = out.attempted;
            let root = tracer.start("bench.scan", op, None);
            let t = Instant::now();
            let (re, c_ms) =
                tracer.time("regex.compile", op, Some(root), || compile(input.pattern));
            let re = re?;
            let (found, s_ms) = tracer.time("regex.find_sharded", op, Some(root), || {
                re.find_sharded(&shards, threads)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tracer.end(root);
            if traced_round {
                let (total, api_ms) = match_probe(&mut tracer, &matcher, input, threads, op)?;
                if total != input.expected.len() {
                    return Err(format!(
                        "{}: the /match handler found {total} matches",
                        input.pattern
                    ));
                }
                match_ms.push(api_ms);
                traced.push(ms);
                compile_ms.push(c_ms);
                if i != ADVERSARIAL {
                    let slot = &mut by_threads[threads - 1];
                    slot.0 += input.text.len();
                    slot.1 += s_ms;
                }
            } else {
                untraced.push(ms);
                if i == ADVERSARIAL {
                    adversarial.push(ms);
                } else {
                    scanned.0 += input.text.len();
                    scanned.1 += ms;
                }
            }
            out.check(found == input.expected, || {
                format!(
                    "{} at {threads} threads: {} matches, find_all has {}",
                    input.pattern,
                    found.len(),
                    input.expected.len()
                )
            });
        }
        round += 1;
    }
    let busy_s = untraced.iter().sum::<f64>() / 1e3;
    out.end_timed_phase(untraced.clone(), busy_s)?;
    // The naive engine's memory grows with the square of its input, so
    // it runs after the timed phase has recorded peak memory.
    for input in &inputs {
        let re = compile(input.pattern)?;
        let prefix = &input.text[..NAIVE_PREFIX.min(input.text.len())];
        let fast: Vec<(usize, usize)> = re
            .find_all(prefix)
            .iter()
            .map(|m| (m.start, m.end))
            .collect();
        out.check(fast == re.naive_find_all(prefix), || {
            format!(
                "{}: find_all differs from the naive engine on a prefix",
                input.pattern
            )
        });
    }
    let mbps = |(bytes, ms): (usize, f64)| bytes as f64 / 1e6 / (ms / 1e3);
    out.set("regex.scan_mbps", mbps(scanned));
    out.set("regex.adversarial_ms", median(&adversarial));
    if p.trace {
        out.set("regex.compile_ms", mean(&compile_ms));
        out.set("serve.api_match_ms", mean(&match_ms));
        out.set("regex.meta_states", mean(&meta_states));
        out.set("regex.find_all_mbps", mbps(by_threads[0]));
        out.set(
            "regex.shard_speedup",
            mbps(by_threads[1]) / mbps(by_threads[0]),
        );
        out.trace_done(&tracer, &untraced, &traced, "regex_scan", p.seed)?;
    }
    Ok(out)
}
