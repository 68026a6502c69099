//! Seeded input generation. Every input a workload hands the program is
//! made here from `--seed`, and the same seed gives the same inputs.

use msc_bench::workloads::{barrier_phases_source, branchy_source, imbalanced_source};
use msc_engine::Job;

/// splitmix64: small, fast and well mixed, which is all input
/// generation needs.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, label)`, so adding draws to one
    /// input never shifts another.
    pub fn stream(seed: u64, label: u64) -> Rng {
        let mut r = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The initializer every shape gives its accumulator.
const ACC_INIT: &str = "acc = 0";

/// `template` with its accumulator starting at `value` instead of 0.
/// Only that constant changes, so the MIMD graph, and with it the
/// conversion and codegen work, keeps its shape while the source and its
/// cache key differ.
pub fn with_acc_init(template: &str, value: u64) -> String {
    assert!(
        template.contains(ACC_INIT),
        "shape template lacks `{ACC_INIT}`"
    );
    template.replacen(ACC_INIT, &format!("acc = {value}"), 1)
}

/// One program shape: a template whose accumulator constant varies.
pub struct Shape {
    pub name: &'static str,
    pub template: String,
}

impl Shape {
    fn new(name: &'static str, template: String) -> Shape {
        Shape { name, template }
    }

    /// The base-mode job compiling this shape with its accumulator
    /// starting at `value`.
    pub fn job(&self, value: u64) -> Job {
        Job::new(
            format!("{}#{value}", self.name),
            with_acc_init(&self.template, value),
        )
    }
}

/// The `cold_compile` round, one compile per shape. Seven shapes, so the
/// median falls inside one shape's samples (branchy_5) rather than on
/// the edge between two.
pub fn cold_compile_shapes() -> Vec<Shape> {
    vec![
        Shape::new("branchy_5", branchy_source(5)),
        Shape::new("branchy_6", branchy_source(6)),
        Shape::new("branchy_7", branchy_source(7)),
        Shape::new("branchy_8", branchy_source(8)),
        Shape::new("barrier_phases_6", barrier_phases_source(6)),
        Shape::new("barrier_phases_12", barrier_phases_source(12)),
        Shape::new("imbalanced_40_400", imbalanced_source(40, 400)),
    ]
}

/// Distinct accumulator constants for one run: a seeded base, counting up.
pub struct Constants(u64);

impl Constants {
    pub fn new(seed: u64) -> Constants {
        Constants(1 + Rng::stream(seed, 1).below(1 << 40))
    }

    pub fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

/// The three `regex_scan` patterns with ordinary (linear-looking) cost.
pub const SCAN_PATTERNS: [&str; 3] = ["a[bc]+x", "(ab|cx)+z", "[a-c]*y"];
/// The pattern whose scan is quadratic on [`adversarial_text`].
pub const ADVERSARIAL_PATTERN: &str = "a*b";
/// Bytes of each `regex_scan` haystack.
pub const HAYSTACK_BYTES: usize = 2 << 20;
/// Bytes of the adversarial input.
pub const ADVERSARIAL_BYTES: usize = 8 << 10;

/// `len` bytes drawn uniformly from the patterns' alphabet.
fn text_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b"abcxyz";
    (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
        .collect()
}

/// The haystack scanned for [`SCAN_PATTERNS`]`[i]`.
pub fn haystack(seed: u64, i: usize) -> Vec<u8> {
    text_bytes(&mut Rng::stream(seed, 100 + i as u64), HAYSTACK_BYTES)
}

/// All-`a` input: every start position of `a*b` runs to the end.
pub fn adversarial_text() -> Vec<u8> {
    vec![b'a'; ADVERSARIAL_BYTES]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(haystack(7, 1), haystack(7, 1));
        assert_ne!(haystack(7, 1), haystack(8, 1));
        assert_ne!(haystack(7, 0), haystack(7, 1));
        let jobs = |seed| {
            let mut c = Constants::new(seed);
            cold_compile_shapes()
                .iter()
                .map(|s| s.job(c.next()).source)
                .collect::<Vec<_>>()
        };
        assert_eq!(jobs(11), jobs(11));
        assert_ne!(jobs(11), jobs(12));
    }

    #[test]
    fn cold_compile_job_keys_are_unique() {
        let shapes = cold_compile_shapes();
        let mut consts = Constants::new(5);
        let mut keys = HashSet::new();
        for i in 0..2000 {
            let job = shapes[i % shapes.len()].job(consts.next());
            assert!(
                keys.insert(msc_engine::job_key(&job)),
                "duplicate key at {i}"
            );
        }
    }

    #[test]
    fn constants_leave_the_graph_shape_alone() {
        for shape in &cold_compile_shapes() {
            let graph = |v| msc_lang::compile(&shape.job(v).source).unwrap().graph;
            let (a, b) = (graph(1), graph(987_654_321));
            assert_eq!(a.len(), b.len(), "{}", shape.name);
            for s in a.ids() {
                assert_eq!(
                    a.state(s).term.successors(),
                    b.state(s).term.successors(),
                    "{}",
                    shape.name
                );
            }
        }
    }
}
