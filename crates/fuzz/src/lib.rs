//! msc-fuzz: deterministic differential fuzzing for the whole conversion
//! stack, with integrated crash minimization.
//!
//! The pieces, in pipeline order:
//!
//! * [`rng`] — dependency-free SplitMix64 + xoshiro256** so the same
//!   (seed, case) pair produces the same program on every platform, and
//!   case *k* is reproducible without replaying cases 0..k;
//! * [`grammar`] — a weighted generator of terminating-by-construction
//!   MIMDC programs (branch/loop density, `wait` placement, spawn trees);
//! * [`oracle`] — the oracle matrix: every execution configuration the
//!   repo offers, diffed against the true-MIMD reference, plus the
//!   bit-identity group (engine × cache round-trip);
//! * [`regex_oracle`] — the regex front-end's differential check (meta-
//!   automaton matcher, sequential and sharded, vs the naive backtracking
//!   reference) on a case derived from each generated program;
//! * [`mod@minimize`] — delta-debugging shrinker run against the same oracle
//!   the moment a mismatch appears;
//! * [`report`] — self-contained reproducers (corpus files) and the JSON
//!   run summary `mscc fuzz` prints.
//!
//! The library is UI-free: `mscc fuzz`, the CI smoke stage, and the
//! in-tree proptest suites all drive [`run_fuzz`] / [`run_case`] directly.

pub mod grammar;
pub mod minimize;
pub mod oracle;
pub mod regex_oracle;
pub mod report;
pub mod rng;

pub use grammar::{GrammarConfig, Program};
pub use minimize::{minimize, Minimized};
pub use oracle::{run_case, run_reference, CaseResult, Mismatch, Oracle, OracleConfig};
pub use report::{FuzzSummary, Reproducer};
pub use rng::{case_seed, Xoshiro256};

use std::path::PathBuf;

/// Configuration for one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Run seed; every case derives from it.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: u64,
    /// Grammar knobs for spawn-free cases.
    pub grammar: GrammarConfig,
    /// Shared oracle configuration (PEs, meta-state bound, daemon, ...).
    pub oracle_cfg: OracleConfig,
    /// The oracle matrix to run.
    pub oracles: Vec<Oracle>,
    /// Where to write reproducers; `None` keeps them in memory only.
    pub corpus_dir: Option<PathBuf>,
    /// Predicate-evaluation budget per minimization.
    pub minimize_budget: usize,
    /// Probability (permille) that a case exercises a spawn tree.
    pub spawn_permille: u64,
    /// Spawn sites used for spawn-tree cases.
    pub spawn_sites: u8,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            cases: 100,
            grammar: GrammarConfig::default(),
            oracle_cfg: OracleConfig::default(),
            oracles: Oracle::default_set(),
            corpus_dir: None,
            minimize_budget: 400,
            spawn_permille: 150,
            spawn_sites: 2,
        }
    }
}

/// Regenerate case `index` of `cfg` — pure in (seed, index, knobs), so a
/// reproducer needs only the pair to rebuild its program.
pub fn generate_case(cfg: &FuzzConfig, index: u64) -> Program {
    let mut rng = Xoshiro256::seeded(case_seed(cfg.seed, index));
    // The spawn coin is flipped from the case's own stream *before* the
    // grammar draws, so spawn-free and spawn cases stay reproducible
    // independently of each other.
    let spawned = cfg.spawn_permille > 0 && rng.chance(cfg.spawn_permille);
    let gcfg = if spawned {
        cfg.grammar.clone().with_spawns(cfg.spawn_sites)
    } else {
        cfg.grammar.clone()
    };
    grammar::generate(&mut rng, &gcfg)
}

/// The oracles a minimization predicate must re-run for a mismatch label.
fn predicate_oracles(label: &str, all: &[Oracle]) -> Vec<Oracle> {
    if label == "bit-identity" {
        all.iter().filter(|o| o.bit_identical()).cloned().collect()
    } else if label == "reference" {
        // run_case reports reference failures itself; no oracle needed.
        Vec::new()
    } else {
        match Oracle::parse(label) {
            Ok(o) => vec![o],
            Err(_) => all.to_vec(),
        }
    }
}

/// Minimize the first mismatch of `result` and build its reproducer.
fn minimize_mismatch(
    cfg: &FuzzConfig,
    index: u64,
    prog: &Program,
    result: &CaseResult,
) -> (Reproducer, usize) {
    let mismatch = &result.mismatches[0];
    let label = mismatch.oracle.clone();
    let pred_oracles = predicate_oracles(&label, &cfg.oracles);
    let still_fails = |p: &Program| {
        run_case(p, &pred_oracles, &cfg.oracle_cfg)
            .mismatches
            .iter()
            .any(|m| m.oracle == label)
    };
    let min = minimize(prog, still_fails, cfg.minimize_budget);
    // One more run of the minimized program to record its expected/actual
    // values (the originals belong to the unminimized source).
    let min_result = run_case(&min.program, &pred_oracles, &cfg.oracle_cfg);
    let (expected, actual, detail) = min_result
        .mismatches
        .iter()
        .find(|m| m.oracle == label)
        .map(|m| (m.expected.clone(), m.actual.clone(), m.detail.clone()))
        .unwrap_or_else(|| {
            (
                mismatch.expected.clone(),
                mismatch.actual.clone(),
                mismatch.detail.clone(),
            )
        });
    let minimized_source = min.program.render();
    (
        Reproducer {
            seed: cfg.seed,
            case_index: index,
            oracle: label,
            detail,
            expected,
            actual,
            source: result.source.clone(),
            minimized_source: minimized_source.clone(),
            minimized_lines: minimized_source.lines().count() as u64,
            minimize_evals: min.evals as u64,
        },
        min.evals,
    )
}

/// Run the whole fuzzing campaign, calling `on_case` after every case
/// (progress reporting; pass `|_, _| {}` when unneeded).
pub fn run_fuzz_with<F>(cfg: &FuzzConfig, mut on_case: F) -> FuzzSummary
where
    F: FnMut(u64, &CaseResult),
{
    let mut summary = FuzzSummary {
        seed: cfg.seed,
        oracles: cfg.oracles.iter().map(Oracle::label).collect(),
        ..Default::default()
    };
    for index in 0..cfg.cases {
        msc_obs::count("fuzz.cases", 1);
        let prog = generate_case(cfg, index);
        let result = run_case(&prog, &cfg.oracles, &cfg.oracle_cfg);
        summary.cases += 1;
        summary.oracle_runs += result.oracles_run as u64;
        summary.skips += result.skips.len() as u64;
        if !result.clean() {
            summary.mismatches += result.mismatches.len() as u64;
            msc_obs::count("fuzz.mismatches", result.mismatches.len() as u64);
            let (repro, evals) = minimize_mismatch(cfg, index, &prog, &result);
            summary.minimize_evals += evals as u64;
            let entry = match &cfg.corpus_dir {
                Some(dir) => match repro.write(dir) {
                    Ok(path) => path.display().to_string(),
                    Err(e) => format!("<unwritable corpus {dir:?}: {e}>"),
                },
                None => repro.file_name(),
            };
            msc_obs::count("fuzz.reproducers", 1);
            summary.reproducers.push(entry);
        }
        on_case(index, &result);
    }
    summary
}

/// [`run_fuzz_with`] without a progress callback.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzSummary {
    run_fuzz_with(cfg, |_, _| {})
}

/// Re-run a corpus reproducer: regenerate its program from (seed, case)
/// under `cfg`'s knobs and run the configured oracle matrix over it.
pub fn replay(repro: &Reproducer, cfg: &FuzzConfig) -> CaseResult {
    let mut case_cfg = cfg.clone();
    case_cfg.seed = repro.seed;
    let prog = generate_case(&case_cfg, repro.case_index);
    run_case(&prog, &cfg.oracles, &cfg.oracle_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_generation_is_pure_in_seed_and_index() {
        let cfg = FuzzConfig::default();
        assert_eq!(generate_case(&cfg, 7), generate_case(&cfg, 7));
        assert_ne!(
            generate_case(&cfg, 7).render(),
            generate_case(&cfg, 8).render()
        );
    }

    #[test]
    fn a_small_clean_run_reports_zero_mismatches() {
        let cfg = FuzzConfig {
            cases: 4,
            oracles: vec![Oracle::Interp, Oracle::Base],
            ..Default::default()
        };
        let summary = run_fuzz(&cfg);
        assert_eq!(summary.cases, 4);
        assert_eq!(summary.mismatches, 0, "{:?}", summary.reproducers);
        assert!(summary.ok());
        assert!(summary.oracle_runs + summary.skips == 8);
    }

    #[test]
    fn progress_callback_sees_every_case() {
        let cfg = FuzzConfig {
            cases: 3,
            oracles: vec![Oracle::Interp],
            ..Default::default()
        };
        let mut seen = Vec::new();
        run_fuzz_with(&cfg, |i, r| seen.push((i, r.clean())));
        assert_eq!(
            seen.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn injected_bug_is_caught_minimized_and_replayable() {
        let dir = std::env::temp_dir().join(format!("msc-fuzz-selftest-{}", std::process::id()));
        let cfg = FuzzConfig {
            cases: 20,
            oracles: vec![Oracle::SelfTest],
            corpus_dir: Some(dir.clone()),
            spawn_permille: 0,
            ..Default::default()
        };
        let summary = run_fuzz(&cfg);
        assert!(
            summary.mismatches > 0,
            "selftest oracle found nothing in 20 cases"
        );
        assert!(!summary.reproducers.is_empty());
        let repro = Reproducer::read(std::path::Path::new(&summary.reproducers[0])).unwrap();
        assert!(
            repro.minimized_lines <= 15,
            "reproducer not minimal ({} lines):\n{}",
            repro.minimized_lines,
            repro.minimized_source
        );
        assert!(repro.minimized_source.contains("if ("));
        // Replay regenerates the identical program and still diverges.
        let replayed = replay(&repro, &cfg);
        assert!(replayed.mismatches.iter().any(|m| m.oracle == "selftest"));
        assert_eq!(replayed.source, repro.source);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
