//! Reproducers and run summaries: the fuzzer's machine-readable output.
//!
//! A [`Reproducer`] is self-contained: the (seed, case) pair regenerates
//! the exact failing program from the grammar, and the minimized source
//! plus expected/actual values let a human see the divergence without
//! running anything. Corpus files are one JSON object each, written
//! atomically enough for CI artifact upload (write then rename is not
//! needed — each file is written once and never appended).

use msc_obs::json::Json;
use std::io;
use std::path::{Path, PathBuf};

/// A self-contained record of one minimized mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Reproducer {
    /// Run seed the case came from.
    pub seed: u64,
    /// Case index within the run (with `seed`, regenerates the program).
    pub case_index: u64,
    /// Label of the diverging oracle (`engine`, `bit-identity`, ...).
    pub oracle: String,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// Per-PE values the reference produced (on the minimized program).
    pub expected: Vec<i64>,
    /// Per-PE values the oracle produced (on the minimized program).
    pub actual: Vec<i64>,
    /// The original generated source.
    pub source: String,
    /// The minimized source that still diverges.
    pub minimized_source: String,
    /// Line count of the minimized source.
    pub minimized_lines: u64,
    /// Predicate evaluations the minimizer spent.
    pub minimize_evals: u64,
}

fn i64_arr(vs: &[i64]) -> Json {
    Json::Arr(vs.iter().map(|&v| Json::from(v)).collect())
}

fn parse_i64_arr(v: Option<&Json>) -> Vec<i64> {
    v.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_i64).collect())
        .unwrap_or_default()
}

impl Reproducer {
    /// Serialize to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::from(self.seed)),
            ("case", Json::from(self.case_index)),
            ("oracle", Json::from(self.oracle.as_str())),
            ("detail", Json::from(self.detail.as_str())),
            ("expected", i64_arr(&self.expected)),
            ("actual", i64_arr(&self.actual)),
            ("source", Json::from(self.source.as_str())),
            (
                "minimized_source",
                Json::from(self.minimized_source.as_str()),
            ),
            ("minimized_lines", Json::from(self.minimized_lines)),
            ("minimize_evals", Json::from(self.minimize_evals)),
        ])
    }

    /// Parse a reproducer back from JSON text (corpus replay).
    pub fn parse(text: &str) -> Result<Reproducer, String> {
        let v = msc_obs::json::parse(text).map_err(|e| format!("bad reproducer JSON: {e}"))?;
        let str_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("reproducer lacks `{k}`"))
        };
        let num_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("reproducer lacks `{k}`"))
        };
        Ok(Reproducer {
            seed: num_field("seed")?,
            case_index: num_field("case")?,
            oracle: str_field("oracle")?,
            detail: str_field("detail")?,
            expected: parse_i64_arr(v.get("expected")),
            actual: parse_i64_arr(v.get("actual")),
            source: str_field("source")?,
            minimized_source: str_field("minimized_source")?,
            minimized_lines: num_field("minimized_lines")?,
            minimize_evals: num_field("minimize_evals")?,
        })
    }

    /// Load a reproducer from a corpus file.
    pub fn read(path: &Path) -> Result<Reproducer, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        Reproducer::parse(&text)
    }

    /// Corpus file name: `case-00042-engine-2.json`.
    pub fn file_name(&self) -> String {
        let safe: String = self
            .oracle
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '-' })
            .collect();
        format!("case-{:05}-{safe}.json", self.case_index)
    }

    /// Write into `dir` (created if missing); returns the file path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json().render())?;
        Ok(path)
    }
}

/// Aggregate results of a fuzzing run, rendered as the `mscc fuzz` JSON
/// summary.
#[derive(Debug, Clone, Default)]
pub struct FuzzSummary {
    /// Run seed.
    pub seed: u64,
    /// Cases executed.
    pub cases: u64,
    /// Oracle labels in play.
    pub oracles: Vec<String>,
    /// Oracle executions that produced a result.
    pub oracle_runs: u64,
    /// Oracle executions skipped (meta-state bound, no daemon, ...).
    pub skips: u64,
    /// Total mismatches found.
    pub mismatches: u64,
    /// Predicate evaluations spent minimizing.
    pub minimize_evals: u64,
    /// Corpus files written, one per minimized mismatch.
    pub reproducers: Vec<String>,
}

impl FuzzSummary {
    /// True when the run found no divergence.
    pub fn ok(&self) -> bool {
        self.mismatches == 0
    }

    /// Serialize to the `mscc fuzz` summary object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::from(self.seed)),
            ("cases", Json::from(self.cases)),
            (
                "oracles",
                Json::Arr(
                    self.oracles
                        .iter()
                        .map(|o| Json::from(o.as_str()))
                        .collect(),
                ),
            ),
            ("oracle_runs", Json::from(self.oracle_runs)),
            ("skips", Json::from(self.skips)),
            ("mismatches", Json::from(self.mismatches)),
            ("minimize_evals", Json::from(self.minimize_evals)),
            (
                "reproducers",
                Json::Arr(
                    self.reproducers
                        .iter()
                        .map(|p| Json::from(p.as_str()))
                        .collect(),
                ),
            ),
            ("ok", Json::from(self.ok())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Reproducer {
        Reproducer {
            seed: 1,
            case_index: 42,
            oracle: "engine".into(),
            detail: "per-PE results diverged".into(),
            expected: vec![4321, 4321, 4322],
            actual: vec![4321, 4321, 4323],
            source: "main() { return(0); }\n".into(),
            minimized_source: "main() { return(0); }\n".into(),
            minimized_lines: 1,
            minimize_evals: 17,
        }
    }

    #[test]
    fn reproducer_round_trips_through_json() {
        let r = sample();
        let back = Reproducer::parse(&r.to_json().render()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn file_name_is_filesystem_safe() {
        assert_eq!(sample().file_name(), "case-00042-engine.json");
        let odd = Reproducer {
            oracle: "../x:y".into(),
            ..sample()
        };
        assert_eq!(odd.file_name(), "case-00042----x-y.json");
    }

    #[test]
    fn write_and_read_a_corpus_entry() {
        let dir = std::env::temp_dir().join(format!("msc-fuzz-report-test-{}", std::process::id()));
        let r = sample();
        let path = r.write(&dir).unwrap();
        let back = Reproducer::read(&path).unwrap();
        assert_eq!(back, r);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summary_json_reports_ok_iff_no_mismatches() {
        let mut s = FuzzSummary {
            seed: 1,
            cases: 10,
            ..Default::default()
        };
        assert!(s.to_json().get("ok").unwrap().as_bool().unwrap());
        s.mismatches = 1;
        assert!(!s.to_json().get("ok").unwrap().as_bool().unwrap());
        let parsed = msc_obs::json::parse(&s.to_json().render()).unwrap();
        assert_eq!(parsed.get("cases").unwrap().as_u64(), Some(10));
    }
}
