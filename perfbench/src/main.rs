//! End-to-end and per-layer benchmark of the meta-state conversion
//! pipeline. `BENCHMARK.json` at the repository root names the
//! workloads and metrics; `perfbench/layers.json` records which layer
//! should move which end-to-end metric on which workload.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_compile --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root. Every operation's output is checked;
//! a mismatch counts as failed and makes the exit code nonzero. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: BENCHMARK.json's `end_to_end`
//! metrics with `--trace 0`, its `per_layer` metrics with `--trace 1`.
//! A traced run also writes its spans to `bench-traces/`.

mod inputs;
mod pipeline;
mod regex_scan;
mod stats;
mod trace;

use msc_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// The committed benchmark definition; metric names and units come from
/// here so the program and the file cannot disagree.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Failures whose description is printed; the rest are only counted.
const SHOWN_FAILURES: usize = 5;

/// Command-line settings of one run.
pub struct Params {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every figure measured, by metric name.
    pub figures: BTreeMap<&'static str, f64>,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// Human-readable remarks printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation; a mismatch counts as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < SHOWN_FAILURES {
                self.failures.push(what());
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.figures.insert(name, value);
    }

    /// `setup_s` from the per-set-up times in seconds.
    pub fn setup(&mut self, samples: &[f64]) {
        self.set("setup_s", stats::median(samples));
    }

    /// Close the timed phase: `latency_p50_ms` and `latency_tail_ms`
    /// over the operation latencies `ms`, `throughput_ops` as their count
    /// over the `seconds` they took, and `peak_rss_mb` so far (checks
    /// that run later, such as the naive regex engine, are not counted).
    pub fn end_timed_phase(&mut self, mut ms: Vec<f64>, seconds: f64) -> Result<(), String> {
        self.set("peak_rss_mb", stats::peak_rss_mb()?);
        self.set("throughput_ops", ms.len() as f64 / seconds);
        ms.sort_by(f64::total_cmp);
        let (p, tail) = stats::tail(&ms)
            .ok_or_else(|| format!("{} operations are too few for a tail", ms.len()))?;
        self.set("latency_p50_ms", stats::percentile(&ms, 50.0));
        self.set("latency_tail_ms", tail);
        self.notes
            .push(format!("latency_tail_ms is p{p} of {} samples", ms.len()));
        Ok(())
    }

    /// Close a traced run: `trace.*` from the mean untraced and traced
    /// operation times and their difference (the tracing overhead), and
    /// the spans written to `bench-traces/`.
    pub fn trace_done(
        &mut self,
        tracer: &trace::Tracer,
        untraced_ms: &[f64],
        traced_ms: &[f64],
        workload: &str,
        seed: u64,
    ) -> Result<(), String> {
        let (u, t) = (stats::mean(untraced_ms), stats::mean(traced_ms));
        self.set("trace.untraced_ms", u);
        self.set("trace.traced_ms", t);
        self.set("trace.overhead_ms", t - u);
        let path = Path::new("bench-traces").join(format!("{workload}-seed{seed}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        self.notes
            .push(format!("spans written to {}", path.display()));
        Ok(())
    }
}

fn parse_args() -> Result<(String, Params), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown flag {flag}")),
        };
        *slot = Some(value);
    }
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("{flag} is required"));
    let seconds: u64 = need(seconds, "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match need(trace, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seed = need(seed, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    Ok((
        need(workload, "--workload")?,
        Params {
            seed,
            seconds: Duration::from_secs(seconds),
            trace,
        },
    ))
}

/// `(name, unit)` of each metric in BENCHMARK.json's list `key`.
fn metric_list(key: &str) -> Vec<(String, String)> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("metric has name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The result line. End-to-end metrics must all have been measured; a
/// per-layer metric the workload never exercised reads 0.
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in metric_list(if trace { "per_layer" } else { "end_to_end" }) {
        let value = match out.figures.get(name.as_str()) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        metrics.push((
            name,
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::from(unit)),
            ]),
        ));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render())
}

type Workload = fn(&Params) -> Result<Outcome, String>;

/// Every workload BENCHMARK.json names, in its order.
const WORKLOADS: [(&str, Workload); 2] = [
    ("cold_compile", pipeline::cold_compile),
    ("regex_scan", regex_scan::regex_scan),
];

fn run() -> Result<bool, String> {
    let (workload, params) = parse_args()?;
    let (_, run_workload) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let mut out = run_workload(&params)?;
    out.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let units: BTreeMap<String, String> = metric_list("end_to_end")
        .into_iter()
        .chain(metric_list("per_layer"))
        .collect();
    for (name, value) in &out.figures {
        let unit = units.get(*name).map_or("", String::as_str);
        println!("{workload} {name} = {value} {unit}");
    }
    for note in out.notes.iter().chain(&out.failures) {
        println!("{workload} note: {note}");
    }
    println!("{}", result_line(&out, params.trace)?);
    Ok(out.failed == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: some outputs were wrong");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYERS_JSON: &str = include_str!("../layers.json");

    fn names(key: &str) -> Vec<String> {
        metric_list(key).into_iter().map(|(name, _)| name).collect()
    }

    fn strs(v: &Json) -> Vec<String> {
        v.as_arr()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let known: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        assert_eq!(listed, known);
    }

    #[test]
    fn layer_table_covers_each_per_layer_metric_once() {
        let table = json::parse(LAYERS_JSON).unwrap();
        let rows = table.get("layers").and_then(Json::as_arr).unwrap();
        let mut covered: Vec<String> = rows
            .iter()
            .flat_map(|r| strs(r.get("metrics").unwrap()))
            .collect();
        for (row, metric) in rows.iter().flat_map(|r| {
            let layer = r.get("layer").and_then(Json::as_str).unwrap();
            strs(r.get("metrics").unwrap())
                .into_iter()
                .map(move |m| (layer, m))
        }) {
            assert!(
                metric.starts_with(&format!("{row}.")),
                "{metric} in row {row}"
            );
        }
        covered.sort();
        let mut per_layer = names("per_layer");
        per_layer.sort();
        assert_eq!(covered, per_layer);
    }

    #[test]
    fn layer_table_names_real_metrics_and_workloads() {
        let table = json::parse(LAYERS_JSON).unwrap();
        let metrics: Vec<String> = names("end_to_end")
            .into_iter()
            .chain(names("per_layer"))
            .collect();
        let workloads: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        for row in table.get("layers").and_then(Json::as_arr).unwrap() {
            for m in row.get("moves").and_then(Json::as_arr).unwrap() {
                let metric = m.get("metric").and_then(Json::as_str).unwrap();
                let on = m.get("on").and_then(Json::as_str).unwrap();
                assert!(metrics.iter().any(|n| n == metric), "{metric}");
                assert!(workloads.contains(&on), "{on}");
            }
            for w in strs(row.get("flat_on").unwrap()) {
                assert!(workloads.contains(&w.as_str()), "{w}");
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_listed_metrics() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        for name in ["setup_s", "latency_p50_ms", "latency_tail_ms"] {
            out.set(name, 1.5);
        }
        assert!(
            result_line(&out, false).is_err(),
            "missing end-to-end metrics"
        );
        for name in ["throughput_ops", "peak_rss_mb"] {
            out.set(name, 2.0);
        }
        out.set("lang.compile_ms", 0.25);
        let line = json::parse(&result_line(&out, false).unwrap()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), names("end_to_end").len());
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));

        let traced = json::parse(&result_line(&out, true).unwrap()).unwrap();
        let metrics = traced.get("metrics").unwrap();
        assert_eq!(metrics.as_obj().unwrap().len(), names("per_layer").len());
        let value = |name: &str| {
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("lang.compile_ms"), Some(0.25));
        assert_eq!(
            value("hash.keys"),
            Some(0.0),
            "an unexercised layer reads 0"
        );
    }

    #[test]
    fn a_wrong_output_makes_the_run_incorrect() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.check(false, || "mismatch".to_string());
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.failures, ["mismatch"]);
        for (name, _) in metric_list("end_to_end") {
            out.figures.insert(Box::leak(name.into_boxed_str()), 1.0);
        }
        let line = json::parse(&result_line(&out, false).unwrap()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
}
