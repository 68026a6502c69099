//! The oracle matrix: every execution configuration the repo offers, run
//! over one generated program and diffed against the true-MIMD reference.
//!
//! Two tiers of agreement are checked:
//!
//! * **semantic** — per-PE results must equal the reference for every
//!   oracle (the paper's §1.2 claim that the meta-state automaton
//!   duplicates MIMD execution);
//! * **bit-identity** — the engine at any thread count and the disk-cache
//!   round-trip promise *identical artifacts* (canonical BFS renumbering,
//!   content-addressed cache), so their cycle counts, automaton text and
//!   serialized programs are additionally required to match each other
//!   exactly.
//!
//! A skipped oracle (e.g. the subset construction hit the meta-state
//! bound) is reported but is not a failure; an oracle *error* that the
//! reference did not produce is a finding, like a result mismatch.

use crate::grammar::Program;
use metastate::{Pipeline, TimeSplitOptions};
use msc_engine::{Engine, EngineError, EngineOptions, Job, Provenance};
use msc_ir::CostModel;
use msc_simd::{MachineConfig, SimdMachine};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One execution configuration under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Oracle {
    /// §1.1 interpreter baseline.
    Interp,
    /// Base-mode `Pipeline` (§2.3).
    Base,
    /// Compressed-mode `Pipeline` (§2.5).
    Compressed,
    /// Base mode with §2.4 time splitting.
    TimeSplit,
    /// Base mode with common subexpression induction disabled.
    NoCsi,
    /// The compile engine (canonical artifacts).
    Engine,
    /// Cold compile, then reload through the on-disk cache: the two
    /// artifacts must be byte-identical and run identically.
    Cache,
    /// The live daemon over TCP (`POST /run` via `msc_serve::Client`).
    Serve,
    /// The regex front-end: meta-automaton matcher (sequential and
    /// sharded) diffed against the naive backtracking reference, on a
    /// case derived deterministically from the rendered source.
    Regex,
    /// An intentionally miscompiling oracle used to prove the fuzzer
    /// catches and minimizes real divergence.
    SelfTest,
}

impl Oracle {
    /// Stable label used in reports, reproducers and `--oracles` lists.
    pub fn label(&self) -> String {
        match self {
            Oracle::Interp => "interp".into(),
            Oracle::Base => "base".into(),
            Oracle::Compressed => "compressed".into(),
            Oracle::TimeSplit => "timesplit".into(),
            Oracle::NoCsi => "nocsi".into(),
            Oracle::Engine => "engine".into(),
            Oracle::Cache => "cache".into(),
            Oracle::Serve => "serve".into(),
            Oracle::Regex => "regex".into(),
            Oracle::SelfTest => "selftest".into(),
        }
    }

    /// Parse one `--oracles` token.
    pub fn parse(tok: &str) -> Result<Oracle, String> {
        Ok(match tok {
            "interp" => Oracle::Interp,
            "base" => Oracle::Base,
            "compressed" => Oracle::Compressed,
            "timesplit" => Oracle::TimeSplit,
            "nocsi" => Oracle::NoCsi,
            "engine" => Oracle::Engine,
            "cache" => Oracle::Cache,
            "serve" => Oracle::Serve,
            "regex" => Oracle::Regex,
            "selftest" => Oracle::SelfTest,
            other => {
                return Err(format!(
                    "unknown oracle `{other}` (try interp, base, compressed, timesplit, \
                     nocsi, engine, cache, serve, regex, selftest)"
                ))
            }
        })
    }

    /// Parse a comma-separated `--oracles` list.
    pub fn parse_list(list: &str) -> Result<Vec<Oracle>, String> {
        list.split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(Oracle::parse)
            .collect()
    }

    /// The full in-process matrix (everything but the TCP daemon and the
    /// intentionally-buggy selftest).
    pub fn default_set() -> Vec<Oracle> {
        vec![
            Oracle::Interp,
            Oracle::Base,
            Oracle::Compressed,
            Oracle::TimeSplit,
            Oracle::NoCsi,
            Oracle::Engine,
            Oracle::Cache,
            Oracle::Regex,
        ]
    }

    /// Members of the bit-identity group (engine + cache round-trip).
    pub fn bit_identical(&self) -> bool {
        matches!(self, Oracle::Engine | Oracle::Cache)
    }
}

/// Shared oracle-run configuration.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Live PEs running `main`.
    pub n_pe: usize,
    /// Subset-construction bound; beyond it an oracle is *skipped*.
    pub max_meta_states: usize,
    /// Address of a running msc-serve daemon (for [`Oracle::Serve`]).
    pub serve_addr: Option<String>,
    /// Scratch directory root for cache round-trips (default: temp dir).
    pub scratch_dir: Option<PathBuf>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            n_pe: 5,
            max_meta_states: 3000,
            serve_addr: None,
            scratch_dir: None,
        }
    }
}

impl OracleConfig {
    /// `(total PEs, live PEs)` for `prog`: spawn programs get one idle
    /// recruit per (site × live PE) so spawn can never overflow.
    pub fn machine_shape(&self, prog: &Program) -> (usize, usize) {
        let live = self.n_pe.max(1);
        if prog.spawn_count() > 0 {
            (live * (1 + prog.spawn_count()), live)
        } else {
            (live, live)
        }
    }
}

/// What one execution produced, normalized for comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// Per-PE value of `main`'s return slot for the live PEs.
    pub main_values: Vec<i64>,
    /// Sorted nonzero worker results (`wr`) across every PE — the
    /// machine-independent view of a spawn tree's output (recruit
    /// *assignment* is scheduler-dependent, recruit *work* is not).
    pub worker_values: Vec<i64>,
    /// Execution cycles, where the mode reports them.
    pub cycles: Option<u64>,
    /// Canonical automaton text (engine-produced artifacts only).
    pub automaton: Option<String>,
    /// Serialized SIMD program (engine-produced artifacts only).
    pub asm: Option<String>,
    /// Whether `worker_values` reflects this execution. The daemon's
    /// `/run` endpoint only returns per-PE return values, so the serve
    /// oracle cannot observe spawn-worker memory; it compares main
    /// values only instead of faking an empty worker set.
    pub workers_observable: bool,
}

/// Why an oracle could not produce an [`Execution`].
#[derive(Debug, Clone)]
pub enum OracleError {
    /// Legitimate bail-out (meta-state bound, daemon not configured).
    Skip(String),
    /// Unexpected failure — a finding, reported like a mismatch.
    Fail(String),
}

/// One divergence between an oracle and its expectation.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The diverging oracle's label (or `bit-identity` for group splits).
    pub oracle: String,
    /// Expected per-PE values (the reference's, or the group leader's).
    pub expected: Vec<i64>,
    /// What the oracle produced.
    pub actual: Vec<i64>,
    /// Human-readable description of the divergence.
    pub detail: String,
}

/// Everything `run_case` learned about one program.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The rendered source the oracles ran.
    pub source: String,
    /// The golden execution (absent if the reference itself failed).
    pub reference: Option<Execution>,
    /// All divergences found.
    pub mismatches: Vec<Mismatch>,
    /// `(oracle, reason)` for every skipped oracle.
    pub skips: Vec<(String, String)>,
    /// Oracles that produced an execution.
    pub oracles_run: usize,
}

impl CaseResult {
    /// True when no oracle diverged.
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

fn base_opts(cfg: &OracleConfig) -> msc_core::ConvertOptions {
    let mut o = msc_core::ConvertOptions::base();
    o.max_meta_states = cfg.max_meta_states;
    o
}

fn too_many(e: &metastate::PipelineError) -> bool {
    matches!(
        e,
        metastate::PipelineError::Convert(msc_core::ConvertError::TooManyMetaStates { .. })
    )
}

/// Run the true-MIMD reference — the golden semantics.
pub fn run_reference(prog: &Program, cfg: &OracleConfig) -> Result<Execution, String> {
    let src = prog.render();
    let (total, live) = cfg.machine_shape(prog);
    let p = msc_lang::compile(&src).map_err(|e| format!("reference compile: {e}"))?;
    let mcfg = msc_mimd::MimdConfig {
        n_proc: total,
        active_at_start: live,
        max_cycles: prog.cycle_bound().max(1_000_000),
        costs: CostModel::default(),
    };
    let mut m = msc_mimd::MimdReference::new(p.layout.poly_words, p.layout.mono_words, &mcfg);
    let metrics = m
        .run(&p.graph, &mcfg)
        .map_err(|e| format!("reference run: {e}"))?;
    let ret = p.layout.main_ret.ok_or("main has no return slot")?;
    let worker_values = match p.layout.var("wr") {
        Some(v) => {
            let mut ws: Vec<i64> = (0..total)
                .map(|pe| m.poly_at(pe, v.addr))
                .filter(|&w| w != 0)
                .collect();
            ws.sort_unstable();
            ws
        }
        None => Vec::new(),
    };
    Ok(Execution {
        main_values: (0..live).map(|pe| m.poly_at(pe, ret)).collect(),
        worker_values,
        cycles: Some(metrics.cycles),
        automaton: None,
        asm: None,
        workers_observable: true,
    })
}

/// Extract the normalized execution out of a finished SIMD machine.
fn execution_from_machine(
    machine: &SimdMachine,
    layout: &msc_lang::Layout,
    total: usize,
    live: usize,
    cycles: u64,
) -> Result<Execution, OracleError> {
    let ret = layout
        .main_ret
        .ok_or_else(|| OracleError::Fail("main has no return slot".into()))?;
    let worker_values = match layout.var("wr") {
        Some(v) => {
            let mut ws: Vec<i64> = (0..total)
                .map(|pe| machine.poly_at(pe, v.addr))
                .filter(|&w| w != 0)
                .collect();
            ws.sort_unstable();
            ws
        }
        None => Vec::new(),
    };
    Ok(Execution {
        main_values: (0..live).map(|pe| machine.poly_at(pe, ret)).collect(),
        worker_values,
        cycles: Some(cycles),
        automaton: None,
        asm: None,
        workers_observable: true,
    })
}

fn run_pipeline_oracle(
    oracle: &Oracle,
    src: &str,
    total: usize,
    live: usize,
    cfg: &OracleConfig,
) -> Result<Execution, OracleError> {
    let mut copts = match oracle {
        Oracle::Compressed => {
            let mut o = msc_core::ConvertOptions::compressed();
            o.max_meta_states = cfg.max_meta_states;
            o
        }
        _ => base_opts(cfg),
    };
    if matches!(oracle, Oracle::TimeSplit) {
        copts.time_split = Some(TimeSplitOptions::default());
    }
    let mut p = Pipeline::new(src).convert_options(copts);
    if matches!(oracle, Oracle::NoCsi) {
        p = p.gen_options(metastate::codegen::GenOptions {
            csi: false,
            ..Default::default()
        });
    }
    let built = match p.build() {
        Ok(b) => b,
        Err(e) if too_many(&e) => return Err(OracleError::Skip(e.to_string())),
        Err(e) => return Err(OracleError::Fail(format!("build: {e}"))),
    };
    let out = built
        .run_with(MachineConfig::with_pool(total, live))
        .map_err(|e| OracleError::Fail(format!("run: {e}")))?;
    let mut exec = execution_from_machine(
        &out.machine,
        &built.compiled.layout,
        total,
        live,
        out.metrics.cycles,
    )?;
    if matches!(oracle, Oracle::SelfTest) {
        // The injected conversion bug: programs whose automaton branched
        // (more than one meta state) and that contain an `if` have the
        // last live PE's result nudged by one. Deterministic, so the
        // minimizer can shrink any trigger down to a bare branch.
        if built.automaton.len() > 1 && src.contains("if (") {
            if let Some(last) = exec.main_values.last_mut() {
                *last += 1;
            }
        }
    }
    Ok(exec)
}

fn run_interp(src: &str, total: usize, live: usize, bound: u64) -> Result<Execution, OracleError> {
    let p = msc_lang::compile(src).map_err(|e| OracleError::Fail(format!("compile: {e}")))?;
    let program =
        msc_mimd::InterpProgram::flatten(&p.graph, p.layout.poly_words, p.layout.mono_words);
    let mut m = msc_mimd::InterpMachine::new(&program, total, live);
    let metrics = m
        .run(&program, &CostModel::default(), bound.max(1_000_000) * 64)
        .map_err(|e| OracleError::Fail(format!("interp run: {e}")))?;
    let ret = p
        .layout
        .main_ret
        .ok_or_else(|| OracleError::Fail("main has no return slot".into()))?;
    let worker_values = match p.layout.var("wr") {
        Some(v) => {
            let mut ws: Vec<i64> = (0..total)
                .map(|pe| m.poly_at(pe, v.addr))
                .filter(|&w| w != 0)
                .collect();
            ws.sort_unstable();
            ws
        }
        None => Vec::new(),
    };
    Ok(Execution {
        main_values: (0..live).map(|pe| m.poly_at(pe, ret)).collect(),
        worker_values,
        cycles: Some(metrics.cycles),
        automaton: None,
        asm: None,
        workers_observable: true,
    })
}

/// The `wr` slot of an artifact's front-end layout. Only fresh compiles
/// carry the front-end program — disk-cache hits rebuild just the SIMD
/// side — so cache round-trips must take the address from their cold
/// compile instead.
fn wr_addr(artifact: &msc_engine::Artifact) -> Option<msc_ir::Addr> {
    artifact
        .compiled
        .as_ref()
        .and_then(|p| p.layout.var("wr"))
        .map(|v| v.addr)
}

fn run_engine_artifact(
    artifact: &msc_engine::Artifact,
    wr: Option<msc_ir::Addr>,
    total: usize,
    live: usize,
) -> Result<Execution, OracleError> {
    let cfg = MachineConfig::with_pool(total, live);
    let mut machine = SimdMachine::new(&artifact.simd, &cfg);
    let metrics = machine
        .run(&artifact.simd, &cfg)
        .map_err(|e| OracleError::Fail(format!("run: {e}")))?;
    let ret = artifact
        .ret_addr
        .ok_or_else(|| OracleError::Fail("main has no return slot".into()))?;
    let worker_values = match wr {
        Some(addr) => {
            let mut ws: Vec<i64> = (0..total)
                .map(|pe| machine.poly_at(pe, addr))
                .filter(|&w| w != 0)
                .collect();
            ws.sort_unstable();
            ws
        }
        None => Vec::new(),
    };
    Ok(Execution {
        main_values: (0..live).map(|pe| machine.poly_at(pe, ret)).collect(),
        worker_values,
        cycles: Some(metrics.cycles),
        automaton: Some(artifact.automaton_text.clone()),
        asm: Some(msc_simd::serialize_asm(&artifact.simd)),
        workers_observable: true,
    })
}

fn engine_job(src: &str, cfg: &OracleConfig) -> Job {
    let mut job = Job::new("fuzz", src);
    job.convert = base_opts(cfg);
    job
}

fn run_engine(
    src: &str,
    total: usize,
    live: usize,
    cfg: &OracleConfig,
) -> Result<Execution, OracleError> {
    let engine = Engine::new(EngineOptions::default());
    let out = match engine.compile(&engine_job(src, cfg)) {
        Ok(c) => c,
        Err(EngineError::Convert(msc_core::ConvertError::TooManyMetaStates { .. })) => {
            return Err(OracleError::Skip("meta-state bound".into()))
        }
        Err(e) => return Err(OracleError::Fail(format!("engine compile: {e}"))),
    };
    let wr = wr_addr(&out.artifact);
    run_engine_artifact(&out.artifact, wr, total, live)
}

static CACHE_CASE: AtomicU64 = AtomicU64::new(0);

fn run_cache_roundtrip(
    src: &str,
    total: usize,
    live: usize,
    cfg: &OracleConfig,
) -> Result<Execution, OracleError> {
    let root = cfg.scratch_dir.clone().unwrap_or_else(std::env::temp_dir);
    let dir = root.join(format!(
        "msc-fuzz-cache-{}-{}",
        std::process::id(),
        CACHE_CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let disk_opts = || EngineOptions {
            cache_dir: Some(dir.clone()),
            ..EngineOptions::default()
        };
        let job = engine_job(src, cfg);
        let cold_engine = Engine::new(disk_opts());
        let cold = match cold_engine.compile(&job) {
            Ok(c) => c,
            Err(EngineError::Convert(msc_core::ConvertError::TooManyMetaStates { .. })) => {
                return Err(OracleError::Skip("meta-state bound".into()))
            }
            Err(e) => return Err(OracleError::Fail(format!("cold compile: {e}"))),
        };
        if cold.provenance != Provenance::Fresh {
            return Err(OracleError::Fail(format!(
                "cold compile into an empty cache reported {}",
                cold.provenance
            )));
        }
        drop(cold_engine);
        // A brand-new engine over the same directory can only be served
        // by the disk layer.
        let warm_engine = Engine::new(disk_opts());
        let warm = warm_engine
            .compile(&job)
            .map_err(|e| OracleError::Fail(format!("cache reload: {e}")))?;
        if warm.provenance != Provenance::Disk {
            return Err(OracleError::Fail(format!(
                "cache round-trip reported {}, want cache hit (disk)",
                warm.provenance
            )));
        }
        let cold_asm = msc_simd::serialize_asm(&cold.artifact.simd);
        let warm_asm = msc_simd::serialize_asm(&warm.artifact.simd);
        if cold_asm != warm_asm {
            return Err(OracleError::Fail(
                "disk cache returned a different SIMD program than the cold compile".into(),
            ));
        }
        run_engine_artifact(&warm.artifact, wr_addr(&cold.artifact), total, live)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_serve(
    src: &str,
    total: usize,
    live: usize,
    cfg: &OracleConfig,
) -> Result<Execution, OracleError> {
    use msc_obs::json::Json;
    let Some(addr) = &cfg.serve_addr else {
        return Err(OracleError::Skip("no daemon address configured".into()));
    };
    let mut client = msc_serve::client::Client::connect(addr)
        .map_err(|e| OracleError::Fail(format!("connect {addr}: {e}")))?;
    let body = Json::obj(vec![
        ("source", Json::from(src)),
        ("pes", Json::from(total as u64)),
        ("active", Json::from(live as u64)),
        ("max_meta_states", Json::from(cfg.max_meta_states as u64)),
    ]);
    let resp = client
        .post_json("/run", &body)
        .map_err(|e| OracleError::Fail(format!("POST /run: {e}")))?;
    if resp.status != 200 {
        // The daemon renders convert-bound errors as 4xx; treat the
        // meta-state bound as the same skip the in-process oracles take.
        if resp.body.contains("meta state") || resp.body.contains("meta-state") {
            return Err(OracleError::Skip("meta-state bound (daemon)".into()));
        }
        return Err(OracleError::Fail(format!(
            "daemon answered {}: {}",
            resp.status, resp.body
        )));
    }
    let v = resp
        .json()
        .ok_or_else(|| OracleError::Fail("daemon response is not JSON".into()))?;
    let results = v
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| OracleError::Fail("daemon response lacks `results`".into()))?;
    let all: Vec<i64> = results.iter().filter_map(Json::as_i64).collect();
    if all.len() != total {
        return Err(OracleError::Fail(format!(
            "daemon returned {} results for {} PEs",
            all.len(),
            total
        )));
    }
    Ok(Execution {
        main_values: all[..live].to_vec(),
        worker_values: Vec::new(),
        cycles: None,
        automaton: None,
        asm: None,
        workers_observable: false,
    })
}

/// Run one oracle over rendered source.
pub fn run_oracle(
    oracle: &Oracle,
    prog: &Program,
    src: &str,
    cfg: &OracleConfig,
) -> Result<Execution, OracleError> {
    let (total, live) = cfg.machine_shape(prog);
    match oracle {
        Oracle::Interp => run_interp(src, total, live, prog.cycle_bound()),
        Oracle::Base
        | Oracle::Compressed
        | Oracle::TimeSplit
        | Oracle::NoCsi
        | Oracle::SelfTest => run_pipeline_oracle(oracle, src, total, live, cfg),
        Oracle::Engine => run_engine(src, total, live, cfg),
        Oracle::Cache => run_cache_roundtrip(src, total, live, cfg),
        Oracle::Serve => run_serve(src, total, live, cfg),
        Oracle::Regex => Err(OracleError::Fail(
            "the regex oracle does not produce a MIMD execution; run_case dispatches it".into(),
        )),
    }
}

/// Run the whole oracle matrix over `prog` and diff everything.
pub fn run_case(prog: &Program, oracles: &[Oracle], cfg: &OracleConfig) -> CaseResult {
    let src = prog.render();
    let reference = match run_reference(prog, cfg) {
        Ok(r) => r,
        Err(e) => {
            // The reference failing on a terminating-by-construction
            // program is a generator (or reference) bug — surface it as
            // a mismatch so it is minimized and preserved like any other.
            return CaseResult {
                source: src,
                reference: None,
                mismatches: vec![Mismatch {
                    oracle: "reference".into(),
                    expected: Vec::new(),
                    actual: Vec::new(),
                    detail: e,
                }],
                skips: Vec::new(),
                oracles_run: 0,
            };
        }
    };
    let mut mismatches = Vec::new();
    let mut skips = Vec::new();
    let mut oracles_run = 0usize;
    // Bit-identity group: (label, cycles, automaton, asm).
    let mut group: Vec<(String, Execution)> = Vec::new();
    for oracle in oracles {
        msc_obs::count("fuzz.oracle_runs", 1);
        // The regex oracle diffs the regex engines against each other on
        // a case derived from `src`; it has no MIMD execution to compare
        // with the reference, so it short-circuits the matrix here.
        if matches!(oracle, Oracle::Regex) {
            use crate::regex_oracle::{run_derived, RegexOutcome};
            match run_derived(&src) {
                RegexOutcome::Clean => oracles_run += 1,
                RegexOutcome::Skip(reason) => {
                    msc_obs::count("fuzz.skips", 1);
                    skips.push((oracle.label(), reason));
                }
                RegexOutcome::Mismatch(detail) => {
                    mismatches.push(Mismatch {
                        oracle: oracle.label(),
                        expected: Vec::new(),
                        actual: Vec::new(),
                        detail,
                    });
                }
            }
            continue;
        }
        match run_oracle(oracle, prog, &src, cfg) {
            Ok(exec) => {
                oracles_run += 1;
                if exec.main_values != reference.main_values
                    || (exec.workers_observable && exec.worker_values != reference.worker_values)
                {
                    mismatches.push(Mismatch {
                        oracle: oracle.label(),
                        expected: reference.main_values.clone(),
                        actual: exec.main_values.clone(),
                        detail: format!(
                            "per-PE results diverged from the MIMD reference \
                             (workers: expected {:?}, got {:?})",
                            reference.worker_values, exec.worker_values
                        ),
                    });
                }
                if oracle.bit_identical() {
                    group.push((oracle.label(), exec));
                }
            }
            Err(OracleError::Skip(reason)) => {
                msc_obs::count("fuzz.skips", 1);
                skips.push((oracle.label(), reason));
            }
            Err(OracleError::Fail(detail)) => {
                mismatches.push(Mismatch {
                    oracle: oracle.label(),
                    expected: reference.main_values.clone(),
                    actual: Vec::new(),
                    detail,
                });
            }
        }
    }
    // Cross-compare the bit-identity group against its first member.
    if let Some((lead_label, lead)) = group.first().cloned() {
        for (label, exec) in &group[1..] {
            let same = exec.cycles == lead.cycles
                && exec.automaton == lead.automaton
                && exec.asm == lead.asm;
            if !same {
                let what = if exec.automaton != lead.automaton {
                    "automaton text"
                } else if exec.asm != lead.asm {
                    "serialized program"
                } else {
                    "cycle count"
                };
                mismatches.push(Mismatch {
                    oracle: "bit-identity".into(),
                    expected: lead.main_values.clone(),
                    actual: exec.main_values.clone(),
                    detail: format!(
                        "{label} and {lead_label} promise identical artifacts but their {what} \
                         differs (cycles {:?} vs {:?})",
                        exec.cycles, lead.cycles
                    ),
                });
            }
        }
    }
    CaseResult {
        source: src,
        reference: Some(reference),
        mismatches,
        skips,
        oracles_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{generate, GrammarConfig};
    use crate::rng::Xoshiro256;

    #[test]
    fn oracle_labels_round_trip() {
        for o in Oracle::default_set() {
            assert_eq!(Oracle::parse(&o.label()).unwrap(), o);
        }
        assert!(Oracle::parse("warp-drive").is_err());
        // The engine has one conversion path, so no per-thread-count
        // variants exist; the error points at the plain label.
        let err = Oracle::parse("engine:2").unwrap_err();
        assert!(err.contains("engine,"), "{err}");
        let list = Oracle::parse_list("base, interp,engine").unwrap();
        assert_eq!(list, vec![Oracle::Base, Oracle::Interp, Oracle::Engine]);
    }

    #[test]
    fn clean_program_agrees_everywhere() {
        let mut rng = Xoshiro256::seeded(11);
        let prog = generate(&mut rng, &GrammarConfig::default());
        let result = run_case(&prog, &Oracle::default_set(), &OracleConfig::default());
        assert!(
            result.clean(),
            "unexpected mismatches: {:?}\non:\n{}",
            result.mismatches,
            result.source
        );
        assert!(result.oracles_run > 0);
    }

    #[test]
    fn regex_oracle_runs_inside_the_matrix() {
        let mut rng = Xoshiro256::seeded(3);
        let prog = generate(&mut rng, &GrammarConfig::default());
        let result = run_case(&prog, &[Oracle::Regex], &OracleConfig::default());
        assert!(
            result.clean(),
            "regex oracle diverged: {:?}\non:\n{}",
            result.mismatches,
            result.source
        );
        // Either the derived pattern compiled and all engines agreed, or
        // it blew the complexity cap and was recorded as a skip.
        assert_eq!(result.oracles_run + result.skips.len(), 1);
    }

    #[test]
    fn selftest_oracle_reports_a_mismatch_on_branchy_programs() {
        use crate::grammar::{Expr, Stmt};
        let prog = crate::grammar::Program {
            stmts: vec![Stmt::If(
                Expr::Bin("<", Box::new(Expr::PeId), Box::new(Expr::Lit(2))),
                vec![Stmt::Assign(0, Expr::Lit(7))],
                vec![Stmt::Assign(0, Expr::Lit(9))],
            )],
            n_vars: 4,
            spawn_sites: 0,
            worker_trips: 0,
        };
        let result = run_case(&prog, &[Oracle::SelfTest], &OracleConfig::default());
        assert_eq!(result.mismatches.len(), 1, "{:?}", result.mismatches);
        assert_eq!(result.mismatches[0].oracle, "selftest");
    }

    /// The daemon's `/run` cannot expose spawn-worker memory, so the
    /// serve oracle must compare main values only — a spawn program run
    /// through a real daemon over TCP is clean, not a spurious
    /// worker-set mismatch.
    #[test]
    fn serve_oracle_handles_spawn_programs_over_tcp() {
        let handle = msc_serve::Server::start(msc_serve::ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..msc_serve::ServeOptions::default()
        })
        .expect("start daemon");
        let cfg = OracleConfig {
            n_pe: 4,
            serve_addr: Some(handle.local_addr().to_string()),
            ..OracleConfig::default()
        };
        let gcfg = GrammarConfig::default().with_spawns(1);
        let prog = generate(&mut Xoshiro256::seeded(11), &gcfg);
        assert!(prog.spawn_count() > 0, "fixture needs a spawn");
        let result = run_case(&prog, &[Oracle::Serve], &cfg);
        handle.shutdown();
        assert!(
            result.clean(),
            "serve oracle diverged on a spawn program: {:?}\non:\n{}",
            result.mismatches,
            result.source
        );
        assert_eq!(result.oracles_run, 1);
    }

    #[test]
    fn spawn_programs_agree_across_the_matrix() {
        let cfg = GrammarConfig::default().with_spawns(2);
        let mut rng = Xoshiro256::seeded(31);
        let prog = generate(&mut rng, &cfg);
        let result = run_case(&prog, &Oracle::default_set(), &OracleConfig::default());
        assert!(
            result.clean(),
            "spawn mismatches: {:?}\non:\n{}",
            result.mismatches,
            result.source
        );
    }
}
