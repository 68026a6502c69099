//! The `cold_compile` workload (every operation a fresh
//! `Engine::compile`), and the traced compile that times each pipeline
//! layer through its public function.

use crate::inputs::{cold_compile_shapes, Constants};
use crate::stats::{emit_self_time, mean};
use crate::trace::Tracer;
use crate::{Outcome, Params, SETUPS};
use msc_engine::{Engine, EngineOptions, Job, Provenance};
use msc_ir::{Addr, Op};
use msc_mimd::{MimdConfig, MimdReference};
use msc_obs::json::Json;
use msc_serve::api;
use msc_simd::{Dispatch, MachineConfig, Metrics, SimdMachine, SimdProgram};
use std::collections::HashSet;
use std::time::Instant;

/// PEs a cold compile's output is checked on: every branchy kind
/// (`pe_id() % 8`) and loop trip (`pe_id() % 4`) occurs among them.
const CHECK_PES: usize = 16;
/// Per-PE return values of the independent MIMD interpreter.
fn reference_values(source: &str, pes: usize) -> Result<Vec<i64>, String> {
    let p = msc_lang::compile(source).map_err(|e| format!("reference compile: {e}"))?;
    let cfg = MimdConfig::spmd(pes);
    let mut m = MimdReference::new(p.layout.poly_words, p.layout.mono_words, &cfg);
    m.run(&p.graph, &cfg)
        .map_err(|e| format!("reference run: {e}"))?;
    let ret = p.layout.main_ret.ok_or("main returns nothing")?;
    Ok((0..pes).map(|pe| m.poly_at(pe, ret)).collect())
}

/// Simulate `simd` on `pes` PEs; per-PE return values and metrics.
fn simulate(
    simd: &SimdProgram,
    ret: Option<Addr>,
    pes: usize,
) -> Result<(Vec<i64>, Metrics), String> {
    let cfg = MachineConfig::spmd(pes);
    let mut m = SimdMachine::new(simd, &cfg);
    let metrics = m.run(simd, &cfg).map_err(|e| format!("simulate: {e}"))?;
    let ret = ret.ok_or("program returns nothing")?;
    Ok(((0..pes).map(|pe| m.poly_at(pe, ret)).collect(), metrics))
}

/// Per-layer sums over traced compiles and simulations.
#[derive(Default)]
struct Layers {
    compiles: u64,
    lang_ms: f64,
    mimd_states: usize,
    core_ms: f64,
    meta_states: usize,
    members: usize,
    engine_ms: f64,
    generate_ms: f64,
    emit_ms: f64,
    emit_clamped: u64,
    instrs: usize,
    csi_ms: f64,
    csi_calls: u64,
    csi_slots: usize,
    csi_cost: u64,
    csi_bound: u64,
    hash_ms: f64,
    dispatches: u64,
    keys: usize,
    distinct_keysets: usize,
    load: f64,
    probes: u64,
    api_compile_ms: f64,
    hit_ms: f64,
    api_run_ms: f64,
    runs: u64,
    run_ms: f64,
    cycles: u64,
    issues: u64,
    sim_dispatches: u64,
    utilization: f64,
    pe_cycles: f64,
}

impl Layers {
    fn add_run(&mut self, ms: f64, m: &Metrics, pes: usize) {
        self.runs += 1;
        self.run_ms += ms;
        self.cycles += m.cycles;
        self.issues += m.issues;
        self.sim_dispatches += m.dispatches;
        self.utilization += m.utilization();
        self.pe_cycles += (m.cycles * pes as u64) as f64;
    }

    /// Per-layer figures: times and counts are means per traced compile
    /// (or per traced simulation for `simd.*`).
    fn report(&self, out: &mut Outcome) {
        let per = |v: f64, n: u64| if n == 0 { 0.0 } else { v / n as f64 };
        let c = self.compiles;
        let figures = [
            ("lang.compile_ms", per(self.lang_ms, c)),
            ("lang.mimd_states", per(self.mimd_states as f64, c)),
            ("core.convert_ms", per(self.core_ms, c)),
            ("core.meta_states", per(self.meta_states as f64, c)),
            ("core.members", per(self.members as f64, c)),
            ("engine.convert_parallel_ms", per(self.engine_ms, c)),
            ("csi.induce_ms", per(self.csi_ms, c)),
            ("csi.calls", per(self.csi_calls as f64, c)),
            ("csi.slots", per(self.csi_slots as f64, c)),
            (
                "csi.cost_over_bound",
                per(self.csi_cost as f64, self.csi_bound),
            ),
            ("hash.search_ms", per(self.hash_ms, c)),
            ("hash.dispatches", per(self.dispatches as f64, c)),
            ("hash.keys", per(self.keys as f64, c)),
            (
                "hash.distinct_keyset_share",
                per(self.distinct_keysets as f64, self.dispatches),
            ),
            ("hash.table_load", per(self.load, self.dispatches)),
            ("codegen.generate_ms", per(self.generate_ms, c)),
            ("codegen.emit_ms", per(self.emit_ms, c)),
            ("codegen.emit_clamped", self.emit_clamped as f64),
            ("codegen.instrs", per(self.instrs as f64, c)),
            (
                "serve.api_compile_ms",
                per(self.api_compile_ms, self.probes),
            ),
            ("engine.hit_ms", per(self.hit_ms, self.probes)),
            ("serve.api_run_ms", per(self.api_run_ms, self.probes)),
            ("simd.run_ms", per(self.run_ms, self.runs)),
            ("simd.cycles", per(self.cycles as f64, self.runs)),
            ("simd.issues", per(self.issues as f64, self.runs)),
            (
                "simd.dispatches",
                per(self.sim_dispatches as f64, self.runs),
            ),
            ("simd.utilization", per(self.utilization, self.runs)),
            (
                "simd.pe_cycles_per_us",
                per(self.pe_cycles, 1) / (self.run_ms * 1e3).max(f64::MIN_POSITIVE),
            ),
        ];
        for (name, value) in figures {
            out.set(name, value);
        }
    }
}

/// What a traced compile hands back for checking and running.
struct Traced {
    simd: SimdProgram,
    ret: Option<Addr>,
    /// lang + engine convert + codegen: the layers `Engine::compile` runs.
    busy_ms: f64,
    op_ms: f64,
}

/// Compile `job` layer by layer, each public call in its own span: the
/// front end, sequential and parallel conversion, code generation, then
/// CSI on every meta state's member threads and the hash search on every
/// hashed dispatch's keys, which are the inputs `generate` gave them.
fn traced_compile(
    tr: &mut Tracer,
    layers: &mut Layers,
    job: &Job,
    threads: usize,
    op: u64,
) -> Result<Traced, String> {
    let root = tr.start("bench.compile", op, None);
    let parent = Some(root);
    let (prog, lang_ms) = tr.time("lang.compile", op, parent, || {
        msc_lang::compile(&job.source)
    });
    let prog = prog.map_err(|e| format!("lang: {e}"))?;
    let (seq, core_ms) = tr.time("core.convert_with_stats", op, parent, || {
        msc_core::convert_with_stats(&prog.graph, &job.convert)
    });
    let (seq, _) = seq.map_err(|e| format!("core: {e}"))?;
    let (par, engine_ms) = tr.time("engine.convert_parallel", op, parent, || {
        msc_engine::convert_parallel(&prog.graph, &job.convert, threads)
    });
    let (auto, _) = par.map_err(|e| format!("engine: {e}"))?;
    let (simd, generate_ms) = tr.time("codegen.generate", op, parent, || {
        msc_codegen::generate(
            &auto,
            prog.layout.poly_words,
            prog.layout.mono_words,
            &job.gen,
        )
    });
    let simd = simd.map_err(|e| format!("codegen: {e}"))?;

    let mut csi_ms = 0.0;
    if job.gen.csi {
        let opts = msc_csi::CsiOptions {
            costs: job.gen.costs.clone(),
            ..Default::default()
        };
        for set in &auto.sets {
            let threads: Vec<Vec<Op>> = set
                .iter()
                .map(|m| auto.graph.state(m).ops.clone())
                .collect();
            let (schedule, ms) = tr.time("csi.induce_with", op, parent, || {
                msc_csi::induce_with(&threads, &opts)
            });
            let schedule = schedule.map_err(|e| format!("csi: {e}"))?;
            csi_ms += ms;
            layers.csi_calls += 1;
            layers.csi_slots += schedule.slots.len();
            layers.csi_cost += schedule.cost;
            layers.csi_bound += schedule.lower_bound;
        }
    }
    let mut hash_ms = 0.0;
    let mut keysets = HashSet::new();
    for block in &simd.blocks {
        if let Dispatch::Hashed { hash, .. } = &block.dispatch {
            let (found, ms) = tr.time("hash.find_hash_with", op, parent, || {
                msc_hash::find_hash_with(&hash.keys, job.gen.hash_search)
            });
            found.map_err(|e| format!("hash: {e}"))?;
            hash_ms += ms;
            layers.dispatches += 1;
            layers.keys += hash.keys.len();
            layers.load += hash.load_factor();
            let mut keys = hash.keys.clone();
            keys.sort_unstable();
            keysets.insert(keys);
        }
    }
    let op_ms = tr.end(root);

    let (emit_ms, clamped) = emit_self_time(generate_ms, csi_ms, hash_ms);
    layers.compiles += 1;
    layers.lang_ms += lang_ms;
    layers.mimd_states += prog.graph.len();
    layers.core_ms += core_ms;
    layers.meta_states += seq.len();
    layers.members += seq.sets.iter().map(|s| s.len()).sum::<usize>();
    layers.engine_ms += engine_ms;
    layers.generate_ms += generate_ms;
    layers.csi_ms += csi_ms;
    layers.hash_ms += hash_ms;
    layers.distinct_keysets += keysets.len();
    layers.emit_ms += emit_ms;
    layers.emit_clamped += u64::from(clamped);
    layers.instrs += simd.control_unit_instrs();
    Ok(Traced {
        simd,
        ret: prog.layout.main_ret,
        busy_ms: lang_ms + engine_ms + generate_ms,
        op_ms,
    })
}

/// The serve layer in-process: the `/compile` and `/run` handlers of
/// `msc_serve::api` on this operation's program, plus the warm
/// `Engine::compile` between them. They use an engine of their own, so
/// the workload engine's cache counts only the workload's compiles.
/// Returns whether `/run` answered `expected` from a cache hit.
fn serve_probe(
    tr: &mut Tracer,
    layers: &mut Layers,
    probe: &Engine,
    job: &Job,
    op: u64,
    expected: &[i64],
) -> Result<bool, String> {
    let max = msc_serve::ServeOptions::default().max_meta_states;
    let body = Json::obj(vec![
        ("source", Json::from(job.source.as_str())),
        ("pes", Json::from(CHECK_PES)),
    ]);
    let (compiled, compile_ms) = tr.time("serve.api_compile", op, None, || {
        api::compile(probe, &body, max)
    });
    compiled.map_err(|e| format!("/compile handler: {e:?}"))?;
    let (hit, hit_ms) = tr.time("engine.compile", op, None, || probe.compile(job));
    let hit = hit.map_err(|e| e.to_string())?.provenance == Provenance::Memory;
    let (ran, run_ms) = tr.time("serve.api_run", op, None, || api::run(probe, &body, max));
    let ran = ran.map_err(|e| format!("/run handler: {e:?}"))?;
    let values: Option<Vec<i64>> = ran
        .get("results")
        .and_then(Json::as_arr)
        .and_then(|a| a.iter().map(Json::as_i64).collect());
    layers.probes += 1;
    layers.api_compile_ms += compile_ms;
    layers.hit_ms += hit_ms;
    layers.api_run_ms += run_ms;
    Ok(hit && values.as_deref() == Some(expected))
}

/// Engine counters at one instant, to report deltas over the timed phase.
struct EngineCounters {
    fresh: u64,
    coalesced: u64,
    cache: msc_engine::CacheStats,
}

impl EngineCounters {
    fn read(engine: &Engine) -> EngineCounters {
        EngineCounters {
            fresh: engine.jobs_compiled(),
            coalesced: engine.coalesced(),
            cache: engine.cache_stats(),
        }
    }

    /// `engine.*` and `cache.*` counts accrued since `self`.
    fn report_since(&self, engine: &Engine, out: &mut Outcome) {
        let now = EngineCounters::read(engine);
        let (a, b) = (&self.cache, &now.cache);
        let hits = (b.hits + b.disk_hits + b.peer_hits) - (a.hits + a.disk_hits + a.peer_hits);
        let lookups = hits + (b.misses - a.misses);
        out.set("engine.fresh_compiles", (now.fresh - self.fresh) as f64);
        out.set("engine.coalesced", (now.coalesced - self.coalesced) as f64);
        out.set(
            "cache.hit_share",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        );
        out.set("cache.inserts", (b.insertions - a.insertions) as f64);
        out.set("cache.evictions", (b.evictions - a.evictions) as f64);
    }
}

/// One cold compile per operation, every one a cache miss, from a single
/// sequential caller. A traced run alternates rounds: even rounds call
/// `Engine::compile` untimed by layer, odd rounds go layer by layer.
pub fn cold_compile(p: &Params) -> Result<Outcome, String> {
    let shapes = cold_compile_shapes();
    let mut consts = Constants::new(p.seed);
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        // Set-up: a fresh engine, warmed with one compile of each shape
        // (distinct constants, so the timed compiles still miss).
        let t = Instant::now();
        let e = Engine::new(EngineOptions::default());
        for shape in &shapes {
            e.compile(&shape.job(consts.next()))
                .map_err(|err| format!("warm-up {}: {err}", shape.name))?;
        }
        setups.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    let threads = engine.threads();
    let probe = Engine::new(EngineOptions::default());

    let mut out = Outcome::default();
    out.setup(&setups);
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let (mut untraced, mut traced, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    let (mut instrs, mut cycles) = (Vec::new(), Vec::new());
    let counters = EngineCounters::read(&engine);
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < p.seconds || (p.trace && round % 2 == 1) {
        let traced_round = p.trace && round % 2 == 1;
        tracer.set_enabled(traced_round);
        for shape in &shapes {
            let job = shape.job(consts.next());
            let op = out.attempted;
            let (simd, ret, fresh) = if traced_round {
                let t = traced_compile(&mut tracer, &mut layers, &job, threads, op)?;
                traced.push(t.op_ms);
                busy.push(t.busy_ms);
                (t.simd, t.ret, true)
            } else {
                let t = Instant::now();
                let compiled = engine
                    .compile(&job)
                    .map_err(|e| format!("{}: {e}", job.name))?;
                untraced.push(t.elapsed().as_secs_f64() * 1e3);
                let a = &compiled.artifact;
                (
                    a.simd.clone(),
                    a.ret_addr,
                    compiled.provenance == Provenance::Fresh,
                )
            };
            instrs.push(simd.control_unit_instrs() as f64);
            let expected = reference_values(&job.source, CHECK_PES)?;
            let run = tracer.start("simd.run", op, None);
            let (values, metrics) = simulate(&simd, ret, CHECK_PES)?;
            let run_ms = tracer.end(run);
            cycles.push(metrics.cycles as f64);
            let mut served = true;
            if traced_round {
                layers.add_run(run_ms, &metrics, CHECK_PES);
                served = serve_probe(&mut tracer, &mut layers, &probe, &job, op, &expected)?;
            }
            out.check(fresh && served && values == expected, || {
                format!(
                    "{}: fresh={fresh}, served={served}, values {values:?} != reference {expected:?}",
                    job.name
                )
            });
        }
        round += 1;
    }
    let busy_s = untraced.iter().sum::<f64>() / 1e3;
    out.end_timed_phase(untraced.clone(), busy_s)?;
    // Deterministic per shape, so untraced runs report them too.
    out.set("codegen.instrs", mean(&instrs));
    out.set("simd.cycles", mean(&cycles));
    if p.trace {
        counters.report_since(&engine, &mut out);
        layers.report(&mut out);
        out.set("trace.busy_ms", mean(&busy));
        let (b, u) = (mean(&busy), mean(&untraced));
        let overhead = mean(&traced) - u;
        out.notes.push(format!(
            "traced busy time (lang + engine convert + codegen) {b:.3} ms vs untraced compile {u:.3} ms: \
             {} within the tracing overhead of {overhead:.3} ms",
            if (u - b).abs() <= overhead.abs() { "accounted" } else { "NOT accounted" }
        ));
        out.trace_done(&tracer, &untraced, &traced, "cold_compile", p.seed)?;
    }
    Ok(out)
}
