//! One-stop pipeline: MIMDC source → MIMD state graph → meta-state
//! automaton → SIMD program → execution.

use msc_codegen::{generate, GenError, GenOptions};
use msc_core::{
    convert_with_stats, ConvertError, ConvertMode, ConvertOptions, ConvertStats, MetaAutomaton,
    TimeSplitOptions,
};
use msc_engine::{Compiled, Engine, EngineError, Job};
use msc_lang::{compile, CompileError, Program};
use msc_simd::{MachineConfig, Metrics, RunError, SimdMachine, SimdProgram};
use std::fmt;

/// Any pipeline-stage failure.
#[derive(Debug)]
pub enum PipelineError {
    /// Front end failed.
    Compile(CompileError),
    /// Meta-state conversion failed.
    Convert(ConvertError),
    /// SIMD code generation failed.
    Gen(GenError),
    /// An engine-level failure (timeout or contained panic) from
    /// [`Pipeline::build_with`].
    Engine(EngineError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile(e) => write!(f, "compile: {e}"),
            PipelineError::Convert(e) => write!(f, "convert: {e}"),
            PipelineError::Gen(e) => write!(f, "codegen: {e}"),
            PipelineError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        PipelineError::Compile(e)
    }
}

impl From<ConvertError> for PipelineError {
    fn from(e: ConvertError) -> Self {
        PipelineError::Convert(e)
    }
}

impl From<GenError> for PipelineError {
    fn from(e: GenError) -> Self {
        PipelineError::Gen(e)
    }
}

impl From<EngineError> for PipelineError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Compile(e) => PipelineError::Compile(e),
            EngineError::Convert(e) => PipelineError::Convert(e),
            EngineError::Gen(e) => PipelineError::Gen(e),
            other => PipelineError::Engine(other),
        }
    }
}

/// Builder for the full compilation pipeline.
///
/// ```
/// use metastate::{Pipeline, ConvertMode};
///
/// let built = Pipeline::new("main() { poly int x; x = pe_id(); return(x); }")
///     .mode(ConvertMode::Base)
///     .build()
///     .unwrap();
/// let out = built.run(4).unwrap();
/// assert_eq!(out.machine.poly_at(3, built.ret_addr().unwrap()), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    src: String,
    convert_opts: ConvertOptions,
    gen_opts: GenOptions,
    optimize: bool,
    minimize: bool,
}

impl Pipeline {
    /// Start a pipeline over MIMDC source (base-mode defaults; the
    /// optional IR passes [`optimize`](Self::optimize) and
    /// [`minimize`](Self::minimize) are off, matching the paper's
    /// unoptimized prototype).
    pub fn new(src: impl Into<String>) -> Self {
        Pipeline {
            src: src.into(),
            convert_opts: ConvertOptions::base(),
            gen_opts: GenOptions::default(),
            optimize: false,
            minimize: false,
        }
    }

    /// Peephole-optimize blocks (constant folding, dead stack traffic)
    /// before conversion.
    pub fn optimize(mut self) -> Self {
        self.optimize = true;
        self
    }

    /// Merge bisimilar MIMD states before conversion (undoes the code
    /// duplication of per-call-site inline expansion).
    pub fn minimize(mut self) -> Self {
        self.minimize = true;
        self
    }

    /// Select base (§2.3) or compressed (§2.5, with subsumption)
    /// conversion, resetting conversion options to that mode's defaults.
    pub fn mode(mut self, mode: ConvertMode) -> Self {
        self.convert_opts = match mode {
            ConvertMode::Base => ConvertOptions::base(),
            ConvertMode::Compressed => ConvertOptions::compressed(),
        };
        self
    }

    /// Enable §2.4 time splitting.
    pub fn time_split(mut self, ts: TimeSplitOptions) -> Self {
        self.convert_opts.time_split = Some(ts);
        self
    }

    /// Replace the conversion options wholesale.
    pub fn convert_options(mut self, opts: ConvertOptions) -> Self {
        self.convert_opts = opts;
        self
    }

    /// Cap the meta-state explosion guard (composes with
    /// [`mode`](Self::mode), which resets options to the mode defaults —
    /// apply this after it).
    pub fn max_meta_states(mut self, limit: usize) -> Self {
        self.convert_opts.max_meta_states = limit.max(1);
        self
    }

    /// Set the conversion's resident-memory budget in bytes; past it, cold
    /// interned sets and the worklist tail spill to a temp-file segment
    /// store (`None` = never spill). Composes with [`mode`](Self::mode)
    /// like [`max_meta_states`](Self::max_meta_states).
    pub fn memory_budget(mut self, bytes: Option<usize>) -> Self {
        self.convert_opts.memory_budget = bytes;
        self
    }

    /// Replace the code-generation options (e.g. disable CSI).
    pub fn gen_options(mut self, opts: GenOptions) -> Self {
        self.gen_opts = opts;
        self
    }

    /// Price every stage with one cost model: conversion's time splitting,
    /// CSI scheduling, dispatch accounting, and the embedded simulator
    /// costs (the machine-profile path of `mscc sweep`).
    pub fn costs(mut self, costs: msc_ir::CostModel) -> Self {
        self.convert_opts.costs = costs.clone();
        self.gen_opts.costs = costs;
        self
    }

    /// Run every stage.
    pub fn build(self) -> Result<Built, PipelineError> {
        let mut compiled = compile(&self.src)?;
        if self.optimize {
            compiled.graph.peephole();
            compiled.graph.normalize();
        }
        if self.minimize {
            compiled.graph.minimize();
            compiled.graph.normalize();
        }
        let (automaton, stats) = convert_with_stats(&compiled.graph, &self.convert_opts)?;
        let simd = generate(
            &automaton,
            compiled.layout.poly_words,
            compiled.layout.mono_words,
            &self.gen_opts,
        )?;
        Ok(Built {
            compiled,
            automaton,
            stats,
            simd,
        })
    }

    /// Turn the pipeline into an [`msc_engine::Job`] with the given label,
    /// for submission to an [`Engine`] (canonical conversion, compile
    /// cache, batching).
    pub fn into_job(self, name: impl Into<String>) -> Job {
        Job {
            name: name.into(),
            source: self.src,
            convert: self.convert_opts,
            gen: self.gen_opts,
            optimize: self.optimize,
            minimize: self.minimize,
        }
    }

    /// Run the pipeline through an [`Engine`]: the result may be served
    /// from the engine's cache. The
    /// returned [`Compiled`] carries the artifact plus its provenance
    /// (fresh / memory hit / disk hit). Note the engine canonicalizes the
    /// automaton (deterministic BFS renumbering), so meta-state *numbering*
    /// can differ from [`build`](Self::build) even though the structure is
    /// identical.
    pub fn build_with(
        self,
        engine: &Engine,
        name: impl Into<String>,
    ) -> Result<Compiled, PipelineError> {
        Ok(engine.compile(&self.into_job(name))?)
    }
}

/// The output of every pipeline stage.
#[derive(Debug, Clone)]
pub struct Built {
    /// Front-end output: normalized MIMD state graph + memory layout.
    pub compiled: Program,
    /// The meta-state automaton.
    pub automaton: MetaAutomaton,
    /// Conversion statistics (restarts, splits, subsumptions).
    pub stats: ConvertStats,
    /// The executable SIMD program.
    pub simd: SimdProgram,
}

/// A finished SIMD run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Machine state after the run (memory inspection).
    pub machine: SimdMachine,
    /// Execution metrics.
    pub metrics: Metrics,
}

impl Built {
    /// Execute on `n_pe` PEs, all live (SPMD).
    pub fn run(&self, n_pe: usize) -> Result<RunOutput, RunError> {
        self.run_with(MachineConfig::spmd(n_pe))
    }

    /// Execute under an explicit machine configuration.
    pub fn run_with(&self, config: MachineConfig) -> Result<RunOutput, RunError> {
        let mut machine = SimdMachine::new(&self.simd, &config);
        let metrics = machine.run(&self.simd, &config)?;
        Ok(RunOutput { machine, metrics })
    }

    /// Where `main`'s return value lands (per PE).
    pub fn ret_addr(&self) -> Option<msc_ir::Addr> {
        self.compiled.layout.main_ret
    }

    /// MPL-like rendering of the generated program (Listing 5 style).
    pub fn mpl(&self) -> String {
        msc_codegen::render::render_mpl(&self.simd)
    }

    /// Text rendering of the meta-state automaton.
    pub fn automaton_text(&self) -> String {
        self.automaton.text()
    }
}
